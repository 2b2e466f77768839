//! Page validity tracking: the Block Validity Counter (BVC) and Page
//! Validity Table (PVT) of Fig. 3 in the paper.

use leaftl_flash::{BlockId, FlashGeometry, Ppa};
use serde::{Deserialize, Serialize};

/// BVC + PVT: per-block valid-page counters backed by bitmaps.
///
/// GC consults the counters to pick min-valid victims and the bitmaps to
/// find the pages to migrate.
///
/// The three mutators list the block they touch, once, so that a copy
/// kept from an earlier moment — the recovery baseline of a persistence
/// point (§3.8) — is brought up to date by
/// [`Validity::sync_checkpoint`] at the cost of the blocks touched
/// since, not of the device.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Validity {
    geometry: FlashGeometry,
    /// PVT: one bit per page.
    bitmaps: Vec<u64>,
    /// BVC: valid pages per block.
    counts: Vec<u32>,
    /// Blocks whose bits or count changed since the last sync — exactly
    /// the blocks `touched_mark` flags, each once.
    touched: Vec<u32>,
    touched_mark: Vec<bool>,
}

impl Validity {
    /// All pages invalid (nothing written yet).
    pub fn new(geometry: FlashGeometry) -> Self {
        let words = (geometry.total_pages() as usize).div_ceil(64);
        Validity {
            geometry,
            bitmaps: vec![0; words],
            counts: vec![0; geometry.blocks as usize],
            touched: Vec::new(),
            touched_mark: vec![false; geometry.blocks as usize],
        }
    }

    /// Lists `block` as changed since the last sync and returns its
    /// index.
    fn touch(&mut self, block: BlockId) -> usize {
        let index = block.raw() as usize;
        if !self.touched_mark[index] {
            self.touched_mark[index] = true;
            self.touched.push(index as u32);
        }
        index
    }

    fn locate(&self, ppa: Ppa) -> (usize, u64) {
        let raw = ppa.raw();
        ((raw / 64) as usize, 1u64 << (raw % 64))
    }

    /// Whether a page holds live data.
    pub fn is_valid(&self, ppa: Ppa) -> bool {
        let (word, bit) = self.locate(ppa);
        self.bitmaps[word] & bit != 0
    }

    /// Marks a freshly programmed page live.
    pub fn mark_valid(&mut self, ppa: Ppa) {
        let (word, bit) = self.locate(ppa);
        if self.bitmaps[word] & bit == 0 {
            self.bitmaps[word] |= bit;
            let block = self.touch(self.geometry.block_of(ppa));
            self.counts[block] += 1;
        }
    }

    /// Marks a page stale (its LPA was rewritten elsewhere). Idempotent.
    pub fn invalidate(&mut self, ppa: Ppa) {
        let (word, bit) = self.locate(ppa);
        if self.bitmaps[word] & bit != 0 {
            self.bitmaps[word] &= !bit;
            let block = self.touch(self.geometry.block_of(ppa));
            self.counts[block] -= 1;
        }
    }

    /// Valid-page count of a block (the BVC entry).
    pub fn valid_count(&self, block: BlockId) -> u32 {
        self.counts[block.raw() as usize]
    }

    /// The bitmap words holding `block`'s pages, each with the mask of
    /// the block's bits in it (a block need not start or end on a word
    /// boundary, and small blocks share a word).
    fn block_words(&self, block: BlockId) -> impl Iterator<Item = (usize, u64)> {
        let first = self.geometry.first_ppa(block).raw();
        let end = first + self.geometry.pages_per_block as u64;
        (first / 64..end.div_ceil(64)).map(move |word| {
            let low = first.max(word * 64) - word * 64;
            let high = end.min((word + 1) * 64) - word * 64;
            (word as usize, (u64::MAX >> (64 - (high - low))) << low)
        })
    }

    /// Clears every bit of a block after erase, and its BVC entry.
    pub fn clear_block(&mut self, block: BlockId) {
        for (word, mask) in self.block_words(block) {
            self.bitmaps[word] &= !mask;
        }
        let block = self.touch(block);
        self.counts[block] = 0;
    }

    /// Blocks whose bits or count changed since the last sync: the BVC
    /// entries the next persistence point has to write.
    pub fn touched_blocks(&self) -> usize {
        self.touched.len()
    }

    /// Brings `checkpoint` — what this map was when this last ran on
    /// it, or any clone of it taken since — up to date, as
    /// `*checkpoint = self.clone()` would: the bitmap words and the
    /// counter of every block touched since are copied, and the list
    /// (with whatever a clone had listed itself) is forgotten. Returns
    /// the number of blocks written. Debug builds check the result
    /// against the whole map.
    pub fn sync_checkpoint(&mut self, checkpoint: &mut Validity) -> usize {
        for index in checkpoint.touched.drain(..) {
            checkpoint.touched_mark[index as usize] = false;
        }
        let written = self.touched.len();
        for at in 0..written {
            let index = self.touched[at] as usize;
            for (word, mask) in self.block_words(BlockId::new(index as u64)) {
                checkpoint.bitmaps[word] =
                    (checkpoint.bitmaps[word] & !mask) | (self.bitmaps[word] & mask);
            }
            checkpoint.counts[index] = self.counts[index];
            self.touched_mark[index] = false;
        }
        self.touched.clear();
        debug_assert!(
            self.bitmaps == checkpoint.bitmaps && self.counts == checkpoint.counts,
            "a synced checkpoint is a clone of the validity map"
        );
        written
    }

    /// Replaces `out` with the PPAs of the live pages in a block, in
    /// page order.
    pub fn valid_pages(&self, block: BlockId, out: &mut Vec<Ppa>) {
        out.clear();
        for (word, mask) in self.block_words(block) {
            let mut live = self.bitmaps[word] & mask;
            while live != 0 {
                out.push(Ppa::new(word as u64 * 64 + live.trailing_zeros() as u64));
                live &= live - 1;
            }
        }
    }

    /// Total live pages on the device.
    pub fn total_valid(&self) -> u64 {
        self.counts.iter().map(|&c| c as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn validity() -> Validity {
        Validity::new(FlashGeometry::small_test())
    }

    #[test]
    fn mark_and_invalidate() {
        let mut v = validity();
        let ppa = Ppa::new(5);
        assert!(!v.is_valid(ppa));
        v.mark_valid(ppa);
        assert!(v.is_valid(ppa));
        assert_eq!(v.valid_count(BlockId::new(0)), 1);
        v.invalidate(ppa);
        assert!(!v.is_valid(ppa));
        assert_eq!(v.valid_count(BlockId::new(0)), 0);
    }

    #[test]
    fn idempotent_operations() {
        let mut v = validity();
        let ppa = Ppa::new(40); // block 1
        v.mark_valid(ppa);
        v.mark_valid(ppa);
        assert_eq!(v.valid_count(BlockId::new(1)), 1);
        v.invalidate(ppa);
        v.invalidate(ppa);
        assert_eq!(v.valid_count(BlockId::new(1)), 0);
    }

    fn valid_pages(v: &Validity, block: u64) -> Vec<Ppa> {
        let mut out = vec![Ppa::new(u64::MAX)]; // stale content must go
        v.valid_pages(BlockId::new(block), &mut out);
        out
    }

    #[test]
    fn valid_pages_in_order() {
        let mut v = validity();
        v.mark_valid(Ppa::new(3));
        v.mark_valid(Ppa::new(1));
        v.mark_valid(Ppa::new(31));
        v.mark_valid(Ppa::new(32)); // block 1, same bitmap word
        assert_eq!(
            valid_pages(&v, 0),
            vec![Ppa::new(1), Ppa::new(3), Ppa::new(31)]
        );
        assert_eq!(valid_pages(&v, 1), vec![Ppa::new(32)]);
        assert!(valid_pages(&v, 2).is_empty());
    }

    #[test]
    fn clear_block_resets_counts() {
        let mut v = validity();
        for i in 0..10 {
            v.mark_valid(Ppa::new(i));
        }
        assert_eq!(v.valid_count(BlockId::new(0)), 10);
        v.clear_block(BlockId::new(0));
        assert_eq!(v.valid_count(BlockId::new(0)), 0);
        assert_eq!(v.total_valid(), 0);
    }

    /// Blocks that share a bitmap word, fill whole words or straddle
    /// word boundaries: clearing one and listing one must agree with
    /// the page-at-a-time definitions and leave the neighbours alone.
    #[test]
    fn word_walks_match_the_per_page_definitions() {
        for pages_per_block in [1u32, 8, 24, 32, 64, 100, 256] {
            let mut geometry = FlashGeometry::small_test();
            geometry.pages_per_block = pages_per_block;
            geometry.blocks = 5;
            let mut v = Validity::new(geometry);
            // Every page but each third one live, in every block.
            for raw in (0..geometry.total_pages()).filter(|raw| raw % 3 != 0) {
                v.mark_valid(Ppa::new(raw));
            }
            for block in (0..geometry.blocks).map(BlockId::new) {
                let want: Vec<Ppa> = (0..pages_per_block)
                    .map(|page| geometry.ppa(block, page))
                    .filter(|&ppa| v.is_valid(ppa))
                    .collect();
                assert_eq!(v.valid_count(block) as usize, want.len());
                assert_eq!(valid_pages(&v, block.raw()), want, "{pages_per_block}");
            }
            let before = v.total_valid();
            let cleared = v.valid_count(BlockId::new(2)) as u64;
            v.clear_block(BlockId::new(2));
            assert_eq!(v.total_valid(), before - cleared);
            for raw in 0..geometry.total_pages() {
                let ppa = Ppa::new(raw);
                let live = raw % 3 != 0 && geometry.block_of(ppa) != BlockId::new(2);
                assert_eq!(v.is_valid(ppa), live, "{pages_per_block} pages, {ppa}");
            }
        }
    }

    #[test]
    fn touched_blocks_lists_each_changed_block_once_until_the_sync() {
        let mut v = validity();
        let mut checkpoint = v.clone();
        assert_eq!(v.touched_blocks(), 0);
        v.mark_valid(Ppa::new(1));
        v.mark_valid(Ppa::new(2));
        v.invalidate(Ppa::new(1)); // block 0, three times
        v.mark_valid(Ppa::new(40)); // block 1
        v.invalidate(Ppa::new(70)); // block 2, never valid: no change
        v.clear_block(BlockId::new(3));
        assert_eq!(v.touched_blocks(), 3);
        assert_eq!(v.sync_checkpoint(&mut checkpoint), 3);
        assert_eq!(v.touched_blocks(), 0);
        assert!(checkpoint.is_valid(Ppa::new(2)) && !checkpoint.is_valid(Ppa::new(1)));
    }
}
