//! What a GC pass and a flush ask about *blocks*, answered without
//! walking them.
//!
//! * [`VictimIndex`] — which block would the §3.6 collector pick? A
//!   tournament tree over block ids holds each block's valid-page count
//!   if the block is a candidate (closed, programmed, not owned by the
//!   translation log) and [`NOT_A_CANDIDATE`]
//!   otherwise; every inner node holds the minimum below it and ties go
//!   left, so the root answers "fewest valid pages, lowest block id" —
//!   exactly what a scan of the blocks in id order picks. Whoever
//!   changes something a block's key depends on only *marks* the block
//!   (a flag and a list push); the owner recomputes the marked keys at
//!   the next selection, so a flush that invalidates 256 pages of one
//!   block costs that block one tree update, not 256.
//! * [`EraseHistogram`] — how far apart are the most and the least
//!   worn block? Blocks per erase count, with the extremes kept
//!   current, so wear levelling can tell "no swap is due" in O(1).
//!
//! Both are derived state: rebuilt from the device, never persisted,
//! never part of a snapshot.

use leaftl_flash::BlockId;

/// Tree key of a block GC must not pick.
pub(crate) const NOT_A_CANDIDATE: u32 = u32::MAX;

#[cfg(test)]
thread_local! {
    /// Wear checks on this thread that got past [`EraseHistogram`] and
    /// walked the blocks. Unit tests bound the wear check's work with it.
    pub(crate) static WEAR_WALKS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Notes that a wear check walked the blocks (counted in unit tests).
#[inline]
pub(crate) fn note_wear_walk() {
    #[cfg(test)]
    WEAR_WALKS.with(|walks| walks.set(walks.get() + 1));
}

/// Min-tournament tree over per-block victim keys, with lazy refresh.
#[derive(Debug, Clone)]
pub(crate) struct VictimIndex {
    /// `tree[1]` is the root, `tree[2i]`/`tree[2i + 1]` the children of
    /// `tree[i]`, `tree[leaves + b]` the key of block `b`. Leaves past
    /// the last block stay [`NOT_A_CANDIDATE`].
    tree: Vec<u32>,
    /// Leaf count: the block count rounded up to a power of two.
    leaves: usize,
    /// Blocks whose key may be out of date, each listed once in
    /// `dirty_list`.
    dirty: Vec<bool>,
    dirty_list: Vec<BlockId>,
    /// Keys each refresh round re-read, oldest first: a round is the
    /// [`VictimIndex::pop_dirty`] calls up to the one that finds the
    /// list empty. Unit tests bound selection's work with it.
    #[cfg(test)]
    pub rereads: Vec<usize>,
    #[cfg(test)]
    popped: usize,
}

impl VictimIndex {
    /// An index over `blocks` blocks, none a candidate.
    pub fn new(blocks: usize) -> Self {
        let leaves = blocks.next_power_of_two();
        VictimIndex {
            tree: vec![NOT_A_CANDIDATE; 2 * leaves],
            leaves,
            dirty: vec![false; blocks],
            dirty_list: Vec::new(),
            #[cfg(test)]
            rereads: Vec::new(),
            #[cfg(test)]
            popped: 0,
        }
    }

    /// An index over `blocks` blocks keyed by `key_of`, nothing dirty.
    pub fn from_keys(blocks: usize, key_of: impl Fn(BlockId) -> u32) -> Self {
        let mut index = VictimIndex::new(blocks);
        for raw in 0..blocks {
            index.tree[index.leaves + raw] = key_of(BlockId::new(raw as u64));
        }
        for node in (1..index.leaves).rev() {
            index.tree[node] = index.tree[2 * node].min(index.tree[2 * node + 1]);
        }
        index
    }

    /// Notes that something `block`'s key depends on changed.
    #[inline]
    pub fn touch(&mut self, block: BlockId) {
        let flag = &mut self.dirty[block.raw() as usize];
        if !*flag {
            *flag = true;
            self.dirty_list.push(block);
        }
    }

    /// Takes the next block whose key must be recomputed; the caller
    /// answers with [`VictimIndex::refresh`].
    pub fn pop_dirty(&mut self) -> Option<BlockId> {
        let block = self.dirty_list.pop();
        #[cfg(test)]
        match block {
            Some(_) => self.popped += 1,
            None => self.rereads.push(std::mem::take(&mut self.popped)),
        }
        block
    }

    /// Stores `block`'s recomputed key and clears its dirty mark.
    pub fn refresh(&mut self, block: BlockId, key: u32) {
        let raw = block.raw() as usize;
        self.dirty[raw] = false;
        let mut node = self.leaves + raw;
        if self.tree[node] == key {
            return;
        }
        self.tree[node] = key;
        while node > 1 {
            node /= 2;
            let min = self.tree[2 * node].min(self.tree[2 * node + 1]);
            if self.tree[node] == min {
                break;
            }
            self.tree[node] = min;
        }
    }

    /// Whether some candidate's key is below `limit`: one read of the
    /// root.
    pub fn any_below(&self, limit: u32) -> bool {
        self.tree[1] < limit
    }

    /// The candidate with the smallest key below `limit`, lowest block
    /// id first among equals, as `(key, block)`.
    pub fn first_below(&self, limit: u32) -> Option<(u32, BlockId)> {
        let key = self.tree[1];
        if key >= limit {
            return None;
        }
        let mut node = 1;
        while node < self.leaves {
            node *= 2;
            if self.tree[node] != key {
                node += 1;
            }
        }
        Some((key, BlockId::new((node - self.leaves) as u64)))
    }

    /// Calls `visit(block, key)` for every candidate with a key below
    /// `limit`, in block order, descending only into subtrees that hold
    /// one.
    pub fn for_each_below(&self, limit: u32, visit: &mut impl FnMut(BlockId, u32)) {
        self.visit_below(1, limit, visit);
    }

    fn visit_below(&self, node: usize, limit: u32, visit: &mut impl FnMut(BlockId, u32)) {
        if self.tree[node] >= limit {
            return;
        }
        if node >= self.leaves {
            visit(BlockId::new((node - self.leaves) as u64), self.tree[node]);
        } else {
            self.visit_below(2 * node, limit, visit);
            self.visit_below(2 * node + 1, limit, visit);
        }
    }

    /// Checks the index against `key_of`, the key each block should
    /// have: clean leaves hold it, inner nodes the minimum of their
    /// children, and the dirty flags match their list. One line per
    /// disagreement.
    pub fn check(&self, key_of: impl Fn(BlockId) -> u32) -> Vec<String> {
        let mut violations = Vec::new();
        for (raw, &dirty) in self.dirty.iter().enumerate() {
            let block = BlockId::new(raw as u64);
            let leaf = self.tree[self.leaves + raw];
            let expected = key_of(block);
            if !dirty && leaf != expected {
                violations.push(format!(
                    "block {raw}: clean leaf holds {leaf}, the device says {expected}"
                ));
            }
            if dirty != self.dirty_list.contains(&block) {
                violations.push(format!("block {raw}: dirty flag and list disagree"));
            }
        }
        let mut sorted = self.dirty_list.clone();
        sorted.sort_unstable();
        if sorted.windows(2).any(|pair| pair[0] == pair[1]) {
            violations.push("a block is listed twice".to_string());
        }
        for node in 1..self.leaves {
            if self.tree[node] != self.tree[2 * node].min(self.tree[2 * node + 1]) {
                violations.push(format!("node {node} is not the minimum of its children"));
            }
        }
        violations
    }
}

/// Blocks per erase count, with the smallest and largest occupied
/// count kept current. Erase counts only grow, so the minimum only
/// moves up: its upkeep is amortised over the erases that empty a
/// count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct EraseHistogram {
    /// `blocks[c]` = blocks erased exactly `c` times.
    blocks: Vec<u32>,
    min: u32,
    max: u32,
}

impl EraseHistogram {
    /// The histogram of the given per-block erase counts.
    pub fn new(counts: impl Iterator<Item = u32>) -> Self {
        let mut blocks: Vec<u32> = Vec::new();
        for count in counts {
            if blocks.len() <= count as usize {
                blocks.resize(count as usize + 1, 0);
            }
            blocks[count as usize] += 1;
        }
        let min = blocks.iter().position(|&n| n > 0).unwrap_or(0) as u32;
        let max = blocks.len().saturating_sub(1) as u32;
        EraseHistogram { blocks, min, max }
    }

    /// Moves one block from `count` to `count + 1` erases.
    pub fn note_erase(&mut self, count: u32) {
        let new = count as usize + 1;
        if self.blocks.len() <= new {
            self.blocks.resize(new + 1, 0);
        }
        self.blocks[count as usize] -= 1;
        self.blocks[new] += 1;
        self.max = self.max.max(new as u32);
        while self.blocks[self.min as usize] == 0 {
            self.min += 1;
        }
    }

    /// Largest erase count minus smallest.
    pub fn spread(&self) -> u32 {
        self.max - self.min
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(raw: u64) -> BlockId {
        BlockId::new(raw)
    }

    #[test]
    fn root_is_fewest_valid_then_lowest_id() {
        // Ten blocks: not a power of two, so padding leaves exist.
        let keys = [7, 3, NOT_A_CANDIDATE, 3, 9, 32, 3, 5, 1, 1];
        let index = VictimIndex::from_keys(keys.len(), |b| keys[b.raw() as usize]);
        assert_eq!(index.first_below(32), Some((1, block(8))));
        assert!(index.any_below(32) && index.any_below(2));
        assert_eq!(index.first_below(1), None);
        assert!(!index.any_below(1));
        let mut seen = Vec::new();
        index.for_each_below(32, &mut |b, key| seen.push((b.raw(), key)));
        let expected: Vec<(u64, u32)> = keys
            .iter()
            .enumerate()
            .filter(|(_, &key)| key < 32)
            .map(|(raw, &key)| (raw as u64, key))
            .collect();
        assert_eq!(seen, expected);
        assert!(index.check(|b| keys[b.raw() as usize]).is_empty());
    }

    #[test]
    fn marks_are_folded_in_by_refresh() {
        let mut keys = [4u32; 6];
        let mut index = VictimIndex::from_keys(keys.len(), |b| keys[b.raw() as usize]);
        keys[5] = 2;
        index.touch(block(5));
        index.touch(block(5));
        // Not yet refreshed: the tree still answers from the old key,
        // and the check tolerates exactly the marked block.
        assert_eq!(index.first_below(32), Some((4, block(0))));
        assert!(index.check(|b| keys[b.raw() as usize]).is_empty());
        assert_eq!(index.pop_dirty(), Some(block(5)));
        assert_eq!(index.pop_dirty(), None);
        index.refresh(block(5), 2);
        assert_eq!(index.first_below(32), Some((2, block(5))));
        assert!(index.check(|b| keys[b.raw() as usize]).is_empty());
    }

    #[test]
    fn histogram_tracks_the_extremes() {
        let mut counts = [0u32; 5];
        let mut histogram = EraseHistogram::new(counts.iter().copied());
        assert_eq!(histogram.spread(), 0);
        for (raw, times) in [(0usize, 3u32), (1, 1), (2, 1), (3, 1)] {
            for _ in 0..times {
                histogram.note_erase(counts[raw]);
                counts[raw] += 1;
            }
        }
        assert_eq!(histogram.spread(), 3, "block 4 was never erased");
        histogram.note_erase(counts[4]);
        counts[4] += 1;
        assert_eq!(histogram.spread(), 2);
        assert_eq!(histogram, EraseHistogram::new(counts.iter().copied()));
    }
}
