//! Flash-block allocation with die striping.
//!
//! Hands out runs of physically consecutive pages. Each stream (host
//! flushes vs GC/wear migrations) keeps one open block per *way* —
//! one way per die (LUN) on realistically sized devices — and a flush
//! is striped over the ways in contiguous chunks so the programs
//! proceed in parallel while each chunk still receives consecutive
//! PPAs — LeaFTL's "allocate consecutive PPAs to contiguous LPAs at
//! its best effort" (§3.3). Earlier revisions opened one block per
//! *channel*, which left `dies_per_channel − 1` of every channel's
//! dies idle during a flush; per-die striping lets a single flush
//! program `dies_per_channel×` more pages concurrently. On tiny
//! devices (few blocks per die — scaled-down experiments) the way
//! count is capped at an eighth of the block count so that open
//! blocks — invisible to GC victim selection — can never pin more
//! than a quarter of the device across both streams. Allocation
//! order is recorded for crash recovery (§3.8): the scanner replays
//! blocks in allocation order to rebuild mappings newest-last.
//!
//! "Invisible" is a per-block state (free / open / closed) kept at the
//! only places it changes — a slot taking a fresh block
//! (`take_chunk`), [`BlockAllocator::take_block`],
//! [`BlockAllocator::release`], [`BlockAllocator::rebuild_after_crash`]
//! — so [`BlockAllocator::is_open`] is one load and
//! [`BlockAllocator::free_blocks`] a counter, whatever the device
//! size. A block stays open until its slot is *replaced*, not until it
//! is full; the blocks a request pushes out of their slots are handed
//! over by [`BlockAllocator::take_closed`], which is how the SSD's
//! victim index learns that they have become GC candidates.

use leaftl_flash::{BlockId, FlashGeometry, Ppa};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Allocation stream: host writes vs GC/wear migrations vs the
/// flash-resident translation log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Stream {
    /// Host buffer flushes.
    Host,
    /// GC and wear-levelling migrations.
    Gc,
    /// Translation-log appends (checkpoints and flush deltas under
    /// [`crate::CheckpointMode::FlashLog`]).
    MapLog,
}

impl Stream {
    /// Position in the allocator's per-stream arrays.
    fn index(self) -> usize {
        self as usize
    }
}

/// A run of consecutive pages within one block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageRun {
    /// Block owning the run.
    pub block: BlockId,
    /// First PPA of the run.
    pub first: Ppa,
    /// Number of pages.
    pub len: u32,
}

impl PageRun {
    /// Iterates the PPAs of the run.
    pub fn ppas(&self) -> impl Iterator<Item = Ppa> + '_ {
        (0..self.len as u64).map(move |i| self.first.offset(i))
    }
}

#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct OpenBlock {
    block: BlockId,
    next_page: u32,
}

/// Where a block stands with the allocator. Kept per block at the only
/// places a block changes pool or a slot changes block, so that
/// [`BlockAllocator::is_open`] is one load.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
enum BlockState {
    /// Erased and in its way's free pool.
    Free,
    /// In a stream's open slot. A slot keeps its block, full or not,
    /// until the stream next needs room there.
    Open,
    /// Handed out and in no slot: replaced by a newer block, taken
    /// whole by [`BlockAllocator::take_block`], or abandoned by a
    /// crash.
    Closed,
}

/// Free-block pools (per way) plus per-stream, per-way open blocks.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BlockAllocator {
    geometry: FlashGeometry,
    /// Striping ways: `total_dies` on realistically sized devices,
    /// capped at `blocks / 8` on tiny ones (see module docs).
    ways: usize,
    /// Preferred chunk size when striping a request across ways.
    /// Block-sized chunks (the paper's flush granularity) maximise
    /// learned-segment length; smaller chunks trade segment length for
    /// lower flush latency on small buffers.
    stripe_pages: u32,
    free: Vec<VecDeque<BlockId>>,
    /// Blocks across all pools (`Σ free[way].len()`).
    free_count: usize,
    /// Every block's standing, by block id.
    state: Vec<BlockState>,
    /// Open slots per stream ([`Stream::index`]), one per way. The
    /// translation log only ever uses slot 0.
    open: [Vec<Option<OpenBlock>>; 3],
    /// Per stream: the next way to stripe onto (host, GC) or to refill
    /// the log's slot from (round-robin).
    cursor: [usize; 3],
    /// Blocks pushed out of an open slot since the last
    /// [`BlockAllocator::take_closed`].
    closed: Vec<BlockId>,
}

impl BlockAllocator {
    /// All blocks free, partitioned into per-way pools; block-granular
    /// striping.
    pub fn new(geometry: FlashGeometry) -> Self {
        BlockAllocator::with_stripe(geometry, geometry.pages_per_block)
    }

    /// Striping width for a geometry: one way per die, capped so the
    /// open blocks of both streams can pin at most a quarter of the
    /// device.
    fn ways_for(geometry: &FlashGeometry) -> usize {
        (geometry.total_dies() as usize).min(((geometry.blocks / 8).max(1)) as usize)
    }

    /// Blocks the host and GC streams' open slots can hold at once: one
    /// per way each. A slot keeps its block, full or not, until the
    /// stream next needs room there, and no slot's block is a GC
    /// candidate.
    pub(crate) fn slot_blocks(geometry: &FlashGeometry) -> usize {
        2 * Self::ways_for(geometry)
    }

    /// Pages per chunk when a request of `pages` stripes over `ways`
    /// ways: an even share of the request, no smaller than the
    /// preferred chunk and no larger than a block.
    fn chunk_for(geometry: &FlashGeometry, ways: usize, stripe_pages: u32, pages: u32) -> u32 {
        pages
            .div_ceil(ways as u32)
            .max(stripe_pages)
            .min(geometry.pages_per_block)
    }

    /// Blocks one request of `pages` pages stripes over: one per chunk,
    /// at most one per way — what it opens when the slots it lands on
    /// are full. For a buffer flush, the free blocks it can take before
    /// the GC behind it runs.
    pub(crate) fn blocks_opened_by(
        geometry: &FlashGeometry,
        stripe_pages: u32,
        pages: u32,
    ) -> usize {
        let ways = Self::ways_for(geometry);
        let stripe = stripe_pages.clamp(1, geometry.pages_per_block);
        let chunk = Self::chunk_for(geometry, ways, stripe, pages);
        (pages.div_ceil(chunk) as usize).min(ways)
    }

    /// The pool a block belongs to. Dies map onto ways by modulo, so
    /// on full-size devices this is exactly the block's die.
    fn way_of_block(&self, block: BlockId) -> usize {
        self.geometry.die_of_block(block).raw() as usize % self.ways
    }

    /// Like [`BlockAllocator::new`] with an explicit stripe chunk size.
    pub fn with_stripe(geometry: FlashGeometry, stripe_pages: u32) -> Self {
        let ways = Self::ways_for(&geometry);
        let mut allocator = BlockAllocator {
            geometry,
            ways,
            stripe_pages: stripe_pages.clamp(1, geometry.pages_per_block),
            free: vec![VecDeque::new(); ways],
            free_count: geometry.blocks as usize,
            state: vec![BlockState::Free; geometry.blocks as usize],
            open: std::array::from_fn(|_| vec![None; ways]),
            cursor: [0; 3],
            closed: Vec::new(),
        };
        for raw in 0..geometry.blocks {
            let block = BlockId::new(raw);
            let way = allocator.way_of_block(block);
            allocator.free[way].push_back(block);
        }
        allocator
    }

    /// Number of fully free blocks (open blocks excluded).
    pub fn free_blocks(&self) -> usize {
        self.free_count
    }

    /// Free fraction of the whole device.
    pub fn free_fraction(&self) -> f64 {
        self.free_blocks() as f64 / self.geometry.blocks as f64
    }

    /// Returns a previously erased block to its way's pool.
    pub fn release(&mut self, block: BlockId) {
        let way = self.way_of_block(block);
        let state = &mut self.state[block.raw() as usize];
        debug_assert_eq!(*state, BlockState::Closed, "release of {block:?}");
        *state = BlockState::Free;
        self.free_count += 1;
        self.free[way].push_back(block);
    }

    /// Drains the blocks that left an open slot — replaced by a fresh
    /// block — since the last call. Leaving its slot is what exposes a
    /// block to GC victim selection, so whoever indexes victims asks
    /// after every [`BlockAllocator::allocate`].
    pub fn take_closed(&mut self) -> impl Iterator<Item = BlockId> + '_ {
        self.closed.drain(..)
    }

    /// Whether `block` is currently open on any stream.
    pub fn is_open(&self, block: BlockId) -> bool {
        self.state[block.raw() as usize] == BlockState::Open
    }

    /// Checks the per-block state and the free counter against what
    /// they summarise — a walk of every open slot and every pool —
    /// returning one line per disagreement (empty = consistent). Linear
    /// in the device; for tests and invariant checks.
    pub fn check_state(&self) -> Vec<String> {
        let mut expected = vec![BlockState::Closed; self.state.len()];
        for block in self.free.iter().flatten() {
            expected[block.raw() as usize] = BlockState::Free;
        }
        for open in self.open.iter().flatten().flatten() {
            expected[open.block.raw() as usize] = BlockState::Open;
        }
        let mut violations: Vec<String> = expected
            .iter()
            .zip(&self.state)
            .enumerate()
            .filter(|(_, (expected, kept))| expected != kept)
            .map(|(block, (expected, kept))| {
                format!("block {block}: state {kept:?}, pools and slots say {expected:?}")
            })
            .collect();
        let pooled: usize = self.free.iter().map(VecDeque::len).sum();
        if pooled != self.free_count {
            violations.push(format!(
                "free_blocks {} but the pools hold {pooled}",
                self.free_count
            ));
        }
        violations
    }

    /// Total pages obtainable right now: room in open blocks plus free
    /// blocks. The translation log keeps a single open block (slot 0),
    /// so only that slot's room counts for it.
    fn available_pages(&self, stream: Stream) -> u64 {
        let open_room: u64 = self.open[stream.index()]
            .iter()
            .flatten()
            .map(|o| (self.geometry.pages_per_block - o.next_page) as u64)
            .sum();
        open_room + self.free_blocks() as u64 * self.geometry.pages_per_block as u64
    }

    /// Whether a request for `pages` pages on `stream` would succeed
    /// right now (no side effects).
    pub fn can_allocate(&self, stream: Stream, pages: u32) -> bool {
        self.available_pages(stream) >= pages as u64
    }

    /// Removes a specific block from the free pool (wear levelling
    /// targets a particular worn block). Returns whether it was free.
    pub fn take_block(&mut self, block: BlockId) -> bool {
        let way = self.way_of_block(block);
        if let Some(pos) = self.free[way].iter().position(|&b| b == block) {
            self.free[way].remove(pos);
            self.free_count -= 1;
            self.state[block.raw() as usize] = BlockState::Closed;
            true
        } else {
            false
        }
    }

    /// Resets the free pools and open blocks after a crash: the free
    /// set is re-derived from the physical erase state; open blocks are
    /// abandoned (their unwritten tail pages are reclaimed by GC).
    pub fn rebuild_after_crash(&mut self, free: Vec<BlockId>) {
        self.free = vec![VecDeque::new(); self.ways];
        self.free_count = free.len();
        self.state.fill(BlockState::Closed);
        for block in free {
            let way = self.way_of_block(block);
            self.free[way].push_back(block);
            self.state[block.raw() as usize] = BlockState::Free;
        }
        self.open = std::array::from_fn(|_| vec![None; self.ways]);
        self.cursor = [0; 3];
        self.closed.clear();
    }

    /// Allocates `pages` as consecutive-page runs striped across the
    /// ways, continuing each way's open block and opening new blocks
    /// as needed. Returns `None` (allocating nothing) when the pools
    /// cannot satisfy the request — the caller must GC first.
    pub fn allocate(&mut self, stream: Stream, pages: u32) -> Option<Vec<PageRun>> {
        if !self.can_allocate(stream, pages) {
            return None;
        }
        let ways = self.ways;
        let stripe = Self::chunk_for(&self.geometry, ways, self.stripe_pages, pages);
        let mut runs: Vec<PageRun> = Vec::new();
        let mut remaining = pages;
        let mut stalled_ways = 0usize;
        while remaining > 0 {
            // Host and GC requests stripe round-robin over the ways.
            // The translation log is a sequential journal, not a
            // striped flush: it fills exactly one open block at a time
            // (slot 0) so superseded log blocks close (and become
            // reclaimable by retention) as fast as possible, and the
            // log pins a single block instead of one per way.
            let slot = match stream {
                Stream::Host | Stream::Gc => {
                    let cursor = &mut self.cursor[stream.index()];
                    let way = *cursor;
                    *cursor = (way + 1) % ways;
                    way
                }
                Stream::MapLog => 0,
            };
            let Some(run) = self.take_chunk(stream, slot, stripe.min(remaining)) else {
                stalled_ways += 1;
                // All ways dry would contradict `can_allocate`;
                // guard against infinite spin regardless.
                if stalled_ways > 2 * ways {
                    debug_assert!(false, "allocator spin despite capacity check");
                    return None;
                }
                continue;
            };
            stalled_ways = 0;
            remaining -= run.len;
            runs.push(run);
        }
        Some(runs)
    }

    /// Takes up to `want` pages from the block in `stream`'s open slot
    /// `slot`, first putting a fresh block there when the slot is empty
    /// or its block full. This is the only place a slot changes block:
    /// the block it held closes here, and the per-block state follows.
    /// Host and GC slots refill from their own way's pool; the log's
    /// slot refills round-robin from any way's, so log traffic still
    /// spreads wear across dies.
    fn take_chunk(&mut self, stream: Stream, slot: usize, want: u32) -> Option<PageRun> {
        let pages_per_block = self.geometry.pages_per_block;
        let open = match self.open[stream.index()][slot] {
            Some(open) if open.next_page < pages_per_block => open,
            replaced => {
                let block = match stream {
                    Stream::Host | Stream::Gc => self.free[slot].pop_front()?,
                    Stream::MapLog => self.pop_round_robin()?,
                };
                if let Some(closed) = replaced {
                    self.state[closed.block.raw() as usize] = BlockState::Closed;
                    self.closed.push(closed.block);
                }
                self.state[block.raw() as usize] = BlockState::Open;
                self.free_count -= 1;
                OpenBlock {
                    block,
                    next_page: 0,
                }
            }
        };
        let take = (pages_per_block - open.next_page).min(want);
        self.open[stream.index()][slot] = Some(OpenBlock {
            block: open.block,
            next_page: open.next_page + take,
        });
        Some(PageRun {
            block: open.block,
            first: self.geometry.ppa(open.block, open.next_page),
            len: take,
        })
    }

    /// Pops a free block from the first non-empty pool at or after the
    /// log's way cursor, and moves the cursor past it.
    fn pop_round_robin(&mut self) -> Option<BlockId> {
        let cursor = self.cursor[Stream::MapLog.index()];
        (0..self.ways)
            .map(|i| (cursor + i) % self.ways)
            .find_map(|way| {
                let block = self.free[way].pop_front()?;
                self.cursor[Stream::MapLog.index()] = (way + 1) % self.ways;
                Some(block)
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leaftl_flash::FlashGeometry;

    fn allocator() -> BlockAllocator {
        // 4 ch × 2 dies = 8 dies, 64 blocks x 32 pages
        BlockAllocator::new(FlashGeometry::small_test())
    }

    #[test]
    fn runs_are_consecutive_within_blocks() {
        let mut a = allocator();
        let runs = a.allocate(Stream::Host, 64).unwrap();
        let total: u32 = runs.iter().map(|r| r.len).sum();
        assert_eq!(total, 64);
        for run in &runs {
            let ppas: Vec<u64> = run.ppas().map(|p| p.raw()).collect();
            for pair in ppas.windows(2) {
                assert_eq!(pair[1], pair[0] + 1);
            }
        }
    }

    #[test]
    fn large_requests_stripe_across_all_dies() {
        let geometry = FlashGeometry::small_test();
        let mut a = BlockAllocator::with_stripe(geometry, 8);
        let runs = a.allocate(Stream::Host, 64).unwrap();
        let dies: std::collections::BTreeSet<u32> = runs
            .iter()
            .map(|r| geometry.die_of_block(r.block).raw())
            .collect();
        assert!(
            dies.len() >= 8,
            "64 pages in 8-page stripes should use all 8 dies, got {}",
            dies.len()
        );
        for run in &runs {
            assert!(run.len <= 8);
        }
    }

    #[test]
    fn small_requests_continue_open_blocks() {
        let mut a = allocator();
        let first = a.allocate(Stream::Host, 8).unwrap();
        let second = a.allocate(Stream::Host, 8).unwrap();
        assert_eq!(first.len(), 1);
        assert_eq!(second.len(), 1);
        // Round-robin over dies: the second chunk opens the next
        // die's block.
        assert_ne!(first[0].block, second[0].block);
    }

    #[test]
    fn streams_are_independent() {
        let mut a = allocator();
        let host = a.allocate(Stream::Host, 4).unwrap();
        let gc = a.allocate(Stream::Gc, 4).unwrap();
        assert_ne!(host[0].block, gc[0].block);
        assert!(a.is_open(host[0].block));
        assert!(a.is_open(gc[0].block));
    }

    #[test]
    fn exhaustion_returns_none_without_side_effects() {
        let mut a = allocator();
        let total_pages = 64 * 32;
        a.allocate(Stream::Host, total_pages / 2).unwrap();
        let free_before = a.free_blocks();
        assert!(a.allocate(Stream::Host, total_pages).is_none());
        assert_eq!(a.free_blocks(), free_before, "no block opened");
        assert_eq!(a.check_state(), Vec::<String>::new());
        assert!(a.allocate(Stream::Host, total_pages / 2).is_some());
        assert_eq!(a.free_blocks(), 0);
        assert!(a.allocate(Stream::Host, 1).is_none());
        assert!(!a.can_allocate(Stream::Host, 1));
    }

    #[test]
    fn release_recycles_blocks() {
        let mut a = allocator();
        let runs = a.allocate(Stream::Host, 32 * 8).unwrap();
        // The next chunk replaces the first way's full block.
        a.allocate(Stream::Host, 1).unwrap();
        let before = a.free_blocks();
        a.release(runs[0].block);
        assert_eq!(a.free_blocks(), before + 1);
    }

    #[test]
    fn take_block_removes_from_pool() {
        let mut a = allocator();
        let victim = BlockId::new(7);
        assert!(a.take_block(victim));
        assert_eq!(a.free_blocks(), 63);
        assert!(!a.take_block(victim));
        assert_eq!(a.free_blocks(), 63);
        assert!(!a.is_open(victim));
    }

    #[test]
    fn rebuild_after_crash_resets_open_blocks() {
        let mut a = allocator();
        let opened = a.allocate(Stream::Host, 8).unwrap()[0].block;
        let free: Vec<BlockId> = (10..20).map(BlockId::new).collect();
        a.rebuild_after_crash(free);
        assert_eq!(a.free_blocks(), 10);
        assert!(!a.is_open(opened));
        assert_eq!(a.check_state(), Vec::<String>::new());
        // Allocation works again from the rebuilt pool.
        assert!(a.allocate(Stream::Host, 8).is_some());
    }

    #[test]
    fn block_state_follows_slots_and_pools() {
        let geometry = FlashGeometry::small_test();
        let mut a = BlockAllocator::new(geometry);
        // One block-sized chunk per way: eight full blocks, all open.
        let first = a.allocate(Stream::Host, 32).unwrap()[0].block;
        a.allocate(Stream::Host, 7 * 32).unwrap();
        assert!(a.is_open(first), "a full block keeps its slot");
        let log = a.allocate(Stream::MapLog, 1).unwrap()[0].block;
        let taken = BlockId::new(63);
        assert!(a.take_block(taken));
        assert!(!a.is_open(taken));
        assert_eq!(a.check_state(), Vec::<String>::new());
        let next = a.allocate(Stream::Host, 8).unwrap()[0].block;
        assert_ne!(next, first);
        assert!(!a.is_open(first), "replaced in its slot: closed");
        assert!(a.is_open(next) && a.is_open(log));
        a.release(first);
        a.release(taken);
        assert_eq!(a.check_state(), Vec::<String>::new());
        assert_eq!(a.free_blocks(), 64 - 8 - 1);
        a.rebuild_after_crash(vec![first, taken]);
        assert!(!a.is_open(next) && !a.is_open(log));
        assert_eq!(a.free_blocks(), 2);
        assert_eq!(a.check_state(), Vec::<String>::new());
    }

    #[test]
    fn check_state_reports_a_stale_flag() {
        let mut a = allocator();
        let run = a.allocate(Stream::Gc, 4).unwrap()[0];
        a.state[run.block.raw() as usize] = BlockState::Closed;
        a.free_count += 1;
        let violations = a.check_state();
        assert_eq!(violations.len(), 2, "{violations:?}");
    }

    #[test]
    fn capacity_check_counts_open_room() {
        let geometry = FlashGeometry::small_test();
        let mut a = BlockAllocator::new(geometry);
        // Consume all blocks except the open ones' tails.
        let total = 64 * 32;
        a.allocate(Stream::Host, total - 8).unwrap();
        assert!(a.can_allocate(Stream::Host, 8));
        assert!(!a.can_allocate(Stream::Host, 9));
        let runs = a.allocate(Stream::Host, 8).unwrap();
        assert_eq!(runs.iter().map(|r| r.len).sum::<u32>(), 8);
    }

    #[test]
    fn blocks_opened_by_counts_what_a_request_opens() {
        let small = FlashGeometry::small_test();
        let wide = FlashGeometry {
            channels: 16,
            dies_per_channel: 4,
            blocks: 1024,
            pages_per_block: 256,
            ..small
        };
        for (geometry, stripe, pages) in [
            (small, 32, 32),
            (small, 8, 32),
            (small, 1, 64),
            (wide, 32, 256),
            (wide, 32, 128),
            (wide, 256, 2048),
            (wide, 1, 4096),
        ] {
            let mut a = BlockAllocator::with_stripe(geometry, stripe);
            let runs = a.allocate(Stream::Host, pages).unwrap();
            assert_eq!(
                BlockAllocator::blocks_opened_by(&geometry, stripe, pages),
                geometry.blocks as usize - a.free_blocks(),
                "stripe {stripe}, {pages} pages: {} runs",
                runs.len()
            );
        }
    }

    #[test]
    fn one_open_block_per_die_per_stream() {
        let geometry = FlashGeometry::small_test();
        let mut a = BlockAllocator::with_stripe(geometry, 1);
        // A full device-width request in 1-page stripes opens one
        // block on every die.
        let runs = a.allocate(Stream::Host, geometry.total_dies()).unwrap();
        assert!(runs.iter().all(|run| a.is_open(run.block)));
        let dies: std::collections::BTreeSet<u32> = runs
            .iter()
            .map(|run| geometry.die_of_block(run.block).raw())
            .collect();
        assert_eq!(dies.len(), geometry.total_dies() as usize);
    }
}
