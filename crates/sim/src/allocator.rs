//! Flash-block allocation with die striping.
//!
//! Hands out runs of physically consecutive pages. Each stream (host
//! flushes vs GC/wear migrations) has one open slot per *way* — one
//! way per die (LUN) on realistically sized devices — and a flush is
//! striped over the ways in contiguous chunks so the programs proceed
//! in parallel while each chunk still receives consecutive PPAs —
//! LeaFTL's "allocate consecutive PPAs to contiguous LPAs at its best
//! effort" (§3.3). Earlier revisions opened one block per *channel*,
//! which left `dies_per_channel − 1` of every channel's dies idle
//! during a flush; per-die striping lets a single flush program
//! `dies_per_channel×` more pages concurrently. The host stream fills
//! the blocks it has open before it opens more, so it holds about one
//! flush's worth of open blocks (`BlockAllocator::blocks_opened_by`)
//! per *lane* rather than one per way: with `n` lanes a request skips
//! the ways the `n − 1` requests before it wrote, so consecutive
//! flushes (the ones the write pool holds at once) program on disjoint
//! dies, and one lane is the plain fill-first rule. GC migrations
//! stripe round-robin. On tiny
//! devices (few blocks per die — scaled-down experiments) the way
//! count is capped at an eighth of the block count. Allocation order
//! is recorded for crash recovery (§3.8): the scanner replays blocks
//! in allocation order to rebuild mappings newest-last.
//!
//! An open block is invisible to GC victim selection, and "open" is a
//! per-block state (free / open / closed) kept at the only places it
//! changes — a slot taking or giving up a block (`take_chunk`),
//! [`BlockAllocator::take_block`], [`BlockAllocator::release`],
//! [`BlockAllocator::rebuild_after_crash`] — so
//! [`BlockAllocator::is_open`] is one load and
//! [`BlockAllocator::free_blocks`] a counter, whatever the device
//! size. A host or GC block closes with the allocation that takes its
//! last page, so no full block waits in a slot; the translation log's
//! block closes when a fresh one replaces it. The blocks a request
//! closes are handed over by [`BlockAllocator::take_closed`], which is
//! how the SSD's victim index learns that they have become GC
//! candidates.

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
    /// In a stream's open slot. A host or GC slot holds its block only
    /// while it has room; the log's keeps a full block until it next
    /// needs a page.
    Open,
    /// Handed out and in no slot: filled (host, GC), replaced by a
    /// newer block (log), taken whole by [`BlockAllocator::take_block`],
    /// or abandoned by a crash.
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
    /// Per block, the stream that last took it from its pool; `None`
    /// for a block never taken ([`BlockAllocator::opened_by`]).
    opened_by: Vec<Option<Stream>>,
    /// Open slots per stream ([`Stream::index`]), one per way. The
    /// translation log only ever uses slot 0.
    open: [Vec<Option<OpenBlock>>; 3],
    /// Per stream: the next way to stripe onto (host, GC) or to refill
    /// the log's slot from (round-robin).
    cursor: [usize; 3],
    /// Sets of open blocks the host stream keeps, one per flush the
    /// write pool holds ([`BlockAllocator::with_lanes`]; 1 by default).
    lanes: usize,
    /// Host requests since the allocator was built or rebuilt.
    host_requests: u64,
    /// Per way, the host request (counted from 1) that last wrote it;
    /// 0 for none.
    host_written: Vec<u64>,
    /// Blocks that left an open slot since the last
    /// [`BlockAllocator::take_closed`].
    closed: Vec<BlockId>,
}

impl BlockAllocator {
    /// All blocks free, partitioned into per-way pools; block-granular
    /// striping.
    pub fn new(geometry: FlashGeometry) -> Self {
        BlockAllocator::with_stripe(geometry, geometry.pages_per_block)
    }

    /// Striping width for a geometry: one way per die, capped at an
    /// eighth of the blocks on tiny devices.
    fn ways_for(geometry: &FlashGeometry) -> usize {
        (geometry.total_dies() as usize).min(((geometry.blocks / 8).max(1)) as usize)
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
    /// the GC behind it runs. The host stream keeps this many open per
    /// lane, but a request still opens no more than this.
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
            opened_by: vec![None; geometry.blocks as usize],
            open: std::array::from_fn(|_| vec![None; ways]),
            cursor: [0; 3],
            lanes: 1,
            host_requests: 0,
            host_written: vec![0; ways],
            closed: Vec::new(),
        };
        for raw in 0..geometry.blocks {
            let block = BlockId::new(raw);
            let way = allocator.way_of_block(block);
            allocator.free[way].push_back(block);
        }
        allocator
    }

    /// Keeps `lanes` (at least one) sets of open blocks on the host
    /// stream: a host request skips the ways the `lanes − 1` requests
    /// before it wrote (see [`BlockAllocator::allocate`]). One lane, the
    /// default, is the plain fill-first rule.
    pub(crate) fn with_lanes(mut self, lanes: usize) -> Self {
        debug_assert!(lanes >= 1, "{lanes} host lanes");
        self.lanes = lanes;
        self
    }

    /// Whether host way `way` belongs to another lane: the current host
    /// request or one of the `lanes − 1` before it wrote it.
    fn lane_taken(&self, way: usize) -> bool {
        let written = self.host_written[way];
        written > 0 && written + self.lanes as u64 > self.host_requests
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

    /// Drains the blocks that left an open slot — filled, or (the
    /// log's) replaced by a fresh block — since the last call. Leaving
    /// its slot is what exposes a block to GC victim selection, so
    /// whoever indexes victims asks after every
    /// [`BlockAllocator::allocate`].
    pub fn take_closed(&mut self) -> impl Iterator<Item = BlockId> + '_ {
        self.closed.drain(..)
    }

    /// The stream that last took `block` from its pool, and so wrote
    /// the pages it holds: [`Stream::Gc`] for a block GC or a wear swap
    /// relocated pages into (a block [`BlockAllocator::take_block`]
    /// took is a wear swap's target), `None` for a block never taken. A
    /// crash keeps the record: the pages on flash are the ones that
    /// stream wrote.
    pub fn opened_by(&self, block: BlockId) -> Option<Stream> {
        self.opened_by[block.raw() as usize]
    }

    /// Whether `block` is currently open on any stream.
    pub fn is_open(&self, block: BlockId) -> bool {
        self.state[block.raw() as usize] == BlockState::Open
    }

    /// Checks the per-block state and the free counter against what
    /// they summarise — a walk of every open slot and every pool — and
    /// that no host or GC slot holds a full block, returning one line
    /// per disagreement (empty = consistent). Linear in the device; for
    /// tests and invariant checks.
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
        let pages_per_block = self.geometry.pages_per_block;
        for stream in [Stream::Host, Stream::Gc] {
            for (way, open) in self.open[stream.index()].iter().enumerate() {
                if let Some(open) = open.filter(|open| open.next_page >= pages_per_block) {
                    violations.push(format!(
                        "{stream:?} slot {way} holds full block {}",
                        open.block.raw()
                    ));
                }
            }
        }
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
    /// targets a particular worn block), as the GC stream's. Returns
    /// whether it was free.
    pub fn take_block(&mut self, block: BlockId) -> bool {
        let way = self.way_of_block(block);
        if let Some(pos) = self.free[way].iter().position(|&b| b == block) {
            self.free[way].remove(pos);
            self.free_count -= 1;
            self.state[block.raw() as usize] = BlockState::Closed;
            self.opened_by[block.raw() as usize] = Some(Stream::Gc);
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
        self.host_requests = 0;
        self.host_written.fill(0);
        self.closed.clear();
    }

    /// Allocates `pages` as consecutive-page runs striped across the
    /// ways in chunks of `BlockAllocator::chunk_for` pages. The host
    /// stream first continues its part-filled open blocks, one chunk
    /// per way, then opens blocks on the ways after its cursor, so a
    /// flush lands on as many ways as it has chunks and the stream holds
    /// about one flush's worth of open blocks per lane. Both steps skip
    /// the ways the `lanes − 1` requests before this one wrote: with two
    /// lanes a flush continues the blocks its predecessor did not write,
    /// so it programs on other dies than the flush still draining ahead
    /// of it. GC migrations stripe round-robin: they run in the
    /// background and overlap one another. Returns `None`
    /// (allocating nothing) when the pools cannot satisfy the request —
    /// the caller must GC first.
    pub fn allocate(&mut self, stream: Stream, pages: u32) -> Option<Vec<PageRun>> {
        if !self.can_allocate(stream, pages) {
            return None;
        }
        let ways = self.ways;
        let chunk = Self::chunk_for(&self.geometry, ways, self.stripe_pages, pages);
        let mut runs: Vec<PageRun> = Vec::new();
        let mut remaining = pages;
        if stream == Stream::Host {
            // One chunk per way of this request's lane: first the ways
            // whose block has room, then fresh ways from the cursor. A
            // chunk that fills its block closes it and leaves the rest
            // to the next way.
            self.host_requests += 1;
            let host = Stream::Host.index();
            let cursor = self.cursor[host];
            for continuing in [true, false] {
                for way in (0..ways).map(|i| (cursor + i) % ways) {
                    let open = self.open[host][way].is_some();
                    if remaining == 0 || self.lane_taken(way) || open != continuing {
                        continue;
                    }
                    let Some(run) = self.take_chunk(stream, way, chunk.min(remaining)) else {
                        continue;
                    };
                    if !continuing {
                        self.cursor[host] = (way + 1) % ways;
                    }
                    self.host_written[way] = self.host_requests;
                    remaining -= run.len;
                    runs.push(run);
                }
            }
        }
        // GC and the log, and what is left of a host request wider than
        // a chunk on every way or meeting dry pools.
        let mut stalled_ways = 0usize;
        while remaining > 0 {
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
            let Some(run) = self.take_chunk(stream, slot, chunk.min(remaining)) else {
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
            if stream == Stream::Host {
                self.host_written[slot] = self.host_requests;
            }
            remaining -= run.len;
            runs.push(run);
        }
        Some(runs)
    }

    /// Takes up to `want` pages from the block in `stream`'s open slot
    /// `slot`, first putting a fresh block there when the slot is empty
    /// (or, for the log, its block full). These are the only places a
    /// slot changes block: a host or GC block closes with the
    /// allocation that takes its last page, the log's when a fresh one
    /// replaces it, and the per-block state follows. Host and GC slots
    /// refill from their own way's pool; the log's slot refills
    /// round-robin from any way's, so log traffic still spreads wear
    /// across dies.
    fn take_chunk(&mut self, stream: Stream, slot: usize, want: u32) -> Option<PageRun> {
        let pages_per_block = self.geometry.pages_per_block;
        let open = match self.open[stream.index()][slot] {
            Some(open) if open.next_page < pages_per_block => open,
            replaced => {
                let block = match stream {
                    Stream::Host | Stream::Gc => self.free[slot].pop_front()?,
                    Stream::MapLog => self.pop_round_robin()?,
                };
                if let Some(replaced) = replaced {
                    self.close(replaced.block);
                }
                self.state[block.raw() as usize] = BlockState::Open;
                self.opened_by[block.raw() as usize] = Some(stream);
                self.free_count -= 1;
                OpenBlock {
                    block,
                    next_page: 0,
                }
            }
        };
        let take = (pages_per_block - open.next_page).min(want);
        let next_page = open.next_page + take;
        self.open[stream.index()][slot] =
            if next_page == pages_per_block && stream != Stream::MapLog {
                self.close(open.block);
                None
            } else {
                Some(OpenBlock {
                    block: open.block,
                    next_page,
                })
            };
        Some(PageRun {
            block: open.block,
            first: self.geometry.ppa(open.block, open.next_page),
            len: take,
        })
    }

    /// Moves a block out of its open slot: from here on GC may pick it.
    fn close(&mut self, block: BlockId) {
        self.state[block.raw() as usize] = BlockState::Closed;
        self.closed.push(block);
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
        // The host stream fills the block it has open before it opens
        // another: the second chunk continues the first's pages.
        assert_eq!(first[0].block, second[0].block);
        assert_eq!(second[0].first, first[0].first.offset(8));
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
        // Eight full blocks, closed as they fill.
        let runs = a.allocate(Stream::Host, 32 * 8).unwrap();
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
        // One block-sized chunk per way: eight full blocks, each closed
        // by the allocation that filled it.
        let first = a.allocate(Stream::Host, 32).unwrap()[0].block;
        assert!(!a.is_open(first), "a full block leaves its slot at once");
        assert_eq!(a.take_closed().collect::<Vec<_>>(), vec![first]);
        let rest = a.allocate(Stream::Host, 7 * 32).unwrap();
        assert_eq!(a.take_closed().count(), 7);
        assert!(rest.iter().all(|run| !a.is_open(run.block)));
        let log = a.allocate(Stream::MapLog, 1).unwrap()[0].block;
        let taken = BlockId::new(63);
        assert!(a.take_block(taken));
        assert!(!a.is_open(taken));
        assert_eq!(a.check_state(), Vec::<String>::new());
        let next = a.allocate(Stream::Host, 8).unwrap()[0].block;
        assert_ne!(next, first);
        assert!(!a.is_open(first), "filled: closed");
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
    fn check_state_reports_a_full_slot() {
        let mut a = allocator();
        let run = a.allocate(Stream::Gc, 4).unwrap()[0];
        let way = a.way_of_block(run.block);
        if let Some(open) = a.open[Stream::Gc.index()][way].as_mut() {
            open.next_page = 32;
        }
        assert_eq!(
            a.check_state(),
            vec![format!(
                "Gc slot {way} holds full block {}",
                run.block.raw()
            )]
        );
        // The log's slot keeps its full block until it needs a page.
        let mut a = allocator();
        let log = a.allocate(Stream::MapLog, 32).unwrap()[0].block;
        assert!(a.is_open(log));
        assert_eq!(a.check_state(), Vec::<String>::new());
    }

    /// On the 64-way geometry of the full-size devices, flush-sized host
    /// requests put each chunk on a way of its own, and the host stream
    /// holds no more open blocks than one request stripes over — where
    /// a slot per way kept open blocks on all 64 ways.
    #[test]
    fn host_stream_holds_one_request_of_open_blocks() {
        let geometry = FlashGeometry {
            channels: 16,
            dies_per_channel: 4,
            blocks: 1024,
            pages_per_block: 256,
            ..FlashGeometry::small_test()
        };
        // (stripe, request): chunks that divide the block, and chunks
        // that do not, so requests straddle block ends.
        for (stripe, pages) in [(32, 256), (32, 128), (24, 256), (32, 200)] {
            let mut a = BlockAllocator::with_stripe(geometry, stripe);
            assert_eq!(a.ways, 64);
            let opened = BlockAllocator::blocks_opened_by(&geometry, stripe, pages);
            for request in 0..300 {
                let runs = a.allocate(Stream::Host, pages).unwrap();
                let ways: std::collections::BTreeSet<usize> =
                    runs.iter().map(|run| a.way_of_block(run.block)).collect();
                assert_eq!(ways.len(), runs.len(), "stripe {stripe}, request {request}");
                let open = a.open[Stream::Host.index()].iter().flatten().count();
                assert!(
                    open <= opened,
                    "stripe {stripe}, request {request}: {open} open, {opened} per request"
                );
                assert_eq!(a.check_state(), Vec::<String>::new());
            }
        }
    }

    /// With two lanes, consecutive flush-sized host requests land on
    /// disjoint ways, the third continues the first one's blocks where
    /// it left them, and the stream holds a request of open blocks per
    /// lane. With one lane the second request continues the first's.
    #[test]
    fn each_host_lane_continues_its_own_open_blocks() {
        let geometry = FlashGeometry {
            channels: 16,
            dies_per_channel: 4,
            blocks: 1024,
            pages_per_block: 256,
            ..FlashGeometry::small_test()
        };
        let opened = BlockAllocator::blocks_opened_by(&geometry, 32, 256);
        assert_eq!(opened, 8);
        for lanes in [1, 2] {
            let mut a = BlockAllocator::with_stripe(geometry, 32).with_lanes(lanes);
            let requests: Vec<Vec<PageRun>> = (0..3)
                .map(|_| a.allocate(Stream::Host, 256).unwrap())
                .collect();
            let ways = |runs: &[PageRun]| -> std::collections::BTreeSet<usize> {
                runs.iter().map(|run| a.way_of_block(run.block)).collect()
            };
            assert!(requests.iter().all(|runs| ways(runs).len() == opened));
            let open = a.open[Stream::Host.index()].iter().flatten().count();
            assert_eq!(open, lanes * opened, "{lanes} lanes");
            assert_eq!(
                ways(&requests[1]).is_disjoint(&ways(&requests[0])),
                lanes == 2
            );
            for (run, before) in requests[lanes].iter().zip(&requests[0]) {
                assert_eq!(run.block, before.block, "{lanes} lanes");
                assert_eq!(run.first, before.first.offset(32), "{lanes} lanes");
            }
            assert_eq!(a.check_state(), Vec::<String>::new());
        }
        // Over many requests, straddling block ends or not, no request
        // shares a way with the one before it, and the stream holds no
        // more open blocks than a request stripes over per lane.
        for (stripe, pages) in [(32, 256), (32, 128), (24, 256), (32, 200)] {
            let mut a = BlockAllocator::with_stripe(geometry, stripe).with_lanes(2);
            let opened = BlockAllocator::blocks_opened_by(&geometry, stripe, pages);
            let mut before = std::collections::BTreeSet::new();
            for request in 0..300 {
                let runs = a.allocate(Stream::Host, pages).unwrap();
                let ways: std::collections::BTreeSet<usize> =
                    runs.iter().map(|run| a.way_of_block(run.block)).collect();
                assert_eq!(ways.len(), runs.len(), "stripe {stripe}, request {request}");
                assert!(
                    ways.is_disjoint(&before),
                    "stripe {stripe}, request {request}"
                );
                let open = a.open[Stream::Host.index()].iter().flatten().count();
                assert!(
                    open <= 2 * opened,
                    "stripe {stripe}, request {request}: {open} open, {opened} per request"
                );
                before = ways;
            }
            assert_eq!(a.check_state(), Vec::<String>::new());
        }
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
