//! Model-based tests for the simulator's DRAM containers.
//!
//! [`LruCache`] (data cache, DFTL's CMT, the group-residency LRUs),
//! [`WriteBuffer`] and the [`WritePool`] of DRAM page slots around it
//! sit under every host read and write, so their implementations are
//! tuned for the host clock. These properties hold them to transparent
//! reference models under arbitrary operation sequences: whatever index
//! or hasher is behind them, the observable behaviour — values, byte
//! accounting, dirty flags, recency order, coalescing, both drain
//! orders, which flushed page DRAM still serves — is the model's.

#![expect(
    clippy::expect_used,
    reason = "a test: a step that fails should fail it with its message"
)]

use leaftl_repro::flash::{Lpa, Ppa};
use leaftl_repro::sim::buffer::{WriteBuffer, WritePool};
use leaftl_repro::sim::lru::LruCache;
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::{BTreeMap, VecDeque};

/// One resident entry of the reference LRU.
#[derive(Debug, Clone, PartialEq)]
struct Entry {
    key: u32,
    value: u64,
    bytes: usize,
    dirty: bool,
}

/// The reference LRU: a deque ordered most- to least-recently used,
/// searched linearly.
#[derive(Debug, Default)]
struct ModelLru {
    entries: VecDeque<Entry>,
}

impl ModelLru {
    fn position(&self, key: u32) -> Option<usize> {
        self.entries.iter().position(|e| e.key == key)
    }

    fn bytes(&self) -> usize {
        self.entries.iter().map(|e| e.bytes).sum()
    }

    fn promote(&mut self, at: usize) {
        let entry = self.entries.remove(at).expect("position is in range");
        self.entries.push_front(entry);
    }

    fn insert(&mut self, key: u32, value: u64, bytes: usize, dirty: bool) -> Option<u64> {
        match self.position(key) {
            Some(at) => {
                let entry = &mut self.entries[at];
                let old = std::mem::replace(&mut entry.value, value);
                entry.bytes = bytes;
                entry.dirty |= dirty;
                self.promote(at);
                Some(old)
            }
            None => {
                self.entries.push_front(Entry {
                    key,
                    value,
                    bytes,
                    dirty,
                });
                None
            }
        }
    }

    fn get(&mut self, key: u32) -> Option<u64> {
        let at = self.position(key)?;
        self.promote(at);
        Some(self.entries[0].value)
    }

    fn remove(&mut self, key: u32) -> Option<(u64, bool)> {
        let at = self.position(key)?;
        let entry = self.entries.remove(at).expect("position is in range");
        Some((entry.value, entry.dirty))
    }
}

#[derive(Debug, Clone, Copy)]
enum LruOp {
    Insert {
        key: u32,
        value: u64,
        bytes: usize,
        dirty: bool,
    },
    Get(u32),
    Peek(u32),
    Remove(u32),
    Resize(u32, usize),
    MarkDirty(u32),
    PopLru,
}

/// Keys come from a space small enough that every operation meets
/// resident and absent keys alike.
fn lru_op() -> impl Strategy<Value = LruOp> {
    let key = || 0u32..24;
    prop_oneof![
        5 => (key(), 0u64..1000, 1usize..5000, 0u32..4).prop_map(|(key, value, bytes, d)| {
            LruOp::Insert { key, value, bytes, dirty: d == 0 }
        }),
        4 => key().prop_map(LruOp::Get),
        2 => key().prop_map(LruOp::Peek),
        2 => key().prop_map(LruOp::Remove),
        1 => (key(), 0usize..5000).prop_map(|(key, bytes)| LruOp::Resize(key, bytes)),
        1 => key().prop_map(LruOp::MarkDirty),
        2 => Just(LruOp::PopLru),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every call returns what the deque model returns, and after every
    /// call the cache agrees with it on size, bytes, recency order and
    /// each key's residency and dirty flag.
    #[test]
    fn lru_cache_matches_the_deque_model(ops in vec(lru_op(), 1..200)) {
        let mut lru: LruCache<u32, u64> = LruCache::new();
        let mut model = ModelLru::default();
        for op in ops {
            match op {
                LruOp::Insert { key, value, bytes, dirty } => {
                    prop_assert_eq!(
                        lru.insert(key, value, bytes, dirty),
                        model.insert(key, value, bytes, dirty)
                    );
                }
                LruOp::Get(key) => {
                    prop_assert_eq!(lru.get(&key).copied(), model.get(key));
                }
                LruOp::Peek(key) => {
                    let want = model.position(key).map(|at| model.entries[at].value);
                    prop_assert_eq!(lru.peek(&key).copied(), want);
                }
                LruOp::Remove(key) => {
                    prop_assert_eq!(lru.remove(&key), model.remove(key));
                }
                LruOp::Resize(key, bytes) => {
                    lru.resize(&key, bytes);
                    if let Some(at) = model.position(key) {
                        model.entries[at].bytes = bytes;
                    }
                }
                LruOp::MarkDirty(key) => {
                    lru.mark_dirty(&key);
                    if let Some(at) = model.position(key) {
                        model.entries[at].dirty = true;
                    }
                }
                LruOp::PopLru => {
                    let want = model.entries.pop_back().map(|e| (e.key, e.value, e.dirty));
                    prop_assert_eq!(lru.pop_lru(), want);
                }
            }
            prop_assert_eq!(lru.len(), model.entries.len());
            prop_assert_eq!(lru.is_empty(), model.entries.is_empty());
            prop_assert_eq!(lru.bytes(), model.bytes());
            let order: Vec<u32> = lru.keys_mru().copied().collect();
            let want: Vec<u32> = model.entries.iter().map(|e| e.key).collect();
            prop_assert_eq!(order, want);
            for key in 0..24u32 {
                let entry = model.position(key).map(|at| &model.entries[at]);
                prop_assert_eq!(lru.contains(&key), entry.is_some());
                prop_assert_eq!(lru.is_dirty(&key), entry.is_some_and(|e| e.dirty));
            }
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum BufferOp {
    Insert(u64, u64),
    Get(u64),
    DrainSorted,
    DrainUnsorted,
}

fn buffer_op() -> impl Strategy<Value = BufferOp> {
    // Sparse and dense keys, so sorted order differs from arrival
    // order and from any hash order.
    let lpa = || prop_oneof![3 => 0u64..40, 1 => (0u64..40).prop_map(|k| k * 4099 + 7)];
    prop_oneof![
        12 => (lpa(), 0u64..1_000_000).prop_map(|(lpa, content)| BufferOp::Insert(lpa, content)),
        6 => lpa().prop_map(BufferOp::Get),
        1 => Just(BufferOp::DrainSorted),
        1 => Just(BufferOp::DrainUnsorted),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The reference buffer is an ordered map plus the list of first
    /// arrivals: a rewrite coalesces (new content, old arrival slot),
    /// the sorted pages are the map's order, the unsorted pages the
    /// arrival list's, and a clear leaves the buffer empty.
    #[test]
    fn write_buffer_matches_the_map_and_arrival_list(ops in vec(buffer_op(), 1..300)) {
        let mut buffer = WriteBuffer::new();
        let mut pages: BTreeMap<u64, u64> = BTreeMap::new();
        let mut arrival: Vec<u64> = Vec::new();
        for op in ops {
            match op {
                BufferOp::Insert(lpa, content) => {
                    let coalesced = pages.insert(lpa, content).is_some();
                    if !coalesced {
                        arrival.push(lpa);
                    }
                    prop_assert_eq!(buffer.insert(Lpa::new(lpa), content), coalesced);
                }
                BufferOp::Get(lpa) => {
                    prop_assert_eq!(buffer.get(Lpa::new(lpa)), pages.get(&lpa).copied());
                }
                BufferOp::DrainSorted => {
                    let want: Vec<(Lpa, u64)> =
                        pages.iter().map(|(&lpa, &c)| (Lpa::new(lpa), c)).collect();
                    prop_assert_eq!(buffer.pages(true), want);
                    buffer.clear();
                    pages.clear();
                    arrival.clear();
                }
                BufferOp::DrainUnsorted => {
                    let want: Vec<(Lpa, u64)> =
                        arrival.iter().map(|&lpa| (Lpa::new(lpa), pages[&lpa])).collect();
                    prop_assert_eq!(buffer.pages(false), want);
                    buffer.clear();
                    pages.clear();
                    arrival.clear();
                }
            }
            prop_assert_eq!(buffer.len(), pages.len());
            prop_assert_eq!(buffer.is_empty(), pages.is_empty());
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum PoolOp {
    Write(u64, u64),
    Get(u64),
    Flush(bool),
    Release(usize),
    /// The newest flush's copy of an address gives its slot up, while
    /// the copy it overwrote may still hold one.
    ReleaseNewest(u64),
    Move(u64),
    Clear,
}

fn pool_op() -> impl Strategy<Value = PoolOp> {
    let lpa = || prop_oneof![3 => 0u64..24, 1 => (0u64..24).prop_map(|k| k * 4099 + 7)];
    prop_oneof![
        10 => (lpa(), 0u64..1_000_000).prop_map(|(lpa, content)| PoolOp::Write(lpa, content)),
        8 => lpa().prop_map(PoolOp::Get),
        2 => (0u32..2).prop_map(|sorted| PoolOp::Flush(sorted == 1)),
        5 => (0usize..64).prop_map(PoolOp::Release),
        3 => lpa().prop_map(PoolOp::ReleaseNewest),
        2 => lpa().prop_map(PoolOp::Move),
        1 => Just(PoolOp::Clear),
    ]
}

/// One flushed page of the reference pool.
#[derive(Debug, Clone, Copy)]
struct FlushedPage {
    lpa: u64,
    content: u64,
    tag: u64,
    ppa: u64,
    released: bool,
}

/// The copy of `lpa` the newest flush overwrote: the newest earlier
/// flush's page of it, unless that page was released.
fn overwritten(flushes: &[Vec<FlushedPage>], lpa: u64) -> Option<Ppa> {
    let older = &flushes[..flushes.len().saturating_sub(1)];
    older
        .iter()
        .rev()
        .find_map(|flush| flush.iter().find(|page| page.lpa == lpa))
        .and_then(|page| (!page.released).then_some(Ppa::new(page.ppa)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The reference pool is the reference buffer plus every flush as
    /// the list of pages it handed out, newest last. The buffer and the
    /// pages not released share `capacity` slots: a write of a new
    /// address into a full pool overflows it until a flushed page gives
    /// its slot up; a read is the buffer's page, else the newest flush
    /// of the address unless that page was released; a clear empties
    /// everything. Pages are released in any order, as their programs
    /// end. Each flushed page is where the flush put it until a move
    /// relocates the newest flush's copy of its address; the copy a
    /// flush overwrote is the newest earlier flush's page of the
    /// address, while that page is not released.
    #[test]
    fn write_pool_matches_the_list_of_flushes(
        ops in vec(pool_op(), 1..300),
        capacity in 1usize..40,
    ) {
        let mut pool = WritePool::new(capacity);
        let mut pages: BTreeMap<u64, u64> = BTreeMap::new();
        let mut arrival: Vec<u64> = Vec::new();
        let mut flushes: Vec<Vec<FlushedPage>> = Vec::new();
        let mut tags: Vec<u64> = Vec::new();
        let mut next_ppa = 0u64;
        let resident = |flushes: &[Vec<FlushedPage>]| {
            flushes.iter().flatten().filter(|page| !page.released).count()
        };
        for op in ops {
            match op {
                PoolOp::Write(lpa, content) => {
                    let coalesced = pages.contains_key(&lpa);
                    let held = pages.len() + resident(&flushes);
                    if held == capacity && !coalesced && resident(&flushes) == 0 {
                        // No flushed page could give its slot up.
                        continue;
                    }
                    pages.insert(lpa, content);
                    if !coalesced {
                        arrival.push(lpa);
                    }
                    prop_assert_eq!(pool.insert(Lpa::new(lpa), content), coalesced);
                    let overflows = held == capacity && !coalesced;
                    prop_assert_eq!(pool.overflows(), overflows);
                    if overflows {
                        // The write takes the first resident page's slot.
                        let page = flushes
                            .iter_mut()
                            .flatten()
                            .find(|page| !page.released)
                            .expect("a resident page");
                        page.released = true;
                        pool.release(page.tag);
                    }
                }
                PoolOp::Get(lpa) => {
                    let flushed = flushes
                        .iter()
                        .rev()
                        .find_map(|flush| flush.iter().find(|page| page.lpa == lpa))
                        .and_then(|page| (!page.released).then_some(page.content));
                    prop_assert_eq!(pool.flushed(Lpa::new(lpa)), flushed);
                    let want = pages.get(&lpa).copied().or(flushed);
                    prop_assert_eq!(pool.get(Lpa::new(lpa)), want);
                    prop_assert_eq!(pool.buffer().get(Lpa::new(lpa)), pages.get(&lpa).copied());
                    prop_assert_eq!(pool.overwritten(Lpa::new(lpa)), overwritten(&flushes, lpa));
                }
                PoolOp::Flush(sorted) => {
                    if pages.is_empty() {
                        continue;
                    }
                    let order: Vec<u64> = if sorted {
                        pages.keys().copied().collect()
                    } else {
                        arrival.clone()
                    };
                    let want: Vec<(Lpa, u64)> =
                        order.iter().map(|&lpa| (Lpa::new(lpa), pages[&lpa])).collect();
                    let ppas = next_ppa..next_ppa + order.len() as u64;
                    next_ppa = ppas.end;
                    let (got, first) = pool.flush(sorted, ppas.clone().map(Ppa::new));
                    prop_assert_eq!(got, want);
                    let flush: Vec<FlushedPage> = order
                        .iter()
                        .zip(first..)
                        .zip(ppas)
                        .map(|((&lpa, tag), ppa)| FlushedPage {
                            lpa,
                            content: pages[&lpa],
                            tag,
                            ppa,
                            released: false,
                        })
                        .collect();
                    for page in &flush {
                        prop_assert!(!tags.contains(&page.tag), "tag {:#x} handed out twice", page.tag);
                        tags.push(page.tag);
                    }
                    flushes.push(flush);
                    pages.clear();
                    arrival.clear();
                }
                PoolOp::Release(pick) => {
                    let count = resident(&flushes);
                    if count == 0 {
                        continue;
                    }
                    let page = flushes
                        .iter_mut()
                        .flatten()
                        .filter(|page| !page.released)
                        .nth(pick % count)
                        .expect("pick is below the count");
                    page.released = true;
                    pool.release(page.tag);
                }
                PoolOp::ReleaseNewest(lpa) => {
                    let newest = flushes
                        .last_mut()
                        .and_then(|flush| flush.iter_mut().find(|page| page.lpa == lpa))
                        .filter(|page| !page.released);
                    if let Some(page) = newest {
                        page.released = true;
                        pool.release(page.tag);
                    }
                    prop_assert_eq!(pool.overwritten(Lpa::new(lpa)), overwritten(&flushes, lpa));
                }
                PoolOp::Move(lpa) => {
                    let newest = flushes
                        .iter_mut()
                        .rev()
                        .find_map(|flush| flush.iter_mut().find(|page| page.lpa == lpa));
                    if let Some(page) = newest {
                        page.ppa = next_ppa;
                    }
                    pool.moved(Lpa::new(lpa), Ppa::new(next_ppa));
                    next_ppa += 1;
                }
                PoolOp::Clear => {
                    pool.clear();
                    pages.clear();
                    arrival.clear();
                    flushes.clear();
                }
            }
            prop_assert_eq!(pool.buffer().len(), pages.len());
            prop_assert_eq!(pool.resident(), resident(&flushes));
            prop_assert!(pages.len() + resident(&flushes) <= capacity);
        }
    }
}
