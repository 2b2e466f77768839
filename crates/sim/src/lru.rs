//! A byte-budgeted LRU used for the data cache and for demand-cached
//! mapping structures (DFTL's CMT, SFTL's condensed pages, LeaFTL's
//! group cache).
//!
//! Every key is an address or an id the simulator made up itself, so
//! the index hashes with [`leaftl_flash::IntHasher`]: a data-cache probe
//! sits on every host read, and a multiply is what it should cost.

use leaftl_flash::IntMap;
use std::collections::hash_map::Entry;
use std::hash::Hash;

/// One resident entry.
#[derive(Debug, Clone)]
struct Slot<K, V> {
    key: K,
    value: V,
    bytes: usize,
    dirty: bool,
    prev: usize,
    next: usize,
}

/// Least-recently-used cache with per-entry byte sizes and dirty flags.
///
/// Eviction is the caller's decision ([`LruCache::evict_to`]), which
/// reports the dirty victims so that writers can account for their
/// write-back costs.
///
/// `clone_from` overwrites a cache in place, reusing its arena, free
/// list and index storage: a scheme that keeps a copy of its residency
/// state up to date (a persistence point, §3.8) copies the entries
/// without allocating. Two caches are equal when they hold the same
/// entries — value, size and dirty flag — in the same recency order.
#[derive(Debug)]
pub struct LruCache<K, V> {
    slots: Vec<Slot<K, V>>,
    free: Vec<usize>,
    index: IntMap<K, usize>,
    head: usize, // most recent
    tail: usize, // least recent
    bytes: usize,
}

const NIL: usize = usize::MAX;

impl<K: Clone, V: Clone> Clone for LruCache<K, V> {
    fn clone(&self) -> Self {
        LruCache {
            slots: self.slots.clone(),
            free: self.free.clone(),
            index: self.index.clone(),
            head: self.head,
            tail: self.tail,
            bytes: self.bytes,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.slots.clone_from(&source.slots);
        self.free.clone_from(&source.free);
        self.index.clone_from(&source.index);
        self.head = source.head;
        self.tail = source.tail;
        self.bytes = source.bytes;
    }
}

impl<K, V> LruCache<K, V> {
    /// The resident entries from most to least recently used.
    fn slots_mru(&self) -> impl Iterator<Item = &Slot<K, V>> {
        let mut cursor = self.head;
        std::iter::from_fn(move || {
            let slot = self.slots.get(cursor)?;
            cursor = slot.next;
            Some(slot)
        })
    }
}

impl<K: PartialEq, V: PartialEq> PartialEq for LruCache<K, V> {
    fn eq(&self, other: &Self) -> bool {
        self.bytes == other.bytes
            && self.index.len() == other.index.len()
            && self.slots_mru().zip(other.slots_mru()).all(|(a, b)| {
                (&a.key, &a.value, a.bytes, a.dirty) == (&b.key, &b.value, b.bytes, b.dirty)
            })
    }
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// An empty cache.
    pub fn new() -> Self {
        LruCache {
            slots: Vec::new(),
            free: Vec::new(),
            index: IntMap::default(),
            head: NIL,
            tail: NIL,
            bytes: 0,
        }
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Total bytes of resident entries.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Whether `key` is resident, without promoting it.
    pub fn contains(&self, key: &K) -> bool {
        self.index.contains_key(key)
    }

    /// Reads an entry and promotes it to most-recently-used.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let idx = *self.index.get(key)?;
        self.promote(idx);
        Some(&self.slots[idx].value)
    }

    /// Reads without promotion.
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.index.get(key).map(|&idx| &self.slots[idx].value)
    }

    /// Changes an entry's value in place, without promotion.
    pub fn peek_mut(&mut self, key: &K) -> Option<&mut V> {
        let idx = *self.index.get(key)?;
        Some(&mut self.slots[idx].value)
    }

    /// Inserts or replaces an entry with the given byte size, promoting
    /// it. Returns the previous value if the key was resident.
    pub fn insert(&mut self, key: K, value: V, bytes: usize, dirty: bool) -> Option<V> {
        let vacant = match self.index.entry(key) {
            Entry::Occupied(resident) => {
                let idx = *resident.get();
                let slot = &mut self.slots[idx];
                self.bytes = self.bytes - slot.bytes + bytes;
                slot.bytes = bytes;
                slot.dirty = slot.dirty || dirty;
                let old = std::mem::replace(&mut slot.value, value);
                self.promote(idx);
                return Some(old);
            }
            Entry::Vacant(vacant) => vacant,
        };
        let slot = Slot {
            key: vacant.key().clone(),
            value,
            bytes,
            dirty,
            prev: NIL,
            next: NIL,
        };
        let idx = match self.free.pop() {
            Some(idx) => {
                self.slots[idx] = slot;
                idx
            }
            None => {
                self.slots.push(slot);
                self.slots.len() - 1
            }
        };
        vacant.insert(idx);
        self.bytes += bytes;
        self.attach_front(idx);
        None
    }

    /// Marks a resident entry dirty (no promotion).
    pub fn mark_dirty(&mut self, key: &K) {
        if let Some(&idx) = self.index.get(key) {
            self.slots[idx].dirty = true;
        }
    }

    /// Whether a resident entry is dirty.
    pub fn is_dirty(&self, key: &K) -> bool {
        self.index
            .get(key)
            .is_some_and(|&idx| self.slots[idx].dirty)
    }

    /// Updates the byte accounting of a resident entry (e.g. a condensed
    /// translation page whose run count changed).
    pub fn resize(&mut self, key: &K, bytes: usize) {
        if let Some(&idx) = self.index.get(key) {
            self.bytes = self.bytes - self.slots[idx].bytes + bytes;
            self.slots[idx].bytes = bytes;
        }
    }

    /// Removes an entry, returning `(value, was_dirty)`. The vacated
    /// arena slot is recycled; a `Default` placeholder fills it (every
    /// cache value in this crate is `Default`).
    pub fn remove(&mut self, key: &K) -> Option<(V, bool)>
    where
        V: Default,
    {
        let idx = self.index.remove(key)?;
        self.detach(idx);
        self.bytes -= self.slots[idx].bytes;
        self.free.push(idx);
        let slot = &mut self.slots[idx];
        slot.bytes = 0;
        let dirty = slot.dirty;
        let value = std::mem::take(&mut slot.value);
        Some((value, dirty))
    }

    /// Evicts the least-recently-used entry, returning
    /// `(key, value, was_dirty)`.
    pub fn pop_lru(&mut self) -> Option<(K, V, bool)>
    where
        V: Default,
    {
        if self.tail == NIL {
            return None;
        }
        let key = self.slots[self.tail].key.clone();
        let (value, dirty) = self.remove(&key)?;
        Some((key, value, dirty))
    }

    /// Evicts least-recently-used entries until the resident bytes fit
    /// `budget`; returns how many of the victims were dirty, each of
    /// which owes its owner a write-back.
    pub fn evict_to(&mut self, budget: usize) -> u32
    where
        V: Default,
    {
        let mut dirty_victims = 0;
        while self.bytes > budget {
            match self.pop_lru() {
                Some((_, _, dirty)) => dirty_victims += u32::from(dirty),
                None => break,
            }
        }
        dirty_victims
    }

    /// Iterates resident keys from most to least recently used.
    pub fn keys_mru(&self) -> impl Iterator<Item = &K> {
        self.slots_mru().map(|slot| &slot.key)
    }

    fn promote(&mut self, idx: usize) {
        if self.head == idx {
            return;
        }
        self.detach(idx);
        self.attach_front(idx);
    }

    fn attach_front(&mut self, idx: usize) {
        self.slots[idx].prev = NIL;
        self.slots[idx].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    fn detach(&mut self, idx: usize) {
        let (prev, next) = (self.slots[idx].prev, self.slots[idx].next);
        if prev != NIL {
            self.slots[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slots[next].prev = prev;
        } else {
            self.tail = prev;
        }
        self.slots[idx].prev = NIL;
        self.slots[idx].next = NIL;
    }
}

impl<K: Eq + Hash + Clone, V> Default for LruCache<K, V> {
    fn default() -> Self {
        LruCache::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_promotes() {
        let mut lru: LruCache<u32, u64> = LruCache::new();
        lru.insert(1, 10, 8, false);
        lru.insert(2, 20, 8, false);
        lru.insert(3, 30, 8, false);
        assert_eq!(lru.get(&1), Some(&10)); // promote 1
        let (key, value, dirty) = lru.pop_lru().unwrap();
        assert_eq!((key, value, dirty), (2, 20, false));
    }

    #[test]
    fn byte_accounting() {
        let mut lru: LruCache<u32, u64> = LruCache::new();
        lru.insert(1, 0, 100, false);
        lru.insert(2, 0, 50, false);
        assert_eq!(lru.bytes(), 150);
        lru.resize(&1, 80);
        assert_eq!(lru.bytes(), 130);
        lru.remove(&2);
        assert_eq!(lru.bytes(), 80);
        assert_eq!(lru.len(), 1);
    }

    #[test]
    fn dirty_tracking() {
        let mut lru: LruCache<u32, u64> = LruCache::new();
        lru.insert(1, 0, 8, false);
        assert!(!lru.is_dirty(&1));
        lru.mark_dirty(&1);
        assert!(lru.is_dirty(&1));
        // Re-inserting clean keeps the dirty bit (write-back still owed).
        lru.insert(1, 1, 8, false);
        assert!(lru.is_dirty(&1));
        let (_, _, dirty) = lru.pop_lru().unwrap();
        assert!(dirty);
    }

    #[test]
    fn reinsert_replaces_value_and_bytes() {
        let mut lru: LruCache<u32, u64> = LruCache::new();
        lru.insert(7, 1, 10, false);
        let old = lru.insert(7, 2, 20, true);
        assert_eq!(old, Some(1));
        assert_eq!(lru.bytes(), 20);
        assert_eq!(lru.len(), 1);
        assert!(lru.is_dirty(&7));
    }

    #[test]
    fn pop_order_is_lru() {
        let mut lru: LruCache<u32, u32> = LruCache::new();
        for i in 0..5 {
            lru.insert(i, i, 1, false);
        }
        lru.get(&0);
        lru.get(&2);
        let order: Vec<u32> = std::iter::from_fn(|| lru.pop_lru().map(|(k, _, _)| k)).collect();
        assert_eq!(order, vec![1, 3, 4, 0, 2]);
    }

    #[test]
    fn evict_to_stops_at_the_budget_and_counts_dirty_victims() {
        let mut lru: LruCache<u32, u32> = LruCache::new();
        assert_eq!(lru.evict_to(0), 0, "an empty cache has nothing to evict");
        // 10 B each; 1 and 3 dirty. LRU order: 0, 1, 2, 3, 4.
        for i in 0..5 {
            lru.insert(i, i, 10, i % 2 == 1);
        }
        assert_eq!(lru.evict_to(50), 0, "already within the budget");
        assert_eq!(lru.len(), 5);
        // 25 B leaves two entries: 0, 1 and 2 go, of which 1 was dirty.
        assert_eq!(lru.evict_to(25), 1);
        assert_eq!(lru.bytes(), 20);
        assert_eq!(lru.keys_mru().copied().collect::<Vec<_>>(), vec![4, 3]);
        // Below the smallest entry empties the cache and stops there.
        assert_eq!(lru.evict_to(5), 1);
        assert!(lru.is_empty());
        assert_eq!(lru.bytes(), 0);
    }

    #[test]
    fn clone_from_reuses_storage_and_equality_is_by_entries() {
        let mut live: LruCache<u32, u32> = LruCache::new();
        for i in 0..100 {
            live.insert(i, i, 1 + i as usize % 3, i % 2 == 0);
        }
        let mut kept = live.clone();
        assert!(kept == live);
        // Evictions, a promotion, a resize and a new entry later the
        // kept copy differs, and catches up without a new arena.
        live.evict_to(60);
        live.get(&70);
        live.resize(&80, 9);
        live.insert(200, 7, 2, true);
        assert!(kept != live);
        let arena = kept.slots.as_ptr();
        kept.clone_from(&live);
        assert!(kept == live);
        assert_eq!(kept.slots.as_ptr(), arena, "the arena was reused");
        assert_eq!(
            kept.keys_mru().collect::<Vec<_>>(),
            live.keys_mru().collect::<Vec<_>>()
        );
        assert_eq!(kept.pop_lru(), live.pop_lru());
        // Same keys in another order, or another dirty flag: not equal.
        kept.get(&70);
        live.get(&70);
        assert!(kept == live);
        kept.get(&200);
        assert!(kept != live);
        live.get(&200);
        live.mark_dirty(&99);
        assert!(kept != live);
    }

    #[test]
    fn mru_iteration() {
        let mut lru: LruCache<u32, u32> = LruCache::new();
        lru.insert(1, 0, 1, false);
        lru.insert(2, 0, 1, false);
        lru.get(&1);
        let keys: Vec<u32> = lru.keys_mru().copied().collect();
        assert_eq!(keys, vec![1, 2]);
    }

    #[test]
    fn slot_recycling() {
        let mut lru: LruCache<u32, u32> = LruCache::new();
        for i in 0..100 {
            lru.insert(i, i, 1, false);
        }
        for _ in 0..50 {
            lru.pop_lru();
        }
        for i in 100..150 {
            lru.insert(i, i, 1, false);
        }
        // Arena should have been reused, not grown past 100 slots.
        assert!(lru.slots.len() <= 100);
        assert_eq!(lru.len(), 100);
    }
}
