//! Deterministic hashing for maps keyed by addresses and small ids.
//!
//! The standard library's default `RandomState` seeds SipHash from OS
//! entropy: iteration order differs from run to run, and every probe
//! pays ~20 ns for a defence against crafted keys. The simulator's
//! keys — [`crate::Lpa`]s, group ids, log sequence numbers — are dense
//! integers it generates itself, so its maps use [`IntMap`] /
//! [`IntSet`]: one multiply per key, the same table layout in every
//! run. Keep `RandomState` for keys that arrive from outside the
//! program.
//!
//! Neither type can be iterated: the order a hash table visits its
//! entries in is an accident of its history, and byte-identical trace
//! exports and seed-reproducible replays hold only while no state
//! derives from it. What needs an order keeps one beside the index (the
//! LRU's slot list, the write buffer's arrival list) or is a `BTreeMap`.

#![expect(
    clippy::disallowed_types,
    reason = "the one module that wraps the std tables; everything else goes through its types"
)]

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// 2⁶⁴ / φ, odd: multiplying by it is a bijection on `u64` that carries
/// every input bit into the high half.
const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

/// Multiplicative (Fibonacci) hasher for integer keys.
///
/// Each integer written is folded in with one xor and one multiply;
/// [`Hasher::finish`] folds the well-mixed high half onto the low half,
/// which the standard table takes its bucket index from — so keys that
/// share their low bits (strided addresses, `id << k`) still spread.
/// Byte slices are folded eight bytes at a time; derived `Hash` impls
/// of integer newtypes never take that path.
#[derive(Debug, Clone, Copy, Default)]
pub struct IntHasher(u64);

impl IntHasher {
    #[inline]
    fn fold(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(GOLDEN);
    }
}

impl Hasher for IntHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.fold(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.fold(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.fold(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.fold(n as u64);
    }
}

/// A `HashMap` over [`IntHasher`] with keyed access only: build with
/// `IntMap::default()`.
///
/// ```compile_fail
/// leaftl_flash::IntMap::<u64, u64>::default().iter();
/// ```
#[derive(Debug)]
pub struct IntMap<K, V>(HashMap<K, V, BuildHasherDefault<IntHasher>>);

/// A `HashSet` over [`IntHasher`] with keyed access only: build with
/// `IntSet::default()`.
///
/// ```compile_fail
/// for _ in &leaftl_flash::IntSet::<u64>::default() {}
/// ```
#[derive(Debug, Clone)]
pub struct IntSet<K>(HashSet<K, BuildHasherDefault<IntHasher>>);

impl<K, V> Default for IntMap<K, V> {
    fn default() -> Self {
        IntMap(HashMap::default())
    }
}

impl<K, V> IntMap<K, V> {
    /// Number of entries.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the map holds no entry.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Removes every entry, keeping the storage.
    pub fn clear(&mut self) {
        self.0.clear();
    }
}

impl<K: Clone, V: Clone> Clone for IntMap<K, V> {
    fn clone(&self) -> Self {
        IntMap(self.0.clone())
    }

    /// Overwrites in place, reusing the table's storage.
    fn clone_from(&mut self, source: &Self) {
        self.0.clone_from(&source.0);
    }
}

impl<K: Eq + Hash, V> IntMap<K, V> {
    /// The value stored under `key`.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.0.get(key)
    }

    /// Whether `key` has an entry.
    pub fn contains_key(&self, key: &K) -> bool {
        self.0.contains_key(key)
    }

    /// Stores `value` under `key`, returning the value it replaces.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        self.0.insert(key, value)
    }

    /// Removes and returns the value stored under `key`.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        self.0.remove(key)
    }

    /// The entry of `key`, for one-probe insert-or-update.
    pub fn entry(&mut self, key: K) -> Entry<'_, K, V> {
        self.0.entry(key)
    }
}

impl<K> Default for IntSet<K> {
    fn default() -> Self {
        IntSet(HashSet::default())
    }
}

impl<K: Eq + Hash> IntSet<K> {
    /// Adds `key`; `false` when it was a member already.
    pub fn insert(&mut self, key: K) -> bool {
        self.0.insert(key)
    }

    /// Removes every member, keeping the storage.
    pub fn clear(&mut self) {
        self.0.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Lpa;
    use std::hash::BuildHasher;

    fn hash_of<T: Hash>(value: T) -> u64 {
        BuildHasherDefault::<IntHasher>::default().hash_one(value)
    }

    #[test]
    fn equal_keys_hash_equal_in_every_map() {
        assert_eq!(hash_of(Lpa::new(77)), hash_of(Lpa::new(77)));
        assert_eq!(hash_of(77u64), hash_of(Lpa::new(77)));
        assert_ne!(hash_of(77u64), hash_of(78u64));
    }

    /// The standard table indexes buckets by the hash's low bits and
    /// tags entries by its top seven: neither may collapse for dense
    /// keys or for keys that are multiples of a power of two.
    #[test]
    fn dense_and_strided_keys_spread_over_low_and_high_bits() {
        for shift in [0u32, 8, 20, 32] {
            let mut low = IntSet::default();
            let mut high = IntSet::default();
            for key in 0..4096u64 {
                let hash = hash_of(key << shift);
                low.insert(hash & 0xfff);
                high.insert(hash >> 57);
            }
            assert!(
                low.0.len() > 2400,
                "shift {shift}: {} low patterns",
                low.0.len()
            );
            assert_eq!(high.0.len(), 128, "shift {shift}");
        }
    }

    #[test]
    fn byte_slices_hash_by_content() {
        assert_eq!(hash_of("segment"), hash_of("segment"));
        assert_ne!(hash_of("segment"), hash_of("segmenu"));
        assert_ne!(
            hash_of([1u8, 2, 3].as_slice()),
            hash_of([1u8, 2].as_slice())
        );
    }

    #[test]
    fn maps_behave_like_maps() {
        let mut map: IntMap<Lpa, u64> = IntMap::default();
        for raw in 0..1000u64 {
            map.insert(Lpa::new(raw * 256), raw);
        }
        assert_eq!(map.len(), 1000);
        assert_eq!(map.get(&Lpa::new(256 * 999)), Some(&999));
        assert_eq!(map.remove(&Lpa::new(0)), Some(0));
        assert!(!map.contains_key(&Lpa::new(0)));
    }

    /// What a kept recovery baseline pays for: bringing a copy of equal
    /// size up to date reuses its table instead of allocating one.
    #[test]
    fn clone_from_reuses_the_storage() {
        let mut live: IntMap<u64, u64> = IntMap::default();
        for key in 0..1000 {
            live.insert(key, key);
        }
        let mut kept = live.clone();
        let storage = (kept.0.capacity(), std::ptr::from_ref(&kept.0[&999]));
        for key in 0..1000 {
            live.insert(key, key + 1);
        }
        kept.clone_from(&live);
        assert_eq!((kept.len(), kept.get(&999)), (1000, Some(&1000)));
        assert_eq!(
            (kept.0.capacity(), std::ptr::from_ref(&kept.0[&999])),
            storage
        );
    }
}
