//! The mapping-scheme interface every FTL implements, plus an exact
//! in-DRAM page map used as the correctness oracle and as an idealised
//! baseline.
//!
//! The trait historically lived in the simulator crate; it moved here
//! so the *translation service* — [`crate::shards::ShardedMapping`] and
//! any future scheme composition — can be built against it without a
//! dependency cycle. The simulator re-exports everything under its old
//! paths.

use leaftl_flash::{IntMap, Lpa, Ppa};

/// Flash traffic caused by mapping-structure management (translation
/// page fetches and write-backs for demand-cached tables).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MapCost {
    /// Translation-page reads.
    pub translation_reads: u32,
    /// Translation-page writes.
    pub translation_writes: u32,
}

impl MapCost {
    /// Zero cost.
    pub const FREE: MapCost = MapCost {
        translation_reads: 0,
        translation_writes: 0,
    };

    /// Component-wise sum.
    pub fn add(&mut self, other: MapCost) {
        self.translation_reads += other.translation_reads;
        self.translation_writes += other.translation_writes;
    }
}

/// A successful address translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MappingLookup {
    /// Predicted physical page address.
    pub ppa: Ppa,
    /// Whether the prediction may be inexact (LeaFTL approximate
    /// segments); the true PPA is within `±error_bound` pages.
    pub approximate: bool,
    /// Error bound of the prediction (0 for exact schemes).
    pub error_bound: u32,
    /// Index-structure levels visited (1 for flat schemes).
    pub levels_visited: u32,
}

impl MappingLookup {
    /// An exact translation (page-level schemes).
    pub fn exact(ppa: Ppa) -> Self {
        MappingLookup {
            ppa,
            approximate: false,
            error_bound: 0,
            levels_visited: 1,
        }
    }
}

/// Structural pressure snapshot of one translation shard
/// ([`MappingScheme::shard_pressure`]). Both axes grow as
/// overwrites stack shadowed state: `levels` is the deepest
/// log-structured stack (lookup cost), `segments` the resident segment
/// count (memory cost).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardPressure {
    /// Deepest log-structured level stack in the shard (0 when the
    /// scheme has no log-structured state).
    pub levels: u32,
    /// Learned segments resident in the shard (0 for table schemes).
    pub segments: usize,
}

/// An LPA→PPA mapping scheme: the part of the FTL the LeaFTL paper
/// varies between DFTL, SFTL and LeaFTL.
///
/// The simulator owns everything else (write buffering, GC, wear
/// levelling, caching) and calls into the scheme for translation and
/// batch updates. Schemes report DRAM consumption via
/// [`memory_bytes`](MappingScheme::memory_bytes) and charge flash
/// traffic for demand-cached structures through [`MapCost`].
///
/// # Sharding hooks
///
/// The `shard_*` methods expose the scheme's internal partitioning to
/// the device front-end. A monolithic scheme is one shard (the
/// defaults); [`crate::shards::ShardedMapping`] partitions the LPA
/// space into N independent range shards so the device can translate
/// bursts in parallel and schedule per-shard compaction as background
/// traffic instead of an inline flush-path side effect.
pub trait MappingScheme {
    /// Human-readable scheme name (used in experiment output).
    fn name(&self) -> &'static str;

    /// Installs mappings for a flushed batch. Entries may arrive in any
    /// order (the unsorted-flush ablation disables the buffer sort);
    /// the scheme must tolerate duplicates (last write wins).
    fn update_batch(&mut self, pairs: &[(Lpa, Ppa)]) -> MapCost;

    /// Installs a batch known to be sorted by strictly increasing LPA
    /// with no duplicates — the shape every sorted flush, GC migration
    /// and wear swap produces. Schemes that pay for defensive sorting
    /// (LeaFTL's learner) override this with a fast path; the default
    /// simply forwards to [`MappingScheme::update_batch`].
    fn update_batch_sorted(&mut self, pairs: &[(Lpa, Ppa)]) -> MapCost {
        self.update_batch(pairs)
    }

    /// Translates an LPA, or `None` when unmapped.
    fn lookup(&mut self, lpa: Lpa) -> (Option<MappingLookup>, MapCost);

    /// Translates a batch of LPAs (one queued-engine dispatch round) by
    /// calling [`MappingScheme::lookup`] per address in order.
    fn lookup_batch(&mut self, lpas: &[Lpa]) -> Vec<(Option<MappingLookup>, MapCost)> {
        lpas.iter().map(|&lpa| self.lookup(lpa)).collect()
    }

    /// Whether [`MappingScheme::lookup`] is currently free of side
    /// effects (no demand-paging state changes, no flash cost). When
    /// true, the engine may *hoist* a read burst's translations into
    /// one [`MappingScheme::lookup_batch`] call ahead of servicing;
    /// when false it must translate each request at its turn, because
    /// hoisting would reorder cache/CMT mutations relative to the
    /// blocking path. Defaults to the conservative `false`; schemes
    /// whose tables are DRAM-resident (LeaFTL's headline case) return
    /// true.
    fn lookup_is_pure(&self) -> bool {
        false
    }

    /// Bytes of controller DRAM the scheme currently occupies.
    fn memory_bytes(&self) -> usize;

    /// Sets the DRAM budget for demand-cached structures. Called once
    /// at device construction.
    fn set_memory_budget(&mut self, bytes: usize);

    /// Periodic housekeeping (e.g. LeaFTL compaction). Called after
    /// every flush while compaction runs inline; returns flash cost
    /// plus whether a compaction ran.
    fn maintain(&mut self) -> (MapCost, bool);

    /// Credits `writes` mappings that a sharded service routed to
    /// *sibling* shards, so interval-gated maintenance fires at the
    /// device-wide write rate instead of the shard-local one (a shard
    /// seeing 1/N of the traffic would otherwise compact N× less
    /// often). Called by [`crate::shards::ShardedMapping`] after every
    /// multi-shard batch; schemes without interval-gated maintenance
    /// ignore it (the default).
    fn note_sibling_writes(&mut self, writes: u64) {
        let _ = writes;
    }

    /// CPU nanoseconds a batch learn costs (0 for table-update schemes;
    /// LeaFTL charges ~10 µs per 256 mappings, Table 3).
    fn learn_cost_ns(&self, batch_len: usize) -> u64 {
        let _ = batch_len;
        0
    }

    /// Bytes needed to persist the scheme's whole state. A
    /// `DramSnapshot` persistence point prices its write-back from
    /// this: the share of these bytes that the 256-LPA groups remapped
    /// since the previous point make up of the groups ever mapped —
    /// the table's mean per group, whatever the scheme's own unit of
    /// persistence is (LeaFTL's learned groups, the GTD of DFTL / SFTL).
    fn snapshot_bytes(&self) -> usize {
        self.memory_bytes()
    }

    /// Byte footprint of a durable checkpoint, split into
    /// `(segment/table bytes, CRB bytes)` — the two structures §3
    /// persists. The flash-resident translation log sizes checkpoint
    /// entries (and thus how many log pages a checkpoint programs)
    /// from this. The default counts the whole snapshot as table
    /// bytes; schemes with a CRB report it separately.
    fn checkpoint_footprint(&self) -> (usize, usize) {
        (self.snapshot_bytes(), 0)
    }

    /// Brings `checkpoint` — the recovery baseline a persistence point
    /// keeps (§3.8) — up to date with `self`, leaving it what
    /// `self.clone()` would be. The contract that lets a scheme do so
    /// at the cost of what changed: `checkpoint` is what `self` was
    /// when this last ran on it, or any clone of `self` taken since
    /// (and a scheme restored from a clone of its checkpoint is in
    /// step with it). Schemes list what they change and re-point
    /// exactly that; the default is the whole clone, for wrappers that
    /// keep no list.
    fn sync_checkpoint(&mut self, checkpoint: &mut Self)
    where
        Self: Sized + Clone,
    {
        *checkpoint = self.clone();
    }

    /// Number of independent translation shards (1 for monolithic
    /// schemes). The simulator reads none: a lookup's CPU cost runs on
    /// its request's own dependency chain, whatever its shard. Kept,
    /// with its default, for wrappers that forward it.
    fn shard_count(&self) -> usize {
        1
    }

    /// The shard responsible for `lpa` (always 0 for monolithic
    /// schemes).
    fn shard_of(&self, lpa: Lpa) -> usize {
        let _ = lpa;
        0
    }

    /// Structural pressure of one shard. No scheme in this workspace
    /// reports it and the simulator reads none: compaction runs inline
    /// at the flush ([`MappingScheme::maintain`]). Kept, with its
    /// default, for wrappers that forward it.
    fn shard_pressure(&self, shard: usize) -> ShardPressure {
        let _ = shard;
        ShardPressure::default()
    }

    /// Compacts one shard *now* (unconditionally, unlike the
    /// interval-gated [`MappingScheme::maintain`]). Returns flash cost
    /// plus whether anything was compacted. `ShardedMapping::compact_all`
    /// sweeps every shard through it; the default forwards to
    /// `maintain` for monolithic schemes.
    fn maintain_shard(&mut self, shard: usize) -> (MapCost, bool) {
        let _ = shard;
        self.maintain()
    }

    /// CPU nanoseconds compacting `shard` would cost right now. No
    /// scheme in this workspace reports it and the simulator reads
    /// none; kept, with its default of 0, for wrappers that forward
    /// it.
    fn compact_cost_ns(&self, shard: usize) -> u64 {
        let _ = shard;
        0
    }
}

/// Exact page-level mapping held entirely in DRAM.
///
/// Serves two roles: the correctness oracle for differential tests, and
/// an idealised "infinite-CMT DFTL" baseline with zero translation
/// traffic but maximal memory use (8 B per mapped page).
#[derive(Debug, Clone, Default)]
pub struct ExactPageMap {
    map: IntMap<Lpa, Ppa>,
}

impl ExactPageMap {
    /// An empty map.
    pub fn new() -> Self {
        ExactPageMap::default()
    }

    /// Number of mapped pages.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no page is mapped.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Direct read access (no scheme costs), for tests.
    pub fn get(&self, lpa: Lpa) -> Option<Ppa> {
        self.map.get(&lpa).copied()
    }
}

impl MappingScheme for ExactPageMap {
    fn name(&self) -> &'static str {
        "PageMap"
    }

    fn update_batch(&mut self, pairs: &[(Lpa, Ppa)]) -> MapCost {
        for &(lpa, ppa) in pairs {
            self.map.insert(lpa, ppa);
        }
        MapCost::FREE
    }

    fn lookup(&mut self, lpa: Lpa) -> (Option<MappingLookup>, MapCost) {
        (
            self.map.get(&lpa).map(|&ppa| MappingLookup::exact(ppa)),
            MapCost::FREE,
        )
    }

    fn memory_bytes(&self) -> usize {
        self.map.len() * 8
    }

    fn set_memory_budget(&mut self, _bytes: usize) {}

    fn maintain(&mut self) -> (MapCost, bool) {
        (MapCost::FREE, false)
    }

    fn lookup_is_pure(&self) -> bool {
        true
    }

    fn sync_checkpoint(&mut self, checkpoint: &mut Self) {
        // The oracle keeps no change list; it reuses the kept map's
        // storage instead of building a new one.
        checkpoint.map.clone_from(&self.map);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_map_roundtrip() {
        let mut map = ExactPageMap::new();
        let pairs = vec![(Lpa::new(1), Ppa::new(100)), (Lpa::new(2), Ppa::new(101))];
        assert_eq!(map.update_batch(&pairs), MapCost::FREE);
        let (hit, cost) = map.lookup(Lpa::new(1));
        assert_eq!(hit.unwrap().ppa, Ppa::new(100));
        assert_eq!(cost, MapCost::FREE);
        assert!(map.lookup(Lpa::new(3)).0.is_none());
        assert_eq!(map.memory_bytes(), 16);
    }

    #[test]
    fn exact_map_overwrite() {
        let mut map = ExactPageMap::new();
        map.update_batch(&[(Lpa::new(7), Ppa::new(1))]);
        map.update_batch(&[(Lpa::new(7), Ppa::new(2))]);
        assert_eq!(map.get(Lpa::new(7)), Some(Ppa::new(2)));
        assert_eq!(map.len(), 1);
    }

    #[test]
    fn map_cost_add() {
        let mut cost = MapCost::FREE;
        cost.add(MapCost {
            translation_reads: 2,
            translation_writes: 1,
        });
        cost.add(MapCost {
            translation_reads: 1,
            translation_writes: 0,
        });
        assert_eq!(cost.translation_reads, 3);
        assert_eq!(cost.translation_writes, 1);
    }

    #[test]
    fn monolithic_defaults_are_one_shard() {
        let map = ExactPageMap::new();
        assert_eq!(map.shard_count(), 1);
        assert_eq!(map.shard_of(Lpa::new(123_456)), 0);
        assert_eq!(map.shard_pressure(0), ShardPressure::default());
        assert_eq!(map.compact_cost_ns(0), 0);
    }
}
