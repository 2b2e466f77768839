//! [`MappingScheme`] adapter for the learned mapping table.
//!
//! Wraps [`LeaFtlTable`] and adds the demand-caching model of §3.8: the
//! learned table is persisted in translation blocks; when it outgrows
//! its DRAM budget, per-group segments are fetched on demand (LRU over
//! groups, dirty groups written back on eviction). In the common case —
//! the paper's headline result — the learned table is small enough that
//! everything stays resident and no translation traffic occurs.
//!
//! Every residency decision is O(1): the footprint check reads the
//! table's incremental aggregate counters and each touched group is
//! charged its *exact* byte size (`LeaFtlTable::group_bytes`), not a
//! whole-table average — after a learn mutates a batch's groups the
//! resident records are re-synced ([`LeaFtlScheme`] internals), and
//! after a compaction sweep the records of the groups it swept are
//! refreshed, so LRU eviction and translation-write costs always reflect
//! the group actually paged (invariant pinned by the
//! `accounting_equivalence` proptests).

use crate::lru::LruCache;
use leaftl_core::{
    LeaFtlConfig, LeaFtlTable, LookupResult, MapCost, MappingLookup, MappingScheme, TableStats,
};
use leaftl_flash::{Lpa, Ppa};

/// CPU cost of learning one batch of up to 256 mappings (Table 3:
/// ~10 µs).
const LEARN_NS_PER_BATCH: u64 = 10_000;

/// A table hit as the scheme interface reports it.
fn mapping_lookup(hit: LookupResult) -> MappingLookup {
    MappingLookup {
        ppa: hit.ppa,
        approximate: hit.approximate,
        error_bound: hit.error_bound,
        levels_visited: hit.levels_visited,
    }
}

/// LeaFTL as a pluggable mapping scheme.
#[derive(Debug, Clone)]
pub struct LeaFtlScheme {
    table: LeaFtlTable,
    budget: usize,
    /// Resident-group LRU; value is unused, byte accounting carries the
    /// group's segment + CRB footprint.
    resident: LruCache<u64, ()>,
}

impl LeaFtlScheme {
    /// Wraps a learned table with the given error bound γ.
    pub fn new(config: LeaFtlConfig) -> Self {
        LeaFtlScheme {
            table: LeaFtlTable::new(config),
            budget: usize::MAX,
            resident: LruCache::new(),
        }
    }

    /// Read access to the underlying learned table (stats, experiments).
    pub fn table(&self) -> &LeaFtlTable {
        &self.table
    }

    /// Structural statistics snapshot (Figs. 5/10/12/20).
    pub fn table_stats(&self) -> TableStats {
        self.table.stats()
    }

    /// Bytes the resident-group LRU currently accounts for. Invariant
    /// (pinned by the `accounting_equivalence` proptests): equals the
    /// sum of [`LeaFtlTable::group_bytes`] over the resident groups.
    pub fn resident_bytes(&self) -> usize {
        self.resident.bytes()
    }

    /// Ids of the currently resident groups, most recently used first.
    pub fn resident_groups(&self) -> impl Iterator<Item = u64> + '_ {
        self.resident.keys_mru().copied()
    }

    fn group_bytes(&self, group: u64) -> usize {
        // Exact per-group footprint — O(1) from the table's incremental
        // per-group counters, so LRU residency charges the group
        // actually paged instead of a whole-table average.
        self.table.group_bytes(group)
    }

    /// Invokes `act` once per group run in the batch (consecutive
    /// same-group pairs collapse to one call) — the single definition
    /// of "which groups does this batch touch" shared by the touch and
    /// recharge passes, so the two can never diverge.
    fn for_each_batch_group(pairs: &[(Lpa, Ppa)], mut act: impl FnMut(u64)) {
        if let Some(&(first, _)) = pairs.first() {
            let mut group = first.group();
            act(group);
            for &(lpa, _) in pairs {
                if lpa.group() != group {
                    group = lpa.group();
                    act(group);
                }
            }
        }
    }

    /// Touches every group a batch spans (usually one or two), dirty.
    fn touch_batch_groups(&mut self, pairs: &[(Lpa, Ppa)]) -> MapCost {
        let mut cost = MapCost::FREE;
        Self::for_each_batch_group(pairs, |group| cost.add(self.touch_group(group, true)));
        cost
    }

    /// Re-syncs residency byte accounting after a learn mutated the
    /// batch's groups (their exact footprints grew or shrank), then
    /// enforces the budget, charging one translation write per dirty
    /// victim.
    fn recharge_batch_groups(&mut self, pairs: &[(Lpa, Ppa)]) -> MapCost {
        if self.whole_table_fits() {
            // Whole table fits: residency is not in play.
            return MapCost::FREE;
        }
        Self::for_each_batch_group(pairs, |group| {
            self.resident.resize(&group, self.table.group_bytes(group));
        });
        MapCost {
            translation_reads: 0,
            translation_writes: self.resident.evict_to(self.budget),
        }
    }

    /// Re-syncs the byte records of the groups a compaction sweep
    /// visited (the only ones whose footprint can have changed; a
    /// swept group that is not resident has no record to refresh).
    fn resync_resident_after_compaction(&mut self, swept: &[u64]) {
        for group in swept {
            self.resident.resize(group, self.table.group_bytes(*group));
        }
    }

    /// Whether the whole table currently fits the DRAM budget. When it
    /// does, residency state left over from an earlier over-budget
    /// episode is dropped: the in-DRAM table is authoritative again,
    /// nothing can be evicted, and the next overflow faults groups in
    /// fresh (charging reads) — keeping the pinned invariant
    /// `resident_bytes == Σ group_bytes(resident)` from going stale
    /// across the fitted phase.
    fn whole_table_fits(&mut self) -> bool {
        if self.table.memory_bytes().total() > self.budget {
            return false;
        }
        if !self.resident.is_empty() {
            self.resident = LruCache::new();
        }
        true
    }

    /// Ensures `group` is resident, returning the incurred cost.
    fn touch_group(&mut self, group: u64, dirty: bool) -> MapCost {
        let mut cost = MapCost::FREE;
        if self.whole_table_fits() {
            // Whole table fits: nothing to demand-page.
            return cost;
        }
        if self.resident.contains(&group) {
            self.resident.get(&group); // promote
            if dirty {
                self.resident.mark_dirty(&group);
            }
            return cost;
        }
        let bytes = self.group_bytes(group);
        cost.translation_reads += 1;
        self.resident.insert(group, (), bytes, dirty);
        cost.translation_writes += self.resident.evict_to(self.budget);
        cost
    }
}

impl MappingScheme for LeaFtlScheme {
    fn name(&self) -> &'static str {
        "LeaFTL"
    }

    fn update_batch(&mut self, pairs: &[(Lpa, Ppa)]) -> MapCost {
        let mut cost = self.touch_batch_groups(pairs);
        self.table.learn(pairs);
        cost.add(self.recharge_batch_groups(pairs));
        cost
    }

    fn update_batch_sorted(&mut self, pairs: &[(Lpa, Ppa)]) -> MapCost {
        let mut cost = self.touch_batch_groups(pairs);
        self.table.learn_sorted(pairs);
        cost.add(self.recharge_batch_groups(pairs));
        cost
    }

    fn lookup(&mut self, lpa: Lpa) -> (Option<MappingLookup>, MapCost) {
        let cost = self.touch_group(lpa.group(), false);
        (self.table.lookup(lpa).map(mapping_lookup), cost)
    }

    fn memory_bytes(&self) -> usize {
        self.table.memory_bytes().total().min(self.budget)
    }

    fn set_memory_budget(&mut self, bytes: usize) {
        self.budget = bytes.max(1);
    }

    fn maintain(&mut self) -> (MapCost, bool) {
        let swept = self.table.maybe_compact();
        if let Some(swept) = &swept {
            self.resync_resident_after_compaction(swept);
        }
        (MapCost::FREE, swept.is_some())
    }

    fn note_sibling_writes(&mut self, writes: u64) {
        self.table.note_external_writes(writes);
    }

    fn lookup_is_pure(&self) -> bool {
        // Fully resident table: touch_group is a no-op and every
        // lookup is a pure table read — the common case the paper
        // optimises for (the learned table fits in a fraction of the
        // DFTL-sized budget).
        self.table.memory_bytes().total() <= self.budget
    }

    fn learn_cost_ns(&self, batch_len: usize) -> u64 {
        let batches = batch_len.div_ceil(256).max(1) as u64;
        batches * LEARN_NS_PER_BATCH
    }

    fn snapshot_bytes(&self) -> usize {
        self.table.memory_bytes().total()
    }

    fn checkpoint_footprint(&self) -> (usize, usize) {
        let memory = self.table.memory_bytes();
        (memory.segment_bytes, memory.crb_bytes)
    }

    fn sync_checkpoint(&mut self, checkpoint: &mut Self) {
        self.table.sync_checkpoint(&mut checkpoint.table);
        checkpoint.budget = self.budget;
        checkpoint.resident.clone_from(&self.resident);
        debug_assert!(
            checkpoint.resident == self.resident,
            "a synced checkpoint is a clone of the scheme"
        );
    }

    fn maintain_shard(&mut self, _shard: usize) -> (MapCost, bool) {
        // Compact now, regardless of the interval the inline
        // `maintain` path is gated on.
        if self.table.segment_count() == 0 {
            return (MapCost::FREE, false);
        }
        let swept = self.table.compact();
        self.resync_resident_after_compaction(&swept);
        (MapCost::FREE, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(lpa0: u64, ppa0: u64, n: u64) -> Vec<(Lpa, Ppa)> {
        (0..n)
            .map(|i| (Lpa::new(lpa0 + i), Ppa::new(ppa0 + i)))
            .collect()
    }

    #[test]
    fn resident_table_costs_nothing() {
        let mut scheme = LeaFtlScheme::new(LeaFtlConfig::default());
        scheme.set_memory_budget(1 << 20);
        let cost = scheme.update_batch(&batch(0, 100, 512));
        assert_eq!(cost, MapCost::FREE);
        let (hit, cost) = scheme.lookup(Lpa::new(17));
        assert_eq!(hit.unwrap().ppa, Ppa::new(117));
        assert_eq!(cost, MapCost::FREE);
    }

    #[test]
    fn oversubscribed_budget_charges_translation_io() {
        let mut scheme = LeaFtlScheme::new(LeaFtlConfig::default());
        // Budget below one group's footprint forces misses.
        scheme.set_memory_budget(8);
        // Random single-point writes across many groups.
        let mut total_cost = MapCost::FREE;
        for g in 0..32u64 {
            total_cost.add(scheme.update_batch(&[(Lpa::new(g * 256), Ppa::new(1000 + g))]));
        }
        assert!(total_cost.translation_reads > 0, "misses expected");
        // Dirty evictions produce write-backs.
        assert!(total_cost.translation_writes > 0, "write-backs expected");
    }

    #[test]
    fn memory_reported_capped_by_budget() {
        let mut scheme = LeaFtlScheme::new(LeaFtlConfig::default());
        scheme.set_memory_budget(16);
        scheme.update_batch(&batch(0, 0, 2048));
        assert!(scheme.memory_bytes() <= 16);
    }

    #[test]
    fn learn_cost_scales_with_batch() {
        let scheme = LeaFtlScheme::new(LeaFtlConfig::default());
        assert_eq!(scheme.learn_cost_ns(1), 10_000);
        assert_eq!(scheme.learn_cost_ns(256), 10_000);
        assert_eq!(scheme.learn_cost_ns(257), 20_000);
    }

    #[test]
    fn sorted_and_unsorted_updates_match() {
        let mut a = LeaFtlScheme::new(LeaFtlConfig::default().with_gamma(4));
        let mut b = LeaFtlScheme::new(LeaFtlConfig::default().with_gamma(4));
        a.set_memory_budget(1 << 20);
        b.set_memory_budget(1 << 20);
        let pairs = batch(100, 7000, 400);
        assert_eq!(a.update_batch(&pairs), b.update_batch_sorted(&pairs));
        for lpa in (0..600u64).map(|i| Lpa::new(i * 2)) {
            assert_eq!(a.lookup(lpa), b.lookup(lpa), "lpa {lpa}");
        }
        assert_eq!(a.memory_bytes(), b.memory_bytes());
    }

    #[test]
    fn residency_resets_when_table_refits_budget() {
        let mut scheme = LeaFtlScheme::new(LeaFtlConfig::default());
        scheme.set_memory_budget(64);
        // 16 single-point groups (128 B) overflow the 64 B budget:
        // demand paging activates and groups go resident.
        for g in 0..16u64 {
            scheme.update_batch(&[(Lpa::new(g * 256), Ppa::new(1000 + g))]);
        }
        assert!(scheme.resident_bytes() > 0, "paging must be active");
        // The table fits again (here: budget raised; a compaction
        // shrinking the table has the same effect). Leftover residency
        // records must be dropped, not left to go stale — otherwise
        // later learns into still-"resident" groups would corrupt the
        // byte accounting once the table re-overflows.
        scheme.set_memory_budget(1 << 20);
        let (hit, cost) = scheme.lookup(Lpa::new(0));
        assert!(hit.is_some());
        assert_eq!(cost, MapCost::FREE);
        assert_eq!(scheme.resident_bytes(), 0, "stale residency dropped");
        assert_eq!(scheme.resident_groups().count(), 0);
        // Re-overflow: groups fault back in fresh with exact bytes.
        scheme.set_memory_budget(64);
        let (_, cost) = scheme.lookup(Lpa::new(0));
        assert_eq!(cost.translation_reads, 1);
        let exact: usize = scheme
            .resident_groups()
            .map(|g| scheme.table().group_bytes(g))
            .sum();
        assert_eq!(scheme.resident_bytes(), exact);
    }

    #[test]
    fn maintain_compacts_on_interval() {
        let mut scheme = LeaFtlScheme::new(LeaFtlConfig::default().with_compaction_interval(100));
        scheme.update_batch(&batch(0, 0, 64));
        assert!(!scheme.maintain().1);
        scheme.update_batch(&batch(0, 1000, 64));
        assert!(scheme.maintain().1);
    }
}
