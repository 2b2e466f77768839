//! Sharded translation service: the LPA space partitioned into N
//! independent range shards, each a complete mapping scheme of its own.
//!
//! The monolithic table keeps every 256-LPA group behind one `&mut`, so
//! a queued device that dispatches read bursts in parallel across flash
//! dies still *translates* them serially. [`ShardedMapping`] removes
//! that bottleneck structurally: each shard owns a contiguous LPA range
//! (aligned to group boundaries, so a group never straddles shards) and
//! carries its own group map, CRB and — for demand-paged schemes — LRU
//! residency state. A lookup routes to the one shard that owns its
//! address, sorted flush batches split at shard boundaries
//! ([`MappingScheme::update_batch_sorted`]), and compaction runs
//! per shard, which is what lets the device front-end schedule it as
//! background traffic instead of a stop-the-world flush side effect.
//!
//! The parallelism is the *simulated device's*: the simulator gives
//! every shard its own translation-CPU timeline, so lookups on
//! different shards overlap in virtual time. On the host a burst is
//! translated one address at a time on the caller's thread.
//!
//! # Equivalence
//!
//! Because shard boundaries are group-aligned and every learned
//! structure is per-group, a sharded table holds *exactly* the same
//! groups as the unsharded one — lookups, post-compaction segment
//! counts and memory bytes are identical for any shard count, and a
//! 1-shard service forwards every call verbatim (pinned by the
//! `sharding_equivalence` and `engine_equivalence` proptests). Interval-gated
//! maintenance keeps the device-wide cadence at every shard count:
//! after each multi-shard batch, every shard is credited the writes
//! its siblings absorbed ([`MappingScheme::note_sibling_writes`]), so
//! a shard seeing 1/N of the traffic still compacts on the device's
//! write interval rather than N× less often.

use crate::scheme::{MapCost, MappingLookup, MappingScheme};
use leaftl_flash::{Lpa, Ppa};
use std::ops::Deref;

/// A range-sharded translation service over any [`MappingScheme`].
///
/// # Example
///
/// ```
/// use leaftl_core::{ExactPageMap, MappingScheme, ShardedMapping};
/// use leaftl_flash::{Lpa, Ppa};
///
/// let mut sharded = ShardedMapping::new(4, 4096, |_| ExactPageMap::new());
/// sharded.update_batch(&[(Lpa::new(10), Ppa::new(70)), (Lpa::new(3000), Ppa::new(71))]);
/// assert_eq!(sharded.shard_count(), 4);
/// assert_ne!(sharded.shard_of(Lpa::new(10)), sharded.shard_of(Lpa::new(3000)));
/// assert_eq!(sharded.lookup(Lpa::new(3000)).0.unwrap().ppa, Ppa::new(71));
/// ```
#[derive(Debug, Clone)]
pub struct ShardedMapping<S> {
    shards: Vec<S>,
    /// LPAs per shard; a multiple of [`Lpa::GROUP_SIZE`] so no learned
    /// group straddles two shards. LPAs at or beyond
    /// `span × shard_count` route to the last shard.
    span: u64,
    /// Number of leading shards an in-range LPA can actually route to.
    /// Rounding the span up to a group boundary can leave trailing
    /// shards permanently unroutable at small capacities; the DRAM
    /// budget is divided across the routable shards only.
    routable: usize,
}

impl<S> ShardedMapping<S> {
    /// Partitions `capacity_lpas` logical pages into `shards` range
    /// shards (at least one), building each inner scheme with `build`
    /// (called with the shard index). The per-shard span is rounded up
    /// to a multiple of [`Lpa::GROUP_SIZE`] so shard boundaries always
    /// align with learned-group boundaries.
    pub fn new(shards: usize, capacity_lpas: u64, mut build: impl FnMut(usize) -> S) -> Self {
        let count = shards.max(1);
        let raw_span = capacity_lpas.div_ceil(count as u64).max(1);
        let span = raw_span.div_ceil(Lpa::GROUP_SIZE) * Lpa::GROUP_SIZE;
        // Highest shard index an in-range LPA reaches, plus one: the
        // group-aligned span can overshoot `capacity / count`, leaving
        // trailing shards with an empty range.
        let routable = ((capacity_lpas.saturating_sub(1) / span) as usize + 1).min(count);
        ShardedMapping {
            shards: (0..count).map(&mut build).collect(),
            span,
            routable,
        }
    }

    /// Read access to one shard's inner scheme.
    pub fn shard(&self, index: usize) -> impl Deref<Target = S> + '_ {
        &self.shards[index]
    }

    /// Iterates the inner schemes in shard order.
    pub fn shards(&self) -> impl Iterator<Item = impl Deref<Target = S> + '_> + '_ {
        self.shards.iter()
    }

    fn route(&self, lpa: Lpa) -> usize {
        ((lpa.raw() / self.span) as usize).min(self.shards.len() - 1)
    }
}

impl<S: MappingScheme + Clone> ShardedMapping<S> {
    /// Compacts every shard unconditionally, each through
    /// [`MappingScheme::maintain_shard`] (tests and offline footprint
    /// measurements; the device compacts inline, through
    /// [`MappingScheme::maintain`]).
    pub fn compact_all(&mut self) -> MapCost {
        let mut cost = MapCost::FREE;
        for shard in 0..self.shards.len() {
            cost.add(self.maintain_shard(shard).0);
        }
        cost
    }
}

impl<S: MappingScheme + Clone> MappingScheme for ShardedMapping<S> {
    fn name(&self) -> &'static str {
        self.shards[0].name()
    }

    fn update_batch(&mut self, pairs: &[(Lpa, Ppa)]) -> MapCost {
        if self.shards.len() == 1 {
            return self.shards[0].update_batch(pairs);
        }
        // Dedup last-wins before splitting: each inner table counts the
        // *deduped* writes it learns, so sibling credits computed from
        // raw batch lengths would advance the interval-maintenance
        // cadence faster than the monolithic table's own counter.
        // Deduping here keeps `own + sibling` equal to the monolithic
        // deduped count at every shard count. The stable sort keeps
        // arrival order within an LPA, so the last element of each
        // equal-LPA run is the final write.
        let mut deduped: Vec<(Lpa, Ppa)> = pairs.to_vec();
        deduped.sort_by_key(|&(lpa, _)| lpa.raw());
        let mut keep = 0usize;
        for read in 0..deduped.len() {
            if read + 1 == deduped.len() || deduped[read + 1].0 != deduped[read].0 {
                deduped[keep] = deduped[read];
                keep += 1;
            }
        }
        deduped.truncate(keep);
        // Sorted and duplicate-free is exactly the sorted-batch
        // contract, which already splits at shard boundaries and
        // credits siblings with deduped lengths.
        self.update_batch_sorted(&deduped)
    }

    fn update_batch_sorted(&mut self, pairs: &[(Lpa, Ppa)]) -> MapCost {
        if self.shards.len() == 1 {
            return self.shards[0].update_batch_sorted(pairs);
        }
        // Sorted input means shard ids are non-decreasing: split into
        // contiguous runs at shard boundaries, no copying.
        let mut cost = MapCost::FREE;
        let mut own: Vec<usize> = vec![0; self.shards.len()];
        let mut start = 0usize;
        while start < pairs.len() {
            let shard = self.route(pairs[start].0);
            let mut end = start + 1;
            while end < pairs.len() && self.route(pairs[end].0) == shard {
                end += 1;
            }
            own[shard] += end - start;
            cost.add(self.shards[shard].update_batch_sorted(&pairs[start..end]));
            start = end;
        }
        // Device-wide maintenance cadence: every shard's interval
        // counter advances with every device write, not just its own.
        for (shard, own) in self.shards.iter_mut().zip(own) {
            let siblings = (pairs.len() - own) as u64;
            if siblings > 0 {
                shard.note_sibling_writes(siblings);
            }
        }
        cost
    }

    fn lookup(&mut self, lpa: Lpa) -> (Option<MappingLookup>, MapCost) {
        let shard = self.route(lpa);
        self.shards[shard].lookup(lpa)
    }

    fn lookup_is_pure(&self) -> bool {
        self.shards.iter().all(S::lookup_is_pure)
    }

    fn memory_bytes(&self) -> usize {
        self.shards
            .iter()
            .fold(0, |sum, shard| sum.saturating_add(shard.memory_bytes()))
    }

    fn set_memory_budget(&mut self, bytes: usize) {
        // Even split across the *routable* shards only: the §3.1 bound
        // then holds shard-locally (each shard against its slice) and
        // globally (the slices sum to the device budget — the division
        // remainder is spread one byte each over the leading shards
        // instead of dropped). Unroutable trailing shards never hold
        // state and get a token 1-byte budget.
        let per_shard = bytes / self.routable;
        let remainder = bytes % self.routable;
        for (index, shard) in self.shards.iter_mut().enumerate() {
            let slice = if index < self.routable {
                per_shard + usize::from(index < remainder)
            } else {
                0
            };
            shard.set_memory_budget(slice.max(1));
        }
    }

    fn maintain(&mut self) -> (MapCost, bool) {
        let mut cost = MapCost::FREE;
        let mut compacted = false;
        for shard in &mut self.shards {
            let (c, ran) = shard.maintain();
            cost.add(c);
            compacted |= ran;
        }
        (cost, compacted)
    }

    fn learn_cost_ns(&self, batch_len: usize) -> u64 {
        // Shards learn their slices concurrently; the batch's critical
        // path is bounded by one shard's cost model (the inner schemes
        // share it).
        self.shards[0].learn_cost_ns(batch_len)
    }

    fn snapshot_bytes(&self) -> usize {
        self.shards
            .iter()
            .fold(0, |sum, shard| sum.saturating_add(shard.snapshot_bytes()))
    }

    fn checkpoint_footprint(&self) -> (usize, usize) {
        self.shards.iter().fold((0, 0), |(seg, crb), shard| {
            let (s_seg, s_crb) = shard.checkpoint_footprint();
            (seg.saturating_add(s_seg), crb.saturating_add(s_crb))
        })
    }

    fn sync_checkpoint(&mut self, checkpoint: &mut Self) {
        // Routing never changes: the shards are all there is to bring
        // up to date.
        for (shard, kept) in self.shards.iter_mut().zip(&mut checkpoint.shards) {
            shard.sync_checkpoint(kept);
        }
    }

    fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard_of(&self, lpa: Lpa) -> usize {
        self.route(lpa)
    }

    fn maintain_shard(&mut self, shard: usize) -> (MapCost, bool) {
        self.shards[shard].maintain_shard(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::ExactPageMap;

    fn pairs(range: std::ops::Range<u64>, ppa0: u64) -> Vec<(Lpa, Ppa)> {
        range
            .clone()
            .zip(ppa0..)
            .map(|(lpa, ppa)| (Lpa::new(lpa), Ppa::new(ppa)))
            .collect()
    }

    #[test]
    fn shard_boundaries_are_group_aligned() {
        let sharded = ShardedMapping::new(3, 1000, |_| ExactPageMap::new());
        assert_eq!(sharded.shard_count(), 3);
        for lpa in (0..1000).map(Lpa::new) {
            let base = Lpa::group_base(lpa.group());
            assert_eq!(sharded.shard_of(lpa), sharded.shard_of(base), "lpa {lpa}");
        }
        // 1000 / 3 rounds up to a two-group span.
        assert_eq!(sharded.shard_of(Lpa::new(511)), 0);
        assert_eq!(sharded.shard_of(Lpa::new(512)), 1);
        assert_eq!(sharded.shard_of(Lpa::new(999)), 1);
    }

    #[test]
    fn out_of_range_lpas_route_to_last_shard() {
        let sharded = ShardedMapping::new(4, 1024, |_| ExactPageMap::new());
        assert_eq!(sharded.shard_of(Lpa::new(u64::MAX / 2)), 3);
        assert_eq!(sharded.shard_of(Lpa::new(0)), 0);
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        let sharded = ShardedMapping::new(0, 0, |_| ExactPageMap::new());
        assert_eq!(sharded.shard_count(), 1);
        assert_eq!(sharded.shard_of(Lpa::new(u64::MAX / 2)), 0);
    }

    #[test]
    fn sorted_split_and_unsorted_partition_agree() {
        let batch = pairs(0..2048, 9000);
        let mut via_sorted = ShardedMapping::new(4, 2048, |_| ExactPageMap::new());
        via_sorted.update_batch_sorted(&batch);
        let mut via_unsorted = ShardedMapping::new(4, 2048, |_| ExactPageMap::new());
        via_unsorted.update_batch(&batch);
        for &(lpa, ppa) in &batch {
            assert_eq!(via_sorted.lookup(lpa).0.unwrap().ppa, ppa);
            assert_eq!(via_unsorted.lookup(lpa).0.unwrap().ppa, ppa);
        }
        assert_eq!(via_sorted.memory_bytes(), via_unsorted.memory_bytes());
    }

    #[test]
    fn duplicate_updates_keep_last_write_per_shard() {
        let mut sharded = ShardedMapping::new(2, 512, |_| ExactPageMap::new());
        sharded.update_batch(&[
            (Lpa::new(5), Ppa::new(1)),
            (Lpa::new(300), Ppa::new(2)),
            (Lpa::new(5), Ppa::new(3)),
        ]);
        assert_eq!(sharded.lookup(Lpa::new(5)).0.unwrap().ppa, Ppa::new(3));
        assert_eq!(sharded.lookup(Lpa::new(300)).0.unwrap().ppa, Ppa::new(2));
    }

    #[test]
    fn memory_is_summed_and_budget_split() {
        let mut sharded = ShardedMapping::new(4, 4096, |_| ExactPageMap::new());
        sharded.update_batch(&pairs(0..1024, 0));
        assert_eq!(sharded.memory_bytes(), 1024 * 8);
        sharded.set_memory_budget(1 << 20); // no-op for ExactPageMap
        assert!(sharded.lookup_is_pure());
    }

    /// Records the budget each shard was handed.
    #[derive(Debug, Clone, Default)]
    struct BudgetProbe {
        budget: usize,
        sibling_writes: u64,
        own_writes: u64,
    }

    impl MappingScheme for BudgetProbe {
        fn name(&self) -> &'static str {
            "probe"
        }
        fn update_batch(&mut self, pairs: &[(Lpa, Ppa)]) -> MapCost {
            self.own_writes += pairs.len() as u64;
            MapCost::FREE
        }
        fn lookup(&mut self, _lpa: Lpa) -> (Option<MappingLookup>, MapCost) {
            (None, MapCost::FREE)
        }
        fn memory_bytes(&self) -> usize {
            0
        }
        fn set_memory_budget(&mut self, bytes: usize) {
            self.budget = bytes;
        }
        fn maintain(&mut self) -> (MapCost, bool) {
            (MapCost::FREE, false)
        }
        fn note_sibling_writes(&mut self, writes: u64) {
            self.sibling_writes += writes;
        }
    }

    #[test]
    fn budget_splits_across_routable_shards_with_remainder() {
        // capacity 1000 over 8 shards: span rounds up to 256, so only
        // shards 0..=3 are routable; 4..=7 can never receive an
        // in-range LPA.
        let mut sharded = ShardedMapping::new(8, 1000, |_| BudgetProbe::default());
        assert_eq!(sharded.shard_of(Lpa::new(255)), 0);
        assert_eq!(sharded.shard_of(Lpa::new(256)), 1);
        assert_eq!(sharded.shard_of(Lpa::new(999)), 3);
        sharded.set_memory_budget(1003);
        let budgets: Vec<usize> = sharded.shards().map(|s| s.budget).collect();
        // 1003 = 4×250 + 3: the remainder lands on the leading shards,
        // unroutable shards get the token minimum.
        assert_eq!(budgets, vec![251, 251, 251, 250, 1, 1, 1, 1]);
        let routable_total: usize = budgets[..4].iter().sum();
        assert_eq!(routable_total, 1003, "no byte of the budget is lost");
    }

    #[test]
    fn exact_capacity_keeps_every_shard_routable() {
        let mut sharded = ShardedMapping::new(4, 4096, |_| BudgetProbe::default());
        assert_eq!(sharded.shard_of(Lpa::new(4095)), 3);
        sharded.set_memory_budget(4 * 4096 + 2);
        let budgets: Vec<usize> = sharded.shards().map(|s| s.budget).collect();
        assert_eq!(budgets, vec![4097, 4097, 4096, 4096]);
    }

    #[test]
    fn sibling_writes_keep_device_wide_cadence() {
        // 1024 writes spread over 4 shards: every shard must observe
        // the full device write count (own + sibling credit).
        let batch = pairs(0..1024, 5000);
        let mut unsorted = ShardedMapping::new(4, 1024, |_| BudgetProbe::default());
        unsorted.update_batch(&batch);
        for shard in unsorted.shards() {
            assert_eq!(shard.own_writes + shard.sibling_writes, 1024);
            assert!(shard.own_writes > 0, "the batch spans every shard");
        }
        let mut sorted = ShardedMapping::new(4, 1024, |_| BudgetProbe::default());
        sorted.update_batch_sorted(&batch);
        for shard in sorted.shards() {
            assert_eq!(shard.own_writes + shard.sibling_writes, 1024);
        }
        // The 1-shard fast path stays verbatim: no sibling credit.
        let mut single = ShardedMapping::new(1, 1024, |_| BudgetProbe::default());
        single.update_batch(&batch);
        assert_eq!(single.shard(0).sibling_writes, 0);
        assert_eq!(single.shard(0).own_writes, 1024);
    }

    #[test]
    fn sibling_credits_count_deduped_writes() {
        // Each LPA written twice: 2048 raw entries, 1024 after
        // last-wins dedup. Tables only count the deduped writes they
        // learn, so sibling credits computed from raw batch lengths
        // would advance every shard's cadence by 2x (and by different
        // amounts per shard). Every shard must see exactly the deduped
        // device-wide count.
        let mut batch = pairs(0..1024, 5000);
        batch.extend(pairs(0..1024, 9000));
        let mut sharded = ShardedMapping::new(4, 1024, |_| BudgetProbe::default());
        sharded.update_batch(&batch);
        for shard in sharded.shards() {
            assert_eq!(
                shard.own_writes + shard.sibling_writes,
                1024,
                "cadence must reflect deduped writes, not raw batch length"
            );
            assert!(shard.own_writes > 0, "the batch spans every shard");
        }
    }
}
