//! The full learned address-mapping table: groups of log-structured
//! learned segments (§3 of the paper).
//!
//! # Sharing
//!
//! Groups are structurally shared: the table holds each [`Group`]
//! behind an [`Arc`] in a slot indexed by group id, so `clone()` copies
//! one pointer per slot, and the first learn or sweep into a group that
//! a clone still holds copies that one group ([`Arc::make_mut`]). A
//! clone stays exactly what the table was when it was taken.
//!
//! A persistence point (§3.8) does not clone: it *keeps* its recovery
//! baseline and brings it up to date. The slots ([`CowSlots`]) list,
//! once each, the groups created or taken through `make_mut` since the
//! last point, and [`LeaFtlTable::sync_checkpoint`] re-points exactly
//! those slots of the kept copy, copies the O(1) counters and drains
//! the list — so the host pays for the groups that changed since the
//! previous point, not for the table, whatever the device size.

use crate::config::LeaFtlConfig;
use crate::group::Group;
use crate::plr;
use crate::segment::Segment;
use crate::slots::CowSlots;
use crate::stats::{MemoryBreakdown, TableStats};
use leaftl_flash::{Lpa, Ppa};

/// Result of a table lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LookupResult {
    /// Predicted physical page address.
    pub ppa: Ppa,
    /// `true` when the prediction came from an approximate segment and
    /// the true PPA lies within `[ppa − γ, ppa + γ]`.
    pub approximate: bool,
    /// Error bound γ the table was configured with.
    pub error_bound: u32,
    /// Levels visited during the top-down search (Fig. 23a).
    pub levels_visited: u32,
}

/// LeaFTL's learned LPA→PPA mapping table.
///
/// The table partitions the LPA space into 256-LPA groups; each group
/// holds a log-structured stack of learned segments plus a conflict
/// resolution buffer for approximate segments.
///
/// `Clone` is copy-on-write per group: the clone shares every group
/// with the original until one of the two learns into or sweeps it.
/// A copy kept from an earlier moment is brought up to date by
/// [`LeaFtlTable::sync_checkpoint`] at the cost of what changed since.
///
/// # Example
///
/// ```
/// use leaftl_core::{LeaFtlConfig, LeaFtlTable};
/// use leaftl_flash::{Lpa, Ppa};
///
/// let mut table = LeaFtlTable::new(LeaFtlConfig::default());
/// // A buffer flush assigns consecutive PPAs to sorted LPAs.
/// let batch: Vec<(Lpa, Ppa)> =
///     (0..256).map(|i| (Lpa::new(i), Ppa::new(5000 + i))).collect();
/// table.learn(&batch);
/// assert_eq!(table.lookup(Lpa::new(99)).unwrap().ppa, Ppa::new(5099));
/// // 256 sequential mappings cost a single 8-byte segment.
/// assert_eq!(table.segment_count(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct LeaFtlTable {
    config: LeaFtlConfig,
    /// One slot per group id. Written only through
    /// [`CowSlots::make_mut`] (`learn_sorted`, `compact`), which is what
    /// lists a group for [`LeaFtlTable::sync_checkpoint`].
    groups: CowSlots<Group>,
    writes_since_compaction: u64,
    /// Live aggregate counters, folded forward from per-group deltas on
    /// every learn/compact so the §3.1 footprint and pressure queries
    /// never walk the groups.
    accounting: Accounting,
    /// Ids of the groups learned into since their last sweep: exactly
    /// the groups whose [`Group::is_dirty`] flag is set, each once, in
    /// the order they turned dirty. [`LeaFtlTable::compact`] drains it.
    dirty: Vec<u64>,
    /// The run [`LeaFtlTable::learn_sorted`] is fitting, as the parallel
    /// slices [`plr::fit`] takes. Reused from run to run and left empty
    /// in between, so a learn allocates nothing per run and a clone
    /// copies nothing.
    run: RunScratch,
}

/// One per-group monotonic run of a flush: group offsets and raw PPAs.
#[derive(Debug, Clone, Default)]
struct RunScratch {
    offsets: Vec<u8>,
    ppas: Vec<u64>,
}

/// The table's incremental aggregate counters. A separate struct so
/// deltas can be applied while `groups` is mutably borrowed (disjoint
/// field borrows).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Accounting {
    /// Total learned segments across all groups.
    segments: usize,
    /// Total CRB bytes across all groups.
    crb_bytes: usize,
    /// `depth_histogram[d]` = number of groups whose level stack is `d`
    /// deep (`d ≥ 1`; empty groups are never tracked). Lets
    /// [`LeaFtlTable::max_level_depth`] answer in O(1) and absorb
    /// deepest-group compactions without a rescan.
    depth_histogram: Vec<usize>,
    /// Cached maximum depth: the highest `d` with a non-zero histogram
    /// bucket (0 when no groups exist).
    max_depth: usize,
}

/// One group's O(1) counter snapshot: (segments, CRB bytes, levels).
type GroupCounters = (usize, usize, usize);

impl Accounting {
    /// Captures one group's counters before or after a mutation.
    fn snapshot(group: &Group) -> GroupCounters {
        (
            group.segment_count(),
            group.crb_bytes(),
            group.level_count(),
        )
    }

    /// Folds one group's before→after counter change into the
    /// aggregates. Amortised O(1): the max-depth rescan only walks
    /// histogram buckets just emptied by the deepest group shrinking.
    fn apply(&mut self, before: GroupCounters, after: GroupCounters) {
        let (seg_b, crb_b, depth_b) = before;
        let (seg_a, crb_a, depth_a) = after;
        self.segments = self.segments - seg_b + seg_a;
        self.crb_bytes = self.crb_bytes - crb_b + crb_a;
        if depth_b == depth_a {
            return;
        }
        if depth_b > 0 {
            self.depth_histogram[depth_b] -= 1;
        }
        if depth_a > 0 {
            if self.depth_histogram.len() <= depth_a {
                self.depth_histogram.resize(depth_a + 1, 0);
            }
            self.depth_histogram[depth_a] += 1;
            self.max_depth = self.max_depth.max(depth_a);
        }
        while self.max_depth > 0 && self.depth_histogram[self.max_depth] == 0 {
            self.max_depth -= 1;
        }
    }
}

/// A from-scratch recomputation of every incremental table counter —
/// the oracle the live accounting is proved equal to (see the
/// `accounting_equivalence` proptests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableWalk {
    /// Memory footprint re-summed over every group.
    pub memory: MemoryBreakdown,
    /// Segment count re-summed over every group.
    pub segments: usize,
    /// Deepest level stack re-maxed over every group.
    pub max_level_depth: usize,
}

impl LeaFtlTable {
    /// Creates an empty table.
    pub fn new(config: LeaFtlConfig) -> Self {
        LeaFtlTable {
            config,
            groups: CowSlots::default(),
            writes_since_compaction: 0,
            accounting: Accounting::default(),
            dirty: Vec::new(),
            run: RunScratch::default(),
        }
    }

    /// The table's configuration.
    pub fn config(&self) -> &LeaFtlConfig {
        &self.config
    }

    /// Learns a batch of LPA→PPA mappings (one buffer flush or one GC
    /// migration, §3.3/§3.6).
    ///
    /// The batch is sorted by LPA and deduplicated (last write wins)
    /// before fitting, mirroring the controller's buffer sort. PPAs of
    /// the sorted batch must be strictly increasing — the allocator
    /// assigns consecutive PPAs to the sorted pages.
    ///
    /// When the caller already holds an LPA-sorted, deduplicated batch
    /// (the flush path drains the write buffer exactly so), use
    /// [`LeaFtlTable::learn_sorted`] to skip the clone + sort.
    pub fn learn(&mut self, pairs: &[(Lpa, Ppa)]) {
        if pairs.is_empty() {
            return;
        }
        let mut sorted: Vec<(Lpa, Ppa)> = pairs.to_vec();
        // Stable sort + keep the *last* occurrence per LPA.
        sorted.sort_by_key(|&(lpa, _)| lpa);
        let mut deduped: Vec<(Lpa, Ppa)> = Vec::with_capacity(sorted.len());
        for &(lpa, ppa) in &sorted {
            if let Some(last) = deduped.last_mut() {
                if last.0 == lpa {
                    last.1 = ppa;
                    continue;
                }
            }
            deduped.push((lpa, ppa));
        }
        self.learn_sorted(&deduped);
    }

    /// Fast path of [`LeaFtlTable::learn`] for batches that are already
    /// sorted by strictly increasing LPA with no duplicates — the shape
    /// every buffer flush, GC migration and wear-levelling swap produces
    /// by construction. Skips the defensive clone, sort and dedup.
    ///
    /// # Panics
    ///
    /// Debug builds assert the precondition; release builds trust it
    /// (a violated precondition merely yields extra single-point
    /// segments, never corruption, because per-group runs re-check PPA
    /// monotonicity).
    pub fn learn_sorted(&mut self, pairs: &[(Lpa, Ppa)]) {
        debug_assert!(
            pairs.windows(2).all(|w| w[0].0 < w[1].0),
            "learn_sorted requires strictly increasing LPAs"
        );
        if pairs.is_empty() {
            return;
        }
        self.writes_since_compaction += pairs.len() as u64;

        // Split into per-group monotonic runs and fit each.
        let gamma = self.config.gamma;
        let mut start = 0usize;
        while start < pairs.len() {
            let group_id = pairs[start].0.group();
            let mut end = start + 1;
            while end < pairs.len()
                && pairs[end].0.group() == group_id
                && pairs[end].1 > pairs[end - 1].1
            {
                end += 1;
            }
            for &(lpa, ppa) in &pairs[start..end] {
                self.run.offsets.push(lpa.group_offset());
                self.run.ppas.push(ppa.raw());
            }
            let group = self.groups.make_mut(group_id, Group::default);
            if !group.is_dirty() {
                self.dirty.push(group_id);
            }
            let before = Accounting::snapshot(group);
            for piece in plr::fit(&self.run.offsets, &self.run.ppas, gamma) {
                group.insert_piece(&piece);
            }
            let after = Accounting::snapshot(group);
            self.accounting.apply(before, after);
            self.run.offsets.clear();
            self.run.ppas.clear();
            start = end;
        }
    }

    /// Translates an LPA. Returns `None` when the LPA has never been
    /// mapped (or was shadowed away entirely). An approximate hit
    /// carries the error bound the table was configured with.
    pub fn lookup(&self, lpa: Lpa) -> Option<LookupResult> {
        let hit = self.groups.get(lpa.group())?.lookup(lpa.group_offset())?;
        Some(LookupResult {
            ppa: hit.ppa,
            approximate: hit.approximate,
            error_bound: if hit.approximate {
                self.config.gamma
            } else {
                0
            },
            levels_visited: hit.levels_visited,
        })
    }

    /// Compacts the table (Algorithm 1 `seg_compact`), reclaiming memory
    /// from shadowed segments, and returns the ids of the groups it
    /// swept.
    ///
    /// Only groups learned into since their last sweep are swept. That
    /// leaves the table exactly as a sweep of every group would:
    /// [`Group::compact`] is a fixpoint on its own output, and only
    /// [`LeaFtlTable::learn_sorted`] changes a group in between
    /// ([`LeaFtlTable::validate`] re-checks both on every call). Host
    /// cost is therefore proportional to what changed; the first sweep
    /// after a prefill, when every group is dirty, is the full walk.
    pub fn compact(&mut self) -> Vec<u64> {
        let swept = std::mem::take(&mut self.dirty);
        for &id in &swept {
            // Groups are never removed, so a listed id always resolves
            // (`validate` checks the list against the flags).
            let group = self.groups.make_mut(id, Group::default);
            let before = Accounting::snapshot(group);
            group.compact();
            let after = Accounting::snapshot(group);
            // Disjoint field borrow: `accounting` is independent of
            // `groups`.
            self.accounting.apply(before, after);
        }
        self.writes_since_compaction = 0;
        swept
    }

    /// Compacts when the configured write interval elapsed (the paper
    /// compacts every one million writes). Returns the swept group ids
    /// when compaction ran.
    pub fn maybe_compact(&mut self) -> Option<Vec<u64>> {
        (self.writes_since_compaction >= self.config.compaction_interval).then(|| self.compact())
    }

    /// Brings `checkpoint` — what this table was when this last ran on
    /// it, or any clone of it taken since — up to date, as
    /// `*checkpoint = self.clone()` would, and returns the
    /// number of group slots it wrote: the groups learned into or swept
    /// since, however many the table holds. Debug builds check the
    /// result against that clone.
    pub fn sync_checkpoint(&mut self, checkpoint: &mut LeaFtlTable) -> usize {
        let written = self.groups.sync(&mut checkpoint.groups);
        checkpoint.config = self.config;
        checkpoint.writes_since_compaction = self.writes_since_compaction;
        let (live, kept) = (&self.accounting, &mut checkpoint.accounting);
        kept.segments = live.segments;
        kept.crb_bytes = live.crb_bytes;
        kept.depth_histogram.clone_from(&live.depth_histogram);
        kept.max_depth = live.max_depth;
        checkpoint.dirty.clone_from(&self.dirty);
        debug_assert!(
            self.same_state(checkpoint),
            "a synced checkpoint is a clone of the table"
        );
        written
    }

    /// Whether `other` is what `self.clone()` would be right after
    /// [`LeaFtlTable::sync_checkpoint`].
    fn same_state(&self, other: &LeaFtlTable) -> bool {
        self.config == other.config
            && self.groups.same_state(&other.groups)
            && self.writes_since_compaction == other.writes_since_compaction
            && self.accounting == other.accounting
            && self.dirty == other.dirty
            && other.run.offsets.is_empty()
            && other.run.ppas.is_empty()
    }

    /// Total learned segments across all groups. O(1) — served from the
    /// incremental aggregate, never a group walk.
    pub fn segment_count(&self) -> usize {
        self.accounting.segments
    }

    /// Number of non-empty groups.
    pub fn group_count(&self) -> usize {
        self.groups.held()
    }

    /// Deepest log-structured level stack across all groups — the
    /// lookup-cost half of the compaction-pressure signal a background
    /// compaction scheduler polls (the other half is
    /// [`LeaFtlTable::segment_count`]). O(1) — served from the depth
    /// histogram.
    pub fn max_level_depth(&self) -> usize {
        self.accounting.max_depth
    }

    /// Memory footprint: 8 B per segment + CRB bytes (paper accounting).
    /// O(1) — served from the incremental aggregates; this is queried on
    /// every translation (demand-paging residency checks, data-cache
    /// sizing), so it must not scale with the group count.
    pub fn memory_bytes(&self) -> MemoryBreakdown {
        MemoryBreakdown {
            segment_bytes: self.accounting.segments * Segment::ENCODED_BYTES,
            crb_bytes: self.accounting.crb_bytes,
        }
    }

    /// Exact DRAM footprint of one 256-LPA group (0 when the group holds
    /// nothing) — the per-group unit demand paging charges when the
    /// group is fetched or written back. O(1) per call.
    pub fn group_bytes(&self, group: u64) -> usize {
        self.groups.get(group).map_or(0, Group::byte_size)
    }

    /// Iterates the ids of all non-empty groups (ascending).
    pub fn group_ids(&self) -> impl Iterator<Item = u64> + '_ {
        self.groups.iter().map(|(id, _)| id)
    }

    /// Recomputes every incremental counter with a full from-scratch
    /// walk over groups, levels and CRB runs — the oracle the live
    /// accounting is proved equal to under the `accounting_equivalence`
    /// proptests. O(table); never called on a translation path.
    pub fn recompute_walk(&self) -> TableWalk {
        let mut segments = 0usize;
        let mut crb_bytes = 0usize;
        let mut max_level_depth = 0usize;
        for (_, group) in self.groups.iter() {
            segments += group.recount_segments();
            crb_bytes += group.crb().recount_members() + group.crb().run_count();
            max_level_depth = max_level_depth.max(group.level_count());
        }
        TableWalk {
            memory: MemoryBreakdown {
                segment_bytes: segments * Segment::ENCODED_BYTES,
                crb_bytes,
            },
            segments,
            max_level_depth,
        }
    }

    /// From-scratch recomputation of [`LeaFtlTable::group_bytes`] (the
    /// per-group oracle).
    pub fn recompute_group_bytes(&self, group: u64) -> usize {
        self.groups.get(group).map_or(0, |g| {
            g.recount_segments() * Segment::ENCODED_BYTES
                + g.crb().recount_members()
                + g.crb().run_count()
        })
    }

    /// Credits writes learned by *sibling* shards of the same sharded
    /// service toward this table's compaction interval, so
    /// interval-gated [`LeaFtlTable::maybe_compact`] fires at the
    /// device-wide write rate instead of the shard-local one. Learns
    /// nothing.
    pub fn note_external_writes(&mut self, writes: u64) {
        self.writes_since_compaction += writes;
    }

    /// Computes a full structural snapshot for the experiment harness.
    pub fn stats(&self) -> TableStats {
        let mut stats = TableStats {
            groups: self.groups.held(),
            memory: self.memory_bytes(),
            ..TableStats::default()
        };
        for (_, group) in self.groups.iter() {
            stats.levels_per_group.push(group.level_count() as u32);
            stats.crb_bytes_per_group.push(group.crb_bytes());
            for (_, segment) in group.iter_segments() {
                stats.segments += 1;
                if segment.is_accurate() {
                    stats.accurate_segments += 1;
                } else {
                    stats.approximate_segments += 1;
                }
                if segment.is_single_point() {
                    stats.single_point_segments += 1;
                }
                stats
                    .members_per_segment
                    .push(group.member_count(segment) as u32);
            }
        }
        stats
    }

    /// Group access for the invariant validator.
    pub(crate) fn groups_for_validation(&self) -> impl Iterator<Item = (u64, &Group)> {
        self.groups.iter()
    }

    /// The dirty-group list, for the invariant validator.
    pub(crate) fn dirty_for_validation(&self) -> &[u64] {
        &self.dirty
    }

    /// Iterates every segment with its group id and level, for
    /// serialization (crash-recovery snapshots) and debugging.
    pub fn iter_segments(&self) -> impl Iterator<Item = (u64, usize, &Segment)> {
        self.groups.iter().flat_map(|(group_id, group)| {
            group
                .iter_segments()
                .map(move |(level, seg)| (group_id, level, seg))
        })
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
    fn sequential_batch_costs_one_segment_per_group() {
        let mut table = LeaFtlTable::new(LeaFtlConfig::default());
        table.learn(&batch(0, 10_000, 1024));
        // 1024 LPAs span 4 groups.
        assert_eq!(table.group_count(), 4);
        assert_eq!(table.segment_count(), 4);
        for i in 0..1024u64 {
            assert_eq!(table.lookup(Lpa::new(i)).unwrap().ppa.raw(), 10_000 + i);
        }
        assert!(table.lookup(Lpa::new(1024)).is_none());
        // Memory: 4 segments * 8 B, no CRB.
        assert_eq!(table.memory_bytes().total(), 32);
    }

    #[test]
    fn cross_group_batch_splits_correctly() {
        let mut table = LeaFtlTable::new(LeaFtlConfig::default());
        // Batch straddles the 256-boundary.
        table.learn(&batch(250, 500, 12));
        for i in 0..12u64 {
            assert_eq!(table.lookup(Lpa::new(250 + i)).unwrap().ppa.raw(), 500 + i);
        }
        assert_eq!(table.group_count(), 2);
    }

    #[test]
    fn unsorted_input_with_duplicates_last_wins() {
        let mut table = LeaFtlTable::new(LeaFtlConfig::default());
        // The same LPA written twice in one buffer: the flush sorts and
        // keeps the newest PPA.
        let pairs = vec![
            (Lpa::new(5), Ppa::new(100)),
            (Lpa::new(3), Ppa::new(99)),
            (Lpa::new(5), Ppa::new(101)),
        ];
        table.learn(&pairs);
        assert_eq!(table.lookup(Lpa::new(5)).unwrap().ppa.raw(), 101);
        assert_eq!(table.lookup(Lpa::new(3)).unwrap().ppa.raw(), 99);
    }

    #[test]
    fn overwrites_shadow_older_mappings() {
        let mut table = LeaFtlTable::new(LeaFtlConfig::default());
        table.learn(&batch(0, 1000, 64));
        table.learn(&batch(16, 5000, 16));
        for i in 0..16u64 {
            assert_eq!(table.lookup(Lpa::new(i)).unwrap().ppa.raw(), 1000 + i);
        }
        for i in 16..32u64 {
            assert_eq!(table.lookup(Lpa::new(i)).unwrap().ppa.raw(), 5000 + i - 16);
        }
        for i in 32..64u64 {
            assert_eq!(table.lookup(Lpa::new(i)).unwrap().ppa.raw(), 1000 + i);
        }
    }

    #[test]
    fn compaction_preserves_mappings_and_reclaims() {
        let mut table = LeaFtlTable::new(LeaFtlConfig::default());
        for round in 0..10u64 {
            table.learn(&batch(0, 1000 * (round + 1), 256));
        }
        let before = table.segment_count();
        table.compact();
        assert!(table.segment_count() <= before);
        assert_eq!(table.segment_count(), 1);
        for i in 0..256u64 {
            assert_eq!(table.lookup(Lpa::new(i)).unwrap().ppa.raw(), 10_000 + i);
        }
    }

    #[test]
    fn maybe_compact_obeys_interval() {
        let mut table = LeaFtlTable::new(LeaFtlConfig::default().with_compaction_interval(100));
        table.learn(&batch(0, 1000, 64));
        assert!(table.maybe_compact().is_none());
        table.learn(&batch(0, 2000, 64));
        assert_eq!(table.maybe_compact(), Some(vec![0]));
        assert!(table.maybe_compact().is_none());
    }

    #[test]
    fn random_single_writes_cost_no_more_than_page_mapping() {
        let mut table = LeaFtlTable::new(LeaFtlConfig::default());
        // 64 isolated single-page writes, far apart.
        for i in 0..64u64 {
            table.learn(&[(Lpa::new(i * 1000), Ppa::new(77_000 + i))]);
        }
        // Each entry costs one 8-byte single-point segment — exactly the
        // page-level mapping cost (§3.1 worst case).
        assert_eq!(table.segment_count(), 64);
        assert_eq!(table.memory_bytes().segment_bytes, 64 * 8);
        for i in 0..64u64 {
            assert_eq!(
                table.lookup(Lpa::new(i * 1000)).unwrap().ppa.raw(),
                77_000 + i
            );
        }
    }

    #[test]
    fn gamma_condenses_irregular_patterns() {
        // Monotonic but jittery mapping: strict page-level patterns fail,
        // approximate segments capture it.
        let mut points_exact = Vec::new();
        let mut state = 42u64;
        let mut lpa = 0u64;
        for ppa in 30_000u64..30_200 {
            points_exact.push((Lpa::new(lpa), Ppa::new(ppa)));
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            lpa += 1 + (state >> 60) % 3;
        }
        let mut exact = LeaFtlTable::new(LeaFtlConfig::default());
        exact.learn(&points_exact);
        let mut relaxed = LeaFtlTable::new(LeaFtlConfig::default().with_gamma(8));
        relaxed.learn(&points_exact);
        assert!(
            relaxed.segment_count() < exact.segment_count(),
            "γ=8 ({}) must condense vs γ=0 ({})",
            relaxed.segment_count(),
            exact.segment_count()
        );
        // Predictions stay within the bound.
        for &(lpa, ppa) in &points_exact {
            let hit = relaxed.lookup(lpa).unwrap();
            let err = (hit.ppa.raw() as i64 - ppa.raw() as i64).unsigned_abs();
            assert!(err <= 8, "lpa {lpa}: err {err}");
            assert!(hit.error_bound <= 8);
        }
    }

    #[test]
    fn stats_snapshot_consistency() {
        let mut table = LeaFtlTable::new(LeaFtlConfig::default().with_gamma(4));
        table.learn(&batch(0, 1000, 300));
        table.learn(&[
            (Lpa::new(600), Ppa::new(9000)),
            (Lpa::new(603), Ppa::new(9001)),
            (Lpa::new(604), Ppa::new(9002)),
            (Lpa::new(609), Ppa::new(9003)),
        ]);
        let stats = table.stats();
        assert_eq!(stats.segments, table.segment_count());
        assert_eq!(
            stats.accurate_segments + stats.approximate_segments,
            stats.segments
        );
        assert_eq!(stats.groups, table.group_count());
        assert_eq!(stats.memory.total(), table.memory_bytes().total());
        let members: u32 = stats.members_per_segment.iter().sum();
        assert_eq!(members as u64, 304);
    }

    #[test]
    fn incremental_counters_match_walk() {
        let mut table = LeaFtlTable::new(LeaFtlConfig::default().with_gamma(2));
        // Sequential base, irregular overwrites (CRB traffic), deep
        // stacking, then compaction — every accounting transition.
        table.learn(&batch(0, 1000, 700));
        table.learn(&[
            (Lpa::new(10), Ppa::new(9000)),
            (Lpa::new(13), Ppa::new(9001)),
            (Lpa::new(17), Ppa::new(9002)),
            (Lpa::new(300), Ppa::new(9003)),
        ]);
        for round in 0..6u64 {
            table.learn(&batch(round * 7, 20_000 + round * 1000, 40));
        }
        let walk = table.recompute_walk();
        assert_eq!(table.memory_bytes(), walk.memory);
        assert_eq!(table.segment_count(), walk.segments);
        assert_eq!(table.max_level_depth(), walk.max_level_depth);
        for id in table.group_ids().collect::<Vec<_>>() {
            assert_eq!(table.group_bytes(id), table.recompute_group_bytes(id));
        }
        table.compact();
        let walk = table.recompute_walk();
        assert_eq!(table.memory_bytes(), walk.memory);
        assert_eq!(table.segment_count(), walk.segments);
        assert_eq!(table.max_level_depth(), walk.max_level_depth);
        assert_eq!(table.group_bytes(u64::MAX), 0, "absent group is empty");
    }

    #[test]
    fn compact_sweeps_only_groups_learned_into_since() {
        let mut table = LeaFtlTable::new(LeaFtlConfig::default());
        table.learn(&batch(0, 1000, 1024));
        let mut swept = table.compact();
        swept.sort_unstable();
        assert_eq!(swept, vec![0, 1, 2, 3], "first sweep is the full walk");
        assert!(table.compact().is_empty(), "nothing learned since");
        // One overwrite straddling groups 1 and 2, learned twice: each
        // group is listed once.
        table.learn(&batch(500, 5000, 20));
        table.learn(&batch(505, 6000, 20));
        table.assert_valid();
        let mut swept = table.compact();
        swept.sort_unstable();
        assert_eq!(swept, vec![1, 2]);
        table.assert_valid();
    }

    /// How many groups `a` and `b` hold as separate copies.
    fn unshared_groups(a: &LeaFtlTable, b: &LeaFtlTable) -> usize {
        assert_eq!(a.group_count(), b.group_count());
        a.groups
            .iter()
            .zip(b.groups.iter())
            .filter(|((_, x), (_, y))| !std::ptr::eq(*x, *y))
            .count()
    }

    #[test]
    fn a_clone_shares_every_group_until_it_is_learned_into_or_swept() {
        let mut table = LeaFtlTable::new(LeaFtlConfig::default().with_gamma(4));
        table.learn(&batch(0, 1000, 8 * 256));
        table.compact();
        let snapshot = table.clone();
        assert_eq!(
            unshared_groups(&table, &snapshot),
            0,
            "clone copies nothing"
        );
        // One learn into k = 3 groups (2, 3 and 6) copies exactly those.
        let mut pairs = batch(2 * 256 + 200, 9000, 100);
        pairs.extend(batch(6 * 256 + 5, 9100, 10));
        table.learn(&pairs);
        assert_eq!(unshared_groups(&table, &snapshot), 3);
        // Sweeping them again copies nothing further, and the snapshot
        // still answers as the table did when it was taken.
        table.compact();
        assert_eq!(unshared_groups(&table, &snapshot), 3);
        for i in 0..8 * 256u64 {
            assert_eq!(snapshot.lookup(Lpa::new(i)).unwrap().ppa.raw(), 1000 + i);
        }
        assert_eq!(table.lookup(Lpa::new(6 * 256 + 5)).unwrap().ppa.raw(), 9100);
        snapshot.assert_valid();
        table.assert_valid();
        // A sweep alone copies the (dirty) groups it visits.
        table.learn(&batch(256, 9500, 4));
        let dirty_snapshot = table.clone();
        table.compact();
        assert_eq!(unshared_groups(&table, &dirty_snapshot), 1);
        drop(dirty_snapshot);
        // With no clone left, learning copies nothing: every group
        // stays at the address it had.
        drop(snapshot);
        let addresses = |table: &LeaFtlTable| -> Vec<*const Group> {
            table
                .groups
                .iter()
                .map(|(_, g)| g as *const Group)
                .collect()
        };
        let before = addresses(&table);
        table.learn(&batch(0, 20_000, 8 * 256));
        table.compact();
        assert_eq!(before, addresses(&table));
    }

    /// A persistence point costs the groups changed since the previous
    /// one: the sync reports how many slots it wrote, and that is the
    /// same at 64 groups and at 65 536 (a 64 GiB device).
    #[test]
    fn sync_writes_the_groups_changed_whatever_the_table_holds() {
        for groups in [64u64, 65_536] {
            let mut table = LeaFtlTable::new(LeaFtlConfig::default().with_gamma(4));
            let mut kept = table.clone();
            let one_each: Vec<(Lpa, Ppa)> = (0..groups)
                .map(|g| (Lpa::new(g * 256 + 9), Ppa::new(g)))
                .collect();
            table.learn_sorted(&one_each);
            table.compact();
            assert_eq!(table.sync_checkpoint(&mut kept), groups as usize);
            assert_eq!(table.sync_checkpoint(&mut kept), 0, "nothing changed since");
            // Three groups learned into — one of them twice, one of
            // them swept as well — are three slots.
            table.learn(&batch(256 + 100, 1_000_000, 20));
            table.learn(&batch(7 * 256, 1_000_100, 256));
            table.learn(&batch(40 * 256 + 3, 1_000_400, 5));
            table.learn(&batch(7 * 256 + 50, 1_000_500, 9));
            table.compact();
            let held = kept.clone();
            assert_eq!(unshared_groups(&table, &kept), 3);
            assert_eq!(table.sync_checkpoint(&mut kept), 3, "{groups} groups");
            assert_eq!(unshared_groups(&table, &kept), 0);
            assert_eq!(kept.group_count(), groups as usize);
            assert_eq!(kept.memory_bytes(), table.memory_bytes());
            for lpa in [
                9,
                256 + 105,
                7 * 256 + 55,
                40 * 256 + 4,
                (groups - 1) * 256 + 9,
            ] {
                assert_eq!(kept.lookup(Lpa::new(lpa)), table.lookup(Lpa::new(lpa)));
            }
            // A copy taken of the kept table before the sync did not
            // follow it.
            assert_eq!(held.lookup(Lpa::new(7 * 256 + 55)), None);
            assert_eq!(unshared_groups(&table, &held), 3);
            // A table restored from the kept one is in step with it.
            let mut restored = kept.clone();
            restored.learn(&batch(5 * 256, 2_000_000, 4));
            assert_eq!(restored.sync_checkpoint(&mut kept), 1);
            kept.assert_valid();
        }
    }

    #[test]
    fn validate_catches_a_learn_the_dirty_list_missed() {
        let mut table = LeaFtlTable::new(LeaFtlConfig::default());
        table.learn(&batch(0, 1000, 256));
        table.compact();
        table.learn(&batch(16, 5000, 16));
        assert!(table.validate().is_empty());
        // A learn path that forgot the list: the next sweep would skip
        // a group that has changed.
        table.dirty.clear();
        let violations = table.validate();
        assert!(
            violations
                .iter()
                .any(|v| v.group == 0 && v.detail.contains("disagree")),
            "{violations:?}"
        );
    }

    #[test]
    fn external_writes_advance_the_compaction_interval() {
        let mut table = LeaFtlTable::new(LeaFtlConfig::default().with_compaction_interval(100));
        table.learn(&batch(0, 1000, 60));
        assert!(table.maybe_compact().is_none());
        // Sibling shards learned 40 more device writes: the interval is
        // device-wide, so this table compacts now.
        table.note_external_writes(40);
        assert!(table.maybe_compact().is_some());
        assert!(table.lookup(Lpa::new(59)).is_some());
        assert!(
            table.lookup(Lpa::new(60)).is_none(),
            "external writes not learned"
        );
    }

    #[test]
    fn empty_learn_is_noop() {
        let mut table = LeaFtlTable::new(LeaFtlConfig::default());
        table.learn(&[]);
        table.learn_sorted(&[]);
        assert_eq!(table.segment_count(), 0);
        assert_eq!(table.group_count(), 0);
    }

    #[test]
    fn learn_sorted_matches_learn() {
        // A realistic flush batch: sorted, unique LPAs across groups
        // with a gap that breaks the PPA run.
        let pairs: Vec<(Lpa, Ppa)> = (0..300u64)
            .map(|i| (Lpa::new(i * 3), Ppa::new(40_000 + i)))
            .collect();
        let mut via_learn = LeaFtlTable::new(LeaFtlConfig::default().with_gamma(4));
        via_learn.learn(&pairs);
        let mut via_sorted = LeaFtlTable::new(LeaFtlConfig::default().with_gamma(4));
        via_sorted.learn_sorted(&pairs);
        assert_eq!(via_sorted.segment_count(), via_learn.segment_count());
        assert_eq!(
            via_sorted.memory_bytes().total(),
            via_learn.memory_bytes().total()
        );
        for &(lpa, _) in &pairs {
            assert_eq!(via_sorted.lookup(lpa), via_learn.lookup(lpa));
        }
    }
}
