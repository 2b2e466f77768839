//! Simulation statistics: latency distributions, flash-op breakdowns,
//! cache behaviour, misprediction counters, WAF.

use serde::{Deserialize, Serialize};

/// Log-linear latency histogram with exact aggregate moments.
///
/// Each decade between 100 ns and 10⁷ s splits into eight linear
/// sub-buckets, so a reported percentile is tight to within 1/8 of a
/// decade instead of rounding to the decade edge ("p99 = 10000 µs"
/// meaning "somewhere below 10 ms"). Bucket boundaries use
/// pure integer arithmetic, so placement is exact and deterministic.
/// Percentile queries use the bucket upper bound (conservative).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencyHistogram {
    buckets: Vec<u64>,
    count: u64,
    sum_ns: u128,
    min_ns: u64,
    max_ns: u64,
}

/// Linear sub-buckets per decade.
const SUB_BUCKETS: usize = 8;
/// Decades covered: [100 ns, 100 ns × 10¹⁴).
const DECADES: usize = 14;
const BUCKETS: usize = DECADES * SUB_BUCKETS;
/// Lower bound of the first decade.
const BASE_NS: u64 = 100;

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: vec![0; BUCKETS],
            count: 0,
            sum_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        }
    }

    fn bucket_of(ns: u64) -> usize {
        if ns <= BASE_NS {
            return 0;
        }
        let mut lower = BASE_NS;
        let mut decade = 0usize;
        while decade + 1 < DECADES && ns >= lower * 10 {
            lower *= 10;
            decade += 1;
        }
        if ns >= lower * 10 {
            return BUCKETS - 1;
        }
        // Sub-bucket `s` covers lower + 9·lower·[s, s+1)/SUB_BUCKETS.
        let sub = ((ns - lower) * SUB_BUCKETS as u64 / (9 * lower)) as usize;
        decade * SUB_BUCKETS + sub.min(SUB_BUCKETS - 1)
    }

    fn bucket_upper_ns(idx: usize) -> u64 {
        let decade = idx / SUB_BUCKETS;
        let sub = idx % SUB_BUCKETS;
        let lower = BASE_NS * 10u64.pow(decade as u32);
        lower + 9 * lower * (sub as u64 + 1) / SUB_BUCKETS as u64
    }

    /// Records one sample.
    pub fn record(&mut self, ns: u64) {
        self.buckets[Self::bucket_of(ns)] += 1;
        self.count += 1;
        self.sum_ns += ns as u128;
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact mean in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min_ns(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min_ns
        }
    }

    /// Largest recorded sample.
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// Approximate percentile (`p` in `[0, 100]`) in nanoseconds.
    pub fn percentile_ns(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return Self::bucket_upper_ns(idx).min(self.max_ns);
            }
        }
        self.max_ns
    }

    /// CDF points `(latency_us, cumulative_fraction)` for plotting
    /// (Fig. 18), skipping empty buckets.
    pub fn cdf_points(&self) -> Vec<(f64, f64)> {
        let mut points = Vec::new();
        let mut seen = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            seen += n;
            points.push((
                Self::bucket_upper_ns(idx) as f64 / 1000.0,
                seen as f64 / self.count as f64,
            ));
        }
        points
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

/// Why flash pages were programmed — used for the WAF breakdown
/// (Fig. 25) and for attributing latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FlashOpBreakdown {
    /// Host data pages written to flash.
    pub data_programs: u64,
    /// Pages copied by garbage collection.
    pub gc_programs: u64,
    /// Pages copied by wear levelling.
    pub wear_programs: u64,
    /// Translation/metadata pages written (mapping flushes, snapshots).
    pub translation_programs: u64,
    /// Predicted data pages read from flash: a host read's, or a
    /// resolution's (an overwrite of an approximately mapped page).
    pub data_reads: u64,
    /// Reads issued by GC/wear migrations.
    pub gc_reads: u64,
    /// Translation-page reads (mapping-cache misses).
    pub translation_reads: u64,
    /// Extra reads caused by address mispredictions (§3.5): every probe
    /// after the predicted page.
    pub misprediction_reads: u64,
    /// Block erases.
    pub erases: u64,
}

impl FlashOpBreakdown {
    /// All programs, regardless of cause.
    pub fn total_programs(&self) -> u64 {
        self.data_programs + self.gc_programs + self.wear_programs + self.translation_programs
    }
}

/// Cumulative simulation statistics.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SimStats {
    /// Host-issued page reads.
    pub host_reads: u64,
    /// Host-issued page writes.
    pub host_writes: u64,
    /// Host reads served without flash access (write buffer).
    pub buffer_hits: u64,
    /// Host reads served without flash access (data cache).
    pub cache_hits: u64,
    /// Host reads of never-written pages.
    pub unmapped_reads: u64,
    /// Mapping lookups that returned an address.
    pub lookups: u64,
    /// Lookups whose first flash read was the wrong page.
    pub mispredictions: u64,
    /// Levels visited per lookup, indexed by `levels − 1` (Fig. 23a).
    pub lookup_level_histogram: Vec<u64>,
    /// Nanoseconds spent in mapping-table CPU work (Fig. 23b).
    pub lookup_cpu_ns: u64,
    /// Always 0: a lookup runs on its request's own dependency chain
    /// and never queues behind another. Kept because the benchmark
    /// ledger reads it, and because `sim_digest` hashes this struct's
    /// `Debug` rendering.
    pub translation_stall_ns: u64,
    /// Nanoseconds spent learning segments (Table 3 / §4.5).
    pub learn_cpu_ns: u64,
    /// GC invocations.
    pub gc_runs: u64,
    /// Wear-levelling block swaps.
    pub wear_swaps: u64,
    /// Mapping-table compactions (LeaFTL only).
    pub compactions: u64,
    /// Flash operation breakdown.
    pub flash: FlashOpBreakdown,
    /// Host read latency distribution.
    pub read_latency: LatencyHistogram,
    /// Host write latency distribution.
    pub write_latency: LatencyHistogram,
}

/// [`SimStats::lookups`] and [`SimStats::mispredictions`] split by the
/// path that made them (Fig. 24), plus what the write path's
/// resolutions cost. Kept beside [`SimStats`], not in it, so the
/// `Debug` rendering the read-path golden and the ledger digest hash
/// does not move. Reset with it ([`crate::Ssd::reset_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LookupPaths {
    /// Host reads' lookups that returned an address.
    pub read_lookups: u64,
    /// Of those, the ones whose first flash read was the wrong page.
    pub read_mispredictions: u64,
    /// Host reads' lookups whose live page a GC or wear relocation
    /// wrote: the allocator's migration stream opened its block.
    pub relocated_read_lookups: u64,
    /// Of those, the ones whose first flash read was the wrong page.
    pub relocated_read_mispredictions: u64,
    /// Flush resolutions: approximate lookups of an overwritten LPA,
    /// resolved to the old page's exact address to invalidate it.
    pub resolutions: u64,
    /// Resolutions whose prediction was not the old page.
    pub resolution_mispredictions: u64,
    /// Flash reads the resolutions issued.
    pub resolution_reads: u64,
    /// Resolutions the OOB window of a page the same flush had already
    /// read answered, with no read of their own.
    pub window_resolutions: u64,
    /// Resolutions whose old copy was a flushed page still in DRAM: the
    /// pool knew its address, so they read nothing.
    pub dram_resolutions: u64,
}

impl LookupPaths {
    /// Misprediction ratio of host-read lookups alone.
    pub fn read_misprediction_ratio(&self) -> f64 {
        if self.read_lookups == 0 {
            return 0.0;
        }
        self.read_mispredictions as f64 / self.read_lookups as f64
    }
}

/// What synchronous garbage collection held the host for: the
/// collections that ran at least one victim pass, their passes, the
/// host nanoseconds waited inside them, the floor under that wait, and
/// how long the dies they used were already reserved. A collection puts
/// all its passes on the die timelines from one dispatch point, phase
/// by phase (every read, then every program, then every erase), ahead
/// of the flush programs queued there, and waits once, for the latest
/// erase. Kept beside
/// [`SimStats`], not in it, for the same reason as [`LookupPaths`], and
/// reset with it ([`crate::Ssd::reset_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SyncGc {
    /// Collections that ran at least one pass.
    pub collections: u64,
    /// Victim passes those collections ran.
    pub passes: u64,
    /// Host nanoseconds the collections waited for their passes.
    pub wait_ns: u64,
    /// Summed over the collections, the busiest die's GC read, program
    /// and erase time: no collection finishes sooner than its busiest
    /// die, so `wait_ns` is never below it.
    pub busiest_die_ns: u64,
    /// Summed over the collections, the longest any die a collection's
    /// steps use was already reserved past its dispatch point when they
    /// were placed: what it waited for besides its own GC work.
    pub behind_ns: u64,
}

/// How host reads and flush programs shared the dies, and how writes
/// waited for DRAM. A flush's programs wait in a queue on each die; a
/// host read goes ahead of them and may suspend the one running at its
/// floor ([`crate::clock::SimClock`] has the rule). The flush's pages
/// stay readable from DRAM until a write that finds every page slot
/// held takes one of them once its program has ended. Kept beside
/// [`SimStats`], not in it, for the same reason as [`LookupPaths`], and
/// reset with it ([`crate::Ssd::reset_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReadPriority {
    /// Programs a host read suspended.
    pub suspensions: u64,
    /// Host reads placed ahead of at least one queued program.
    pub overtaking_reads: u64,
    /// Host reads answered from flushed pages still in DRAM (also
    /// counted in [`SimStats::buffer_hits`]).
    pub in_flight_hits: u64,
    /// Writes that found every DRAM slot held and no flushed page's
    /// program ended, and waited for the earliest to end.
    pub slot_waits: u64,
    /// Host nanoseconds those writes waited.
    pub slot_wait_ns: u64,
    /// Data-cache hits on a page whose flash read had not ended: each
    /// completes when that read ends, not a DRAM access after dispatch.
    pub fill_waits: u64,
    /// Nanoseconds those hits waited beyond the DRAM access.
    pub fill_wait_ns: u64,
}

impl SimStats {
    /// A zeroed statistics block.
    pub fn new() -> Self {
        SimStats::default()
    }

    /// Write amplification factor: total flash programs over host
    /// writes (Fig. 25). Returns 0 when no host writes happened.
    pub fn waf(&self) -> f64 {
        if self.host_writes == 0 {
            return 0.0;
        }
        self.flash.total_programs() as f64 / self.host_writes as f64
    }

    /// Misprediction ratio over all successful lookups (Fig. 24).
    pub fn misprediction_ratio(&self) -> f64 {
        if self.lookups == 0 {
            return 0.0;
        }
        self.mispredictions as f64 / self.lookups as f64
    }

    /// Read-cache hit ratio over host reads.
    pub fn cache_hit_ratio(&self) -> f64 {
        if self.host_reads == 0 {
            return 0.0;
        }
        (self.cache_hits + self.buffer_hits) as f64 / self.host_reads as f64
    }

    /// Records a levels-visited sample.
    pub fn record_lookup_levels(&mut self, levels: u32) {
        let idx = (levels.max(1) - 1) as usize;
        if self.lookup_level_histogram.len() <= idx {
            self.lookup_level_histogram.resize(idx + 1, 0);
        }
        self.lookup_level_histogram[idx] += 1;
    }

    /// Average number of levels visited per lookup.
    pub fn avg_lookup_levels(&self) -> f64 {
        let total: u64 = self.lookup_level_histogram.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let weighted: u64 = self
            .lookup_level_histogram
            .iter()
            .enumerate()
            .map(|(idx, &n)| (idx as u64 + 1) * n)
            .sum();
        weighted as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_moments() {
        let mut h = LatencyHistogram::new();
        for ns in [100u64, 200, 300, 400] {
            h.record(ns);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.mean_ns(), 250.0);
        assert_eq!(h.min_ns(), 100);
        assert_eq!(h.max_ns(), 400);
    }

    #[test]
    fn histogram_percentiles_are_ordered() {
        let mut h = LatencyHistogram::new();
        for i in 1..=1000u64 {
            h.record(i * 1000);
        }
        let p50 = h.percentile_ns(50.0);
        let p99 = h.percentile_ns(99.0);
        let p999 = h.percentile_ns(99.9);
        assert!(p50 <= p99 && p99 <= p999);
        assert!((400_000..=650_000).contains(&p50), "p50 = {p50}");
    }

    #[test]
    fn log_linear_buckets_are_tight_and_ordered() {
        // Upper bounds strictly increase and each sample lands in a
        // bucket whose bound contains it.
        for idx in 1..BUCKETS {
            assert!(
                LatencyHistogram::bucket_upper_ns(idx) > LatencyHistogram::bucket_upper_ns(idx - 1)
            );
        }
        let mut ns = 1u64;
        while ns < 10u64.pow(12) {
            assert!(ns <= LatencyHistogram::bucket_upper_ns(LatencyHistogram::bucket_of(ns)));
            ns = ns * 7 / 3 + 1;
        }
        // A p99 near 5 ms no longer rounds up to the decade edge: the
        // bound is within 1/8 decade of the sample even when the max
        // sits a decade higher.
        let mut h = LatencyHistogram::new();
        for _ in 0..100 {
            h.record(5_000_000);
        }
        h.record(20_000_000);
        let p99 = h.percentile_ns(99.0);
        assert_eq!(p99, 5_500_000, "p99 = {p99} still decade-rounded");
    }

    #[test]
    fn cdf_reaches_one() {
        let mut h = LatencyHistogram::new();
        for ns in [20_000u64, 20_000, 220_000] {
            h.record(ns);
        }
        let cdf = h.cdf_points();
        assert!(!cdf.is_empty());
        let last = cdf.last().unwrap();
        assert!((last.1 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = LatencyHistogram::new();
        a.record(1000);
        let mut b = LatencyHistogram::new();
        b.record(2000);
        b.record(500);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.min_ns(), 500);
        assert_eq!(a.max_ns(), 2000);
    }

    #[test]
    fn waf_and_ratios() {
        let mut stats = SimStats::new();
        stats.host_writes = 100;
        stats.flash.data_programs = 100;
        stats.flash.gc_programs = 20;
        assert!((stats.waf() - 1.2).abs() < 1e-9);
        stats.lookups = 50;
        stats.mispredictions = 5;
        assert!((stats.misprediction_ratio() - 0.1).abs() < 1e-9);
    }

    #[test]
    fn lookup_level_tracking() {
        let mut stats = SimStats::new();
        stats.record_lookup_levels(1);
        stats.record_lookup_levels(1);
        stats.record_lookup_levels(3);
        assert_eq!(stats.lookup_level_histogram, vec![2, 0, 1]);
        assert!((stats.avg_lookup_levels() - 5.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn empty_stats_are_zero() {
        let stats = SimStats::new();
        assert_eq!(stats.waf(), 0.0);
        assert_eq!(stats.misprediction_ratio(), 0.0);
        assert_eq!(stats.cache_hit_ratio(), 0.0);
        assert_eq!(stats.avg_lookup_levels(), 0.0);
    }
}
