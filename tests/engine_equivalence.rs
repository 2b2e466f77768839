//! The queued [`Device`] held equal to the blocking `Ssd::{read, write,
//! flush}` path, for every mapping scheme.
//!
//! Every case drives one page-op sequence twice: [`run_blocking`]
//! through the blocking calls, [`run_device`] through a single-queue
//! device, where a flush is "drain, then a host flush". After both
//! runs each SSD passes its own cross-checks ([`invariants`]).
//!
//! **Synchronous GC: the same state at any queue depth.** A single
//! queue dispatches host commands in submission order, so the device
//! ends with the blocking run's reads, flash contents (per-page
//! content, reverse mapping, program sequence), wear, mapping bytes,
//! program, erase and GC-read counts, and GC, wear-swap and compaction
//! counts ([`check_equivalence`]). Queue depth may change *when* things
//! happen, and so *where a read is served*, never *what* happens: a
//! flushed page stays in DRAM until a write takes its slot after its
//! program has ended, and which programs have ended when a write
//! dispatches depends on time. So at depth > 1 a read the blocking run
//! served from DRAM may be served from the read cache or from flash, or
//! the reverse, and the counters that record where reads were served
//! ([`served`]: buffer and cache hits, lookups, mispredictions, and
//! data, misprediction and translation reads) may differ.
//! At depth 1 the device is also cycle-exact — the same clock and every
//! counter — with and without a QoS controller on a guaranteed queue: one queue leaves the arbiter no
//! choice, a guaranteed head is never deferred, and synchronous GC
//! keeps the pacing gate inert. Reads run one implementation on both
//! sides (a burst of one; `tests/read_path_golden.rs` pins what it
//! does), so this holds equal the bursts a queue forms, write and
//! flush servicing, dispatch, retirement and the drain barriers. The
//! schemes: `ExactPageMap`, LeaFTL resident (where read bursts hoist
//! translations through `lookup_batch`) and demand-paged, DFTL, SFTL,
//! and LeaFTL behind 1/2/4/8 range shards; a 1-shard service is also
//! the unsharded scheme, cycle for cycle.
//!
//! **Background GC converges** ([`check_convergence`]). A device
//! passes its config's GC mode to every write and flush it dispatches;
//! the blocking calls always collect inline, so the two runs differ by
//! that mode alone. Background GC migrates pages at other times and
//! places than the synchronous collector, but that changes no read:
//! after draining, every LPA holds the blocking run's value. Both GC
//! modes start and stop at the same watermarks, which the device reads
//! from the SSD. Every device, like the blocking calls, compacts the
//! learned table inline at the flush; `DeviceConfig::background_compaction`
//! is kept as a name and changes nothing
//! ([`background_compaction_is_the_inline_run`]).

#![expect(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "a test: a step that fails should fail it with its message"
)]

#[path = "support/ops.rs"]
mod ops;

use leaftl_repro::baselines::{Dftl, Sftl};
use leaftl_repro::core::{LeaFtlConfig, ShardedMapping};
use leaftl_repro::flash::{BlockId, Lpa, Ppa};
use leaftl_repro::sim::{
    Arbiter, Device, DeviceConfig, ExactPageMap, GcMode, HostPriority, IoCompletion, IoKind,
    IoRequest, LeaFtlScheme, MappingScheme, QosSpec, RoundRobin, SimStats, Slo, Ssd, SsdConfig,
    Weighted,
};
use ops::{action, page_ops, Action, Op};
use proptest::collection::vec;
use proptest::prelude::*;

/// Runs `ops` through the blocking calls; returns the reads in order.
fn run_blocking<S: MappingScheme + Clone>(ssd: &mut Ssd<S>, ops: &[Op]) -> Vec<Option<u64>> {
    let mut reads = Vec::new();
    for &op in ops {
        match op {
            Op::Write(lpa, content) => ssd.write(Lpa::new(lpa), content).expect("write"),
            Op::Read(lpa) => reads.push(ssd.read(Lpa::new(lpa)).expect("read")),
            Op::Flush => ssd.flush().expect("flush"),
        }
    }
    reads
}

/// Submits `ops` to queue 0 of `device`, a flush as "drain, then a host
/// flush", and returns every completion in submission order.
fn drive<S: MappingScheme + Clone>(device: &mut Device<'_, S>, ops: &[Op]) -> Vec<IoCompletion> {
    let mut completions = Vec::new();
    for &op in ops {
        let submitted = match op {
            Op::Write(lpa, content) => device.submit_write(Lpa::new(lpa), content),
            Op::Read(lpa) => device.submit_read(Lpa::new(lpa)),
            Op::Flush => {
                completions.extend(device.drain().expect("drain"));
                device.submit_to(0, IoRequest::flush())
            }
        };
        submitted.expect("submit");
    }
    completions.extend(device.drain().expect("drain"));
    completions.sort_by_key(|c| c.id);
    completions
}

/// Runs `ops` through a device built from `config`; returns the reads
/// in submission order.
fn run_device<S: MappingScheme + Clone>(
    ssd: &mut Ssd<S>,
    ops: &[Op],
    config: DeviceConfig,
) -> Vec<Option<u64>> {
    drive(&mut Device::new(ssd, config), ops)
        .iter()
        .filter(|c| c.kind() == IoKind::Read)
        .map(|c| c.data)
        .collect()
}

/// Per-page (content, reverse-mapped LPA, program sequence), and
/// per-block erase counts.
type Digest = (Vec<Option<(u64, Option<Lpa>, u64)>>, Vec<u32>);

fn device_digest<S: MappingScheme + Clone>(ssd: &Ssd<S>) -> Digest {
    let geometry = *ssd.device().geometry();
    let pages = (0..geometry.total_pages())
        .map(|raw| {
            ssd.device()
                .read(Ppa::new(raw))
                .ok()
                .map(|view| (view.content, view.lpa, view.seq))
        })
        .collect();
    let erases = (0..geometry.blocks)
        .map(|raw| ssd.device().block(BlockId::new(raw)).erase_count())
        .collect();
    (pages, erases)
}

/// The FTL event and flash-op counts two equal runs agree on at any
/// queue depth, by name.
fn counts(s: &SimStats) -> [(&'static str, u64); 12] {
    [
        ("host_reads", s.host_reads),
        ("host_writes", s.host_writes),
        ("unmapped_reads", s.unmapped_reads),
        ("gc_runs", s.gc_runs),
        ("wear_swaps", s.wear_swaps),
        ("compactions", s.compactions),
        ("data_programs", s.flash.data_programs),
        ("gc_programs", s.flash.gc_programs),
        ("wear_programs", s.flash.wear_programs),
        ("translation_programs", s.flash.translation_programs),
        ("erases", s.flash.erases),
        ("gc_reads", s.flash.gc_reads),
    ]
}

/// The counts that record where reads were served, by name: the same
/// only at depth 1, where every write finds the same programs ended.
fn served(s: &SimStats) -> [(&'static str, u64); 7] {
    [
        ("buffer_hits", s.buffer_hits),
        ("cache_hits", s.cache_hits),
        ("lookups", s.lookups),
        ("mispredictions", s.mispredictions),
        ("data_reads", s.flash.data_reads),
        ("misprediction_reads", s.flash.misprediction_reads),
        ("translation_reads", s.flash.translation_reads),
    ]
}

/// Same flash contents and wear, mapping bytes, and the counts of
/// [`counts`].
fn same_state<S, T>(a: &Ssd<S>, b: &Ssd<T>) -> Result<(), TestCaseError>
where
    S: MappingScheme + Clone,
    T: MappingScheme + Clone,
{
    prop_assert_eq!(device_digest(a), device_digest(b));
    prop_assert_eq!(a.mapping_bytes(), b.mapping_bytes());
    prop_assert_eq!(counts(a.stats()), counts(b.stats()));
    Ok(())
}

/// Cycle-exact: the same clock, and every read served where it was.
fn same_clock<S, T>(a: &Ssd<S>, b: &Ssd<T>) -> Result<(), TestCaseError>
where
    S: MappingScheme + Clone,
    T: MappingScheme + Clone,
{
    prop_assert_eq!(a.now_ns(), b.now_ns(), "now_ns must be cycle-exact");
    prop_assert_eq!(served(a.stats()), served(b.stats()));
    prop_assert_eq!(a.stats().flash, b.stats().flash);
    Ok(())
}

/// The SSD's own cross-checks ([`Ssd::check_invariants`]): among
/// others, the GC victim index against the device, and every flash
/// op's die time attributed to exactly one class.
fn invariants<S: MappingScheme + Clone>(ssd: &Ssd<S>) -> Result<(), TestCaseError> {
    prop_assert_eq!(ssd.check_invariants(), Vec::<String>::new());
    Ok(())
}

/// A single-queue synchronous-GC device ends in the blocking run's
/// state at `queue_depth`; at depth 1 it is cycle-exact, with and
/// without a QoS controller on a guaranteed queue.
fn check_equivalence<S, F>(
    build: F,
    actions: &[Action],
    queue_depth: usize,
) -> Result<(), TestCaseError>
where
    S: MappingScheme + Clone,
    F: Fn() -> Ssd<S>,
{
    let mut blocking = build();
    let ops = page_ops(actions, blocking.config().logical_pages(), &mut 0);
    let reads = run_blocking(&mut blocking, &ops);
    invariants(&blocking)?;
    let guaranteed = QosSpec::new(vec![Slo::guaranteed(1_000.0)]);
    let legs = [
        (DeviceConfig::single(queue_depth), queue_depth == 1),
        (DeviceConfig::single(1), true),
        (DeviceConfig::single(1).with_qos(guaranteed), true),
    ];
    for (config, cycle_exact) in legs {
        let mut queued = build();
        prop_assert_eq!(run_device(&mut queued, &ops, config), reads);
        same_state(&queued, &blocking)?;
        if cycle_exact {
            same_clock(&queued, &blocking)?;
        }
        invariants(&queued)?;
    }
    Ok(())
}

/// A device running `config`'s background work reads what the blocking
/// run (synchronous GC) reads, and after draining
/// holds the same data at every LPA; with synchronous GC, the same
/// flash.
fn check_convergence<S, F>(
    build: F,
    actions: &[Action],
    config: DeviceConfig,
) -> Result<(), TestCaseError>
where
    S: MappingScheme + Clone,
    F: Fn() -> Ssd<S>,
{
    let same_flash = config.gc_mode == GcMode::Synchronous;
    let mut blocking = build();
    let logical = blocking.config().logical_pages();
    let ops = page_ops(actions, logical, &mut 0);
    let reads = run_blocking(&mut blocking, &ops);
    let mut background = build();
    prop_assert_eq!(run_device(&mut background, &ops, config), reads);
    if same_flash {
        prop_assert_eq!(device_digest(&background), device_digest(&blocking));
    }
    invariants(&blocking)?;
    invariants(&background)?;
    for lpa in 0..logical {
        prop_assert_eq!(
            background.read(Lpa::new(lpa)).expect("read"),
            blocking.read(Lpa::new(lpa)).expect("read"),
            "lpa {} diverged",
            lpa
        );
    }
    Ok(())
}

const SHARDS: [usize; 4] = [1, 2, 4, 8];

/// LeaFTL at `gamma`, compacting inline every 300 learned pages.
fn leaftl(gamma: u32) -> LeaFtlScheme {
    LeaFtlScheme::new(
        LeaFtlConfig::default()
            .with_gamma(gamma)
            .with_compaction_interval(300),
    )
}

/// LeaFTL at `gamma` behind `shards` range shards.
fn sharded(config: SsdConfig, shards: usize, gamma: u32) -> Ssd<ShardedMapping<LeaFtlScheme>> {
    let logical = config.logical_pages();
    Ssd::new(
        config,
        ShardedMapping::new(shards, logical, |_| leaftl(gamma)),
    )
}

/// Every mapping table stays resident.
fn resident() -> SsdConfig {
    SsdConfig::small_test()
}

/// 2 KB of DRAM: a few hundred CMT entries or a sub-table group budget
/// and essentially no data cache, so every read reaches the mapping
/// scheme and the flash, and in-burst evictions and translation traffic
/// happen.
fn constrained() -> SsdConfig {
    let mut config = SsdConfig::small_test();
    config.dram_bytes = 2 * 1024;
    config
}

/// Half the raw capacity over-provisioned and a one-block buffer, so
/// short overwrite-heavy workloads reach the GC watermarks in both GC
/// modes.
fn gc_pressured() -> SsdConfig {
    let mut config = SsdConfig::small_test();
    config.op_ratio = 0.5;
    config
}

/// One queue at `queue_depth`, background GC, and arbiter `index`:
/// round-robin, host-priority or weighted.
fn background_gc(queue_depth: usize, index: usize) -> DeviceConfig {
    let arbiter: Box<dyn Arbiter> = match index {
        0 => Box::new(RoundRobin::new()),
        1 => Box::new(HostPriority::new()),
        _ => Box::new(Weighted::new(vec![2], 1)),
    };
    DeviceConfig::single(queue_depth)
        .background_gc()
        .with_arbiter(arbiter)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The in-DRAM page map.
    #[test]
    fn exact_page_map_matches_blocking(
        actions in vec(action(), 1..80),
        queue_depth in 1usize..33,
    ) {
        check_equivalence(|| Ssd::new(resident(), ExactPageMap::new()), &actions, queue_depth)?;
    }

    /// Resident learned table: read bursts take the hoisted-batch path.
    #[test]
    fn leaftl_resident_matches_blocking(
        actions in vec(action(), 1..80),
        queue_depth in 1usize..33,
        gamma in 0u32..5,
    ) {
        let build = || Ssd::new(resident(), leaftl(gamma));
        prop_assert!(build().scheme().lookup_is_pure());
        check_equivalence(build, &actions, queue_depth)?;
    }

    /// Demand-paged LeaFTL: the device translates each read at its turn.
    #[test]
    fn leaftl_demand_paged_matches_blocking(
        actions in vec(action(), 1..60),
        queue_depth in 1usize..33,
        gamma in 0u32..3,
    ) {
        check_equivalence(|| Ssd::new(constrained(), leaftl(gamma)), &actions, queue_depth)?;
    }

    /// Demand-paged DFTL (tiny CMT, tiny data cache).
    #[test]
    fn dftl_demand_paged_matches_blocking(
        actions in vec(action(), 1..60),
        queue_depth in 1usize..33,
    ) {
        check_equivalence(|| Ssd::new(constrained(), Dftl::new()), &actions, queue_depth)?;
    }

    /// Demand-paged SFTL.
    #[test]
    fn sftl_demand_paged_matches_blocking(
        actions in vec(action(), 1..60),
        queue_depth in 1usize..33,
    ) {
        check_equivalence(|| Ssd::new(constrained(), Sftl::new()), &actions, queue_depth)?;
    }

    /// Demand-paged LeaFTL behind 1, 2, 4 and 8 shards, every case at
    /// every shard count.
    #[test]
    fn sharded_demand_paged_matches_blocking(
        actions in vec(action(), 1..50),
        queue_depth in 1usize..33,
        gamma in 0u32..3,
    ) {
        for shards in SHARDS {
            check_equivalence(|| sharded(constrained(), shards, gamma), &actions, queue_depth)?;
        }
    }

    /// A 1-shard `ShardedMapping` forwards every call verbatim: on the
    /// blocking path it is the unsharded scheme, cycle for cycle.
    #[test]
    fn one_shard_service_is_state_identical(
        actions in vec(action(), 1..60),
        gamma in 0u32..5,
    ) {
        let mut plain = Ssd::new(resident(), leaftl(gamma));
        let ops = page_ops(&actions, plain.config().logical_pages(), &mut 0);
        let reads = run_blocking(&mut plain, &ops);
        let mut one_shard = sharded(resident(), 1, gamma);
        prop_assert_eq!(run_blocking(&mut one_shard, &ops), reads);
        same_state(&one_shard, &plain)?;
        same_clock(&one_shard, &plain)?;
        invariants(&plain)?;
        invariants(&one_shard)?;
    }

    /// Background GC, LeaFTL, under each arbiter.
    #[test]
    fn leaftl_background_gc_converges(
        actions in vec(action(), 20..80),
        queue_depth in 1usize..17,
        gamma in 0u32..3,
        index in 0usize..3,
    ) {
        let config = background_gc(queue_depth, index);
        check_convergence(|| Ssd::new(gc_pressured(), leaftl(gamma)), &actions, config)?;
    }

    /// Background GC, DFTL.
    #[test]
    fn dftl_background_gc_converges(
        actions in vec(action(), 20..60),
        queue_depth in 1usize..17,
        index in 0usize..3,
    ) {
        let config = background_gc(queue_depth, index);
        check_convergence(|| Ssd::new(gc_pressured(), Dftl::new()), &actions, config)?;
    }

    /// Background GC, SFTL.
    #[test]
    fn sftl_background_gc_converges(
        actions in vec(action(), 20..60),
        queue_depth in 1usize..17,
        index in 0usize..3,
    ) {
        let config = background_gc(queue_depth, index);
        check_convergence(|| Ssd::new(gc_pressured(), Sftl::new()), &actions, config)?;
    }
}

/// Six full overwrites: background GC must actually collect, not just
/// converge trivially, and keep the data under every arbiter.
#[test]
fn background_gc_collects_under_heavy_overwrite() -> Result<(), TestCaseError> {
    let build = || Ssd::new(gc_pressured(), LeaFtlScheme::new(LeaFtlConfig::default()));
    let logical = build().config().logical_pages();
    let ops: Vec<Op> = (0..6u64)
        .flat_map(|round| (0..logical).map(move |i| Op::Write(i, round * 100_000 + i)))
        .collect();
    let mut blocking = build();
    run_blocking(&mut blocking, &ops);
    assert!(blocking.stats().gc_runs > 0, "sync GC must trigger");
    invariants(&blocking)?;
    for index in 0..3 {
        let mut background = build();
        let mut device = Device::new(&mut background, background_gc(16, index));
        drive(&mut device, &ops);
        assert!(device.gc_dispatched() > 0, "background GC must run");
        drop(device);
        assert!(background.stats().gc_runs > 0);
        invariants(&background)?;
        for i in 0..logical {
            assert_eq!(
                background.read(Lpa::new(i)).unwrap(),
                Some(5 * 100_000 + i),
                "arbiter {index}, lpa {i}"
            );
        }
    }
    Ok(())
}

/// `background_compaction()` and its thresholds change nothing: over
/// four shards and a sliding window of overwrites, with background GC,
/// the device compacts inline (a sweep at least once), dispatches no
/// compaction command, and ends with the same completions, statistics,
/// clock and flash as the device configured without them.
#[test]
fn background_compaction_is_the_inline_run() -> Result<(), TestCaseError> {
    let logical = gc_pressured().logical_pages();
    let ops: Vec<Op> = (0..12u64)
        .flat_map(|round| {
            (0..256u64).map(move |i| Op::Write((round * 131 + i * 5) % logical, round * 10_000 + i))
        })
        .collect();
    let run = |config: DeviceConfig| {
        let mut ssd = sharded(gc_pressured(), 4, 2);
        let mut device = Device::new(&mut ssd, config);
        let completions = drive(&mut device, &ops);
        assert_eq!(device.compact_dispatched(), 0);
        drop(device);
        (completions, ssd)
    };
    let config = || DeviceConfig::single(8).background_gc();
    let (plain_completions, plain) = run(config());
    let (named_completions, named) = run(config()
        .background_compaction()
        .with_compaction_thresholds(2, 16));
    assert!(named.stats().compactions > 0, "the flush path must compact");
    assert!(named.stats().gc_runs > 0, "background GC must collect");
    assert_eq!(named_completions, plain_completions);
    assert_eq!(
        format!("{:?}", named.stats()),
        format!("{:?}", plain.stats())
    );
    assert_eq!(named.now_ns(), plain.now_ns());
    same_state(&named, &plain)?;
    invariants(&named)
}
