//! Device-front-end determinism/equivalence invariants.
//!
//! **Single queue + synchronous GC ≡ blocking path.** At *any* queue
//! depth, a single-queue [`Device`] in `GcMode::Synchronous`
//! dispatches commands in submission order, so the device ends in
//! exactly the state the blocking replay produces — identical
//! flash contents (per-page content, reverse mapping and program
//! sequence), identical mapping state, identical flash-op counts, and
//! identical read results. Queue depth may only change *when* things
//! happen, never *what* happens.
//!
//! Blocking reads and device reads run one implementation — a burst of
//! one is its degenerate case, pinned by `tests/read_path_golden.rs` —
//! so for reads this compares burst shapes (one request at a time
//! against whatever bursts the queue depth forms), and for writes,
//! flushes and GC the blocking wrappers against device dispatch.
//!
//! The invariant is checked in both memory regimes: resident mapping
//! tables (where read bursts hoist translations through
//! `lookup_batch`) and constrained DRAM (demand-paged CMT/groups plus
//! a tiny data cache, where the device must translate each request at
//! its turn to preserve the blocking path's mutation order).
//!
//! **Background GC converges to the same live data.** With
//! `GcMode::Background` the *timing and placement* of GC migrations
//! changes (they become arbitrated device traffic), so physical state
//! diverges from the blocking run — but GC only moves live pages, so
//! the logical contents must not: after draining, every LPA reads the
//! same value under background GC (any arbiter) as under the blocking
//! synchronous path.

#![expect(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "a test: a step that fails should fail it with its message"
)]

use leaftl_repro::baselines::{Dftl, Sftl};
use leaftl_repro::core::LeaFtlConfig;
use leaftl_repro::flash::{BlockId, Lpa, Ppa};
use leaftl_repro::sim::{
    Device, DeviceConfig, HostPriority, IoKind, LeaFtlScheme, MappingScheme, RoundRobin, Ssd,
    SsdConfig, Weighted,
};
use proptest::collection::vec;
use proptest::prelude::*;

/// An abstract host action over a small logical space.
#[derive(Debug, Clone, Copy)]
enum Action {
    Write { lpa: u64, len: u64 },
    StridedWrite { lpa: u64, stride: u64, count: u64 },
    Read { lpa: u64 },
    Flush,
}

fn action() -> impl Strategy<Value = Action> {
    prop_oneof![
        4 => (0u64..1200, 1u64..12).prop_map(|(lpa, len)| Action::Write { lpa, len }),
        2 => (0u64..1000, 2u64..6, 2u64..16)
            .prop_map(|(lpa, stride, count)| Action::StridedWrite { lpa, stride, count }),
        4 => (0u64..1400).prop_map(|lpa| Action::Read { lpa }),
        1 => Just(Action::Flush),
    ]
}

/// Expands actions into page-granular (kind, lpa, content) tuples with
/// `Flush` barriers kept in place (`None`).
fn page_ops(actions: &[Action], logical: u64) -> Vec<Option<(IoKind, u64, u64)>> {
    let mut content = 0u64;
    let mut ops = Vec::new();
    for &action in actions {
        match action {
            Action::Write { lpa, len } => {
                for j in 0..len {
                    content += 1;
                    ops.push(Some((IoKind::Write, (lpa + j) % logical, content)));
                }
            }
            Action::StridedWrite { lpa, stride, count } => {
                for j in 0..count {
                    content += 1;
                    ops.push(Some((IoKind::Write, (lpa + j * stride) % logical, content)));
                }
            }
            Action::Read { lpa } => ops.push(Some((IoKind::Read, lpa % logical, 0))),
            Action::Flush => ops.push(None),
        }
    }
    ops
}

/// Full-device digest: per-page (content, reverse-mapped LPA, program
/// sequence) plus per-block erase counts.
#[allow(clippy::type_complexity)]
fn device_digest<S: MappingScheme + Clone>(
    ssd: &Ssd<S>,
) -> (Vec<Option<(u64, Option<Lpa>, u64)>>, Vec<u32>) {
    let geometry = *ssd.device().geometry();
    let pages = (0..geometry.total_pages())
        .map(|raw| {
            ssd.device()
                .peek(Ppa::new(raw))
                .map(|view| (view.content, view.lpa, view.seq))
        })
        .collect();
    let erases = (0..geometry.blocks)
        .map(|raw| ssd.device().block(BlockId::new(raw)).erase_count())
        .collect();
    (pages, erases)
}

/// Runs the same action sequence through the blocking path and through
/// a single-queue synchronous-GC device at `queue_depth`, asserting
/// end-state equality.
fn check_equivalence<S, F>(
    build: F,
    actions: &[Action],
    queue_depth: usize,
) -> Result<(), TestCaseError>
where
    S: MappingScheme + Clone,
    F: Fn() -> Ssd<S>,
{
    // Blocking run.
    let mut blocking = build();
    let logical = blocking.config().logical_pages();
    let ops = page_ops(actions, logical);
    let mut blocking_reads: Vec<Option<u64>> = Vec::new();
    for op in &ops {
        match *op {
            Some((IoKind::Write, lpa, content)) => {
                blocking.write(Lpa::new(lpa), content).expect("write");
            }
            Some((IoKind::Read, lpa, _)) => {
                blocking_reads.push(blocking.read(Lpa::new(lpa)).expect("read"));
            }
            Some((IoKind::Flush | IoKind::GcMigrate | IoKind::Compact | IoKind::MapLog, ..)) => {
                unreachable!("host ops only")
            }
            None => blocking.flush().expect("flush"),
        }
    }

    // Queued run: same ops through the device; Flush is a barrier
    // (drain, then a host flush), matching the blocking sequence.
    let mut queued = build();
    let mut queued_reads: Vec<Option<u64>> = Vec::new();
    let mut segment: Vec<(IoKind, u64, u64)> = Vec::new();
    let mut segments: Vec<Vec<(IoKind, u64, u64)>> = Vec::new();
    for op in &ops {
        match *op {
            Some(op) => segment.push(op),
            None => segments.push(std::mem::take(&mut segment)),
        }
    }
    let trailing = std::mem::take(&mut segment);
    let segment_count = segments.len();
    segments.push(trailing);
    for (idx, segment) in segments.iter().enumerate() {
        {
            let mut device = Device::new(&mut queued, DeviceConfig::single(queue_depth));
            for &(kind, lpa, content) in segment {
                match kind {
                    IoKind::Write => device.submit_write(Lpa::new(lpa), content).expect("write"),
                    IoKind::Read => device.submit_read(Lpa::new(lpa)).expect("read"),
                    IoKind::Flush | IoKind::GcMigrate | IoKind::Compact | IoKind::MapLog => {
                        unreachable!("host ops only")
                    }
                };
            }
            let mut completions = device.drain().expect("drain");
            completions.sort_by_key(|c| c.id); // submission order
            queued_reads.extend(
                completions
                    .iter()
                    .filter(|c| c.kind() == IoKind::Read)
                    .map(|c| c.data),
            );
        }
        if idx < segment_count {
            queued.flush().expect("flush");
        }
    }

    // Identical read results, in submission order.
    prop_assert_eq!(&queued_reads, &blocking_reads);

    // Identical flash contents and wear.
    prop_assert_eq!(device_digest(&queued), device_digest(&blocking));

    // Identical flash-op counts and FTL event counts.
    let (qs, bs) = (queued.stats(), blocking.stats());
    prop_assert_eq!(qs.flash, bs.flash);
    prop_assert_eq!(qs.host_reads, bs.host_reads);
    prop_assert_eq!(qs.host_writes, bs.host_writes);
    prop_assert_eq!(qs.buffer_hits, bs.buffer_hits);
    prop_assert_eq!(qs.cache_hits, bs.cache_hits);
    prop_assert_eq!(qs.unmapped_reads, bs.unmapped_reads);
    prop_assert_eq!(qs.lookups, bs.lookups);
    prop_assert_eq!(qs.mispredictions, bs.mispredictions);
    prop_assert_eq!(qs.gc_runs, bs.gc_runs);
    prop_assert_eq!(qs.wear_swaps, bs.wear_swaps);
    prop_assert_eq!(qs.compactions, bs.compactions);

    // Identical mapping state.
    prop_assert_eq!(queued.mapping_bytes(), blocking.mapping_bytes());
    Ok(())
}

/// Runs the same action sequence blocking (synchronous GC) and through
/// a single-queue *background-GC* device, asserting that both end with
/// the same live data for every logical page. Physical placement, GC
/// counts and timing legitimately diverge; user data must not.
fn check_background_gc_convergence<S, F>(
    build: F,
    actions: &[Action],
    queue_depth: usize,
    arbiter: usize,
) -> Result<(), TestCaseError>
where
    S: MappingScheme + Clone,
    F: Fn() -> Ssd<S>,
{
    let mut blocking = build();
    let logical = blocking.config().logical_pages();
    let ops = page_ops(actions, logical);
    for op in ops.iter().flatten() {
        match *op {
            (IoKind::Write, lpa, content) => {
                blocking.write(Lpa::new(lpa), content).expect("write");
            }
            (IoKind::Read, lpa, _) => {
                blocking.read(Lpa::new(lpa)).expect("read");
            }
            (IoKind::Flush | IoKind::GcMigrate | IoKind::Compact | IoKind::MapLog, ..) => {
                unreachable!("host ops only")
            }
        }
    }

    let mut background = build();
    {
        let config = DeviceConfig::single(queue_depth)
            .background_gc()
            .with_arbiter(match arbiter {
                0 => Box::new(RoundRobin::new()),
                1 => Box::new(HostPriority::new()),
                _ => Box::new(Weighted::new(vec![2], 1)),
            });
        let mut device = Device::new(&mut background, config);
        for op in ops.iter().flatten() {
            match *op {
                (IoKind::Write, lpa, content) => {
                    device.submit_write(Lpa::new(lpa), content).expect("write");
                }
                (IoKind::Read, lpa, _) => {
                    device.submit_read(Lpa::new(lpa)).expect("read");
                }
                (IoKind::Flush | IoKind::GcMigrate | IoKind::Compact | IoKind::MapLog, ..) => {
                    unreachable!("host ops only")
                }
            }
        }
        device.drain().expect("drain");
    }

    // Same live-data set: every logical page reads identically.
    for lpa in 0..logical {
        let expected = blocking.read(Lpa::new(lpa)).expect("read");
        let got = background.read(Lpa::new(lpa)).expect("read");
        prop_assert_eq!(got, expected, "lpa {} diverged", lpa);
    }
    Ok(())
}

fn leaftl_resident(gamma: u32) -> Ssd<LeaFtlScheme> {
    let mut config = SsdConfig::small_test();
    config.gamma = gamma;
    let scheme = LeaFtlScheme::new(
        LeaFtlConfig::default()
            .with_gamma(gamma)
            .with_compaction_interval(300),
    );
    Ssd::new(config, scheme)
}

/// Constrained DRAM: demand-paged mapping structures plus a data cache
/// of only a handful of pages, so in-burst evictions and translation
/// traffic actually happen.
fn constrained_config() -> SsdConfig {
    let mut config = SsdConfig::small_test();
    // 2 KB of DRAM: a few hundred CMT entries / a sub-table group
    // budget, and essentially no data cache — every read reaches the
    // mapping scheme and the flash.
    config.dram_bytes = 2 * 1024;
    config
}

/// A GC-pressured shape: little over-provisioning headroom relative to
/// the watermarks, so the proptest workloads actually trigger
/// collection in both modes.
fn gc_pressured_config() -> SsdConfig {
    let mut config = SsdConfig::small_test();
    config.op_ratio = 0.5;
    config.gc_low_watermark = 0.30;
    config.gc_high_watermark = 0.40;
    config.gc_hard_floor = 0.10;
    config
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Resident learned table (the batch-lookup fast path), any
    /// interleaving, any queue depth.
    #[test]
    fn leaftl_resident_matches_blocking(
        actions in vec(action(), 1..80),
        queue_depth in 1usize..33,
        gamma in 0u32..5,
    ) {
        check_equivalence(|| leaftl_resident(gamma), &actions, queue_depth)?;
        // The resident table must actually take the hoisted-batch path
        // for this regime to mean anything.
        let ssd = leaftl_resident(gamma);
        prop_assert!(ssd.scheme().lookup_is_pure());
    }

    /// Demand-paged LeaFTL (budget below the table footprint): the
    /// device must fall back to turn-order translation.
    #[test]
    fn leaftl_demand_paged_matches_blocking(
        actions in vec(action(), 1..60),
        queue_depth in 1usize..33,
        gamma in 0u32..3,
    ) {
        check_equivalence(
            || {
                let mut config = constrained_config();
                config.gamma = gamma;
                let scheme = LeaFtlScheme::new(
                    LeaFtlConfig::default()
                        .with_gamma(gamma)
                        .with_compaction_interval(300),
                );
                Ssd::new(config, scheme)
            },
            &actions,
            queue_depth,
        )?;
    }

    /// Demand-paged DFTL (tiny CMT + tiny data cache).
    #[test]
    fn dftl_demand_paged_matches_blocking(
        actions in vec(action(), 1..60),
        queue_depth in 1usize..33,
    ) {
        check_equivalence(
            || Ssd::new(constrained_config(), Dftl::new()),
            &actions,
            queue_depth,
        )?;
    }

    /// Demand-paged SFTL.
    #[test]
    fn sftl_demand_paged_matches_blocking(
        actions in vec(action(), 1..60),
        queue_depth in 1usize..33,
    ) {
        check_equivalence(
            || Ssd::new(constrained_config(), Sftl::new()),
            &actions,
            queue_depth,
        )?;
    }

    /// Background-GC convergence, LeaFTL: arbitrated migrations move
    /// pages at different times and places than the synchronous
    /// collector, but the live-data set must match the blocking run.
    #[test]
    fn leaftl_background_gc_converges(
        actions in vec(action(), 20..80),
        queue_depth in 1usize..17,
        gamma in 0u32..3,
        arbiter in 0usize..3,
    ) {
        check_background_gc_convergence(
            || {
                let mut config = gc_pressured_config();
                config.gamma = gamma;
                let scheme = LeaFtlScheme::new(
                    LeaFtlConfig::default()
                        .with_gamma(gamma)
                        .with_compaction_interval(300),
                );
                Ssd::new(config, scheme)
            },
            &actions,
            queue_depth,
            arbiter,
        )?;
    }

    /// Background-GC convergence, DFTL.
    #[test]
    fn dftl_background_gc_converges(
        actions in vec(action(), 20..60),
        queue_depth in 1usize..17,
        arbiter in 0usize..3,
    ) {
        check_background_gc_convergence(
            || Ssd::new(gc_pressured_config(), Dftl::new()),
            &actions,
            queue_depth,
            arbiter,
        )?;
    }

    /// Background-GC convergence, SFTL.
    #[test]
    fn sftl_background_gc_converges(
        actions in vec(action(), 20..60),
        queue_depth in 1usize..17,
        arbiter in 0usize..3,
    ) {
        check_background_gc_convergence(
            || Ssd::new(gc_pressured_config(), Sftl::new()),
            &actions,
            queue_depth,
            arbiter,
        )?;
    }
}

/// Deterministic heavy-overwrite cross-check: background GC must
/// actually collect (not just converge trivially) and keep data
/// intact under sustained pressure with every arbiter.
#[test]
fn background_gc_collects_under_heavy_overwrite() {
    for arbiter in 0..3usize {
        let mut blocking = Ssd::new(
            gc_pressured_config(),
            LeaFtlScheme::new(LeaFtlConfig::default()),
        );
        let logical = blocking.config().logical_pages();
        for round in 0..6u64 {
            for i in 0..logical {
                blocking.write(Lpa::new(i), round * 100_000 + i).unwrap();
            }
        }
        assert!(blocking.stats().gc_runs > 0, "sync GC must trigger");

        let mut background = Ssd::new(
            gc_pressured_config(),
            LeaFtlScheme::new(LeaFtlConfig::default()),
        );
        {
            let config = DeviceConfig::single(16)
                .background_gc()
                .with_arbiter(match arbiter {
                    0 => Box::new(RoundRobin::new()),
                    1 => Box::new(HostPriority::new()),
                    _ => Box::new(Weighted::new(vec![2], 1)),
                });
            let mut device = Device::new(&mut background, config);
            for round in 0..6u64 {
                for i in 0..logical {
                    device
                        .submit_write(Lpa::new(i), round * 100_000 + i)
                        .unwrap();
                }
            }
            device.drain().unwrap();
            assert!(device.gc_dispatched() > 0, "background GC must run");
        }
        assert!(background.stats().gc_runs > 0);
        for i in 0..logical {
            assert_eq!(
                background.read(Lpa::new(i)).unwrap(),
                Some(5 * 100_000 + i),
                "arbiter {arbiter}, lpa {i}"
            );
        }
    }
}
