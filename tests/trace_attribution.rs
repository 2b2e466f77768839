//! Device-timeline tracing invariants.
//!
//! **Tracing is observational.** Attaching a [`TraceSink`] changes no
//! scheduling decision: a traced replay ends with bit-identical flash
//! state, identical stats, and identical virtual-time results as the
//! same replay without a sink.
//!
//! **Traces are deterministic.** The exporter writes events in record
//! order with integer-derived timestamps, so two runs of the same
//! seeded workload produce byte-identical Chrome trace JSON.
//!
//! **Attribution is conserved.** Per die, the utilization report's
//! operation counts (summed over traffic classes) equal the
//! [`SimStats`] flash breakdown exactly, and attributed busy-ns equals
//! ops × NAND latency — across arbitrary queue depths, arbiters, GC
//! modes and checkpoint modes (proptest).

#![expect(
    clippy::expect_used,
    reason = "a test: a step that fails should fail it with its message"
)]

use leaftl_repro::core::LeaFtlConfig;
use leaftl_repro::flash::{BlockId, Lpa, Ppa};
use leaftl_repro::sim::{
    replay_queued_with, CheckpointMode, DeviceConfig, FlashOpKind, HostOp, HostPriority,
    LeaFtlScheme, MappingScheme, RoundRobin, Ssd, SsdConfig, TrafficClass, Weighted,
};
use proptest::collection::vec;
use proptest::prelude::*;

/// A GC-pressured shape so background traffic (migrations, erases,
/// re-learning) actually shows up on the timeline.
fn gc_pressured_config() -> SsdConfig {
    let mut config = SsdConfig::small_test();
    config.op_ratio = 0.5;
    config.gc_low_watermark = 0.30;
    config.gc_high_watermark = 0.40;
    config.gc_hard_floor = 0.10;
    config
}

fn leaftl(config: SsdConfig) -> Ssd<LeaFtlScheme> {
    let gamma = config.gamma;
    let scheme = LeaFtlScheme::new(
        LeaFtlConfig::default()
            .with_gamma(gamma)
            .with_compaction_interval(300),
    );
    Ssd::new(config, scheme)
}

/// A deterministic mixed workload: fill, overwrite hot range, read
/// back — enough churn to trigger GC and compaction.
fn workload(logical: u64) -> Vec<HostOp> {
    let mut ops = Vec::new();
    for round in 0..4u64 {
        for i in 0..logical {
            ops.push(HostOp::write((i * 7 + round) % logical));
        }
        for i in 0..logical / 2 {
            ops.push(HostOp::read(i));
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

/// Attaching the sink must not change what the device does or when:
/// identical flash state, stats, elapsed virtual time and latency
/// distributions with tracing on vs off.
#[test]
fn disabled_and_enabled_tracing_are_bit_identical() {
    let config = gc_pressured_config();
    let logical = config.logical_pages();
    let ops = workload(logical);

    let mut plain = leaftl(config.clone());
    let plain_report = replay_queued_with(
        &mut plain,
        ops.clone(),
        DeviceConfig::single(8).background_gc(),
    )
    .expect("replay");

    let mut traced = leaftl(config);
    traced.attach_trace();
    let traced_report =
        replay_queued_with(&mut traced, ops, DeviceConfig::single(8).background_gc())
            .expect("replay");
    let sink = traced.take_trace().expect("sink was attached");
    assert!(!sink.is_empty(), "a GC-heavy replay must record events");

    assert_eq!(device_digest(&traced), device_digest(&plain));
    assert_eq!(traced_report.stats.flash, plain_report.stats.flash);
    assert_eq!(traced_report.elapsed_ns, plain_report.elapsed_ns);
    assert_eq!(
        traced_report.request_latency.percentile_ns(99.0),
        plain_report.request_latency.percentile_ns(99.0)
    );
    assert_eq!(traced_report.utilization, plain_report.utilization);
}

/// Two runs of the same seeded workload export byte-identical trace
/// JSON, and the export holds every event the sink counts.
#[test]
fn trace_export_is_deterministic_and_valid() {
    let export = || {
        let config = gc_pressured_config();
        let logical = config.logical_pages();
        let mut ssd = leaftl(config);
        ssd.attach_trace();
        replay_queued_with(
            &mut ssd,
            workload(logical),
            DeviceConfig::single(8).background_gc(),
        )
        .expect("replay");
        let sink = ssd.take_trace().expect("sink was attached");
        (sink.check(), sink.export_chrome_json())
    };
    let (check, first) = export();
    let (_, second) = export();
    assert_eq!(first, second, "same seed + config must trace identically");

    let exported = first.matches("\"ph\":\"X\"").count() + first.matches("\"ph\":\"i\"").count();
    assert_eq!(
        exported, check.events,
        "one exported entry per recorded event"
    );
    assert!(check.events > 0);
    assert!(check.die_tracks > 0);
    assert!(check.queue_events > 0, "host spans land on queue tracks");
    assert!(
        check.die_events.iter().sum::<u64>() > 0,
        "flash ops land on die tracks"
    );
}

/// Checks conservation between a drained device's utilization report
/// and its stats counters.
fn check_conservation(ssd: &Ssd<LeaFtlScheme>) -> Result<(), TestCaseError> {
    ssd.check_utilization_conservation()
        .map_err(TestCaseError::fail)?;

    // The same equations, restated from the public accessors so the
    // test does not merely trust the checker.
    let util = ssd.utilization();
    let flash = &ssd.stats().flash;
    let reads: u64 = TrafficClass::ALL
        .iter()
        .map(|&c| util.class_ops(c, FlashOpKind::Read))
        .sum();
    prop_assert_eq!(
        reads,
        flash.data_reads + flash.misprediction_reads + flash.translation_reads + flash.gc_reads
    );
    let programs: u64 = TrafficClass::ALL
        .iter()
        .map(|&c| util.class_ops(c, FlashOpKind::Program))
        .sum();
    prop_assert_eq!(programs, flash.total_programs());
    let erases: u64 = TrafficClass::ALL
        .iter()
        .map(|&c| util.class_ops(c, FlashOpKind::Erase))
        .sum();
    prop_assert_eq!(erases, flash.erases);
    Ok(())
}

/// An abstract host action over a small logical space (the
/// engine-equivalence idiom).
#[derive(Debug, Clone, Copy)]
enum Action {
    Write { lpa: u64, len: u64 },
    Read { lpa: u64 },
    Overwrite { lpa: u64, count: u64 },
}

fn action() -> impl Strategy<Value = Action> {
    prop_oneof![
        4 => (0u64..1200, 1u64..16).prop_map(|(lpa, len)| Action::Write { lpa, len }),
        3 => (0u64..1400).prop_map(|lpa| Action::Read { lpa }),
        2 => (0u64..600, 4u64..32).prop_map(|(lpa, count)| Action::Overwrite { lpa, count }),
    ]
}

fn host_ops(actions: &[Action], logical: u64) -> Vec<HostOp> {
    let mut ops = Vec::new();
    for &action in actions {
        match action {
            Action::Write { lpa, len } => {
                for j in 0..len {
                    ops.push(HostOp::write((lpa + j) % logical));
                }
            }
            Action::Read { lpa } => ops.push(HostOp::read(lpa % logical)),
            Action::Overwrite { lpa, count } => {
                for _ in 0..2 {
                    for j in 0..count {
                        ops.push(HostOp::write((lpa + j) % logical));
                    }
                }
            }
        }
    }
    ops
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Σ attributed ops per die ≡ `SimStats` counters and busy-ns ≡
    /// ops × latency, for arbitrary interleavings, queue depths,
    /// arbiters, GC modes and checkpoint modes — with and without an
    /// event sink attached.
    #[test]
    fn utilization_is_conserved_across_engine_shapes(
        actions in vec(action(), 10..80),
        queue_depth in 1usize..33,
        arbiter in 0usize..3,
        background_gc in proptest::bool::ANY,
        flash_log in proptest::bool::ANY,
        traced in proptest::bool::ANY,
    ) {
        let mut config = gc_pressured_config();
        if flash_log {
            config.checkpoint_mode = CheckpointMode::FlashLog;
        }
        let logical = config.logical_pages();
        let mut ssd = leaftl(config);
        let mut device = DeviceConfig::single(queue_depth).with_arbiter(match arbiter {
            0 => Box::new(RoundRobin::new()),
            1 => Box::new(HostPriority::new()),
            _ => Box::new(Weighted::new(vec![2], 1)),
        });
        if background_gc {
            device = device.background_gc();
        }
        if traced {
            ssd.attach_trace();
        }
        replay_queued_with(&mut ssd, host_ops(&actions, logical), device).expect("replay");
        check_conservation(&ssd)?;

        // The attribution survives a window reset: counters restart
        // from zero together with the stats.
        ssd.reset_stats();
        check_conservation(&ssd)?;
        prop_assert_eq!(ssd.utilization().total_busy_ns(), 0);
    }
}
