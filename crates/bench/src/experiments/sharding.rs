//! The sharded-translation-service evaluation: what partitioning the
//! mapping table into N range shards buys once the flash path is
//! concurrent, and what background compaction costs now that it is
//! arbitrated device traffic instead of a free flush-path side effect.
//!
//! Two parts:
//!
//! 1. **Shard × QD sweep** (virtual time): LeaFTL γ=4 behind a
//!    `ShardedMapping` at 1/2/4/8 shards, queue depth 1/8/32, with
//!    background compaction enabled. Per-shard translation-CPU
//!    timelines mean a compaction sweep stalls only its own shard's
//!    lookups — the 1-shard device serialises every translation behind
//!    each sweep; the table shows what splitting it is worth. QD=1 is
//!    the no-concurrency cross-check (sharding buys little when one
//!    command is in flight). The experiment's shape is that IOPS never
//!    fall as shards grow, at every depth.
//! 2. **Inline vs background compaction** at 4 shards / QD=32: the
//!    same workload with compaction as flush side effect vs as
//!    arbitrated `Command::Compact` traffic, showing where the sweep's
//!    latency lands in each regime.

use super::{Figure, Shape};
use crate::common::{prefill, print_table, warm_up, Scale, SEED};
use leaftl_core::{LeaFtlConfig, ShardedMapping};
use leaftl_sim::{replay_queued, DeviceConfig, DramPolicy, LeaFtlScheme, QueuedReplayReport, Ssd};
use leaftl_workloads::oltp;
use serde_json::json;

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const DEPTHS: [usize; 3] = [1, 8, 32];
const GAMMA: u32 = 4;

/// Compaction trigger used by every background run: first compact a
/// shard once lookups would walk this many levels, then again each
/// time its deepest group grows past the depth the last sweep left.
const LEVEL_THRESHOLD: u32 = 3;

/// Builds a warmed sharded device: sequential prefill + OLTP warm-up,
/// stats reset.
fn warmed(shards: usize, scale: &Scale) -> Ssd<ShardedMapping<LeaFtlScheme>> {
    let mut config = scale.config(DramPolicy::DataFloor(0.2));
    config.gamma = GAMMA;
    let logical = config.logical_pages();
    // `ShardedMapping` credits every shard with its siblings' writes
    // (`note_sibling_writes`), so the inline interval is device-wide at
    // any shard count — no manual division needed.
    let scheme = ShardedMapping::new(shards, logical, |_| {
        LeaFtlScheme::new(
            LeaFtlConfig::default()
                .with_gamma(GAMMA)
                .with_compaction_interval(scale.compaction_interval),
        )
    });
    let mut ssd = Ssd::new(config, scheme);
    prefill(&mut ssd, scale);
    warm_up(&mut ssd, &oltp(), scale);
    ssd
}

/// Segment threshold sized from the warmed table: enough headroom that
/// steady-state growth re-crosses it repeatedly during measurement,
/// low enough that every shard compacts several times.
fn segment_threshold(ssd: &Ssd<ShardedMapping<LeaFtlScheme>>) -> usize {
    let base = (0..ssd.shard_count())
        .map(|s| ssd.shard_pressure(s).segments)
        .max()
        .unwrap_or(0);
    (base + base / 8).max(64)
}

fn background_device(queue_depth: usize, segments: usize) -> DeviceConfig {
    DeviceConfig::single(queue_depth)
        .background_compaction()
        .with_compaction_thresholds(LEVEL_THRESHOLD, segments)
}

/// The shard-count × queue-depth sweep plus the compaction-cost
/// comparison.
pub fn sharding(quick: bool) -> Figure {
    let scale = Scale::perf(quick);
    const COMPARE_SHARDS: usize = 4;
    const COMPARE_DEPTH: usize = 32;

    // One warmed device per shard count, cloned per measurement cell.
    let mut rows = Vec::new();
    let mut sweep_out = Vec::new();
    let mut shape = Shape::new("IOPS never fall as shards are added, at every QD", None);
    let mut fewer_shards_iops = [0.0; DEPTHS.len()];
    let mut inline_report: Option<QueuedReplayReport> = None;
    let mut background_report: Option<QueuedReplayReport> = None;
    for &shards in &SHARD_COUNTS {
        let base = warmed(shards, &scale);
        let logical = base.config().logical_pages();
        let ops = oltp().generate(logical, scale.ops, SEED);
        let threshold = segment_threshold(&base);

        // ---- Part 1: shard × QD sweep (background compaction on) ----
        let mut iops = Vec::new();
        let mut p50 = Vec::new();
        let mut p99 = Vec::new();
        let mut compacts = Vec::new();
        let mut stalls = Vec::new();
        let mut row = vec![format!("{shards}")];
        for (&depth, fewer) in DEPTHS.iter().zip(&mut fewer_shards_iops) {
            let mut ssd = base.clone();
            let report = replay_queued(&mut ssd, ops.clone(), background_device(depth, threshold))
                .expect("replay");
            row.push(format!(
                "{:.0} ({:.0}/{:.0}µs, {}c)",
                report.iops(),
                report.p50_latency_us(),
                report.p99_latency_us(),
                report.compact_dispatched
            ));
            let more = report.iops();
            shape.check(*fewer <= more, || {
                format!("QD={depth}: {shards} shards {more:.0} IOPS, fewer shards {fewer:.0}")
            });
            *fewer = more;
            iops.push(more);
            p50.push(report.p50_latency_us());
            p99.push(report.p99_latency_us());
            compacts.push(report.compact_dispatched);
            stalls.push(report.stats.translation_stall_ns);
            if shards == COMPARE_SHARDS && depth == COMPARE_DEPTH {
                background_report = Some(report);
            }
        }
        rows.push(row);
        sweep_out.push(json!({
            "shards": shards,
            "queue_depths": DEPTHS,
            "iops": iops,
            "p50_latency_us": p50,
            "p99_latency_us": p99,
            "compact_dispatched": compacts,
            "translation_stall_ns": stalls,
        }));

        // ---- Part 2: the inline-compaction reference leg ------------
        if shards == COMPARE_SHARDS {
            let mut ssd = base.clone();
            inline_report = Some(
                replay_queued(&mut ssd, ops.clone(), DeviceConfig::single(COMPARE_DEPTH))
                    .expect("replay"),
            );
        }
    }
    print_table(
        "Sharding: IOPS (p50/p99, background compactions) vs shard count × QD, OLTP γ=4, background compaction",
        &["shards", "QD=1", "QD=8", "QD=32"],
        &rows,
    );
    let inline_report = inline_report.expect("4-shard leg ran");
    let background_report = background_report.expect("4-shard QD=32 cell ran");
    let (shards, depth) = (COMPARE_SHARDS, COMPARE_DEPTH);
    print_table(
        "Sharding: compaction as flush side effect (inline) vs arbitrated background traffic, 4 shards, QD=32",
        &["mode", "IOPS", "p50", "p99", "compactions"],
        &[
            vec![
                "inline".into(),
                format!("{:.0}", inline_report.iops()),
                format!("{:.0}µs", inline_report.p50_latency_us()),
                format!("{:.0}µs", inline_report.p99_latency_us()),
                format!("{} (flush-path)", inline_report.stats.compactions),
            ],
            vec![
                "background".into(),
                format!("{:.0}", background_report.iops()),
                format!("{:.0}µs", background_report.p50_latency_us()),
                format!("{:.0}µs", background_report.p99_latency_us()),
                format!("{} (arbitrated)", background_report.compact_dispatched),
            ],
        ],
    );

    let record = json!({
        "experiment": "sharding",
        "qd_sweep": sweep_out,
        "compaction": {
            "shards": shards,
            "queue_depth": depth,
            "inline": {
                "iops": inline_report.iops(),
                "p50_latency_us": inline_report.p50_latency_us(),
                "p99_latency_us": inline_report.p99_latency_us(),
                "compactions": inline_report.stats.compactions,
            },
            "background": {
                "iops": background_report.iops(),
                "p50_latency_us": background_report.p50_latency_us(),
                "p99_latency_us": background_report.p99_latency_us(),
                "compact_dispatched": background_report.compact_dispatched,
            },
        },
    });
    (record, shape)
}
