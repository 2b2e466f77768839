//! The sharded-translation-service evaluation: what partitioning the
//! mapping table into N range shards buys once the flash path is
//! concurrent.
//!
//! One shard × QD sweep (virtual time): LeaFTL γ=4 behind a
//! `ShardedMapping` at 1/2/4/8 shards, queue depth 1/8/32, with the
//! learned table compacting inline in the flush path as on every
//! device. Each shard has its own translation-CPU timeline, so lookups
//! routed to different shards overlap; QD=1 is the no-concurrency
//! cross-check (one command in flight leaves nothing to overlap). A
//! lookup costs well under a microsecond against tens of microseconds
//! of flash, so shard count moves IOPS by a handful at most. The
//! experiment's shape is that IOPS never fall as shards are added, at
//! every depth.

use super::{Figure, Shape};
use crate::common::{prefill, print_table, warm_up, Scale, SEED};
use leaftl_core::{LeaFtlConfig, ShardedMapping};
use leaftl_sim::{replay_queued, DeviceConfig, DramPolicy, LeaFtlScheme, Ssd};
use leaftl_workloads::oltp;
use serde_json::json;

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const DEPTHS: [usize; 3] = [1, 8, 32];
const GAMMA: u32 = 4;

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

/// The shard-count × queue-depth sweep.
pub fn sharding(quick: bool) -> Figure {
    let scale = Scale::perf(quick);

    // One warmed device per shard count, cloned per measurement cell.
    let mut rows = Vec::new();
    let mut sweep_out = Vec::new();
    let mut shape = Shape::new("IOPS never fall as shards are added, at every QD", None);
    let mut fewer_shards_iops = [0.0; DEPTHS.len()];
    for &shards in &SHARD_COUNTS {
        let base = warmed(shards, &scale);
        let logical = base.config().logical_pages();
        let ops = oltp().generate(logical, scale.ops, SEED);

        let mut iops = Vec::new();
        let mut p50 = Vec::new();
        let mut p99 = Vec::new();
        let mut compactions = Vec::new();
        let mut stalls = Vec::new();
        let mut row = vec![format!("{shards}")];
        for (&depth, fewer) in DEPTHS.iter().zip(&mut fewer_shards_iops) {
            let mut ssd = base.clone();
            let report =
                replay_queued(&mut ssd, ops.clone(), DeviceConfig::single(depth)).expect("replay");
            row.push(format!(
                "{:.0} ({:.0}/{:.0}µs, {}c)",
                report.iops(),
                report.p50_latency_us(),
                report.p99_latency_us(),
                report.stats.compactions
            ));
            let more = report.iops();
            shape.check(*fewer <= more, || {
                format!("QD={depth}: {shards} shards {more:.0} IOPS, fewer shards {fewer:.0}")
            });
            *fewer = more;
            iops.push(more);
            p50.push(report.p50_latency_us());
            p99.push(report.p99_latency_us());
            compactions.push(report.stats.compactions);
            stalls.push(report.stats.translation_stall_ns);
        }
        rows.push(row);
        sweep_out.push(json!({
            "shards": shards,
            "queue_depths": DEPTHS,
            "iops": iops,
            "p50_latency_us": p50,
            "p99_latency_us": p99,
            "compactions": compactions,
            "translation_stall_ns": stalls,
        }));
    }
    print_table(
        "Sharding: IOPS (p50/p99, compactions) vs shard count × QD, OLTP γ=4, inline compaction",
        &["shards", "QD=1", "QD=8", "QD=32"],
        &rows,
    );

    let record = json!({
        "experiment": "sharding",
        "qd_sweep": sweep_out,
    });
    (record, shape)
}
