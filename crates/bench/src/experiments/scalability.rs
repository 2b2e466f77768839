//! Queue-depth scalability and multi-tenant colocation — the
//! concurrent-I/O evaluation the paper's closed-loop harness cannot
//! express. Two parts:
//!
//! 1. **QD sweep**: IOPS and p99 service latency at queue depth
//!    1/4/8/32 for LeaFTL vs DFTL vs SFTL on a skewed OLTP workload,
//!    plus the legacy blocking path as the QD=1 cross-check. Deeper
//!    queues overlap flash reads across the 16 × 4 die array; the
//!    experiment's shape is that IOPS never fall as depth grows and that
//!    QD=1 IOPS equal the blocking path's exactly.
//! 2. **Multi-tenant mix**: a Zipf point-lookup tenant colocated with
//!    a sequential scanner, replayed open-loop with Poisson arrivals at
//!    QD=32; reports per-tenant mean/p99 so mapping-scheme overheads
//!    show up where they hurt — in the colocated tail.

use super::{Figure, Shape};
use crate::common::{each_ssd, prefill, print_table, utilization_json, warm_up, AnySsd, Scale};
use crate::common::{SchemeKind, SEED};
use leaftl_sim::{DeviceConfig, DramPolicy};
use leaftl_workloads::{multi_tenant_trace, oltp, sequential_scanner, zipf_tenant, TenantSpec};
use serde_json::json;

const SCHEMES: [SchemeKind; 3] = [
    SchemeKind::Dftl,
    SchemeKind::Sftl,
    SchemeKind::LeaFtl { gamma: 4 },
];

const DEPTHS: [usize; 4] = [1, 4, 8, 32];

/// The queue-depth sweep plus the multi-tenant colocation mix, both
/// from one aged image per scheme: a sequential prefill plus an OLTP
/// warm-up pass, stats reset.
pub fn scalability(quick: bool) -> Figure {
    let scale = Scale::perf(quick);
    let config = scale.config(DramPolicy::DataFloor(0.2));
    let logical = config.logical_pages();
    let ops = oltp().generate(logical, scale.ops, SEED);

    // Multi-tenant arrival rates sized to run near (not past) the
    // device's service capacity, so per-tenant tails reflect queueing +
    // interference rather than divergent backlog. Both tenants span the
    // same trace window: ops × mean gap is equal.
    let (zipf_ops, scan_ops) = if quick { (2_000, 32) } else { (12_000, 192) };
    let tenants = vec![
        TenantSpec::new(zipf_tenant(), 0, 40_000, zipf_ops),
        TenantSpec::new(sequential_scanner(), 1, 2_500_000, scan_ops),
    ];
    let trace = multi_tenant_trace(&tenants, logical, SEED);

    let mut sweep_rows = Vec::new();
    let mut sweep_out = Vec::new();
    let mut mix_rows = Vec::new();
    let mut mix_out = Vec::new();
    let claim =
        "IOPS never fall as QD grows, and QD=1 IOPS equal the blocking path's, for every scheme";
    let mut shape = Shape::new(claim, None);
    for &kind in &SCHEMES {
        let label = kind.label();
        let mut base = AnySsd::build(kind, config.clone());
        each_ssd!(&mut base, ssd => {
            prefill(ssd, &scale);
            warm_up(ssd, &oltp(), &scale);
        });

        // ---- Multi-tenant colocation on the same image -------------
        // Run before the QD sweep, so the sweep's deepest cell is the
        // last replay and the one `--trace` keeps.
        let mut ssd = base.clone();
        let report = ssd.replay_open_loop(trace.clone(), DeviceConfig::new(tenants.len(), 32));
        ssd.assert_utilization_conserved(&format!("{label} multi-tenant"));
        let mut row = vec![label.clone(), format!("{:.0}", report.iops())];
        let mut streams = Vec::new();
        for stream in &report.per_stream {
            let mean = stream.latency.mean_ns() / 1000.0;
            let p50 = stream.latency.percentile_ns(50.0) as f64 / 1000.0;
            let p99 = stream.latency.percentile_ns(99.0) as f64 / 1000.0;
            let p999 = stream.latency.percentile_ns(99.9) as f64 / 1000.0;
            row.push(format!("{mean:.0}µs/{p99:.0}µs"));
            streams.push(json!({
                "stream": stream.stream,
                "requests": stream.latency.count(),
                "mean_latency_us": mean,
                "p50_latency_us": p50,
                "p99_latency_us": p99,
                "p999_latency_us": p999,
            }));
        }
        mix_rows.push(row);
        mix_out.push(json!({
            "scheme": label,
            "iops": report.iops(),
            "streams": streams,
            "utilization": utilization_json(&report.utilization),
        }));

        // ---- QD sweep -----------------------------------------------
        // Legacy blocking path: the QD=1 cross-check.
        let blocking = {
            let mut ssd = base.clone();
            let report = ssd.replay(ops.clone());
            let pages = report.pages_read + report.pages_written;
            pages as f64 / (report.elapsed_ns.max(1) as f64 / 1e9)
        };

        let mut depth_iops = Vec::new();
        let mut depth_p50 = Vec::new();
        let mut depth_p99 = Vec::new();
        let mut depth_p999 = Vec::new();
        let mut row = vec![label.clone(), format!("{blocking:.0}")];
        let mut deepest_utilization = None;
        for &depth in &DEPTHS {
            let mut ssd = base.clone();
            let report = ssd.replay_queued(ops.clone(), DeviceConfig::single(depth));
            // Every device nanosecond must belong to a traffic class.
            ssd.assert_utilization_conserved(&format!("{label} QD={depth}"));
            deepest_utilization = Some(utilization_json(&report.utilization));
            depth_iops.push(report.iops());
            depth_p50.push(report.p50_latency_us());
            depth_p99.push(report.p99_latency_us());
            depth_p999.push(report.p999_latency_us());
            row.push(format!(
                "{:.0} ({:.0}/{:.0}/{:.0}µs)",
                report.iops(),
                report.p50_latency_us(),
                report.p99_latency_us(),
                report.p999_latency_us()
            ));
        }
        let ok = depth_iops[0] == blocking && depth_iops.windows(2).all(|w| w[0] <= w[1]);
        shape.check(ok, || {
            format!("{label}: blocking {blocking:.0}, QD {DEPTHS:?} {depth_iops:.0?}")
        });
        sweep_rows.push(row);
        sweep_out.push(json!({
            "scheme": label,
            "queue_depths": DEPTHS,
            "iops": depth_iops,
            "p50_latency_us": depth_p50,
            "p99_latency_us": depth_p99,
            "p999_latency_us": depth_p999,
            "blocking_iops": blocking,
            "utilization_qd32": deepest_utilization,
        }));
    }
    print_table(
        "Scalability: IOPS (p50/p99/p999) vs queue depth, OLTP workload",
        &["scheme", "blocking", "QD=1", "QD=4", "QD=8", "QD=32"],
        &sweep_rows,
    );
    print_table(
        "Multi-tenant mix (open-loop, QD=32): Zipf tenant + sequential scanner, mean/p99 per tenant",
        &["scheme", "IOPS", "zipf mean/p99", "scan mean/p99"],
        &mix_rows,
    );

    let record = json!({
        "experiment": "scalability",
        "qd_sweep": sweep_out,
        "multi_tenant": mix_out,
    });
    (record, shape)
}
