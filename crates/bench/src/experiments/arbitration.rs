//! Queue arbitration and GC scheduling — the experiment behind the
//! multi-queue device front-end. A GC-heavy overwrite tenant and an
//! OLTP-ish reader share a device that has been filled past its
//! watermark, replayed open-loop at QD 32 on separate submission
//! queues under four policies:
//!
//! * **sync** — the legacy baseline: GC runs synchronously inside the
//!   flush path, stalling the submitting write until its collection's
//!   latest erase (round-robin between the host queues).
//! * **bg-round-robin** — background GC as an equal peer queue.
//! * **bg-weighted** — background GC with the writer queue weighted
//!   3:1 over the reader and GC.
//! * **bg-host-priority** — strict host-over-GC: a collection only
//!   dispatches in idle gaps (plus hard-floor back-pressure).
//!
//! Both modes run the same collection — victim passes applied at one
//! dispatch point and placed on the dies phase by phase, every read,
//! then every program, then every erase — and differ in who waits for
//! it: under sync GC the flush does; a background GC turn dispatches
//! one collection to the high line that no host command waits for.
//!
//! The reproduction target, its shape: host p99 under GC pressure is
//! lower under every background policy than under synchronous GC,
//! because multi-ms migrate+erase rounds leave the submitting write's
//! latency and instead compete for dies in arrival gaps. At full scale
//! (default seed) the three background policies print 77.5 ms each
//! against sync's 212.5 ms.

use super::{Figure, Shape};
use crate::common::{gc_pressured, print_table, Scale, SchemeKind, SEED};
use leaftl_sim::{DeviceConfig, DramPolicy, HostPriority, RoundRobin, Weighted};
use leaftl_workloads::{gc_heavy_writer, multi_tenant_trace, zipf_tenant, TenantSpec};
use serde_json::json;

const QUEUE_DEPTH: usize = 32;

/// The policy rows, synchronous GC first.
const POLICIES: [&str; 4] = ["sync", "bg-round-robin", "bg-weighted", "bg-host-priority"];

/// A fresh device config for one policy row.
fn device(policy: &str) -> DeviceConfig {
    let background = DeviceConfig::new(2, QUEUE_DEPTH).background_gc();
    match policy {
        "bg-round-robin" => background.with_arbiter(Box::new(RoundRobin::new())),
        "bg-weighted" => background.with_arbiter(Box::new(Weighted::new(vec![3, 1], 1))),
        "bg-host-priority" => background.with_arbiter(Box::new(HostPriority::new())),
        _ => DeviceConfig::new(2, QUEUE_DEPTH), // sync: GC runs inside the flush path
    }
}

/// RR vs weighted vs host-priority at QD 32 on a GC-pressured device,
/// against the synchronous-GC baseline.
pub fn arbitration(quick: bool) -> Figure {
    let scale = Scale::perf(quick);
    let kind = SchemeKind::LeaFtl { gamma: 4 };
    let config = scale.config(DramPolicy::DataFloor(0.2));
    let logical = config.logical_pages();
    let base = gc_pressured(kind, config);

    // Writer floods queue 0 (the GC generator); the reader tenant on
    // queue 1 is the latency victim. Both span the same trace window,
    // with arrival rates sized near the GC-pressured service capacity
    // so tails reflect interference rather than a divergent backlog.
    let (writer_ops, reader_ops) = if quick {
        (4_000, 2_000)
    } else {
        (20_000, 10_000)
    };
    let tenants = vec![
        TenantSpec::new(gc_heavy_writer(), 0, 1_500_000, writer_ops),
        TenantSpec::new(zipf_tenant(), 1, 3_000_000, reader_ops),
    ];
    let trace = multi_tenant_trace(&tenants, logical, SEED);

    let mut rows = Vec::new();
    let mut out = Vec::new();
    let claim = "every background-GC policy's host p99 below synchronous GC's";
    let mut shape = Shape::new(claim, None);
    let mut sync_p99 = None;
    for name in POLICIES {
        let mut ssd = base.clone();
        let report = ssd.replay_open_loop(trace.clone(), device(name));
        let mut streams = Vec::new();
        let mut stream_cells = Vec::new();
        for stream in &report.per_stream {
            let p99 = stream.latency.percentile_ns(99.0) as f64 / 1000.0;
            stream_cells.push(format!(
                "{:.0}µs ({:.0}% gc)",
                p99,
                stream.gc_overlap_fraction() * 100.0
            ));
            streams.push(json!({
                "stream": stream.stream,
                "requests": stream.latency.count(),
                "mean_latency_us": stream.latency.mean_ns() / 1000.0,
                "p50_latency_us": stream.latency.percentile_ns(50.0) as f64 / 1000.0,
                "p99_latency_us": p99,
                "p999_latency_us": stream.latency.percentile_ns(99.9) as f64 / 1000.0,
                "gc_overlap_requests": stream.gc_overlap_requests(),
                "gc_overlap_fraction": stream.gc_overlap_fraction(),
            }));
        }
        rows.push(vec![
            name.to_string(),
            format!("{:.0}", report.iops()),
            format!("{:.0}", report.p50_latency_us()),
            format!("{:.0}", report.p99_latency_us()),
            format!("{:.0}", report.p999_latency_us()),
            format!("{}", report.stats.gc_runs),
            format!("{:.1}", report.gc_stall_ns as f64 / 1e6),
            stream_cells.join("  "),
        ]);
        // Sync runs first: its p99 is the bar.
        let p99 = report.p99_latency_us();
        let sync_p99 = *sync_p99.get_or_insert(p99);
        shape.check(name == "sync" || p99 < sync_p99, || {
            format!("{name}: host p99 {p99:.0} µs vs sync {sync_p99:.0} µs")
        });
        out.push(json!({
            "policy": name,
            "iops": report.iops(),
            "host_p50_us": report.p50_latency_us(),
            "host_p99_us": report.p99_latency_us(),
            "host_p999_us": report.p999_latency_us(),
            "gc_runs": report.stats.gc_runs,
            "gc_migrations_dispatched": report.gc_dispatched,
            "gc_stall_ms": report.gc_stall_ns as f64 / 1e6,
            "per_queue": streams,
        }));
    }
    print_table(
        "Arbitration at QD=32, GC-heavy fill (LeaFTL γ=4)",
        &[
            "policy",
            "IOPS",
            "p50µs",
            "p99µs",
            "p999µs",
            "gc runs",
            "stall ms",
            "per-queue p99 (gc-overlap share)",
        ],
        &rows,
    );
    let record = json!({
        "experiment": "arbitration",
        "queue_depth": QUEUE_DEPTH,
        "scheme": kind.label(),
        "policies": out,
    });
    (record, shape)
}
