//! QoS control plane — the experiment behind SLO classes, admission
//! control and GC pacing. A 1000+-tenant adversarial
//! colocation mix shares one GC-pressured device at QD 32, one
//! submission queue per tenant:
//!
//! * a handful of **guaranteed-class Zipf readers**, each carrying a
//!   p99 arrival→complete budget (`Slo::guaranteed`),
//! * a few **GC bullies** — skewed overwriters that keep the device
//!   collecting at the watermark,
//! * ~1000 **best-effort** background tenants (sequential scanners,
//!   batch-Poisson bursty writers, Zipf mixers).
//!
//! Four policies replay the identical trace from the identical
//! pre-aged device image:
//!
//! * **static-rr** — round-robin over all queues, no SLO awareness.
//! * **static-weighted** — what a sysadmin would provision: guaranteed
//!   queues pinned at the controller's base weight, best-effort at 1.
//! * **static-host-priority** — strict host-over-GC arbitration.
//! * **qos-controller** — every host queue at the base weight over
//!   background GC's 1, plus admission control (a best-effort slot
//!   cap, and best-effort writes deferred near the GC hard floor) and
//!   GC pacing (one background migration in flight at a time). Its
//!   control ticks log each guaranteed queue's window p99; nothing is
//!   retuned from them.
//!
//! The reproduction target, its shape: with the controller on, every
//! guaranteed tenant's p99 meets its budget while at least one static
//! baseline violates it, and the best-effort class absorbs the GC
//! interference (its gc-overlap share exceeds the guaranteed class's).
//! It is a declared gap (ROADMAP 9, 12(d)). The base image is aged by
//! uniform single-page overwrites ([`gc_pressured`]), so every block
//! GC can pick holds stale pages; there every policy misses the
//! budget at the four seeds tried (default, `0x1`, `0x2a`, `0xbeef5`),
//! the controller by 1.3–1.4× (worst guaranteed p99 19–21 ms) and
//! every static arbiter by 6–11× (0.09–0.17 s), and guaranteed tenants
//! overlap GC more than best-effort ones (71–78 % against 9–20 % under
//! the controller).
//! The device runs with the flash-resident translation log enabled so
//! the map-log background-traffic tax rides the same dies — reported
//! per tenant class alongside the latency numbers.
//!
//! The fleet is sized to the smoke-scale device, so that is the one
//! scale: on the 2 GiB device it leaves GC idle and every policy alike,
//! and 5× its ops on the smoke device overrun the controller's budget.
//! Only the `qos-controller` row carries a `controller` block (its
//! tick count): the static policies run no controller.

use super::{Figure, Shape};
use crate::common::{each_ssd, gc_pressured, maplog_json, print_table, utilization_json};
use crate::common::{AnySsd, Scale, SchemeKind, SEED};
use leaftl_sim::{
    CheckpointMode, DeviceConfig, DramPolicy, HostPriority, LatencyHistogram, QosController,
    QosControllerConfig, QosSpec, RoundRobin, Slo, SloClass, Weighted,
};
use leaftl_workloads::{multi_tenant_trace, qos_fleet, QosFleetSpec};
use serde_json::{json, Value};

const QUEUE_DEPTH: usize = 32;

/// Per-tenant-class rollup of one policy run.
#[derive(Default)]
struct ClassAgg {
    latency: LatencyHistogram,
    requests: u64,
    gc_overlap: u64,
    admission_wait_ns: u64,
    worst_p99_us: f64,
}

impl ClassAgg {
    fn gc_share(&self) -> f64 {
        self.gc_overlap as f64 / self.requests.max(1) as f64
    }
}

/// SLO colocation at 1000+ tenants: static arbitration baselines vs
/// the QoS controller on a GC-pressured, map-logging device.
pub fn qos(_quick: bool) -> Figure {
    let scale = Scale::perf(true);
    let kind = SchemeKind::LeaFtl { gamma: 4 };

    // GC-pressured base image with the flash-resident translation log
    // on, so checkpoint/delta programs compete with host I/O.
    let mut config = scale.config(DramPolicy::DataFloor(0.2));
    config.checkpoint_mode = CheckpointMode::FlashLog;
    let logical = config.logical_pages();
    let base = gc_pressured(kind, config);
    // Lifetime map-log counters: a policy's traffic is its run's growth.
    let maplog = |any: &AnySsd| {
        each_ssd!(any, ssd => {
            (ssd.maplog_bytes_written(), ssd.maplog_reclaimed_blocks(), ssd.maplog_traffic())
        })
    };
    let (base_bytes, base_blocks, base_traffic) = maplog(&base);

    // The p99 arrival→complete budget every guaranteed reader carries.
    // Sits above the device's intrinsic die-conflict tail (a read
    // landing behind a *single paced* block migration on its die — no
    // arbitration can reorder a die, so that collision is the floor
    // any controller can reach) and far below what SLO-blind policies
    // deliver when the best-effort population backlogs behind
    // watermark-refill GC rounds.
    let budget_us = 15_000.0;
    // The best-effort class *collectively* overwhelms the GC-pressured
    // write capacity, so hundreds of its queues stay backlogged and
    // every arbitration pick has to choose between a guaranteed reader
    // and a crowd of best-effort heads — the regime where pick order
    // (and admission control at the GC floor) decides the readers'
    // tail. Readers alone are a light load the device could serve in
    // tens of microseconds.
    let fleet_spec = QosFleetSpec {
        guaranteed_readers: 8,
        reader_budget_us: budget_us,
        reader_mean_interarrival_ns: 2_000_000,
        reader_ops: 500,
        best_effort_tenants: 1_000,
        best_effort_mean_interarrival_ns: 125_000_000,
        best_effort_ops: 8,
        gc_bullies: 4,
        bully_mean_interarrival_ns: 4_000_000,
        bully_ops: 300,
    };
    let fleet = qos_fleet(&fleet_spec);
    let tenants = fleet.len();
    assert!(tenants >= 1_000, "the QoS mix must colocate 1000+ streams");
    let slos: Vec<Slo> = fleet.iter().map(|t| t.slo).collect();
    let trace = multi_tenant_trace(&fleet, logical, SEED);

    // ~10 reader completions per window at the 2 ms arrival gap, so
    // every tick logs a guaranteed p99. The widened admission margin
    // arms the best-effort write gate while GC still has headroom:
    // once the in-flight slots fill with writes stacked behind a long
    // migrate+erase round, no pick order can rescue a read, so the
    // gate must fire *before* the clog forms.
    let ctrl = QosControllerConfig {
        control_interval_ns: 20_000_000,
        admission_margin: 0.12,
        // One migration at a time: the per-die collision tail a
        // guaranteed read can see is a single block's migrate+erase,
        // not a watermark refill round.
        gc_pacing_limit: 1,
        ..QosControllerConfig::default()
    };

    let policy_names = [
        "static-rr",
        "static-weighted",
        "static-host-priority",
        "qos-controller",
    ];
    let mut rows = Vec::new();
    let mut out = Vec::new();
    let claim = format!(
        "under the controller every guaranteed p99 ≤ {budget_us:.0} µs and best-effort tenants \
         overlap GC more; ≥ 1 static arbiter misses the budget"
    );
    let gap = Some(
        "direction 9: on a device aged by uniform overwrites the controller's worst guaranteed \
         p99 is 19–21 ms over four seeds (21–33 ms while host reads queued behind a flush's \
         programs, 0.21–0.37 s while a lookup queued on its shard's translation CPU behind a \
         demand-paged one, 0.29–0.38 s while background GC selected its victims in one batch, \
         0.45–2.9 s while a full open block stayed in its slot), 1.3–1.4× the 15 ms budget, \
         and static-weighted's 0.09–0.14 s (0.11–0.14 s while reads queued behind programs, \
         0.10–0.16 s with the translation CPU, 0.15–0.29 s while a GC collection's passes were \
         chained one after another on the dies); guaranteed tenants overlap GC more than \
         best-effort ones",
    );
    let mut shape = Shape::new(claim, gap);
    let mut static_misses = 0;
    for name in policy_names {
        let background = DeviceConfig::new(tenants, QUEUE_DEPTH).background_gc();
        let device = match name {
            "static-rr" => background.with_arbiter(Box::new(RoundRobin::new())),
            "static-weighted" => {
                let weights: Vec<u32> = slos
                    .iter()
                    .map(|s| {
                        if s.class == SloClass::Guaranteed {
                            QosController::BASE_WEIGHT
                        } else {
                            1
                        }
                    })
                    .collect();
                background.with_arbiter(Box::new(Weighted::new(weights, 1)))
            }
            "static-host-priority" => background.with_arbiter(Box::new(HostPriority::new())),
            _ => background
                .with_arbiter(Box::new(Weighted::new(vec![1; tenants], 1)))
                .with_qos(QosSpec::new(slos.clone()).with_controller(ctrl)),
        };
        let mut ssd = base.clone();
        let report = ssd.replay_open_loop(trace.clone(), device);
        // Every device nanosecond must belong to a traffic class.
        ssd.assert_utilization_conserved(name);

        let mut agg: [ClassAgg; 2] = Default::default();
        let mut guaranteed_streams = Vec::new();
        for stream in &report.per_stream {
            let slo = slos[stream.stream as usize];
            let guaranteed = slo.class == SloClass::Guaranteed;
            let p99_us = stream.latency.percentile_ns(99.0) as f64 / 1000.0;
            let a = &mut agg[usize::from(!guaranteed)];
            a.latency.merge(&stream.latency);
            a.requests += stream.latency.count();
            a.gc_overlap += stream.gc_overlap_requests();
            a.admission_wait_ns += stream.admission_wait_ns;
            a.worst_p99_us = a.worst_p99_us.max(p99_us);
            if guaranteed {
                guaranteed_streams.push(json!({
                    "stream": stream.stream,
                    "requests": stream.latency.count(),
                    "p50_latency_us": stream.latency.percentile_ns(50.0) as f64 / 1000.0,
                    "p99_latency_us": p99_us,
                    "budget_us": slo.p99_budget_us,
                    "meets_budget": p99_us <= slo.p99_budget_us,
                    "gc_overlap_fraction": stream.gc_overlap_fraction(),
                }));
            }
        }
        let [guar, best] = &agg;
        let (worst, shares) = (guar.worst_p99_us, (guar.gc_share(), best.gc_share()));
        if name == "qos-controller" {
            shape.check(worst <= budget_us && shares.1 > shares.0, || {
                format!("{name}: worst guaranteed p99 {worst:.0} µs, gc-overlap {shares:.3?}")
            });
        } else if worst > budget_us {
            static_misses += 1;
        }

        let (bytes, blocks, traffic) = maplog(&ssd);
        let (maplog_bytes, maplog_blocks) = (bytes - base_bytes, blocks - base_blocks);
        let maplog_pages = traffic.since(base_traffic);
        let total_requests = (guar.requests + best.requests).max(1);
        // Map-log tax attributed to each class by its request share —
        // the log programs steal die time from everyone's dispatches.
        let tax = |a: &ClassAgg| maplog_bytes as f64 * a.requests as f64 / total_requests as f64;

        rows.push(vec![
            name.to_string(),
            format!("{:.0}", report.iops()),
            format!("{worst:.0}"),
            (if worst <= budget_us { "yes" } else { "NO" }).to_string(),
            format!("{:.0}", best.latency.percentile_ns(99.0) as f64 / 1000.0),
            format!("{:.1}%", guar.gc_share() * 100.0),
            format!("{:.1}%", best.gc_share() * 100.0),
            format!("{:.1}", report.admission_wait_ns as f64 / 1e6),
            format!("{:.1}", report.gc_stall_ns as f64 / 1e6),
            format!("{:.1}", maplog_bytes as f64 / 1e6),
            format!(
                "{} + {} / {}",
                maplog_pages.generation_pages, maplog_pages.delta_pages, maplog_pages.generations
            ),
        ]);
        let tick_samples: Vec<Value> = report
            .qos_ticks
            .iter()
            .step_by(report.qos_ticks.len().max(40) / 40 + 1)
            .map(|t| {
                json!({
                    "at_ms": t.at_ns as f64 / 1e6,
                    "worst_error": t.worst_error,
                    "guaranteed": t.guaranteed.iter().map(|q| json!({
                        "queue": q.queue,
                        "samples": q.samples,
                        "p99_us": q.p99_us,
                    })).collect::<Vec<_>>(),
                })
            })
            .collect();
        let mut policy = json!({
            "policy": name,
            "iops": report.iops(),
            "elapsed_ms": report.elapsed_ns as f64 / 1e6,
            "host_p99_us": report.p99_latency_us(),
            "p99_wait_us": report.p99_wait_us(),
            "mean_wait_us": report.mean_wait_us(),
            "tick_samples": tick_samples,
            "gc_runs": report.stats.gc_runs,
            "gc_stall_ms": report.gc_stall_ns as f64 / 1e6,
            "admission_wait_ns": report.admission_wait_ns,
            "guaranteed": {
                "streams": guaranteed_streams,
                "requests": guar.requests,
                "worst_p99_us": guar.worst_p99_us,
                "class_p99_us": guar.latency.percentile_ns(99.0) as f64 / 1000.0,
                "meets_budget": guar.worst_p99_us <= budget_us,
                "gc_overlap_share": guar.gc_share(),
                "admission_wait_ns": guar.admission_wait_ns,
                "maplog_tax_bytes": tax(guar),
            },
            "best_effort": {
                "tenants": tenants - fleet_spec.guaranteed_readers,
                "requests": best.requests,
                "class_p99_us": best.latency.percentile_ns(99.0) as f64 / 1000.0,
                "worst_p99_us": best.worst_p99_us,
                "gc_overlap_share": best.gc_share(),
                "admission_wait_ns": best.admission_wait_ns,
                "maplog_tax_bytes": tax(best),
            },
            "maplog": {
                "bytes_written": maplog_bytes,
                "reclaimed_blocks": maplog_blocks,
                "pages": maplog_json(maplog_pages),
            },
            "utilization": utilization_json(&report.utilization),
        });
        if let (Value::Object(members), "qos-controller") = (&mut policy, name) {
            members.push((
                "controller".to_string(),
                json!({ "ticks": report.qos_ticks.len() }),
            ));
        }
        out.push(policy);
    }
    print_table(
        &format!(
            "QoS control plane: {tenants} tenants at QD={QUEUE_DEPTH}, guaranteed p99 budget {budget_us:.0}µs (LeaFTL γ=4, map-log on)"
        ),
        &[
            "policy",
            "IOPS",
            "guar worst p99µs",
            "SLO met",
            "BE p99µs",
            "guar gc%",
            "BE gc%",
            "adm wait ms",
            "stall ms",
            "maplog MB",
            "gen + delta pages / gens",
        ],
        &rows,
    );
    shape.check(static_misses > 0, || {
        "static arbiters: every one meets the budget".to_string()
    });
    let record = json!({
        "experiment": "qos",
        "queue_depth": QUEUE_DEPTH,
        "scheme": kind.label(),
        "tenants": tenants,
        "fleet": {
            "guaranteed_readers": fleet_spec.guaranteed_readers,
            "gc_bullies": fleet_spec.gc_bullies,
            "best_effort_tenants": fleet_spec.best_effort_tenants,
        },
        "budget_us": budget_us,
        "policies": out,
    });
    (record, shape)
}
