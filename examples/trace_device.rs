//! Emit a Perfetto timeline of a GC-saturated device and show the
//! pacing control plane at work.
//!
//! ```text
//! cargo run --release --example trace_device [out.json] [blocking.json]
//! ```
//!
//! The run colocates an SLO reader with two GC bullies on a small,
//! heavily pre-aged device, with background GC paced to one in-flight
//! migration by the QoS controller. Open the written file at
//! <https://ui.perfetto.dev>:
//!
//! * the **queues** process shows the `gc_migrate` spans *trickling*
//!   out one at a time between host reads — the mega-round pacing —
//!   instead of a solid block of back-to-back migrations,
//! * each **die** track alternates host reads with migration
//!   read/program bursts and the occasional long erase,
//! * the **control** track carries `qos_tick`, `gc_stall` and
//!   `admission_gate_close`/`admission_gate_open` instants — one
//!   per admission gate (`gate`: `slot` for the best-effort slot cap,
//!   `floor` for the slot cap or the GC-floor margin), with the number
//!   of queue heads behind it (`members`).
//!
//! It then replays a mix of writes and reads on a copy of the same aged
//! device through the blocking interface and writes that timeline too
//! (`blocking.json`, default `blocking_trace.json`): every collection
//! there is synchronous, so its steps go ahead of the flush programs
//! queued on their dies, and each pass's persistence point continues
//! over the dies from where the previous one ended.

#![expect(
    clippy::expect_used,
    reason = "an example: a step that fails should stop it with its message"
)]

use leaftl_repro::core::LeaFtlConfig;
use leaftl_repro::flash::Lpa;
use leaftl_repro::sim::{
    replay_open_loop, DeviceConfig, LeaFtlScheme, QosControllerConfig, QosSpec, Slo, Ssd,
    SsdConfig, TrafficClass, Weighted,
};
use leaftl_repro::workloads::{gc_bully, multi_tenant_trace, slo_reader, warmup_ops, TenantSpec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1);
    let out = args
        .next()
        .unwrap_or_else(|| "trace_device.json".to_string());
    let blocking_out = args
        .next()
        .unwrap_or_else(|| "blocking_trace.json".to_string());

    // A small, heavily pre-aged device: the bullies keep it
    // collecting at the GC watermark for the whole run.
    let mut config = SsdConfig::small_test();
    config.op_ratio = 0.5;
    let logical = config.logical_pages();
    let mut ssd = Ssd::new(
        config,
        LeaFtlScheme::new(LeaFtlConfig::default().with_compaction_interval(300)),
    );

    // Pre-age: two full overwrites leave every block part-stale.
    for ops in [warmup_ops(logical, 1.0), warmup_ops(logical, 1.0)] {
        for op in ops {
            if let leaftl_repro::sim::HostOp::Write { lpa, pages } = op {
                for i in 0..pages as u64 {
                    ssd.write(Lpa::new((lpa.raw() + i) % logical), i + 1)?;
                }
            }
        }
    }
    ssd.flush()?;
    ssd.reset_stats();
    let mut blocking = ssd.clone();

    // One guaranteed reader between two GC bullies.
    let tenants = vec![
        TenantSpec::new(slo_reader(), 0, 120_000, 600).with_slo(Slo::guaranteed(20_000.0)),
        TenantSpec::new(gc_bully(), 1, 60_000, 900),
        TenantSpec::new(gc_bully(), 2, 60_000, 900),
    ];
    let slos: Vec<Slo> = tenants.iter().map(|t| t.slo).collect();
    let trace = multi_tenant_trace(&tenants, logical, 0x1ea_f71);

    // The PR-8 pacing knob: at most one in-flight migration, so the
    // collection trickles onto the timeline instead of
    // monopolising every die in one mega-round.
    let ctrl = QosControllerConfig {
        control_interval_ns: 5_000_000,
        gc_pacing_limit: 1,
        ..QosControllerConfig::default()
    };
    let device = DeviceConfig::new(tenants.len(), 16)
        .background_gc()
        .with_arbiter(Box::new(Weighted::new(vec![1; tenants.len()], 1)))
        .with_qos(QosSpec::new(slos).with_controller(ctrl));

    ssd.attach_trace();
    let report = replay_open_loop(&mut ssd, trace, device)?;
    let sink = ssd.take_trace().expect("tracing was enabled");
    let check = sink.check();
    std::fs::write(&out, sink.export_chrome_json())?;

    println!(
        "wrote {out}: {} events, {}/{} die tracks active ({} queue spans, {} control instants)",
        check.events,
        check.active_die_tracks(),
        check.die_tracks,
        check.queue_events,
        check.control_events
    );
    println!(
        "replay: {} paced GC migrations dispatched, reader p99 {:.0} µs, elapsed {:.1} ms",
        report.gc_dispatched,
        report.per_stream[0].latency.percentile_ns(99.0) as f64 / 1000.0,
        report.elapsed_ns as f64 / 1e6
    );
    println!("\nper-die busy time by traffic class:");
    let util = &report.utilization;
    for class in TrafficClass::ALL {
        println!(
            "  {:8} {:>12} ns  ({:>5.1}%)",
            class.label(),
            util.class_busy_ns(class),
            util.class_share(class) * 100.0
        );
    }
    println!("\nopen {out} at https://ui.perfetto.dev to see the paced timeline");

    // The blocking path on the same image: scattered overwrites of twice
    // the logical space, with a read after every fourth write.
    blocking.attach_trace();
    let mut at = 0x1ea_f71u64;
    for i in 0..2 * logical {
        at = at
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        blocking.write(Lpa::new((at >> 33) % logical), i)?;
        if i % 4 == 3 {
            blocking.read(Lpa::new((at >> 17) % logical))?;
        }
    }
    blocking.flush()?;
    let sink = blocking.take_trace().expect("tracing was enabled");
    let check = sink.check();
    std::fs::write(&blocking_out, sink.export_chrome_json())?;
    let gc = blocking.sync_gc();
    println!(
        "\nwrote {blocking_out}: {} events, {}/{} die tracks active; {} synchronous \
         collections of {} passes held the host {:.1} ms (busiest dies' GC {:.1} ms, \
         dies already reserved {:.1} ms)",
        check.events,
        check.active_die_tracks(),
        check.die_tracks,
        gc.collections,
        gc.passes,
        gc.wait_ns as f64 / 1e6,
        gc.busiest_die_ns as f64 / 1e6,
        gc.behind_ns as f64 / 1e6
    );
    Ok(())
}
