//! Write-amplification and crash-recovery studies: Fig. 25 and the §5
//! recovery discussion.

use super::{Figure, Shape};
use crate::common::{
    maplog_json, prefill, print_table, run_grid, space_json, Scale, SCHEMES, SEED,
};
use leaftl_core::LeaFtlConfig;
use leaftl_sim::{replay, CheckpointMode, DramPolicy, LeaFtlScheme, Ssd};
use leaftl_workloads::{full_suite, tpcc};
use serde_json::json;

/// Fig. 25: write amplification factor for the three schemes. Its shape,
/// checked on every row: LeaFTL's WAF within [0.90, 1.08] of SFTL's
/// ("comparable") and DFTL's no lower.
///
/// WAF is the paper's: every program divided by the host writes. The
/// write buffer coalesces overwrites before any of them reaches flash,
/// so a row can read below 1; each row therefore also carries the share
/// of host writes the buffer absorbed (`1 − data programs / host
/// writes`). The buffer does not depend on the mapping scheme, so that
/// share is checked equal across the three.
pub fn fig25(quick: bool) -> Figure {
    let mut scale = Scale::perf(quick);
    // WAF is a GC phenomenon: fill the device so collection runs
    // throughout the measurement window.
    scale.prefill = 0.99;
    let config = scale.config(DramPolicy::DataFloor(0.2));
    let mut rows = Vec::new();
    let mut out = Vec::new();
    let claim = "LeaFTL's WAF in [0.90, 1.08] × SFTL's and DFTL's no lower, with an equal \
                 buffer-absorbed share (paper: comparable, DFTL slightly higher). WAF is all \
                 programs / host writes, as in the paper: a row reads below 1 by that share";
    let mut shape = Shape::new(claim, None);
    for results in run_grid(&full_suite(), &SCHEMES, &scale, &config) {
        let workload = &results[0].workload;
        let waf: Vec<f64> = results.iter().map(|r| r.stats.waf()).collect();
        let absorbed: Vec<f64> = results
            .iter()
            .map(|r| 1.0 - r.stats.flash.data_programs as f64 / r.stats.host_writes as f64)
            .collect();
        let (dftl, sftl, leaftl) = (waf[0], waf[1], waf[2]);
        let equal = absorbed.iter().all(|&share| share == absorbed[0]);
        let ok = (0.90..=1.08).contains(&(leaftl / sftl)) && dftl >= sftl && equal;
        shape.check(ok, || {
            format!("{workload}: WAF {waf:.3?}, absorbed {absorbed:.3?}")
        });
        rows.push(
            std::iter::once(workload.clone())
                .chain(waf.iter().map(|w| format!("{w:.3}")))
                .chain(std::iter::once(format!("{:.3}", absorbed[0])))
                .collect::<Vec<String>>(),
        );
        out.push(json!({
            "workload": workload,
            "schemes": results.iter().map(|r| &r.scheme).collect::<Vec<_>>(),
            "waf": waf,
            "buffer_absorbed": absorbed,
            "translation_programs": results
                .iter()
                .map(|r| r.stats.flash.translation_programs)
                .collect::<Vec<_>>(),
            "space_pages": results.iter().map(|r| space_json(&r.space)).collect::<Vec<_>>(),
        }));
    }
    print_table(
        if quick {
            "Fig. 25: write amplification factor at the smoke scale (its WAF of 5–35 is this \
             scale's GC-saturated regime, not the paper's 1–2; the shape is what is checked)"
        } else {
            "Fig. 25: write amplification factor"
        },
        &["workload", "DFTL", "SFTL", "LeaFTL", "buffer-absorbed"],
        &rows,
    );
    (json!({ "experiment": "fig25", "series": out }), shape)
}

/// What keeping the mapping recoverable cost up to the power cut: the
/// run's WAF and the translation programs inside it.
fn persistence_cost(ssd: &Ssd<LeaFtlScheme>) -> (f64, u64) {
    let stats = ssd.stats();
    (stats.waf(), stats.flash.translation_programs)
}

/// §5 recovery study: crash the device after a TPCC run and measure the
/// simulated recovery scan, with and without a recent snapshot.
pub fn recovery(quick: bool) -> Figure {
    let scale = Scale::perf(quick);
    let config = scale.config(DramPolicy::DataFloor(0.2));
    let logical = config.logical_pages();
    let profile = tpcc();
    let ops = profile.generate(logical, scale.ops, SEED);
    let half = ops.len() / 2;
    // The two rows differ only after the first half: one device runs
    // the prefill and the first half, and each row continues a clone.
    let mut first_half = Ssd::new(config.clone(), LeaFtlScheme::new(LeaFtlConfig::default()));
    prefill(&mut first_half, &scale);
    replay(&mut first_half, ops[..half].iter().copied()).expect("first half");
    let mut rows = Vec::new();
    let mut out = Vec::new();
    for (label, snapshot_midway) in [("no snapshot", false), ("snapshot midway", true)] {
        let mut ssd = first_half.clone();
        if snapshot_midway {
            ssd.take_snapshot();
        }
        replay(&mut ssd, ops[half..].iter().copied()).expect("second half");
        let (waf, translation_programs) = persistence_cost(&ssd);
        let report = ssd.crash_and_recover().expect("recovery");
        let maplog_bytes_written = ssd.maplog_bytes_written();
        // Verify integrity: every flushed mapping resolves.
        let check = replay(&mut ssd, profile.generate(logical, 2_000, SEED ^ 7)).expect("post");
        rows.push(vec![
            label.to_string(),
            format!("{}", report.scanned_blocks()),
            format!("{}", report.recovered_pages),
            format!("{:.2} ms", report.scan_time_ns as f64 / 1e6),
            format!("{}", report.lost_buffered_writes),
        ]);
        out.push(json!({
            "config": label,
            "scanned_blocks": report.scanned_blocks(),
            "recovered_pages": report.recovered_pages,
            "scan_time_ms": report.scan_time_ns as f64 / 1e6,
            "lost_buffered_writes": report.lost_buffered_writes,
            "maplog_bytes_written": maplog_bytes_written,
            "maplog_reclaimed_blocks": ssd.maplog_reclaimed_blocks(),
            "waf": waf,
            "translation_programs": translation_programs,
            "post_recovery_ops": check.ops,
        }));
    }
    print_table(
        "§5 recovery: snapshot bounds the scan",
        &[
            "config",
            "scanned blocks",
            "recovered pages",
            "scan time",
            "lost buffered",
        ],
        &rows,
    );

    // Flash-resident translation log: on an aged device the durable
    // checkpoint + delta tail bound the data scan to post-checkpoint
    // blocks, while the bare crash scan (no checkpointing at all)
    // walks every block programmed since time zero.
    let claim = "log replay scans fewer data blocks than a crash scan of the aged device \
                 (paper: minutes for a full-device scan, ~100 ms to relearn)";
    let mut shape = Shape::new(claim, None);
    let mut log_rows = Vec::new();
    let mut log_out = Vec::new();
    // The crash scan runs first; the log replay must scan fewer blocks.
    let mut crash_scan = usize::MAX;
    for (label, mode) in [
        ("crash scan (aged)", CheckpointMode::Disabled),
        ("log replay (aged)", CheckpointMode::FlashLog),
    ] {
        let mut config = config.clone();
        config.checkpoint_mode = mode;
        let mut ssd = Ssd::new(config, LeaFtlScheme::new(LeaFtlConfig::default()));
        prefill(&mut ssd, &scale);
        replay(&mut ssd, ops.iter().copied()).expect("age");
        let (waf, translation_programs) = persistence_cost(&ssd);
        let log = ssd.maplog_traffic();
        let report = ssd.crash_and_recover().expect("recovery");
        let maplog_bytes_written = ssd.maplog_bytes_written();
        let check = replay(&mut ssd, profile.generate(logical, 2_000, SEED ^ 7)).expect("post");
        let data_blocks = report.scanned_data_blocks;
        shape.check(data_blocks < crash_scan, || {
            format!("TPCC: {label} scans {data_blocks} data blocks, the crash scan {crash_scan}")
        });
        crash_scan = report.scanned_blocks();
        log_rows.push(vec![
            label.to_string(),
            format!("{}", report.scanned_data_blocks),
            format!("{}", report.scanned_log_blocks),
            format!("{}", report.replayed_log_entries),
            format!("{:.2} ms", report.scan_time_ns as f64 / 1e6),
            format!("{}", log.generations),
            format!("{}", log.generation_pages),
            format!("{}", log.delta_pages),
        ]);
        log_out.push(json!({
            "config": label,
            "scanned_data_blocks": report.scanned_data_blocks,
            "scanned_log_blocks": report.scanned_log_blocks,
            "scanned_blocks": report.scanned_blocks(),
            "replayed_log_entries": report.replayed_log_entries,
            "recovered_pages": report.recovered_pages,
            "recovery_ns": report.scan_time_ns,
            "lost_buffered_writes": report.lost_buffered_writes,
            "maplog_bytes_written": maplog_bytes_written,
            "maplog_reclaimed_blocks": ssd.maplog_reclaimed_blocks(),
            "maplog_pages": maplog_json(log),
            "waf": waf,
            "translation_programs": translation_programs,
            "post_recovery_ops": check.ops,
        }));
    }
    print_table(
        "§5 recovery: flash-resident translation log bounds the data scan to O(dirty)",
        &[
            "config",
            "data blocks",
            "log blocks",
            "replayed entries",
            "recovery time",
            "generations",
            "generation pages",
            "delta pages",
        ],
        &log_rows,
    );
    let record = json!({ "experiment": "recovery", "series": out, "log_replay": log_out });
    (record, shape)
}
