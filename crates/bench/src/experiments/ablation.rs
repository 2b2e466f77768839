//! Ablation studies of two design choices: buffer sorting before flush
//! (Fig. 7 / §3.3) and the GC victim policy (§3.6).

use crate::common::{fmt_bytes, print_table, Scale, SEED};
use leaftl_core::LeaFtlConfig;
use leaftl_sim::{replay, DramPolicy, GcPolicy, LeaFtlScheme, Ssd};
use leaftl_workloads::{block_trace_suite, msr_hm, warmup_ops};
use serde_json::{json, Value};

/// §3.3 ablation: disable the LPA sort before buffer flushes. The
/// paper's Fig. 7 motivates sorting: unsorted flushes fragment the
/// learned segments.
pub fn ablation_sort(quick: bool) -> Value {
    let scale = Scale::memory(quick);
    let mut rows = Vec::new();
    let mut out = Vec::new();
    for profile in block_trace_suite() {
        let mut sizes = Vec::new();
        let mut segments = Vec::new();
        for sorted in [true, false] {
            let mut config = scale.config(DramPolicy::MappingFirst);
            config.sort_buffer_on_flush = sorted;
            let logical = config.logical_pages();
            let scheme = LeaFtlScheme::new(LeaFtlConfig::default());
            let mut ssd = Ssd::new(config, scheme);
            let writes = profile
                .generate(logical, scale.ops, SEED)
                .into_iter()
                .filter(|op| !op.is_read());
            replay(&mut ssd, writes).expect("replay");
            ssd.flush().expect("flush");
            sizes.push(ssd.scheme().table().memory_bytes().total());
            segments.push(ssd.scheme().table().segment_count());
        }
        let blowup = sizes[1] as f64 / sizes[0].max(1) as f64;
        rows.push(vec![
            profile.name.clone(),
            fmt_bytes(sizes[0]),
            fmt_bytes(sizes[1]),
            format!("{blowup:.2}x"),
            format!("{} → {}", segments[0], segments[1]),
        ]);
        out.push(json!({
            "workload": profile.name,
            "sorted_bytes": sizes[0],
            "unsorted_bytes": sizes[1],
            "blowup": blowup,
            "sorted_segments": segments[0],
            "unsorted_segments": segments[1],
        }));
    }
    print_table(
        "Ablation (§3.3/Fig. 7): LPA-sorted flush vs unsorted — sorting shrinks the table",
        &["workload", "sorted", "unsorted", "blowup", "segments"],
        &rows,
    );
    json!({ "experiment": "ablation_sort", "series": out })
}

/// GC-policy ablation: greedy (the paper's §3.6 choice) vs the classic
/// cost-benefit heuristic, on a skewed overwrite workload.
pub fn ablation_gc(quick: bool) -> Value {
    let mut scale = Scale::perf(quick);
    // Fill the device far enough that GC must run during measurement.
    scale.prefill = 0.99;
    scale.ops *= 2;
    let profile = msr_hm();
    let mut rows = Vec::new();
    let mut out = Vec::new();
    for (label, policy) in [
        ("greedy", GcPolicy::Greedy),
        ("cost-benefit", GcPolicy::CostBenefit),
    ] {
        let mut config = scale.config(DramPolicy::DataFloor(0.2));
        config.gc_policy = policy;
        let logical = config.logical_pages();
        let scheme = LeaFtlScheme::new(
            LeaFtlConfig::default().with_compaction_interval(config.compaction_interval_writes),
        );
        let mut ssd = Ssd::new(config, scheme);
        replay(&mut ssd, warmup_ops(logical, scale.prefill)).expect("warmup");
        ssd.reset_stats();
        let report = replay(&mut ssd, profile.generate(logical, scale.ops, SEED)).expect("replay");
        rows.push(vec![
            label.to_string(),
            format!("{}", ssd.stats().gc_runs),
            format!("{:.3}", ssd.stats().waf()),
            format!("{:.1}µs", report.mean_latency_us()),
        ]);
        out.push(json!({
            "policy": label,
            "gc_runs": ssd.stats().gc_runs,
            "waf": ssd.stats().waf(),
            "mean_latency_us": report.mean_latency_us(),
        }));
    }
    print_table(
        "Ablation (§3.6): GC victim policy — greedy vs cost-benefit",
        &["policy", "gc runs", "WAF", "latency"],
        &rows,
    );
    json!({ "experiment": "ablation_gc", "series": out })
}
