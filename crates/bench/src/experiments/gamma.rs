//! LeaFTL as its error bound γ grows: Fig. 19 (table size, memory
//! scale), and one perf-scale sweep of the full suite whose runs Fig. 21
//! (latency) and Fig. 24 (mispredictions) both read.

use super::{Figure, Shape};
use crate::common::{build_mapping_state, print_table, run_grid, Runs, Scale, SchemeKind};
use leaftl_sim::{DramPolicy, LookupPaths};
use leaftl_workloads::full_suite;
use serde_json::json;

/// The γ columns of Figs. 19, 21 and 24.
const GAMMAS: [u32; 4] = [0, 1, 4, 16];

/// Why a larger γ does not shrink the table here (Fig. 19).
const GAMMA_STORY: &str = "direction 4: the PLR keeps segments costlier than the pieces they \
                           replace, and mispredictions re-read flash (LearnedFTL cross-checks)";

/// Why a larger γ mispredicts more than the paper's 10 % (Fig. 24).
const FIG24_GAP: &str = "direction 4: most mispredicting lookups are a flush resolving its \
                         approximate overwrites (full scale, γ=16: 58 % of lookups on MSR-prxy \
                         and 44 % on FIU-mail, where host reads mispredict 20 % and 13 %; 82 % \
                         and 76 % of lookups while a segment stored the midrange intercept, not \
                         the pair that predicts the most members exactly). Such a miss re-reads \
                         nothing when the predicted page's OOB window names the old copy, and \
                         reads nothing when that copy is still in DRAM, so the ratio overstates \
                         the flash reads; LearnedFTL cross-checks";

/// What is left of Fig. 21's gap once a flush resolves its overwrites
/// in one pass without holding the host for them, and host reads go
/// ahead of the flush's queued programs.
const FIG21_GAP: &str = "direction 15: with reads ahead of queued programs, flushed pages \
                         read from DRAM until a write takes their slots, and a flush that \
                         neither waits for its resolution reads nor reads an old copy still in \
                         DRAM, the MSR/FIU rows are within 1.01× at full scale (1.04× while a \
                         flush waited for them). What is left: the resolution reads still take \
                         die time ahead of later host reads (full scale, γ=16: 0.29 per host \
                         write on MSR-prxy; lazy invalidation would drop them), and host reads \
                         that mispredict re-read flash (γ=16: 20 % on MSR-prxy, 2–5 % on the \
                         application rows, which read 1.02–1.04×: γ=0 reads faster, so the \
                         same re-reads weigh more)";

/// Fig. 19: LeaFTL mapping-table size as γ grows (normalised to γ=0,
/// lower is better), across all 12 workloads.
pub fn fig19(quick: bool) -> Figure {
    let mut scale = Scale::memory(quick);
    // Use a denser scale than Fig. 15: γ's merging opportunities depend
    // on how many batch points land per 256-LPA group; an 8 GiB span
    // with 10⁵ ops leaves mostly singletons, which no error bound can
    // merge (the paper's traces have burst locality instead).
    if !quick {
        scale.capacity = 2 << 30;
    }
    let mut rows = Vec::new();
    let mut out = Vec::new();
    let mut sum16 = 0.0;
    let claim = "γ=16 ≤ γ=0 per row, ≤ 1 / 1.3 on average (paper: ~1.3× less)";
    let mut shape = Shape::new(claim, Some(GAMMA_STORY));
    for profile in full_suite() {
        let sizes: Vec<usize> = GAMMAS
            .iter()
            .map(|&gamma| {
                build_mapping_state(SchemeKind::LeaFtl { gamma }, &profile, &scale)
                    .full_mapping_bytes()
            })
            .collect();
        let base = sizes[0].max(1) as f64;
        let normalized: Vec<f64> = sizes.iter().map(|&s| s as f64 / base).collect();
        let at16 = normalized[3];
        sum16 += at16;
        shape.check(at16 <= 1.0, || format!("{}: {at16:.2}", profile.name));
        rows.push(
            std::iter::once(profile.name.clone())
                .chain(normalized.iter().map(|n| format!("{n:.2}")))
                .collect::<Vec<String>>(),
        );
        out.push(json!({
            "workload": profile.name,
            "gammas": GAMMAS,
            "bytes": sizes,
            "normalized": normalized,
        }));
    }
    let avg16 = sum16 / out.len() as f64;
    print_table(
        "Fig. 19: mapping size vs γ (normalised to γ=0)",
        &["workload", "γ=0", "γ=1", "γ=4", "γ=16"],
        &rows,
    );
    shape.check(avg16 <= 1.0 / 1.3, || format!("suite average {avg16:.2}"));
    let record = json!({ "experiment": "fig19", "series": out, "avg_gamma16_normalized": avg16 });
    (record, shape)
}

/// The γ sweep — full suite × [`GAMMAS`] at `DataFloor(0.2)` — and
/// every figure it feeds: Figs. 21 and 24.
pub fn gamma_sweep(quick: bool) -> Vec<Figure> {
    let scale = Scale::perf(quick);
    let kinds = GAMMAS.map(|gamma| SchemeKind::LeaFtl { gamma });
    let config = scale.config(DramPolicy::DataFloor(0.2));
    let runs = run_grid(&full_suite(), &kinds, &scale, &config);
    vec![fig21(&runs), fig24(&runs)]
}

/// Fig. 21: LeaFTL performance as γ grows (normalised to γ=0), and
/// the flush resolutions per host write behind it.
fn fig21(runs: &Runs) -> Figure {
    let mut rows = Vec::new();
    let mut resolution_rows = Vec::new();
    let mut out = Vec::new();
    let claim = "latency at γ=16 ≤ γ=0's on every row (paper: up to 1.3× lower)";
    let mut shape = Shape::new(claim, Some(FIG21_GAP));
    for results in runs {
        let base = results[0].mean_latency_us.max(1e-9);
        let at16 = results[3].mean_latency_us / base;
        shape.check(at16 <= 1.0, || {
            format!("{}: {at16:.2}", results[0].workload)
        });
        let per_write: Vec<f64> = results
            .iter()
            .map(|r| r.paths.resolutions as f64 / r.stats.host_writes.max(1) as f64)
            .collect();
        resolution_rows.push(
            std::iter::once(results[0].workload.clone())
                .chain(per_write.iter().map(|n| format!("{n:.2}")))
                .collect::<Vec<String>>(),
        );
        rows.push(
            std::iter::once(results[0].workload.clone())
                .chain(
                    results
                        .iter()
                        .map(|r| format!("{:.2}", r.mean_latency_us / base)),
                )
                .collect::<Vec<String>>(),
        );
        out.push(json!({
            "workload": results[0].workload,
            "gammas": GAMMAS,
            "mean_latency_us": results.iter().map(|r| r.mean_latency_us).collect::<Vec<_>>(),
            "normalized": results
                .iter()
                .map(|r| r.mean_latency_us / base)
                .collect::<Vec<_>>(),
            "mapping_bytes": results.iter().map(|r| r.mapping_bytes).collect::<Vec<_>>(),
            "resolutions_per_write": per_write,
        }));
    }
    let header = ["workload", "γ=0", "γ=1", "γ=4", "γ=16"];
    print_table("Fig. 21: latency vs γ, normalised to γ=0", &header, &rows);
    print_table(
        "Fig. 21: flush resolutions per host write",
        &header,
        &resolution_rows,
    );
    (json!({ "experiment": "fig21", "series": out }), shape)
}

/// Fig. 24: misprediction ratio of flash-page accesses per workload as
/// γ grows — over every lookup (judged), and over host reads alone.
fn fig24(runs: &Runs) -> Figure {
    let mut rows = Vec::new();
    let mut read_rows = Vec::new();
    let mut out = Vec::new();
    let claim = "0 % at γ=0, ≤ 10 % at γ=16 (paper: 0 %, mostly < 10 %)";
    let mut shape = Shape::new(claim, Some(FIG24_GAP));
    for results in runs {
        let ratios: Vec<f64> = results
            .iter()
            .map(|r| r.stats.misprediction_ratio() * 100.0)
            .collect();
        let (at0, at16) = (ratios[0], ratios[3]);
        let ok = at0 == 0.0 && at16 <= 10.0;
        shape.check(ok, || {
            format!("{}: {at0:.1}, {at16:.1} %", results[0].workload)
        });
        let read_ratios: Vec<f64> = results
            .iter()
            .map(|r| r.paths.read_misprediction_ratio() * 100.0)
            .collect();
        let percent_row = |ratios: &[f64]| -> Vec<String> {
            std::iter::once(results[0].workload.clone())
                .chain(ratios.iter().map(|r| format!("{r:.1}%")))
                .collect()
        };
        rows.push(percent_row(&ratios));
        read_rows.push(percent_row(&read_ratios));
        let paths = |count: fn(&LookupPaths) -> u64| -> Vec<u64> {
            results.iter().map(|r| count(&r.paths)).collect()
        };
        out.push(json!({
            "workload": results[0].workload,
            "gammas": GAMMAS,
            "ratio_pct": ratios,
            "read_ratio_pct": read_ratios,
            "read_lookups": paths(|p| p.read_lookups),
            "read_mispredictions": paths(|p| p.read_mispredictions),
            "relocated_read_lookups": paths(|p| p.relocated_read_lookups),
            "relocated_read_mispredictions": paths(|p| p.relocated_read_mispredictions),
        }));
    }
    let header = ["workload", "γ=0", "γ=1", "γ=4", "γ=16"];
    print_table("Fig. 24: misprediction ratio, every lookup", &header, &rows);
    print_table(
        "Fig. 24: misprediction ratio, host-read lookups",
        &header,
        &read_rows,
    );
    let record = json!({
        "experiment": "fig24",
        "judged": "ratio_pct: every lookup that returned an address, host reads and flush resolutions",
        "reading": "read_ratio_pct: host-read lookups alone, declared beside the judged series; \
                    the paper's definition cannot be quoted here, so the shape keeps judging ratio_pct",
        "provenance": "relocated_read_*: the host-read lookups (and their mispredictions) whose \
                       live page a GC or wear relocation wrote, of read_lookups / read_mispredictions",
        "series": out,
    });
    (record, shape)
}
