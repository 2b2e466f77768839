//! Table-structure and footprint studies: Figs. 5, 10, 12, 15 and 20,
//! views of one sweep. Each block-suite workload's writes build LeaFTL
//! at every γ of [`GAMMAS`], DFTL and SFTL once, at the memory scale.

use super::{Figure, Shape};
use crate::common::{build_mapping_state, compacted, fmt_bytes, print_table, AnySsd, Scale};
use crate::common::{SchemeKind, SEED};
use leaftl_core::{percentile, TableStats};
use leaftl_workloads::block_trace_suite;
use serde_json::json;

/// Every γ a structure figure reads: Fig. 5 plots {0, 4, 8}, Fig. 10
/// reads 4, Figs. 12 and 15 read 0, Fig. 20 plots {0, 1, 4, 16}.
const GAMMAS: [u32; 5] = [0, 1, 4, 8, 16];

/// What one LeaFTL build leaves behind.
struct LeaBuild {
    gamma: u32,
    /// The table as the writes left it, between compactions (Fig. 12).
    standing: TableStats,
    /// The table compacted: shadow-free (Figs. 5, 10, 20).
    compacted: TableStats,
    /// The compacted table's bytes (Fig. 15).
    full_bytes: usize,
}

/// One workload's builds.
struct Built {
    workload: String,
    /// One per [`GAMMAS`] entry, in order.
    lea: Vec<LeaBuild>,
    dftl_bytes: usize,
    sftl_bytes: usize,
}

impl Built {
    fn at(&self, gamma: u32) -> &LeaBuild {
        self.lea
            .iter()
            .find(|build| build.gamma == gamma)
            .expect("γ is one of GAMMAS")
    }
}

/// The sweep, and every figure it feeds: Figs. 5, 10, 12, 15 and 20.
pub fn structure(quick: bool) -> Vec<Figure> {
    let scale = Scale::memory(quick);
    let built: Vec<Built> = block_trace_suite()
        .iter()
        .map(|profile| Built {
            workload: profile.name.clone(),
            lea: GAMMAS
                .iter()
                .map(|&gamma| {
                    let kind = SchemeKind::LeaFtl { gamma };
                    let AnySsd::Lea(ssd) = build_mapping_state(kind, profile, &scale) else {
                        unreachable!("a LeaFTL build holds a learned table");
                    };
                    let compacted = compacted(&ssd);
                    LeaBuild {
                        gamma,
                        standing: ssd.scheme().table_stats(),
                        compacted: compacted.stats(),
                        full_bytes: compacted.memory_bytes().total(),
                    }
                })
                .collect(),
            dftl_bytes: build_mapping_state(SchemeKind::Dftl, profile, &scale).full_mapping_bytes(),
            sftl_bytes: build_mapping_state(SchemeKind::Sftl, profile, &scale).full_mapping_bytes(),
        })
        .collect();
    vec![
        fig5(&built),
        fig10(&built),
        fig12(&built),
        fig15(&built),
        fig20(&built),
    ]
}

/// Fig. 5: aggregated distribution of learned-segment lengths for
/// γ ∈ {0, 4, 8} across the block-trace suite, plus segment counts.
fn fig5(built: &[Built]) -> Figure {
    let buckets: Vec<u32> = vec![1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048];
    let mut rows = Vec::new();
    let mut out = Vec::new();
    let claim = "≥ 98.2 % of segments ≤ 128 LPAs, fewer as γ grows (paper)";
    let mut shape = Shape::new(claim, None);
    let mut fewer_than = usize::MAX;
    for gamma in [0u32, 4, 8] {
        let lengths: Vec<u32> = built
            .iter()
            .flat_map(|b| b.at(gamma).compacted.members_per_segment.iter().copied())
            .collect();
        let total = lengths.len().max(1);
        let cdf: Vec<f64> = buckets
            .iter()
            .map(|&b| lengths.iter().filter(|&&l| l <= b).count() as f64 / total as f64 * 100.0)
            .collect();
        let avg = lengths.iter().map(|&l| l as f64).sum::<f64>() / total as f64;
        let short = cdf[7]; // ≤ 128 LPAs
        let ok = short >= 98.2 && total < fewer_than;
        shape.check(ok, || format!("γ={gamma}: {short:.1} %, {total} segments"));
        fewer_than = total;
        rows.push(
            std::iter::once(format!("γ={gamma} (n={total}, avg={avg:.1})"))
                .chain(cdf.iter().map(|c| format!("{c:.1}")))
                .collect::<Vec<String>>(),
        );
        out.push(json!({
            "gamma": gamma,
            "segments": total,
            "avg_length": avg,
            "cdf_buckets": buckets,
            "cdf_percent": cdf,
        }));
    }
    let mut headers: Vec<String> = vec!["config".to_string()];
    headers.extend(buckets.iter().map(|b| format!("≤{b}")));
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    print_table(
        "Fig. 5: CDF of learned segment lengths (%)",
        &header_refs,
        &rows,
    );
    (json!({ "experiment": "fig5", "series": out }), shape)
}

/// Fig. 10: CRB size per group (average and p99 bytes), γ = 4.
fn fig10(built: &[Built]) -> Figure {
    let mut rows = Vec::new();
    let mut out = Vec::new();
    let mut mean = 0.0;
    for b in built {
        let stats = &b.at(4).compacted;
        let sizes: Vec<u32> = stats
            .crb_bytes_per_group
            .iter()
            .map(|&bytes| bytes as u32)
            .collect();
        let avg = stats.avg_crb_bytes();
        let p99 = percentile(&sizes, 99.0);
        mean += avg / built.len() as f64;
        rows.push(vec![
            b.workload.clone(),
            format!("{avg:.1}"),
            format!("{p99:.0}"),
        ]);
        out.push(json!({ "workload": b.workload, "avg_bytes": avg, "p99_bytes": p99 }));
    }
    print_table(
        "Fig. 10: CRB size in bytes per group, γ=4",
        &["workload", "avg (B)", "p99 (B)"],
        &rows,
    );
    let claim = "mean CRB per group 13.9 B ÷× 2 (paper: 13.9 B)";
    let gap = Some("direction 11: scrambled-Zipf profiles lack the paper's dense, irregular runs");
    let mut shape = Shape::new(claim, gap);
    let ok = (13.9 / 2.0..=13.9 * 2.0).contains(&mean);
    shape.check(ok, || format!("suite mean {mean:.1} B"));
    (json!({ "experiment": "fig10", "series": out }), shape)
}

/// Fig. 12: number of levels in the log-structured table per group
/// (average and p99), γ = 0.
fn fig12(built: &[Built]) -> Figure {
    let mut rows = Vec::new();
    let mut out = Vec::new();
    let claim = "p99 ≤ 20 levels per group (paper: avg a few, p99 ≤ ~20)";
    let mut shape = Shape::new(claim, None);
    for b in built {
        // Runtime (not compacted) state: Fig. 12 measures the standing
        // log-structure depth between compactions.
        let stats = &b.at(0).standing;
        let avg = stats.avg_levels();
        let p99 = percentile(&stats.levels_per_group, 99.0);
        let max = stats.levels_per_group.iter().max().copied().unwrap_or(0);
        shape.check(p99 <= 20.0, || format!("{}: {p99:.0}", b.workload));
        rows.push(vec![
            b.workload.clone(),
            format!("{avg:.2}"),
            format!("{p99:.0}"),
            format!("{max}"),
        ]);
        out.push(json!({
            "workload": b.workload,
            "avg_levels": avg,
            "p99_levels": p99,
            "max_levels": max,
        }));
    }
    print_table(
        "Fig. 12: levels per group",
        &["workload", "avg", "p99", "max"],
        &rows,
    );
    (json!({ "experiment": "fig12", "series": out }), shape)
}

/// Fig. 15: mapping-table size reduction of LeaFTL (γ=0) vs DFTL and
/// SFTL per block workload.
fn fig15(built: &[Built]) -> Figure {
    let mut rows = Vec::new();
    let mut out = Vec::new();
    let (mut sum_dftl, mut sum_sftl) = (0.0, 0.0);
    let claim = "LeaFTL < SFTL < DFTL, 2.9× ÷× 1.5 vs SFTL (paper: 2.9×)";
    let mut shape = Shape::new(claim, None);
    for b in built {
        let lea_bytes = b.at(0).full_bytes.max(1);
        let (dftl_bytes, sftl_bytes) = (b.dftl_bytes, b.sftl_bytes);
        let ok = lea_bytes < sftl_bytes && sftl_bytes < dftl_bytes;
        shape.check(ok, || format!("{}: not LeaFTL < SFTL < DFTL", b.workload));
        let vs_dftl = dftl_bytes as f64 / lea_bytes as f64;
        let vs_sftl = sftl_bytes as f64 / lea_bytes as f64;
        sum_dftl += vs_dftl;
        sum_sftl += vs_sftl;
        rows.push(vec![
            b.workload.clone(),
            fmt_bytes(dftl_bytes),
            fmt_bytes(sftl_bytes),
            fmt_bytes(lea_bytes),
            format!("{vs_dftl:.1}x"),
            format!("{vs_sftl:.1}x"),
        ]);
        out.push(json!({
            "workload": b.workload,
            "dftl_bytes": dftl_bytes,
            "sftl_bytes": sftl_bytes,
            "leaftl_bytes": lea_bytes,
            "reduction_vs_dftl": vs_dftl,
            "reduction_vs_sftl": vs_sftl,
        }));
    }
    let avg_dftl = sum_dftl / built.len() as f64;
    let avg_sftl = sum_sftl / built.len() as f64;
    print_table(
        "Fig. 15: mapping-table footprint",
        &["workload", "DFTL", "SFTL", "LeaFTL", "vs DFTL", "vs SFTL"],
        &rows,
    );
    let ok = (2.9 / 1.5..=2.9 * 1.5).contains(&avg_sftl);
    shape.check(ok, || format!("suite average {avg_sftl:.1}×"));
    let record = json!({
        "experiment": "fig15",
        "series": out,
        "avg_reduction_vs_dftl": avg_dftl,
        "avg_reduction_vs_sftl": avg_sftl,
    });
    (record, shape)
}

/// Fig. 20: distribution of accurate vs approximate segments as γ
/// grows (aggregated over the block-trace suite).
fn fig20(built: &[Built]) -> Figure {
    let mut rows = Vec::new();
    let mut out = Vec::new();
    let claim = "approximate: 0 % at γ=0, 26.5 % ÷× 2 at γ=16 (paper: ~26.5 %)";
    let mut shape = Shape::new(claim, None);
    let mut approx = Vec::new();
    for gamma in [0u32, 1, 4, 16] {
        let accurate: usize = built
            .iter()
            .map(|b| b.at(gamma).compacted.accurate_segments)
            .sum();
        let approximate: usize = built
            .iter()
            .map(|b| b.at(gamma).compacted.approximate_segments)
            .sum();
        let total = (accurate + approximate).max(1);
        let approx_pct = approximate as f64 / total as f64 * 100.0;
        approx.push(approx_pct);
        rows.push(vec![
            format!("γ={gamma}"),
            format!("{:.1}%", 100.0 - approx_pct),
            format!("{approx_pct:.1}%"),
            format!("{total}"),
        ]);
        out.push(json!({
            "gamma": gamma,
            "accurate_pct": 100.0 - approx_pct,
            "approximate_pct": approx_pct,
            "segments": total,
        }));
    }
    print_table(
        "Fig. 20: segment type split",
        &["config", "accurate", "approximate", "#segments"],
        &rows,
    );
    let ok = approx[0] == 0.0 && (26.5 / 2.0..=26.5 * 2.0).contains(&approx[3]);
    shape.check(ok, || format!("{approx:.1?} % at γ = 0, 1, 4, 16"));
    let record = json!({ "experiment": "fig20", "series": out, "seed": SEED });
    (record, shape)
}
