//! Tables 1 and 3 of the paper.

use super::{Figure, Shape};
use crate::common::{print_table, SEED};
use leaftl_core::{LeaFtlConfig, LeaFtlTable};
use leaftl_flash::{Lpa, Ppa};
use leaftl_sim::SsdConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde_json::json;
use std::time::Instant;

/// Table 1: the simulated SSD configuration.
pub fn table1(_quick: bool) -> Figure {
    let config = SsdConfig::paper_default();
    let rows = vec![
        vec!["Capacity".into(), "2 TB".into()],
        vec!["#Channels".into(), config.geometry.channels.to_string()],
        vec!["Page size".into(), "4 KB".into()],
        vec!["OOB size".into(), format!("{} B", config.geometry.oob_size)],
        vec!["DRAM size".into(), "1 GB".into()],
        vec![
            "Pages/block".into(),
            config.geometry.pages_per_block.to_string(),
        ],
        vec![
            "Read latency".into(),
            format!("{} µs", config.timing.read_us()),
        ],
        vec![
            "Write latency".into(),
            format!("{} µs", config.timing.program_us()),
        ],
        vec![
            "Erase".into(),
            format!("{} millisecs", config.timing.erase_ms()),
        ],
        vec![
            "Overprovisioning ratio".into(),
            format!("{:.0}%", config.op_ratio * 100.0),
        ],
    ];
    print_table("Table 1: SSD configuration", &["Parameter", "Value"], &rows);
    let record = json!({
        "experiment": "table1",
        "config": {
            "channels": config.geometry.channels,
            "page_size": config.geometry.page_size,
            "pages_per_block": config.geometry.pages_per_block,
            "oob_size": config.geometry.oob_size,
            "dram_bytes": config.dram_bytes,
            "op_ratio": config.op_ratio,
            "read_us": config.timing.read_us(),
            "program_us": config.timing.program_us(),
            "erase_ms": config.timing.erase_ms(),
        }
    });
    let table1 = json!({ "channels": 16, "page_size": 4096, "pages_per_block": 256,
        "oob_size": 128, "dram_bytes": 1 << 30, "op_ratio": 0.2, "read_us": 20.0,
        "program_us": 200.0, "erase_ms": 1.5 });
    let mut shape = Shape::new("every parameter is Table 1's", None);
    let config = &record["config"];
    shape.check(*config == table1, || format!("configured {config}"));
    (record, shape)
}

/// Generates a monotonic 256-mapping batch with irregular gaps for the
/// given γ regime (larger γ tolerates more jitter).
fn batch_for(rng: &mut StdRng, jitter: u64) -> Vec<(Lpa, Ppa)> {
    let mut lpa = rng.gen_range(0u64..1 << 20) & !255;
    let first_ppa = rng.gen_range(0u64..1 << 24);
    let mut out = Vec::with_capacity(256);
    for ppa in first_ppa..first_ppa + 256 {
        out.push((Lpa::new(lpa), Ppa::new(ppa)));
        lpa += 1 + rng.gen_range(0..=jitter);
    }
    out
}

/// Table 3: learning time per 256-mapping batch and lookup latency on
/// the host CPU (the paper measures an ARM Cortex-A72; absolute numbers
/// differ, so the shape checked is their scale: µs to learn, under a µs
/// to look up).
pub fn table3(quick: bool) -> Figure {
    let batches = if quick { 200 } else { 2_000 };
    let lookups = if quick { 100_000 } else { 1_000_000 };
    let mut rows = Vec::new();
    let mut out = Vec::new();
    let claim = "µs to learn 256 LPAs, < 1 µs per lookup, at every γ (paper on Cortex-A72: \
                 9.8–10.8 µs learning, 40.2–67.5 ns lookup)";
    let mut shape = Shape::new(claim, None);
    for gamma in [0u32, 1, 4] {
        let mut rng = StdRng::seed_from_u64(SEED ^ gamma as u64);
        // Learning benchmark.
        let jitter = if gamma == 0 { 0 } else { gamma as u64 };
        let data: Vec<Vec<(Lpa, Ppa)>> =
            (0..batches).map(|_| batch_for(&mut rng, jitter)).collect();
        let mut table = LeaFtlTable::new(LeaFtlConfig::default().with_gamma(gamma));
        let start = Instant::now();
        for batch in &data {
            table.learn(batch);
        }
        let learn_us = start.elapsed().as_secs_f64() * 1e6 / batches as f64;

        // Lookup benchmark over the learned table.
        let lpas: Vec<Lpa> = (0..lookups)
            .map(|_| data[rng.gen_range(0..data.len())][rng.gen_range(0..256usize)].0)
            .collect();
        let start = Instant::now();
        let mut found = 0u64;
        for &lpa in &lpas {
            if table.lookup(lpa).is_some() {
                found += 1;
            }
        }
        let lookup_ns = start.elapsed().as_secs_f64() * 1e9 / lookups as f64;
        assert!(found > 0);
        shape.check((1.0..100.0).contains(&learn_us) && lookup_ns < 1e3, || {
            format!("γ={gamma}: {learn_us:.1} µs learning, {lookup_ns:.1} ns lookup")
        });

        rows.push(vec![
            format!("γ={gamma}"),
            format!("{learn_us:.1} µs"),
            format!("{lookup_ns:.1} ns"),
        ]);
        out.push(json!({
            "gamma": gamma,
            "learn_us_per_256": learn_us,
            "lookup_ns": lookup_ns,
        }));
    }
    print_table(
        "Table 3: CPU overhead on the host",
        &["γ", "learning (256 LPAs)", "lookup (per LPA)"],
        &rows,
    );
    (json!({ "experiment": "table3", "series": out }), shape)
}
