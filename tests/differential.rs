//! Differential testing: every FTL scheme must return exactly the data
//! an in-memory shadow map predicts, under arbitrary mixed workloads
//! with GC pressure and compaction — for every error bound γ.

#![expect(
    clippy::unwrap_used,
    reason = "a test: a step that fails should fail it with its message"
)]

use leaftl_repro::baselines::{Dftl, Sftl};
use leaftl_repro::core::LeaFtlConfig;
use leaftl_repro::flash::Lpa;
use leaftl_repro::sim::{ExactPageMap, LeaFtlScheme, MappingScheme, Ssd, SsdConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Drives a random mixed workload and checks every read against a
/// shadow map. Overwrite-heavy enough to force GC several times.
fn differential_run<S: MappingScheme + Clone>(ssd: &mut Ssd<S>, seed: u64, ops: usize) {
    let logical = ssd.config().logical_pages();
    let hot_span = logical / 4;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut shadow: HashMap<u64, u64> = HashMap::new();
    let mut content = 1u64;

    for i in 0..ops {
        let style: f64 = rng.gen();
        if style < 0.55 {
            // Write a short run in the hot region (forces overwrites).
            let start = rng.gen_range(0..hot_span);
            let len = rng.gen_range(1..16u64).min(logical - start);
            for j in 0..len {
                let lpa = start + j;
                content += 1;
                ssd.write(Lpa::new(lpa), content).unwrap();
                shadow.insert(lpa, content);
            }
        } else if style < 0.65 {
            // Strided write burst.
            let stride = rng.gen_range(2..6u64);
            let count = rng.gen_range(2..20u64);
            let start = rng.gen_range(0..logical.saturating_sub(stride * count + 1));
            for j in 0..count {
                let lpa = start + j * stride;
                content += 1;
                ssd.write(Lpa::new(lpa), content).unwrap();
                shadow.insert(lpa, content);
            }
        } else {
            // Read-back of a previously written page (or a miss).
            let lpa = rng.gen_range(0..logical);
            let got = ssd.read(Lpa::new(lpa)).unwrap();
            let expected = shadow.get(&lpa).copied();
            assert_eq!(got, expected, "op {i}: lpa {lpa} mismatch");
        }
    }

    // Full sweep at the end.
    for (&lpa, &expected) in &shadow {
        let got = ssd.read(Lpa::new(lpa)).unwrap();
        assert_eq!(got, Some(expected), "final sweep: lpa {lpa}");
    }
}

#[test]
fn exact_page_map_oracle() {
    let mut ssd = Ssd::new(SsdConfig::small_test(), ExactPageMap::new());
    differential_run(&mut ssd, 101, 1500);
    assert!(ssd.stats().gc_runs > 0, "workload must trigger GC");
}

#[test]
fn leaftl_gamma_zero_matches_shadow() {
    let scheme = LeaFtlScheme::new(LeaFtlConfig::default());
    let mut ssd = Ssd::new(SsdConfig::small_test(), scheme);
    differential_run(&mut ssd, 202, 1500);
    assert_eq!(ssd.stats().mispredictions, 0, "γ=0 must never mispredict");
}

#[test]
fn leaftl_gamma_one_matches_shadow() {
    let mut config = SsdConfig::small_test();
    config.gamma = 1;
    let scheme = LeaFtlScheme::new(LeaFtlConfig::default().with_gamma(1));
    let mut ssd = Ssd::new(config, scheme);
    differential_run(&mut ssd, 303, 1500);
}

#[test]
fn leaftl_gamma_four_matches_shadow() {
    let mut config = SsdConfig::small_test();
    config.gamma = 4;
    let scheme = LeaFtlScheme::new(LeaFtlConfig::default().with_gamma(4));
    let mut ssd = Ssd::new(config, scheme);
    differential_run(&mut ssd, 404, 1500);
}

#[test]
fn leaftl_gamma_eight_with_frequent_compaction() {
    let mut config = SsdConfig::small_test();
    config.gamma = 8;
    let scheme = LeaFtlScheme::new(
        LeaFtlConfig::default()
            .with_gamma(8)
            .with_compaction_interval(200),
    );
    let mut ssd = Ssd::new(config, scheme);
    differential_run(&mut ssd, 505, 1500);
    assert!(
        ssd.stats().compactions > 0,
        "compaction interval must have fired"
    );
}

#[test]
fn dftl_matches_shadow_with_tiny_cmt() {
    let mut config = SsdConfig::small_test();
    // Squeeze the CMT (budget = 2 KB = 256 entries, below the working
    // set) so demand paging is exercised hard. The write buffer is
    // dedicated memory and does not count against this budget.
    config.dram_bytes = 2 * 1024;
    config.write_buffer_pages = 32;
    let mut ssd = Ssd::new(config, Dftl::new());
    differential_run(&mut ssd, 606, 1200);
    assert!(
        ssd.stats().flash.translation_reads > 0,
        "tiny CMT must miss"
    );
}

#[test]
fn sftl_matches_shadow() {
    let mut config = SsdConfig::small_test();
    config.dram_bytes = 200 * 1024;
    let mut ssd = Ssd::new(config, Sftl::new());
    differential_run(&mut ssd, 707, 1200);
}

#[test]
fn unsorted_flush_ablation_still_correct() {
    // The Fig. 7 ablation: no LPA sort before flush. Mappings become
    // mostly single points but must stay correct.
    let mut config = SsdConfig::small_test();
    config.sort_buffer_on_flush = false;
    let scheme = LeaFtlScheme::new(LeaFtlConfig::default());
    let mut ssd = Ssd::new(config, scheme);
    differential_run(&mut ssd, 808, 1000);
}
