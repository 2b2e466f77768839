//! Garbage-collection and wear-levelling integration tests (§3.6).

#![expect(
    clippy::unwrap_used,
    reason = "a test: a step that fails should fail it with its message"
)]

use leaftl_repro::core::LeaFtlConfig;
use leaftl_repro::flash::Lpa;
use leaftl_repro::sim::{ExactPageMap, GcPolicy, LeaFtlScheme, Ssd, SsdConfig};

#[test]
fn gc_preserves_data_under_hot_cold_skew() {
    let scheme = LeaFtlScheme::new(LeaFtlConfig::default());
    let mut ssd = Ssd::new(SsdConfig::small_test(), scheme);
    let logical = ssd.config().logical_pages();
    // Cold data: first quarter, written once.
    for i in 0..logical / 4 {
        ssd.write(Lpa::new(i), 7_000_000 + i).unwrap();
    }
    // Hot data: second quarter, hammered.
    for round in 0..30u64 {
        for i in logical / 4..logical / 2 {
            ssd.write(Lpa::new(i), round * 1_000_000 + i).unwrap();
        }
    }
    assert!(ssd.stats().gc_runs > 0);
    // Cold data survived every GC migration.
    for i in 0..logical / 4 {
        assert_eq!(
            ssd.read(Lpa::new(i)).unwrap(),
            Some(7_000_000 + i),
            "cold {i}"
        );
    }
    // Hot data holds the newest version.
    for i in logical / 4..logical / 2 {
        assert_eq!(ssd.read(Lpa::new(i)).unwrap(), Some(29 * 1_000_000 + i));
    }
}

#[test]
fn gc_learned_segments_stay_within_bound() {
    let mut config = SsdConfig::small_test();
    config.gamma = 4;
    let scheme = LeaFtlScheme::new(LeaFtlConfig::default().with_gamma(4));
    let mut ssd = Ssd::new(config, scheme);
    let logical = ssd.config().logical_pages();
    let mut version = 0u64;
    for _round in 0..25 {
        // Strided overwrites make approximate segments likely.
        for i in (0..logical / 2).step_by(3) {
            version += 1;
            ssd.write(Lpa::new(i), version).unwrap();
        }
    }
    assert!(ssd.stats().gc_runs > 0, "needs GC churn");
    // Reads resolve correctly even for migrated approximate mappings.
    let mut checked = 0;
    for i in (0..logical / 2).step_by(3) {
        let got = ssd.read(Lpa::new(i)).unwrap();
        assert!(got.is_some(), "lpa {i} lost after GC");
        checked += 1;
    }
    assert!(checked > 50);
}

#[test]
fn waf_reasonable_for_sequential_overwrites() {
    let mut ssd = Ssd::new(SsdConfig::small_test(), ExactPageMap::new());
    let logical = ssd.config().logical_pages();
    for round in 0..10u64 {
        for i in 0..logical / 2 {
            ssd.write(Lpa::new(i), round).unwrap();
        }
    }
    let waf = ssd.stats().waf();
    // Sequential overwrites invalidate whole blocks: GC moves little.
    assert!(waf < 1.6, "sequential overwrite WAF {waf}");
}

#[test]
fn wear_levelling_narrows_erase_spread() {
    // Static cold region plus a hammered hot region drives wear apart;
    // compare the erase-count spread with wear levelling on vs off.
    fn run(threshold: u32) -> (f64, u64) {
        let mut config = SsdConfig::small_test();
        config.wear_gap_threshold = threshold;
        let mut ssd = Ssd::new(config, ExactPageMap::new());
        let logical = ssd.config().logical_pages();
        for i in 0..logical / 2 {
            ssd.write(Lpa::new(i), 42).unwrap();
        }
        for round in 0..120u64 {
            for i in logical / 2..logical / 2 + 200 {
                ssd.write(Lpa::new(i), round).unwrap();
            }
        }
        // Data integrity across swaps.
        for i in 0..logical / 2 {
            assert_eq!(ssd.read(Lpa::new(i)).unwrap(), Some(42));
        }
        let counts: Vec<f64> = ssd.device().erase_counts().map(|(_, c)| c as f64).collect();
        let mean = counts.iter().sum::<f64>() / counts.len() as f64;
        let variance =
            counts.iter().map(|c| (c - mean) * (c - mean)).sum::<f64>() / counts.len() as f64;
        (variance.sqrt(), ssd.stats().wear_swaps)
    }
    let (spread_on, swaps_on) = run(4);
    let (spread_off, swaps_off) = run(u32::MAX);
    assert!(swaps_on > 0, "wear levelling never triggered");
    assert_eq!(swaps_off, 0, "threshold=MAX must disable swaps");
    assert!(
        spread_on < spread_off,
        "wear levelling must narrow the spread: on {spread_on:.2} vs off {spread_off:.2}"
    );
}

#[test]
fn stats_breakdown_accounts_all_programs() {
    let scheme = LeaFtlScheme::new(LeaFtlConfig::default());
    let mut ssd = Ssd::new(SsdConfig::small_test(), scheme);
    let logical = ssd.config().logical_pages();
    for round in 0..12u64 {
        for i in 0..logical / 3 {
            ssd.write(Lpa::new(i), round).unwrap();
        }
    }
    let stats = ssd.stats();
    let device_programs = ssd.device().stats().programs;
    // Translation programs are modelled (latency + counters) without
    // physical pages, so the device count equals data + gc + wear.
    assert_eq!(
        device_programs,
        stats.flash.data_programs + stats.flash.gc_programs + stats.flash.wear_programs,
        "program accounting must balance"
    );
    assert!(stats.waf() >= 1.0);
}

#[test]
fn cost_benefit_gc_policy_works_and_prefers_old_blocks() {
    // Hot/cold split: cost-benefit must keep data intact and tend to
    // collect old stale blocks; both policies stay correct.
    for policy in [GcPolicy::Greedy, GcPolicy::CostBenefit] {
        let mut config = SsdConfig::small_test();
        config.gc_policy = policy;
        let mut ssd = Ssd::new(config, ExactPageMap::new());
        let logical = ssd.config().logical_pages();
        for i in 0..logical / 4 {
            ssd.write(Lpa::new(i), 5_000_000 + i).unwrap();
        }
        for round in 0..25u64 {
            for i in logical / 4..logical / 2 {
                ssd.write(Lpa::new(i), round * 100_000 + i).unwrap();
            }
        }
        assert!(ssd.stats().gc_runs > 0, "{policy:?}: gc must run");
        for i in 0..logical / 4 {
            assert_eq!(
                ssd.read(Lpa::new(i)).unwrap(),
                Some(5_000_000 + i),
                "{policy:?}: cold lpa {i}"
            );
        }
        for i in logical / 4..logical / 2 {
            assert_eq!(ssd.read(Lpa::new(i)).unwrap(), Some(24 * 100_000 + i));
        }
    }
}
