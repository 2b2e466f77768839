//! Quickstart: learn address mappings, look them up, and run a tiny
//! simulated SSD end to end.
//!
//! ```text
//! cargo run --example quickstart
//! ```

#![expect(
    clippy::expect_used,
    reason = "an example: a step that fails should stop it with its message"
)]

use leaftl_repro::core::{LeaFtlConfig, LeaFtlTable};
use leaftl_repro::flash::{Lpa, Ppa};
use leaftl_repro::sim::{LeaFtlScheme, Ssd, SsdConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ------------------------------------------------------------------
    // 1. The learned mapping table by itself.
    // ------------------------------------------------------------------
    let mut table = LeaFtlTable::new(LeaFtlConfig::default().with_gamma(4));

    // A buffer flush: LPA-sorted pages receive consecutive PPAs.
    let sequential: Vec<(Lpa, Ppa)> = (0..256)
        .map(|i| (Lpa::new(i), Ppa::new(10_000 + i)))
        .collect();
    table.learn(&sequential);

    // 256 mappings -> one 8-byte segment.
    println!(
        "sequential run: {} mappings in {} segment(s), {} bytes",
        256,
        table.segment_count(),
        table.memory_bytes().total()
    );

    // An irregular pattern (paper Fig. 1 C) learned within γ=4.
    let irregular = vec![
        (Lpa::new(580), Ppa::new(304)),
        (Lpa::new(582), Ppa::new(305)),
        (Lpa::new(583), Ppa::new(306)),
        (Lpa::new(584), Ppa::new(307)),
        (Lpa::new(587), Ppa::new(308)),
    ];
    table.learn(&irregular);
    for (lpa, true_ppa) in &irregular {
        let hit = table.lookup(*lpa).expect("mapped");
        println!(
            "{lpa} -> predicted {} (true {}, bound ±{}, {})",
            hit.ppa,
            true_ppa,
            hit.error_bound,
            if hit.approximate {
                "approximate"
            } else {
                "exact"
            },
        );
    }

    // ------------------------------------------------------------------
    // 2. The full simulated SSD with LeaFTL inside.
    // ------------------------------------------------------------------
    let scheme = LeaFtlScheme::new(LeaFtlConfig::default());
    let mut ssd = Ssd::new(SsdConfig::small_test(), scheme);

    for i in 0..512u64 {
        ssd.write(Lpa::new(i % ssd.config().logical_pages()), i * 3)?;
    }
    ssd.flush()?;
    let value = ssd.read(Lpa::new(100))?;
    println!("\nssd read LPA 100 -> {value:?}");
    println!(
        "mapping table: {} bytes | data cache room: {} bytes | mean write latency: {:.1} µs",
        ssd.mapping_bytes(),
        ssd.data_cache_capacity(),
        ssd.stats().write_latency.mean_ns() / 1000.0
    );
    Ok(())
}
