//! End-to-end checks of the paper's headline memory claims, as
//! invariants rather than exact figures.

#![expect(
    clippy::unwrap_used,
    reason = "a test: a step that fails should fail it with its message"
)]

use leaftl_repro::baselines::{sftl_full_table_bytes, Dftl, Sftl};
use leaftl_repro::core::LeaFtlConfig;
use leaftl_repro::flash::Lpa;
use leaftl_repro::sim::replay;
use leaftl_repro::sim::{LeaFtlScheme, Ssd, SsdConfig};
use leaftl_repro::workloads::{msr_src2, msr_usr};

fn big_test_config() -> SsdConfig {
    let mut config = SsdConfig::scaled(1 << 30);
    config.dram_bytes = 64 << 20; // generous: no demand paging noise
    config.write_buffer_pages = 256;
    config
}

/// Sequential workloads: LeaFTL's table is orders of magnitude smaller
/// than page-level mapping (§3.1: one 8-byte segment per ~learned run).
#[test]
fn sequential_write_compresses_massively() {
    let config = big_test_config();
    let scheme = LeaFtlScheme::new(LeaFtlConfig::default());
    let mut ssd = Ssd::new(config, scheme);
    // 64k pages written sequentially.
    for i in 0..65_536u64 {
        ssd.write(Lpa::new(i), i).unwrap();
    }
    ssd.flush().unwrap();
    let table = ssd.scheme().table();
    let page_level = 65_536 * 8;
    assert!(
        table.memory_bytes().total() * 20 < page_level,
        "learned {} vs page-level {page_level}",
        table.memory_bytes().total()
    );
    // avg(L): sequential runs should easily exceed the paper's 20.3.
    let stats = table.stats();
    assert!(
        stats.avg_members_per_segment() > 20.0,
        "avg members {}",
        stats.avg_members_per_segment()
    );
}

/// Random single-page writes: LeaFTL never exceeds page-level cost
/// (§3.1 worst case).
#[test]
fn random_writes_never_worse_than_page_level() {
    let config = big_test_config();
    let scheme = LeaFtlScheme::new(LeaFtlConfig::default());
    let mut ssd = Ssd::new(config, scheme);
    // Scattered writes, stride 977 (coprime with group size).
    let mut written = 0u64;
    for i in 0..20_000u64 {
        let lpa = (i * 977) % ssd.config().logical_pages();
        ssd.write(Lpa::new(lpa), i).unwrap();
        written += 1;
    }
    ssd.flush().unwrap();
    let mut table = ssd.scheme().table().clone();
    table.compact();
    assert!(
        table.memory_bytes().segment_bytes as u64 <= written * 8,
        "{} > {}",
        table.memory_bytes().segment_bytes,
        written * 8
    );
}

/// On a structured workload the three schemes order as the paper's
/// Fig. 15: LeaFTL < SFTL < DFTL.
#[test]
fn footprint_ordering_matches_paper() {
    for profile in [msr_src2(), msr_usr()] {
        let config = big_test_config();
        let logical = config.logical_pages();
        let writes: Vec<_> = profile
            .generate(logical, 20_000, 7)
            .into_iter()
            .filter(|op| !op.is_read())
            .collect();

        let mut lea = Ssd::new(config.clone(), LeaFtlScheme::new(LeaFtlConfig::default()));
        replay(&mut lea, writes.iter().copied()).unwrap();
        lea.flush().unwrap();
        let lea_bytes = lea.scheme().table().memory_bytes().total();

        let mut dftl = Ssd::new(config.clone(), Dftl::new());
        replay(&mut dftl, writes.iter().copied()).unwrap();
        dftl.flush().unwrap();
        let dftl_bytes = dftl.scheme().full_table_bytes();

        let mut sftl = Ssd::new(config.clone(), Sftl::new());
        replay(&mut sftl, writes.iter().copied()).unwrap();
        sftl.flush().unwrap();
        let sftl_bytes = sftl_full_table_bytes(sftl.scheme());

        assert!(
            lea_bytes < sftl_bytes && sftl_bytes < dftl_bytes,
            "{}: lea {lea_bytes} sftl {sftl_bytes} dftl {dftl_bytes}",
            profile.name
        );
    }
}

/// Raising γ shrinks the learned table (Fig. 19's direction) while
/// keeping every prediction within the bound.
#[test]
fn gamma_shrinks_table_monotonically_in_aggregate() {
    let profile = msr_usr();
    let mut sizes = Vec::new();
    for gamma in [0u32, 4, 15] {
        let mut config = big_test_config();
        config.gamma = gamma;
        let scheme = LeaFtlScheme::new(LeaFtlConfig::default().with_gamma(gamma));
        let mut ssd = Ssd::new(config.clone(), scheme);
        let writes = profile
            .generate(config.logical_pages(), 15_000, 3)
            .into_iter()
            .filter(|op| !op.is_read());
        replay(&mut ssd, writes).unwrap();
        ssd.flush().unwrap();
        sizes.push(ssd.scheme().table().memory_bytes().segment_bytes);
    }
    assert!(
        sizes[2] < sizes[0],
        "γ=15 ({}) must beat γ=0 ({})",
        sizes[2],
        sizes[0]
    );
}

/// The saved memory funds the data cache: LeaFTL's cache capacity
/// exceeds DFTL's under the same DRAM budget (the Fig. 16 mechanism).
#[test]
fn saved_memory_funds_data_cache() {
    let mut config = SsdConfig::scaled(1 << 30);
    config.dram_bytes = 1 << 20;
    config.write_buffer_pages = 128;
    let logical = config.logical_pages();

    let mut lea = Ssd::new(config.clone(), LeaFtlScheme::new(LeaFtlConfig::default()));
    let mut dftl = Ssd::new(config, Dftl::new());
    for i in 0..100_000u64 {
        lea.write(Lpa::new(i % logical), i).unwrap();
        dftl.write(Lpa::new(i % logical), i).unwrap();
    }
    lea.flush().unwrap();
    dftl.flush().unwrap();
    assert!(
        lea.data_cache_capacity() > dftl.data_cache_capacity(),
        "lea cache {} !> dftl cache {}",
        lea.data_cache_capacity(),
        dftl.data_cache_capacity()
    );
}
