//! Behavioural tests of the timing model: buffered writes are fast,
//! flushes drain asynchronously, reads queue behind programs on busy
//! channels, and misprediction penalties are exactly one extra read.

#![expect(
    clippy::unwrap_used,
    reason = "a test: a step that fails should fail it with its message"
)]

use leaftl_repro::core::LeaFtlConfig;
use leaftl_repro::flash::Lpa;
use leaftl_repro::sim::{ExactPageMap, LeaFtlScheme, Ssd, SsdConfig};

#[test]
fn buffered_writes_complete_at_dram_speed() {
    let mut ssd = Ssd::new(SsdConfig::small_test(), ExactPageMap::new());
    // Fewer writes than the buffer: no flush, no flash programs.
    for i in 0..16u64 {
        ssd.write(Lpa::new(i), i).unwrap();
    }
    assert_eq!(ssd.stats().flash.data_programs, 0);
    let mean_ns = ssd.stats().write_latency.mean_ns();
    assert!(
        mean_ns < 10_000.0,
        "buffered writes must be µs-scale, got {mean_ns} ns"
    );
}

#[test]
fn flush_is_asynchronous_but_backpressured() {
    let mut ssd = Ssd::new(SsdConfig::small_test(), ExactPageMap::new());
    // Exactly one buffer worth: the triggering write schedules the
    // flush without waiting for 32 × 200 µs of programs.
    for i in 0..32u64 {
        ssd.write(Lpa::new(i), i).unwrap();
    }
    let p100 = ssd.stats().write_latency.max_ns();
    assert!(
        p100 < 3_000_000,
        "flush must not stall the host for the full drain, got {p100} ns"
    );
    // Two more buffers right after need the DRAM slots the first two
    // hold: their writes wait for programs to end.
    for i in 32..64u64 {
        ssd.write(Lpa::new(i), i).unwrap();
    }
    for i in 64..96u64 {
        ssd.write(Lpa::new(i), i).unwrap();
    }
    assert!(
        ssd.stats().write_latency.max_ns() > p100,
        "sustained writes must feel the programs' backpressure"
    );
}

#[test]
fn cache_hits_bypass_flash_timing() {
    let mut ssd = Ssd::new(SsdConfig::small_test(), ExactPageMap::new());
    for i in 0..32u64 {
        ssd.write(Lpa::new(i), i).unwrap();
    }
    // Flushed pages hold their DRAM slots until a write takes them.
    let reads_before = ssd.stats().flash.data_reads;
    let t0 = ssd.now_ns();
    ssd.read(Lpa::new(5)).unwrap();
    let elapsed = ssd.now_ns() - t0;
    assert_eq!(ssd.stats().flash.data_reads, reads_before);
    assert!(elapsed < 5_000, "cache hit cost {elapsed} ns");
}

#[test]
fn flash_reads_cost_at_least_the_nand_latency() {
    let mut config = SsdConfig::small_test();
    config.dram_bytes = 16 * 1024; // starve the cache
    let mut ssd = Ssd::new(config, ExactPageMap::new());
    let logical = ssd.config().logical_pages();
    for i in 0..logical / 2 {
        ssd.write(Lpa::new(i), i).unwrap();
    }
    ssd.flush().unwrap();
    // Read far-apart pages (cache is tiny): each is a real flash read.
    let read_ns = ssd.config().timing.read_ns;
    let t0 = ssd.now_ns();
    let n = 64u64;
    for i in 0..n {
        ssd.read(Lpa::new(i * 7 % (logical / 2))).unwrap();
    }
    let per_read = (ssd.now_ns() - t0) / n;
    assert!(
        per_read >= read_ns,
        "flash-bound reads must cost ≥ {read_ns} ns, got {per_read}"
    );
}

#[test]
fn misprediction_costs_exactly_one_extra_read() {
    // Construct an approximate mapping, then count flash reads for a
    // mispredicted lookup: first read (wrong page) + one corrected read.
    let mut config = SsdConfig::small_test();
    config.gamma = 4;
    config.dram_bytes = 8 * 1024; // effectively no data cache
    let scheme = LeaFtlScheme::new(LeaFtlConfig::default().with_gamma(4));
    let mut ssd = Ssd::new(config, scheme);
    // Irregular strided writes produce approximate segments.
    let mut lpa = 0u64;
    let mut step = 1u64;
    for i in 0..64u64 {
        ssd.write(Lpa::new(lpa), 100 + i).unwrap();
        step = if step == 3 { 1 } else { step + 1 };
        lpa += step;
    }
    ssd.flush().unwrap();
    // Writes elsewhere take the DRAM slots the flushed pages hold, so
    // the sweep below reads them from flash.
    for i in 0..64u64 {
        ssd.write(Lpa::new(1_000 + i), i).unwrap();
    }
    ssd.reset_stats();
    // Sweep all written pages; every misprediction may add exactly one
    // extra read over the baseline of one read per lookup (plus rare
    // boundary scans, also counted in misprediction_reads).
    let mut probe = 0u64;
    let mut step = 1u64;
    for _ in 0..64u64 {
        ssd.read(Lpa::new(probe)).unwrap();
        step = if step == 3 { 1 } else { step + 1 };
        probe += step;
    }
    let stats = ssd.stats();
    assert_eq!(stats.flash.data_reads + stats.cache_hits, 64);
    assert!(
        stats.flash.misprediction_reads <= stats.mispredictions * 2,
        "window recovery must stay near one extra read: {} extras for {} mispredictions",
        stats.flash.misprediction_reads,
        stats.mispredictions
    );
}

#[test]
fn channel_parallelism_speeds_up_large_flushes() {
    // Same data, one vs many channels: the single-channel device takes
    // substantially longer to drain its flush.
    let mut fast = SsdConfig::small_test();
    fast.stripe_pages = 8; // spread over all 4 channels
    let mut slow = SsdConfig::small_test();
    slow.geometry.channels = 1;

    let run = |config: SsdConfig| {
        let mut ssd = Ssd::new(config, ExactPageMap::new());
        for i in 0..128u64 {
            ssd.write(Lpa::new(i), i).unwrap();
        }
        ssd.flush().unwrap();
        ssd.now_ns()
    };
    let fast_ns = run(fast);
    let slow_ns = run(slow);
    assert!(
        fast_ns * 2 < slow_ns,
        "4-channel striping ({fast_ns} ns) must beat 1 channel ({slow_ns} ns)"
    );
}

#[test]
fn lookup_cpu_cost_is_accounted() {
    let scheme = LeaFtlScheme::new(LeaFtlConfig::default());
    let mut ssd = Ssd::new(SsdConfig::small_test(), scheme);
    for i in 0..64u64 {
        ssd.write(Lpa::new(i), i).unwrap();
    }
    ssd.flush().unwrap();
    ssd.reset_stats();
    let mut config_cache_killer = 0u64;
    for i in 0..64u64 {
        ssd.read(Lpa::new(i)).unwrap();
        config_cache_killer += i;
    }
    let _ = config_cache_killer;
    let stats = ssd.stats();
    if stats.lookups > 0 {
        let per_lookup = stats.lookup_cpu_ns as f64 / stats.lookups as f64;
        // Table 3 territory: tens of nanoseconds, far below flash reads.
        assert!((40.0..1_000.0).contains(&per_lookup), "{per_lookup} ns");
    }
}
