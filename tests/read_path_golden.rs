//! Golden test for the read path and the recovery routine.
//!
//! Blocking [`Ssd::read`], single-request device bursts and deeper
//! bursts all run one read implementation, and every checkpoint mode
//! recovers through one routine. The constants below were recorded on
//! the commit *before* those merges — when the blocking read had its
//! own code and `DramSnapshot` and `FlashLog` recovered through
//! separate functions — so they pin the merged code to what both old
//! copies did, to the nanosecond. The equivalence suites cannot: after
//! the merge their blocking and QD=1 legs run the same code.
//!
//! The traces come from a generator local to this file, so the
//! constants depend on the simulator crates alone.
//!
//! The two `device_qd{1,8}_four_shard_resident_leaftl` records were
//! taken again when a `DramSnapshot` persistence point began to program
//! what changed instead of the whole table: their 60 GC passes program
//! 60 translation pages where they programmed 64 (four points had
//! spilled onto a second page), which moves the `Debug` renderings of
//! the stats and of the utilization, and at queue depth 8 the times of
//! the reads queued behind those four pages (mean read latency 114.80 →
//! 114.42 µs, the end of the run 38.8 µs earlier). Every value read,
//! every other flash counter and, at queue depth 1, every dispatch and
//! completion time are the first recording's; so are the other seven
//! records.
//!
//! Every record but `blocking_dftl_at_2kb` was taken again when a flush
//! (and recovery's replay) began to resolve its approximate overwrites
//! in one pass: one read per OOB window, no second read for an address
//! the window names, and one wait for the host. Fewer misprediction
//! reads move the `Debug` renderings of the stats and the utilization,
//! and the host clock moves less per flush, so every time hashed
//! (completion times, `now_ns`, the recovery scan) moves with them.
//! With the times masked out, all nine records are the previous
//! recording's: every value read, every lookup, misprediction, cache
//! hit and translation read, and every recovery count. DFTL maps
//! exactly, resolves nothing, and kept its record.
//!
//! All nine records were taken again when `SsdConfig::small_test()`
//! stopped setting its own GC watermarks (0.10 / 0.15) and every device
//! began to run the simulator's one rule (8 % / 12 % of all blocks
//! free): GC starts later and collects less per call, so which blocks
//! it picks, the pages it moves and every time hashed move. Each record
//! equals what the previous simulator records with `small_test()` at
//! 0.08 / 0.12.
//!
//! All nine were taken again when a host or GC block began to close
//! with its last page and the host stream to fill its open blocks
//! before opening more, which also moved `small_test()`'s lines to
//! 4.7 % / 6.7 % (the allocator no longer pins a quarter of the
//! device): GC starts later and picks other victims, so lookups,
//! mispredictions, translation reads, every time hashed and the
//! recovery scans move (`checkpointless_recovery` scans 59 blocks where
//! it scanned 57; `dram_snapshot_recovery` 1 where it scanned 2).
//!
//! Eight were taken again when a synchronous collection stopped
//! waiting for each victim pass before the next: its passes overlap on
//! the dies and the host waits once, for the latest erase. Only time
//! moved — `now_ns`, the completion times in `io_fnv`, the latency
//! histograms in `stats_fnv`, the recovery clock and the read-back
//! times. Every utilization digest, lookup, misprediction, cache hit,
//! translation read and recovery report is the previous recording's.
//! `flash_log_recovery_after_a_mid_run_power_cut` runs background GC
//! throughout and kept its record.
//!
//! `flash_log_recovery_after_a_mid_run_power_cut` alone was taken again
//! when background GC stopped selecting a batch of victims at the low
//! line and holding them until each dispatched: each migration now
//! takes the block the synchronous collector would pick when it
//! dispatches, and collection runs until the free fraction is back at
//! the high line. Other victims move other pages before the cut, so
//! lookups (2 534 → 2 531), mispredictions (1 691 → 1 689), every time
//! and digest hashed and the recovery report (4 log entries replayed
//! where 2 were, 9 buffered writes lost where 3 were) move. The other
//! eight records run synchronous GC only and kept theirs.
//!
//! All nine were taken again when a collection began to go on the dies
//! phase by phase — every pass's reads, then every program, then every
//! erase — so its passes no longer queue behind one another, and
//! background GC began to run one such collection per dispatch. Only
//! time moved: `now_ns`, the completion times in `io_fnv`, the latency
//! histograms in `stats_fnv`, the recovery clock and the read-back
//! times (the end of each run 4.6–66.8 ms earlier). Every utilization
//! digest, lookup, misprediction, cache hit, translation read and
//! recovery report is the previous recording's.
//!
//! `device_qd8_four_shard_resident_leaftl` and
//! `device_qd32_bursts_on_an_aged_four_shard_leaftl` were taken again
//! when the per-shard translation-CPU timelines went: a lookup now runs
//! from its request's map-ready time, and no lookup waits for another
//! shard-mate's, in its burst or an earlier one. Only time moved — the
//! completion times in `io_fnv`, the latency histogram and the
//! `translation_stall_ns` counter (13 230 and 1 727 340 ns, now 0) in
//! `stats_fnv`, and `now_ns` (740 ns and 19.08 µs earlier). Every
//! utilization digest, lookup, misprediction, cache hit and translation
//! read is the previous recording's; the other seven records never
//! stalled a lookup and kept theirs. `Golden` no longer carries the
//! stall counter, which reads 0 in every record.
//!
//! All nine were taken again when a flush stopped reserving its
//! programs on the dies up front: they wait in a per-die queue, a host
//! read goes ahead of them (suspending the one running at its floor),
//! and the flush's pages are read from DRAM until the next flush waits
//! for the programs. Those in-flight reads are buffer hits, so the
//! blocking and QD-1/8 records look up fewer addresses (1 398 → 1 377,
//! DFTL 448 → 432, sharded 1 502 → 1 495), mispredict less and hit the
//! cache less (22 → 16, 18 → 14; the recovery runs 248 → 246); every
//! time hashed moves with the reads that no longer wait for a 32-program
//! chunk. `device_qd32_bursts_on_an_aged_four_shard_leaftl` now flushes
//! twice before its measured phase, so the second flush releases the
//! first one's pages from DRAM and every measured read still reaches
//! the cache or flash: its lookups, mispredictions and cache hits are
//! the previous recording's, and only its times moved. In
//! `flash_log_recovery_after_a_mid_run_power_cut` the recovery scan
//! takes 6.47 ms where it took 0.93 ms: the programs of the flush in
//! flight at the cut are still queued, and the scan's reads place them
//! first. Every utilization digest of a blocking record, every read
//! value and every other recovery count is the previous recording's.
//!
//! All nine were taken again when the write buffer and the flushed
//! pages began to share `2 × write_buffer_pages` DRAM slots: a flush no
//! longer waits for the previous one's programs, a write that finds
//! every slot held waits for one program to end and takes the slot of
//! a page whose program has, and a flushed page is read from DRAM until
//! then. Pages stay in DRAM longer, so the blocking and QD-1/8 records
//! look up fewer addresses (1 377 → 1 366, DFTL 432 → 421, sharded
//! 1 495 → 1 488) and mispredict less (883 → 878, 947 → 943); the
//! crash runs hit the cache less (246 → 243). Every time hashed moves:
//! the runs end 11–54 % earlier.
//! `device_qd32_bursts_on_an_aged_four_shard_leaftl` used to empty
//! DRAM with a second host flush, which no longer releases a slot; it
//! now writes two buffers above its measured range
//! instead, which moves its image (mispredictions 789 → 784) while its
//! lookups and cache hits keep their values. A power cut now lets the
//! programs still queued finish before the recovery scan, so
//! `flash_log_recovery_after_a_mid_run_power_cut` scans in 0.74 ms
//! (6.47 ms while the scan's reads waited behind those programs).
//!
//! The eight LeaFTL records were taken again when an approximate segment
//! began to store the (K, I) that predicts the most of its members
//! exactly: mispredictions fall 878 → 725 (blocking, demand-paged),
//! 943 → 768 (queue depth 1 and 8), 784 → 565 (queue depth 32),
//! 3 259 → 2 451 (snapshot and checkpointless recovery), 3 253 → 2 445
//! (log recovery) and 1 689 → 1 275 (mid-run cut), and the stats,
//! utilization and every time hashed move with them. The queue-depth 8
//! and 32 records also move because a data-cache hit on a page still
//! being read from flash now completes when that read ends. Lookups,
//! unmapped reads, cache hits, translation reads and every value read
//! back are the previous recording's. DFTL kept its record.
//!
//! The eight LeaFTL records were taken again when a flush stopped
//! waiting for its resolution reads, an overwrite whose old copy is a
//! flushed page still in DRAM began to take that copy's address from
//! the write pool instead of reading flash, and a resolution's predicted
//! page began to count as a data read, not a misprediction read. Fewer
//! reads and the new split move the stats and utilization renderings,
//! and every time hashed moves: the runs end 0.5–15 % earlier (the
//! mid-run cut 320.1 → 272.4 ms, queue depth 8 251.8 → 234.1 ms).
//! Lookups, unmapped reads, cache hits, translation reads, every value
//! read back and every recovery report are the previous recording's, and
//! so are mispredictions but at queue depth 8 (768 → 769: one page left
//! DRAM at another time). `device_qd32_bursts_on_an_aged_four_shard_leaftl`
//! measures reads alone, so only its times moved; its outward-scan
//! assertion holds unedited. DFTL kept its record.
//!
//! Six LeaFTL records were taken again when a flush stopped copying its
//! pages into the read cache, which now keeps only what reads brought
//! in. Cache hits: blocking demand-paged 17 → 40, queue depth 1 and 8
//! 15 → 65, the three blocking recovery runs 243 → 100 (they read pages
//! whose slots writes had taken, which the cache held as copies).
//! Lookups, mispredictions, stats, utilization and times move with them;
//! unmapped and translation reads and the recovery reports do not.
//! Alone, the change that no read reaches a page whose program is queued
//! moves no record.
//!
//! Eight records were taken again when the host stream began to keep
//! one lane of open blocks per flush the write pool holds: on the
//! `small_test()` device (not capped, so two lanes) consecutive flushes
//! alternate between two open blocks on two dies, so pages land on other
//! blocks, GC finds other victims and every time hashed moves. Blocking
//! demand-paged: lookups 1 343 → 1 326, mispredictions 715 → 681,
//! translation reads 89 → 74, cache hits 40 → 41, the run 8.8 % shorter;
//! DFTL: translation reads 4 074 → 4 070; queue depth 1 and 8: lookups
//! 1 438 → 1 450, mispredictions 754 / 755 → 765, cache hits 65 → 66 /
//! 68, the runs 9.7 % / 3.5 % shorter. The recovery runs look up ±2
//! addresses and scan other blocks: checkpointless 59 → 60 data blocks
//! (1 806 → 1 810 pages), DRAM snapshot 1 → 2, the log replays 7 entries
//! where it replayed 10. `device_qd32_bursts_on_an_aged_four_shard_leaftl`
//! measures reads alone: only its times moved (the run ends 1.8 µs
//! later); its stats and utilization are the previous recording's.
//! `flash_log_recovery_after_a_mid_run_power_cut` kept its record.
//!
//! All nine were taken again when greedy began to balance a
//! collection's victims across dies: from a collection's second pass on,
//! a candidate within Δ = ⌈(v·t_read + t_erase) / t_program⌉ valid pages
//! of the fewest, v, is taken from the die that has given the collection
//! the fewest victims. GC moves other pages, so what the scheme learns,
//! what mispredicts and every time hashed move. Blocking demand-paged:
//! lookups 1 326 → 1 330, mispredictions 681 → 685, translation reads
//! 74 → 82, the run 2.0 % longer; DFTL: translation reads 4 070 →
//! 4 063; queue depth 1 and 8: lookups 1 450 → 1 445, mispredictions
//! 765 → 759 (cache hits 68 → 67 at depth 8), the runs 2.5 % / 3.6 %
//! shorter; queue depth 32: mispredictions 565 → 561, the run 1.3 %
//! shorter. The recovery runs: snapshot and checkpointless lookups
//! 5 018 → 5 017 and mispredictions 2 511 → 2 503 (checkpointless
//! recovers 1 820 pages where it recovered 1 810), the log 5 012 →
//! 5 000 and 2 500 → 2 491 with 5 entries replayed (7), the mid-run cut
//! 2 531 → 2 525 and 1 275 → 1 269 with 8 buffered writes lost (9).
//!
//! Eight were taken again when a synchronous collection began to go
//! ahead of the flush programs queued on its dies (never suspending
//! one) and a `DramSnapshot` point's pages began to continue over the
//! dies from where the previous point's ended, instead of starting on
//! die 0 each time. The host waits less inside each collection, so
//! every time hashed moves: the runs end 1.7 % (DFTL) to 20.8 %
//! (queue depth 32, checkpointless recovery) earlier. A few pages
//! leave DRAM at other times, so blocking demand-paged lookups 1 330 →
//! 1 328, queue depth 1 and 8 mispredictions 759 → 760 (lookups
//! 1 445 → 1 444 at depth 8), the snapshot and checkpointless runs'
//! cache hits 100 → 99, the log run's lookups 5 000 → 4 999 and
//! mispredictions 2 491 → 2 490. Unmapped reads, translation reads,
//! every value read back and every recovery report are the previous
//! recording's. `flash_log_recovery_after_a_mid_run_power_cut` runs
//! background GC throughout and kept its record.

#![expect(
    clippy::expect_used,
    reason = "a test: a step that fails should fail it with its message"
)]

mod support;

use support::{fnv1a, Rng, FNV_OFFSET};

use leaftl_repro::baselines::Dftl;
use leaftl_repro::core::{LeaFtlConfig, ShardedMapping};
use leaftl_repro::flash::Lpa;
use leaftl_repro::sim::{
    CheckpointMode, Device, DeviceConfig, DramPolicy, IoRequest, LeaFtlScheme, MappingScheme,
    SimStats, Ssd, SsdConfig,
};

#[derive(Debug, Clone, Copy)]
enum Op {
    Write(u64, u64),
    Read(u64),
    Flush,
}

/// A mixed trace: short sequential and strided write runs over the
/// lower three quarters of the logical space (irregular enough that
/// γ > 0 learns approximate segments), reads split between a 16-page
/// hot set (cache hits), the written range (flash reads) and the whole
/// space (the top quarter is never written: unmapped reads), and an
/// occasional host flush.
fn mixed_trace(logical: u64, seed: u64, actions: usize) -> Vec<Op> {
    let mut rng = Rng(seed);
    let written = logical * 3 / 4;
    let mut content = 0u64;
    let mut ops = Vec::new();
    for _ in 0..actions {
        match rng.next() % 100 {
            0..=44 => {
                let start = rng.next() % written;
                let len = 1 + rng.next() % 8;
                let stride = 1 + (rng.next() % 4) / 3 * (1 + rng.next() % 3);
                for j in 0..len {
                    content += 1;
                    ops.push(Op::Write((start + j * stride) % written, content));
                }
            }
            45..=64 => ops.push(Op::Read((rng.next() % 16) * 53 % written)),
            65..=84 => ops.push(Op::Read(rng.next() % written)),
            85..=97 => ops.push(Op::Read(rng.next() % logical)),
            _ => ops.push(Op::Flush),
        }
    }
    ops
}

fn fnv_str(text: &str) -> u64 {
    let mut hash = FNV_OFFSET;
    for byte in text.bytes() {
        fnv1a(&mut hash, byte as u64);
    }
    hash
}

/// What one run is pinned by.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    /// FNV-1a over every read's `(value, now_ns)` after it returns
    /// (blocking runs), or every completion's `(id, data, dispatch_ns,
    /// complete_ns)` in submission order (device runs).
    io_fnv: u64,
    /// FNV-1a of `format!("{:?}", ssd.stats())`.
    stats_fnv: u64,
    /// FNV-1a of `format!("{:?}", ssd.utilization())`.
    utilization_fnv: u64,
    now_ns: u64,
    lookups: u64,
    mispredictions: u64,
    unmapped_reads: u64,
    cache_hits: u64,
    translation_reads: u64,
}

fn golden<S: MappingScheme + Clone>(ssd: &Ssd<S>, io_fnv: u64) -> Golden {
    let stats = ssd.stats();
    Golden {
        io_fnv,
        stats_fnv: fnv_str(&format!("{stats:?}")),
        utilization_fnv: fnv_str(&format!("{:?}", ssd.utilization())),
        now_ns: ssd.now_ns(),
        lookups: stats.lookups,
        mispredictions: stats.mispredictions,
        unmapped_reads: stats.unmapped_reads,
        cache_hits: stats.cache_hits,
        translation_reads: stats.flash.translation_reads,
    }
}

/// Replays `ops` through the blocking interface.
fn run_blocking<S: MappingScheme + Clone>(ssd: &mut Ssd<S>, ops: &[Op]) -> u64 {
    let mut hash = FNV_OFFSET;
    for &op in ops {
        match op {
            Op::Write(lpa, content) => ssd.write(Lpa::new(lpa), content).expect("write"),
            Op::Read(lpa) => {
                let value = ssd.read(Lpa::new(lpa)).expect("read");
                fnv1a(&mut hash, value.map_or(u64::MAX, |v| v));
                fnv1a(&mut hash, ssd.now_ns());
            }
            Op::Flush => ssd.flush().expect("flush"),
        }
    }
    hash
}

/// Replays `ops` through a single-queue device. With `cut`, power
/// fails after that many dispatched commands and the hash covers the
/// completions retired by then.
fn run_device<S: MappingScheme + Clone>(
    ssd: &mut Ssd<S>,
    ops: &[Op],
    config: DeviceConfig,
    cut: Option<u64>,
) -> u64 {
    let mut device = Device::new(ssd, config);
    if let Some(dispatches) = cut {
        device.halt_after_dispatches(dispatches);
    }
    for &op in ops {
        match op {
            Op::Write(lpa, content) => device.submit_write(Lpa::new(lpa), content).expect("write"),
            Op::Read(lpa) => device.submit_read(Lpa::new(lpa)).expect("read"),
            Op::Flush => device.submit_to(0, IoRequest::flush()).expect("flush"),
        };
    }
    let mut completions = if cut.is_some() {
        let retired = device.take_completions();
        device.power_cut();
        retired
    } else {
        device.drain().expect("drain")
    };
    completions.sort_by_key(|c| c.id);
    let mut hash = FNV_OFFSET;
    for c in &completions {
        fnv1a(&mut hash, c.id);
        fnv1a(&mut hash, c.data.map_or(u64::MAX, |v| v));
        fnv1a(&mut hash, c.dispatch_ns);
        fnv1a(&mut hash, c.complete_ns);
    }
    hash
}

fn leaftl(gamma: u32) -> LeaFtlScheme {
    LeaFtlScheme::new(
        LeaFtlConfig::default()
            .with_gamma(gamma)
            .with_compaction_interval(300),
    )
}

/// (a) Demand-paged LeaFTL at γ = 4: the mapping budget is a tenth of
/// a 32 KB DRAM, below the table's footprint, and the rest is a
/// seven-page data cache.
#[test]
fn blocking_demand_paged_leaftl_gamma4() {
    let mut config = SsdConfig::small_test();
    config.gamma = 4;
    config.dram_bytes = 32 * 1024;
    config.dram_policy = DramPolicy::DataFloor(0.9);
    let mut ssd = Ssd::new(config, leaftl(4));
    let ops = mixed_trace(ssd.config().logical_pages(), 0x5eed_0001, 1_500);
    let io_fnv = run_blocking(&mut ssd, &ops);
    let got = golden(&ssd, io_fnv);
    // The run must cover every branch of the read path.
    assert!(!ssd.scheme().lookup_is_pure(), "table must be demand-paged");
    assert!(got.mispredictions > 0, "{got:?}");
    assert!(got.unmapped_reads > 0, "{got:?}");
    assert!(got.cache_hits > 0, "{got:?}");
    assert!(got.translation_reads > 0, "{got:?}");
    assert_eq!(
        got,
        Golden {
            io_fnv: 1773367851447758032,
            stats_fnv: 3084376415774861753,
            utilization_fnv: 15086549425874684034,
            now_ns: 275920720,
            lookups: 1328,
            mispredictions: 685,
            unmapped_reads: 341,
            cache_hits: 41,
            translation_reads: 82,
        }
    );
}

/// (b) DFTL with a 2 KB DRAM: a tiny CMT and no data cache, so nearly
/// every read pays a translation-page read before its data read.
#[test]
fn blocking_dftl_at_2kb() {
    let mut config = SsdConfig::small_test();
    config.dram_bytes = 2 * 1024;
    let mut ssd = Ssd::new(config, Dftl::new());
    let ops = mixed_trace(ssd.config().logical_pages(), 0x5eed_0002, 1_500);
    let io_fnv = run_blocking(&mut ssd, &ops);
    let got = golden(&ssd, io_fnv);
    assert!(got.translation_reads > 0, "{got:?}");
    assert_eq!(
        got,
        Golden {
            io_fnv: 1587686571742400752,
            stats_fnv: 8029172608823339436,
            utilization_fnv: 13891679781069990905,
            now_ns: 545452960,
            lookups: 421,
            mispredictions: 0,
            unmapped_reads: 341,
            cache_hits: 0,
            translation_reads: 4063,
        }
    );
}

/// A 48 KB DRAM holds the whole learned table (lookups stay pure, so
/// bursts hoist them through `lookup_batch`) but only a ten-page data
/// cache, so most reads reach flash.
fn sharded_resident() -> Ssd<ShardedMapping<LeaFtlScheme>> {
    let mut config = SsdConfig::small_test();
    config.gamma = 4;
    config.dram_bytes = 48 * 1024;
    let logical = config.logical_pages();
    Ssd::new(config, ShardedMapping::new(4, logical, |_| leaftl(4)))
}

/// (c) A resident 4-shard LeaFTL through a device at queue depth 1:
/// every read is a burst of one, translated through `lookup_batch`.
#[test]
fn device_qd1_four_shard_resident_leaftl() {
    let mut ssd = sharded_resident();
    let ops = mixed_trace(ssd.config().logical_pages(), 0x5eed_0003, 1_500);
    let io_fnv = run_device(&mut ssd, &ops, DeviceConfig::single(1), None);
    assert!(ssd.scheme().lookup_is_pure(), "table must be resident");
    assert_eq!(
        golden(&ssd, io_fnv),
        Golden {
            io_fnv: 3218002024626269707,
            stats_fnv: 5012489373873276593,
            utilization_fnv: 18434373479796361094,
            now_ns: 239662490,
            lookups: 1445,
            mispredictions: 760,
            unmapped_reads: 338,
            cache_hits: 66,
            translation_reads: 0,
        }
    );
}

/// (c) The same device at queue depth 8: multi-request bursts, data
/// probes placed in map-ready order.
#[test]
fn device_qd8_four_shard_resident_leaftl() {
    let mut ssd = sharded_resident();
    let ops = mixed_trace(ssd.config().logical_pages(), 0x5eed_0003, 1_500);
    let io_fnv = run_device(&mut ssd, &ops, DeviceConfig::single(8), None);
    let got = golden(&ssd, io_fnv);
    assert_eq!(
        got,
        Golden {
            io_fnv: 18097016543558805827,
            stats_fnv: 17353207279875706376,
            utilization_fnv: 3684044350912721225,
            now_ns: 188395430,
            lookups: 1444,
            mispredictions: 760,
            unmapped_reads: 338,
            cache_hits: 67,
            translation_reads: 0,
        }
    );
}

/// (d) Queue-depth-32 bursts over an aged device, each a full burst of
/// 32 reads dispatched together. Ten rounds of overwrites (part
/// strided, part scattered) leave approximate segments whose pages GC
/// has moved, so predictions miss; every burst repeats its first
/// address three reads later (a hit in the cache the first occurrence
/// filled) and again at its end (by then the ten-page cache has turned
/// over: a second lookup at its turn). The measured phase only reads,
/// so every misprediction read belongs to a host read: more of them
/// than mispredictions means some read probed past its one
/// OOB-verified retry — the outward scan.
#[test]
fn device_qd32_bursts_on_an_aged_four_shard_leaftl() {
    const BURST: usize = 32;
    let mut ssd = sharded_resident();
    let logical = ssd.config().logical_pages();
    let mut rng = Rng(0x5eed_0006);
    let mut content = 1u64 << 40;
    for round in 0..10u64 {
        for i in 0..logical / 3 {
            content += 1;
            let lpa = if rng.next() % 8 < 3 {
                rng.next() % (logical / 2)
            } else {
                (i * 5 + round * 11) % (logical / 3)
            };
            ssd.write(Lpa::new(lpa), content).expect("write");
        }
    }
    ssd.flush().expect("flush");
    // Two buffers of writes above the measured range take the DRAM
    // slots the last flushes' pages hold: every measured read reaches
    // the cache or flash.
    for lpa in logical * 4 / 5..logical * 4 / 5 + 64 {
        content += 1;
        ssd.write(Lpa::new(lpa), content).expect("write");
    }
    assert!(ssd.stats().gc_runs > 0, "device must be aged");
    assert!(ssd.scheme().lookup_is_pure(), "table must be resident");
    ssd.reset_stats();

    let mut hash = FNV_OFFSET;
    let mut device = Device::new(&mut ssd, DeviceConfig::single(BURST));
    for _ in 0..60 {
        let mut lpas: Vec<u64> = (0..BURST).map(|_| rng.next() % (logical * 3 / 5)).collect();
        lpas[3] = lpas[0];
        lpas[BURST - 1] = lpas[0];
        for &lpa in &lpas {
            device
                .enqueue_to(0, IoRequest::read(Lpa::new(lpa)))
                .expect("enqueue");
        }
        let mut completions = device.drain().expect("drain");
        assert_eq!(completions.len(), BURST);
        let dispatched = completions[0].dispatch_ns;
        assert!(
            completions.iter().all(|c| c.dispatch_ns == dispatched),
            "the reads must go out as one burst"
        );
        completions.sort_by_key(|c| c.id);
        for c in &completions {
            fnv1a(&mut hash, c.id);
            fnv1a(&mut hash, c.data.map_or(u64::MAX, |v| v));
            fnv1a(&mut hash, c.dispatch_ns);
            fnv1a(&mut hash, c.complete_ns);
        }
    }
    drop(device);

    let got = golden(&ssd, hash);
    let flash = ssd.stats().flash;
    assert!(got.mispredictions > 0, "{got:?}");
    assert!(
        flash.misprediction_reads > got.mispredictions,
        "no read fell back to the outward scan: {flash:?}"
    );
    assert!(got.cache_hits >= 60, "near repeats must hit: {got:?}");
    assert!(
        got.lookups + got.unmapped_reads > 60 * (BURST as u64 - 2),
        "far repeats must translate again: {got:?}"
    );
    assert_eq!(
        got,
        Golden {
            io_fnv: 4652424306068081539,
            stats_fnv: 7015936203893510038,
            utilization_fnv: 9798049275214230209,
            now_ns: 430971500,
            lookups: 1461,
            mispredictions: 561,
            unmapped_reads: 378,
            cache_hits: 81,
            translation_reads: 0,
        }
    );
}

/// What one power cut is pinned by.
#[derive(Debug, PartialEq, Eq)]
struct RecoveryGolden {
    pre_crash: Golden,
    /// `format!("{:?}", report)` of the full [`RecoveryReport`], with
    /// the device's lifetime map-log bytes right after recovery
    /// ([`Ssd::maplog_bytes_written`]) as its last field.
    ///
    /// [`RecoveryReport`]: leaftl_repro::sim::RecoveryReport
    report: String,
    recovered_now_ns: u64,
    /// Post-recovery stats with `flash.misprediction_reads` masked:
    /// the parent commit counted lenient-invalidation probes there
    /// that were never put on a die, and the merge stops doing so.
    recovered_stats_fnv: u64,
    recovered_utilization_fnv: u64,
    /// FNV-1a over `(value, now_ns)` of a read of every logical page
    /// after recovery.
    readback_fnv: u64,
}

/// An aged γ = 4 LeaFTL device: ten rounds of overwrites, part strided
/// and part scattered, so GC has run, checkpoints exist and recovery's
/// lenient invalidation meets approximate mappings whose old copy sits
/// in a recycled block; then the mixed trace. Blocking runs are cut at
/// the end of the trace with writes still buffered; with `cut`, the
/// trace goes through a background-GC device at queue depth 4 and
/// power fails after that many dispatched commands, queued log pages
/// and migrations included.
fn crash_run(mode: CheckpointMode, cut: Option<u64>) -> RecoveryGolden {
    let mut config = SsdConfig::small_test();
    config.gamma = 4;
    config.checkpoint_mode = mode;
    let mut ssd = Ssd::new(config, leaftl(4));
    let logical = ssd.config().logical_pages();
    let mut rng = Rng(0x5eed_0004);
    let mut ops = Vec::new();
    let mut content = 1u64 << 32;
    for round in 0..10u64 {
        for i in 0..logical / 3 {
            content += 1;
            let lpa = if rng.next() % 8 < 3 {
                rng.next() % (logical / 2)
            } else {
                (i * 5 + round * 11) % (logical / 3)
            };
            ops.push(Op::Write(lpa, content));
        }
    }
    ops.extend(mixed_trace(logical, 0x5eed_0005, 600));
    let io_fnv = match cut {
        None => run_blocking(&mut ssd, &ops),
        Some(_) => run_device(&mut ssd, &ops, DeviceConfig::single(4).background_gc(), cut),
    };
    assert!(ssd.stats().gc_runs > 0, "device must be aged");
    let pre_crash = golden(&ssd, io_fnv);

    let report = ssd.crash_and_recover().expect("recover");
    let report = format!("{report:?}");
    let report = format!(
        "{}, maplog_bytes_written: {} }}",
        report
            .strip_suffix(" }")
            .expect("a struct's Debug ends in ` }`"),
        ssd.maplog_bytes_written()
    );
    let recovered_now_ns = ssd.now_ns();
    let mut masked: SimStats = ssd.stats().clone();
    masked.flash.misprediction_reads = 0;
    let recovered_stats_fnv = fnv_str(&format!("{masked:?}"));
    let recovered_utilization_fnv = fnv_str(&format!("{:?}", ssd.utilization()));
    let mut readback_fnv = FNV_OFFSET;
    for lpa in 0..logical {
        let value = ssd.read(Lpa::new(lpa)).expect("read");
        fnv1a(&mut readback_fnv, value.map_or(u64::MAX, |v| v));
        fnv1a(&mut readback_fnv, ssd.now_ns());
    }
    RecoveryGolden {
        pre_crash,
        report,
        recovered_now_ns,
        recovered_stats_fnv,
        recovered_utilization_fnv,
        readback_fnv,
    }
}

/// Baseline from the DRAM snapshot the last GC pass took; no log.
#[test]
fn dram_snapshot_recovery() {
    assert_eq!(
        crash_run(CheckpointMode::DramSnapshot, None),
        RecoveryGolden {
            pre_crash: Golden {
                io_fnv: 18202258266456078984,
                stats_fnv: 2487751250370210440,
                utilization_fnv: 13281026205588771459,
                now_ns: 534038710,
                lookups: 5017,
                mispredictions: 2503,
                unmapped_reads: 58,
                cache_hits: 99,
                translation_reads: 0,
            },
            report: "RecoveryReport { scanned_data_blocks: 2, scanned_log_blocks: 0, replayed_log_entries: 0, recovered_pages: 8, lost_buffered_writes: 26, scan_time_ns: 160000, maplog_bytes_written: 0 }"
                .into(),
            recovered_now_ns: 534198710,
            recovered_stats_fnv: 2978078383745674050,
            recovered_utilization_fnv: 10529346119724168169,
            readback_fnv: 9265285350824264508,
        }
    );
}

/// Baseline from the newest durable log checkpoint plus the delta
/// tail, after a blocking run (the log is durable at every flush).
#[test]
fn flash_log_recovery() {
    assert_eq!(
        crash_run(CheckpointMode::FlashLog, None),
        RecoveryGolden {
            pre_crash: Golden {
                io_fnv: 10926455294123955925,
                stats_fnv: 9272325179902759788,
                utilization_fnv: 14283184774319824344,
                now_ns: 654585080,
                lookups: 4999,
                mispredictions: 2490,
                unmapped_reads: 58,
                cache_hits: 101,
                translation_reads: 0,
            },
            report: "RecoveryReport { scanned_data_blocks: 0, scanned_log_blocks: 1, replayed_log_entries: 5, recovered_pages: 0, lost_buffered_writes: 26, scan_time_ns: 460000, maplog_bytes_written: 1757184 }"
                .into(),
            recovered_now_ns: 655045080,
            recovered_stats_fnv: 18049034593930551513,
            recovered_utilization_fnv: 10134067899886960108,
            readback_fnv: 14690484836545136643,
        }
    );
}

/// The same through a background-GC device cut mid-run: log entries
/// still queued are lost, so the data scan has work left.
#[test]
fn flash_log_recovery_after_a_mid_run_power_cut() {
    assert_eq!(
        crash_run(CheckpointMode::FlashLog, Some(3_750)),
        RecoveryGolden {
            pre_crash: Golden {
                io_fnv: 17371860641464542884,
                stats_fnv: 3422585286449683010,
                utilization_fnv: 2314436885603054354,
                now_ns: 266709000,
                lookups: 2525,
                mispredictions: 1269,
                unmapped_reads: 0,
                cache_hits: 0,
                translation_reads: 0,
            },
            report: "RecoveryReport { scanned_data_blocks: 0, scanned_log_blocks: 1, replayed_log_entries: 4, recovered_pages: 0, lost_buffered_writes: 8, scan_time_ns: 800000, maplog_bytes_written: 737280 }"
                .into(),
            recovered_now_ns: 273108000,
            recovered_stats_fnv: 4067963718061625701,
            recovered_utilization_fnv: 13327364736440666647,
            readback_fnv: 3247751287642752671,
        }
    );
}

/// No checkpoint at all: pristine baseline, every programmed block
/// scanned.
#[test]
fn checkpointless_recovery() {
    assert_eq!(
        crash_run(CheckpointMode::Disabled, None),
        RecoveryGolden {
            pre_crash: Golden {
                io_fnv: 7863996605535744575,
                stats_fnv: 13124151050990880650,
                utilization_fnv: 11400455238163908556,
                now_ns: 528340180,
                lookups: 5017,
                mispredictions: 2503,
                unmapped_reads: 58,
                cache_hits: 99,
                translation_reads: 0,
            },
            report: "RecoveryReport { scanned_data_blocks: 60, scanned_log_blocks: 0, replayed_log_entries: 0, recovered_pages: 1820, lost_buffered_writes: 26, scan_time_ns: 8320000, maplog_bytes_written: 0 }"
                .into(),
            recovered_now_ns: 536660180,
            recovered_stats_fnv: 16441798370013263249,
            recovered_utilization_fnv: 330552579091871693,
            readback_fnv: 11270790555293752326,
        }
    );
}
