//! Golden test for GC victim selection and wear levelling.
//!
//! `Ssd::select_gc_victim` answers from an incrementally kept victim
//! index and `wear_level_once` leaves through an erase-count histogram
//! instead of walking every block per pass. The constants below were
//! recorded on the commit *before* either existed — when every
//! selection scanned all blocks and asked the allocator to walk its
//! open slots for each — so they pin the index to the scan: the same
//! victim at every pass (same tie-breaks), the same pages migrated,
//! the same wear swaps, the same erase count on every block at the end.
//!
//! What a history hashes is what the public API shows of a GC pass.
//! Blocking path: after every write that erased something, the running
//! pass count, each erased block with its erase-count step (block
//! order) and the pages the call migrated — a call collects from the
//! low watermark to the high one, about five passes, so that is (pass
//! #, the call's victims, their live pages). Background GC: every `GcMigrate` completion in
//! dispatch order with its dispatch time, and the pages migrated per
//! submission. Both end with every block's erase count.
//!
//! The histories come from a generator local to this file, so the
//! constants depend on `leaftl_sim` alone.
//!
//! Three `*_SNAPSHOT` constants were recorded again when a
//! `DramSnapshot` persistence point began to program what changed
//! instead of the whole table: each GC pass occupies the dies for less
//! time, and these three histories hash time. `BACKGROUND_GREEDY`: the
//! dispatch times, and with them 43 adjacent pairs of passes finishing
//! in the other order — the same 1 666 victims, pages moved per
//! submission and final erase counts. Both `COSTBENEFIT` ones: the age
//! term reads the clock, so later picks differ (1 587 → 1 600 passes
//! on the blocking path, 1 625 → 1 613 behind the device).
//! `SYNC_GREEDY_SNAPSHOT` and the `DramSnapshot` wear-swap history hash
//! no time and are the first recording.
//!
//! All five `FlashLog` constants — the four `*_FLASHLOG` ones and the
//! wear-swap history under the log — were recorded again when a GC pass
//! stopped requesting a checkpoint generation every time and began to
//! request one when the delta tail has grown to a generation's length:
//! the log programs far fewer pages, so it opens and recycles fewer
//! blocks, the free pool hands the data streams other blocks, and the
//! picks that follow differ. Passes 1 730 → 1 715 (sync greedy), 1 675
//! → 1 688 (sync cost-benefit), 1 727 → 1 737 and 1 681 → 1 702 behind
//! the device, 1 414 → 1 434 with 1 537 → 1 336 swaps in the wear
//! history; ties, log-owned skips and queue depths are covered as
//! before, and every read-back is exact. (The cost-benefit pair sits
//! behind the greedy pair's `assert_eq!` in the same test, so a run
//! that stops at the first mismatch names three of the five.)
//!
//! The six constants that read the clock — both `SYNC_COSTBENEFIT`
//! ones (the age term) and all four `BACKGROUND_*` ones (dispatch
//! follows time) — were recorded again when a flush began to resolve
//! its approximate overwrites in one pass: one read per OOB window, no
//! second read for an address the window names, and one wait for the
//! host, so a flush holds the clock for less. Pass counts and coverage
//! did not move (1 600 and 1 688 on the blocking path; 1 667, 1 737,
//! 1 613 and 1 702 behind the device). `SYNC_GREEDY_*` and both
//! wear-swap histories hash no time and kept their constants.
//!
//! All ten constants were recorded again when the watermarks stopped
//! being configurable and this file stopped setting them one block
//! apart (0.10 / 0.102): every history now runs at the simulator's one
//! rule, then 8 % / 12 % of all blocks free, so a sync call collected
//! about ten passes, and the in-order overwrite after the fill grew from 8
//! to [`TIED_BLOCKS`] = 32 blocks, so calls that migrate nothing (the
//! ties) still occur — with 8 no greedy history had one. The constants
//! equal what the previous simulator records with the same history and
//! those watermarks. Passes: 1 621 and 1 820 (sync greedy), 1 589 and
//! 1 727 (sync cost-benefit), 1 650, 1 784, 1 644 and 1 767 behind the
//! device, 1 361 and 1 497 in the wear histories (1 277 and 1 373
//! swaps).
//!
//! All ten constants were recorded again when the watermarks began to
//! keep only the free reserve one buffer flush needs: on this device
//! 3 % / 5 % of all blocks instead of 8 % / 12 %, so a sync call
//! collects about five passes, later, from victims that have had more
//! time to go stale. Every history moves: fewer passes, other victims,
//! other erase counts. Passes, snapshot then log: 1 174 and 1 214 (sync
//! greedy), 1 175 and 1 218 (sync cost-benefit), 1 183, 1 210, 1 180
//! and 1 242 behind the device, 1 022 and 1 057 in the wear histories
//! (1 251 and 1 263 swaps). Coverage holds unedited: five zero-valid
//! ties per sync history, 66 and 67 log-owned skips, 17–24 queued
//! migrations at most behind the device.
//!
//! Seven constants were recorded again when a host or GC block began to
//! close with the allocation that takes its last page (it used to wait
//! in its slot until the stream next needed room on that way). This
//! device's flushes are one block-sized chunk each, so every page lands
//! where it did; what moved is when a full block becomes a candidate,
//! up to eight flushes earlier. Both greedy pairs, both wear-swap
//! histories and `BACKGROUND_COSTBENEFIT_FLASHLOG` pick such blocks;
//! the other three cost-benefit histories never did, and kept their
//! constants. Coverage holds unedited.
//!
//! Both `SYNC_COSTBENEFIT` constants were recorded again when a
//! synchronous collection stopped waiting for each pass before the
//! next: every pass is put on the dies from the collection's dispatch
//! point and the host waits once, for the latest erase. The age term
//! reads the clock, so every victim of one call is now scored at that
//! call's dispatch time (and its pages stamped with it), and later
//! picks differ: passes 1 175 → 1 186 under the snapshot, 1 218 →
//! 1 222 under the log. The greedy, background and wear-swap constants
//! did not move — the evidence that only time changed for them.
//! Coverage holds unedited.
//!
//! All four `BACKGROUND_*` constants were recorded again when
//! background GC stopped selecting a batch of victims at the low line
//! and holding them until each dispatched: each migration now takes the
//! block the synchronous collector would pick when it dispatches, and
//! collection runs until the free fraction is back at the high line.
//! Passes behind the device, snapshot then log: greedy 1 190 → 1 184
//! and 1 236 → 1 225, cost-benefit 1 180 → 1 190 and 1 240 → 1 221
//! (the synchronous histories make 1 184, 1 219, 1 186 and 1 222). The
//! check that a background history had queued two victims at once went
//! with the queue. Every `SYNC_*` and wear-swap constant is the
//! previous recording's.
//!
//! Six constants were recorded again when a collection began to go on
//! the dies phase by phase — every pass's reads, then every program,
//! then every erase — and background GC began to run one collection to
//! the high line per dispatch, retiring one `GcMigrate` per pass. Both
//! `SYNC_COSTBENEFIT` ones: the age term reads the clock, which a
//! collection now moves less, so later picks differ (passes 1 186 →
//! 1 205 under the snapshot, 1 222 → 1 230 under the log). All four
//! `BACKGROUND_*` ones: a collection's passes now share one dispatch
//! time and finish in another order; the greedy pair keeps its pass
//! counts (1 184 and 1 225), cost-benefit moves 1 190 → 1 187 and
//! 1 221 → 1 228. Both `SYNC_GREEDY_*` constants and both wear-swap
//! histories hash no time and did not move: a wear swap is a
//! collection of one, placed in the order it always was. Coverage
//! holds unedited.
//!
//! The same six were recorded again when a flush stopped reserving its
//! programs on the dies up front: they wait in a per-die queue that
//! host reads go ahead of, and the next flush waits for them to drain.
//! Only time moved, and these six read it. Both `SYNC_COSTBENEFIT` ones
//! (the age term): passes 1 205 → 1 192 under the snapshot, 1 230 →
//! 1 227 under the log. All four `BACKGROUND_*` ones (dispatch follows
//! time): the greedy pair keeps its pass counts (1 184 and 1 225),
//! cost-benefit moves 1 187 → 1 178 and 1 228 → 1 240. Both
//! `SYNC_GREEDY_*` constants (1 184 and 1 219 passes) and both
//! wear-swap histories hash no time and did not move. Coverage holds
//! unedited.
//!
//! The same six were recorded again when the write buffer and the
//! flushed pages began to share `2 × write_buffer_pages` DRAM slots: a
//! flush no longer waits for the previous one's programs to drain, and
//! a write that finds every slot held waits for one program to end, so
//! a flush holds the clock for less. Only time moved, and these six
//! read it. Both `SYNC_COSTBENEFIT` ones (the age term): passes 1 192 →
//! 1 186 under the snapshot, 1 227 → 1 223 under the log. All four
//! `BACKGROUND_*` ones (dispatch follows time): the greedy pair keeps
//! its pass counts (1 184 and 1 225), cost-benefit moves 1 178 → 1 186
//! and 1 240 → 1 239. Both `SYNC_GREEDY_*` constants and both
//! wear-swap histories hash no time and did not move. Coverage holds
//! unedited.
//!
//! The same six were recorded again when an approximate segment began to
//! store the (K, I) that predicts the most of its members exactly, and a
//! data-cache hit on a page still being read from flash began to wait for
//! that read: fewer misprediction reads and later hits move time, and
//! these six read it. Both `SYNC_GREEDY_*` constants and both wear-swap
//! histories hash no time and did not move. Coverage holds unedited.
//!
//! The same six were recorded again when a flush stopped waiting for its
//! resolution reads, and an overwrite whose old copy is a flushed page
//! still in DRAM began to take that copy's address from the write pool
//! instead of reading flash: every flush holds the clock for less, and
//! the same pages are invalidated. Only time moved, and these six read
//! it. Both `SYNC_GREEDY_*` constants and both wear-swap histories hash
//! no time and did not move. Coverage holds unedited.
//!
//! The four `BACKGROUND_*` constants were recorded again when a flush
//! stopped copying its pages into the read cache: read times, and the
//! background dispatches that follow them, move (alone, the change that
//! no read reaches a page whose program is queued moves none). The other
//! six constants did not move. Coverage holds unedited.
//!
//! The six greedy constants — both `SYNC_GREEDY_*`, both
//! `BACKGROUND_GREEDY_*` and both wear-swap histories — were recorded
//! again when greedy began to balance a collection's victims across
//! dies: from a collection's second pass on, a candidate within Δ =
//! ⌈(v·t_read + t_erase) / t_program⌉ valid pages of the fewest, v, is
//! taken from the die that has given the collection the fewest victims
//! (a collection's first pass is plain greedy's). Other victims move
//! other pages, and every greedy history moves: passes 1 184 → 1 173
//! (sync, snapshot), 1 219 → 1 212 (sync, log), 1 184 → 1 173 and
//! 1 225 → 1 216 behind the device, 1 030 → 1 023 and 1 059 → 1 057 in
//! the wear histories (1 359 → 1 388 and 1 651 → 1 323 swaps). The four
//! cost-benefit constants did not move: the balance is greedy's alone.
//! Coverage holds unedited.
//!
//! Five constants were recorded again when a synchronous collection
//! began to go ahead of the flush programs queued on its dies (never
//! suspending one), and a `DramSnapshot` point's pages began to
//! continue over the dies from where the previous point's ended instead
//! of starting on die 0: collections end at other times. The four
//! cost-benefit constants move because cost-benefit ages a block by the
//! clock, so later picks change; `BACKGROUND_GREEDY_SNAPSHOT` because
//! the points of its background collections move, and with them the
//! dispatch times the background hash reads. Both `SYNC_GREEDY_*`
//! constants and both wear-swap histories hash no time and did not
//! move; neither did `BACKGROUND_GREEDY_FLASHLOG`, whose points put
//! nothing on a die and whose dispatch times stayed. Coverage holds
//! unedited.

#![expect(
    clippy::unwrap_used,
    reason = "a test: a step that fails should fail it with its message"
)]

mod support;

use support::{fnv1a, Rng, FNV_OFFSET};

use leaftl_repro::core::LeaFtlConfig;
use leaftl_repro::flash::{BlockId, Lpa};
use leaftl_repro::sim::{
    CheckpointMode, Command, Device, DeviceConfig, GcPolicy, IoRequest, LeaFtlScheme, Ssd,
    SsdConfig,
};

const BLOCKS: u64 = 256;
const GAMMA: u32 = 4;
/// Writes after the fill; the power cut falls in the middle.
const CHURN: usize = 20_000;
/// Blocks overwritten in order right after the fill: enough fully
/// stale blocks at once that GC calls lift the free fraction from the
/// low watermark (3 % of all blocks) past the high one (5 %) without
/// migrating a page, each pick a tie on valid count.
const TIED_BLOCKS: u64 = 32;

/// 256 blocks of 32 pages, eight allocation ways and a one-block write
/// buffer; GC starts below 7.68 free blocks and stops at 12.8 (the
/// simulator's watermarks, 3 % and 5 % of all blocks: a flush fills
/// one block, so the reserve is its 2 % minimum).
fn config(policy: GcPolicy, checkpoint: CheckpointMode, wear_gap: u32) -> SsdConfig {
    let mut config = SsdConfig::small_test();
    config.geometry.blocks = BLOCKS;
    config.gamma = GAMMA;
    config.gc_policy = policy;
    config.checkpoint_mode = checkpoint;
    config.wear_gap_threshold = wear_gap;
    config
}

fn new_ssd(config: SsdConfig) -> Ssd<LeaFtlScheme> {
    Ssd::new(
        config,
        LeaFtlScheme::new(LeaFtlConfig::default().with_gamma(GAMMA)),
    )
}

/// The write stream: the logical space filled once, [`TIED_BLOCKS`]
/// blocks' worth overwritten in order (fully stale blocks at once —
/// the ties), then skewed churn — four writes in five into the hot fifth, single
/// pages and short extents. `cold_below` keeps the churn out of the
/// bottom of the space (the wear history's static data).
fn history(logical: u64, seed: u64, cold_below: u64) -> Vec<u64> {
    let mut rng = Rng(seed);
    let mut lpas: Vec<u64> = (0..logical).collect();
    lpas.extend(cold_below..cold_below + TIED_BLOCKS * 32);
    let span = logical - cold_below;
    let hot = span / 5;
    while lpas.len() < logical as usize + TIED_BLOCKS as usize * 32 + CHURN {
        let base = if rng.next() % 5 < 4 {
            rng.next() % hot
        } else {
            hot + rng.next() % (span - hot)
        };
        let len = match rng.next() % 8 {
            0 => 2 + rng.next() % 40,
            _ => 1,
        };
        lpas.extend((0..len).map(|i| cold_below + (base + i) % span));
    }
    lpas
}

/// What the hash needs of the counters between two observations.
#[derive(Clone, Copy, Default)]
struct Seen {
    erases: u64,
    gc_runs: u64,
    gc_reads: u64,
    gc_programs: u64,
    wear_swaps: u64,
}

fn seen(ssd: &Ssd<LeaFtlScheme>) -> Seen {
    let stats = ssd.stats();
    Seen {
        erases: stats.flash.erases,
        gc_runs: stats.gc_runs,
        gc_reads: stats.flash.gc_reads,
        gc_programs: stats.flash.gc_programs,
        wear_swaps: stats.wear_swaps,
    }
}

fn erase_counts(ssd: &Ssd<LeaFtlScheme>) -> Vec<u32> {
    ssd.device().erase_counts().map(|(_, c)| c).collect()
}

/// Programmed blocks holding translation-log pages (log pages carry no
/// reverse mapping, and a log block holds nothing else).
fn log_blocks(ssd: &Ssd<LeaFtlScheme>) -> usize {
    (0..BLOCKS)
        .filter(|&raw| {
            let first = ssd.device().scan_block(BlockId::new(raw)).next();
            matches!(first, Some((_, None, _)))
        })
        .count()
}

fn erased(ssd: &Ssd<LeaFtlScheme>, raw: u64) -> bool {
    ssd.device().block(BlockId::new(raw)).is_erased()
}

/// What a history must have exercised for its constant to pin it.
#[derive(Debug, Default)]
struct Coverage {
    gc_runs: u64,
    wear_swaps: u64,
    /// Calls that ran two or more passes and migrated nothing: every
    /// victim was fully stale and closed when the first was picked, so
    /// the first pick was a tie on valid count resolved by block id.
    zero_valid_ties: u64,
    /// Calls that migrated live pages and began with two or more log
    /// blocks programmed: all but the log's one open block are closed
    /// with zero valid data pages, fewer than the victim's, and were
    /// passed over only because the log owns them. (A flush collects
    /// before it drains the log, which is where log blocks are erased;
    /// a pass inside the drain needs an empty free pool, and the calls
    /// counted end with eight or more erased blocks.)
    log_owned_skips: u64,
}

/// Finishes a history's hash: every block's erase count and the
/// lifetime GC counters.
fn finish(hash: &mut u64, ssd: &Ssd<LeaFtlScheme>, coverage: &mut Coverage) {
    for count in erase_counts(ssd) {
        fnv1a(hash, count as u64);
    }
    let stats = ssd.stats();
    for value in [
        stats.gc_runs,
        stats.flash.erases,
        stats.flash.gc_reads,
        stats.flash.gc_programs,
        stats.wear_swaps,
        stats.flash.wear_programs,
    ] {
        fnv1a(hash, value);
    }
    coverage.gc_runs = stats.gc_runs;
    coverage.wear_swaps = stats.wear_swaps;
}

fn verify(ssd: &mut Ssd<LeaFtlScheme>, newest: &[u64]) {
    for (lpa, &stamp) in newest.iter().enumerate() {
        let expected = (stamp != 0).then_some(stamp);
        assert_eq!(
            ssd.read(Lpa::new(lpa as u64)).unwrap(),
            expected,
            "lpa {lpa}"
        );
    }
}

/// The blocking path: `Ssd::write`, GC inside the flush.
fn run_sync(config: SsdConfig, seed: u64, cold_below: u64) -> (u64, Coverage) {
    let flash_log = config.checkpoint_mode == CheckpointMode::FlashLog;
    let mut ssd = new_ssd(config);
    let logical = ssd.config().logical_pages();
    let lpas = history(logical, seed, cold_below);
    let cut = logical as usize + TIED_BLOCKS as usize * 32 + CHURN / 2;
    let mut newest = vec![0u64; logical as usize];
    let mut hash = FNV_OFFSET;
    let mut coverage = Coverage::default();
    let mut before = seen(&ssd);
    let mut counts = erase_counts(&ssd);
    for (index, &lpa) in lpas.iter().enumerate() {
        if index == cut {
            ssd.flush().unwrap();
            let report = ssd.crash_and_recover().unwrap();
            fnv1a(&mut hash, report.scanned_blocks() as u64);
            fnv1a(&mut hash, report.recovered_pages);
            before = seen(&ssd);
            counts = erase_counts(&ssd);
        }
        let logs_before = if flash_log { log_blocks(&ssd) } else { 0 };
        let stamp = index as u64 + 1;
        newest[lpa as usize] = stamp;
        ssd.write(Lpa::new(lpa), stamp).unwrap();
        let after = seen(&ssd);
        if after.erases == before.erases {
            continue;
        }
        fnv1a(&mut hash, after.gc_runs);
        let now = erase_counts(&ssd);
        for (block, (&old, &new)) in counts.iter().zip(&now).enumerate() {
            if old != new {
                fnv1a(&mut hash, block as u64);
                fnv1a(&mut hash, (new - old) as u64);
            }
        }
        fnv1a(&mut hash, after.gc_programs - before.gc_programs);
        fnv1a(&mut hash, after.wear_swaps);
        let passes = after.gc_runs - before.gc_runs;
        let swapped = after.wear_swaps != before.wear_swaps;
        if passes >= 2 && after.gc_reads == before.gc_reads && !swapped {
            coverage.zero_valid_ties += 1;
        }
        if passes >= 1
            && after.gc_reads > before.gc_reads
            && !swapped
            && logs_before >= 2
            && (0..BLOCKS).filter(|&raw| erased(&ssd, raw)).count() >= 8
        {
            coverage.log_owned_skips += 1;
        }
        before = after;
        counts = now;
    }
    ssd.flush().unwrap();
    finish(&mut hash, &ssd, &mut coverage);
    verify(&mut ssd, &newest);
    (hash, coverage)
}

/// Background GC behind a queue-depth-8 device: every fourth command a
/// read, migrations arbitrated round-robin against the host queue.
fn run_background(config: SsdConfig, seed: u64) -> (u64, Coverage) {
    let mut ssd = new_ssd(config);
    let logical = ssd.config().logical_pages();
    let lpas = history(logical, seed, 0);
    let cut = logical as usize + TIED_BLOCKS as usize * 32 + CHURN / 2;
    let mut newest = vec![0u64; logical as usize];
    let mut hash = FNV_OFFSET;
    let mut coverage = Coverage::default();
    let mut pass = 0u64;
    let mut migrated = 0u64;
    for (from, to) in [(0, cut), (cut, lpas.len())] {
        {
            let mut device = Device::new(&mut ssd, DeviceConfig::single(8).background_gc());
            let mut observe = |device: &mut Device<'_, LeaFtlScheme>, hash: &mut u64| {
                let mut any = false;
                for completion in device.take_completions() {
                    if let Command::GcMigrate { victim } = completion.command {
                        pass += 1;
                        any = true;
                        fnv1a(hash, pass);
                        fnv1a(hash, victim.raw());
                        fnv1a(hash, completion.dispatch_ns);
                    }
                }
                if any {
                    let programs = device.ssd().stats().flash.gc_programs;
                    fnv1a(hash, programs - migrated);
                    migrated = programs;
                }
            };
            for (index, &lpa) in lpas.iter().enumerate().take(to).skip(from) {
                let stamp = index as u64 + 1;
                newest[lpa as usize] = stamp;
                device
                    .submit_to(0, IoRequest::write(Lpa::new(lpa), stamp))
                    .unwrap();
                if index % 3 == 0 {
                    device
                        .submit_to(0, IoRequest::read(Lpa::new(lpas[index / 2])))
                        .unwrap();
                }
                observe(&mut device, &mut hash);
            }
            device.drain().unwrap();
            observe(&mut device, &mut hash);
        }
        ssd.flush().unwrap();
        if to == cut {
            let report = ssd.crash_and_recover().unwrap();
            fnv1a(&mut hash, report.scanned_blocks() as u64);
            fnv1a(&mut hash, report.recovered_pages);
        }
    }
    finish(&mut hash, &ssd, &mut coverage);
    verify(&mut ssd, &newest);
    (hash, coverage)
}

const SYNC_GREEDY_SNAPSHOT: u64 = 0x4762_e5b5_d1bd_22c8;
const SYNC_GREEDY_FLASHLOG: u64 = 0x5e92_77c3_a7da_bbb4;
const SYNC_COSTBENEFIT_SNAPSHOT: u64 = 0x5a2c_dacf_147a_af31;
const SYNC_COSTBENEFIT_FLASHLOG: u64 = 0xfa21_348d_5f00_801e;
const BACKGROUND_GREEDY_SNAPSHOT: u64 = 0x5b26_6676_9a40_1d7e;
const BACKGROUND_GREEDY_FLASHLOG: u64 = 0x2bb1_b800_7755_a338;
const BACKGROUND_COSTBENEFIT_SNAPSHOT: u64 = 0xc7fb_ebde_a68e_f84f;
const BACKGROUND_COSTBENEFIT_FLASHLOG: u64 = 0x8875_01c9_f1aa_ec99;
const SYNC_GREEDY_WEAR_SWAPS: u64 = 0x2e57_8dbf_797e_9b83;
/// Recorded one PR later than the rest, on the commit before wear swaps
/// and GC migrations became one relocation kernel.
const SYNC_GREEDY_WEAR_SWAPS_FLASHLOG: u64 = 0x1ed5_f67f_58be_e3f8;

#[test]
fn sync_gc_picks_the_recorded_victims() {
    use CheckpointMode::{DramSnapshot, FlashLog};
    use GcPolicy::{CostBenefit, Greedy};
    for (name, policy, mode, expected) in [
        (
            "SYNC_GREEDY_SNAPSHOT",
            Greedy,
            DramSnapshot,
            SYNC_GREEDY_SNAPSHOT,
        ),
        (
            "SYNC_GREEDY_FLASHLOG",
            Greedy,
            FlashLog,
            SYNC_GREEDY_FLASHLOG,
        ),
        (
            "SYNC_COSTBENEFIT_SNAPSHOT",
            CostBenefit,
            DramSnapshot,
            SYNC_COSTBENEFIT_SNAPSHOT,
        ),
        (
            "SYNC_COSTBENEFIT_FLASHLOG",
            CostBenefit,
            FlashLog,
            SYNC_COSTBENEFIT_FLASHLOG,
        ),
    ] {
        let (hash, coverage) = run_sync(config(policy, mode, 16), 0x6c65_6166, 0);
        assert!(coverage.gc_runs > 500, "{name}: {coverage:?}");
        if policy == Greedy {
            assert!(coverage.zero_valid_ties >= 1, "{name}: {coverage:?}");
        }
        if policy == Greedy && mode == FlashLog {
            assert!(coverage.log_owned_skips >= 1, "{name}: {coverage:?}");
        }
        assert_eq!(hash, expected, "{name}: {hash:#018x}");
    }
}

#[test]
fn background_gc_picks_the_recorded_victims() {
    use CheckpointMode::{DramSnapshot, FlashLog};
    use GcPolicy::{CostBenefit, Greedy};
    for (name, policy, mode, expected) in [
        (
            "BACKGROUND_GREEDY_SNAPSHOT",
            Greedy,
            DramSnapshot,
            BACKGROUND_GREEDY_SNAPSHOT,
        ),
        (
            "BACKGROUND_GREEDY_FLASHLOG",
            Greedy,
            FlashLog,
            BACKGROUND_GREEDY_FLASHLOG,
        ),
        (
            "BACKGROUND_COSTBENEFIT_SNAPSHOT",
            CostBenefit,
            DramSnapshot,
            BACKGROUND_COSTBENEFIT_SNAPSHOT,
        ),
        (
            "BACKGROUND_COSTBENEFIT_FLASHLOG",
            CostBenefit,
            FlashLog,
            BACKGROUND_COSTBENEFIT_FLASHLOG,
        ),
    ] {
        let (hash, coverage) = run_background(config(policy, mode, 16), 0x6c65_6166);
        assert!(coverage.gc_runs > 500, "{name}: {coverage:?}");
        assert_eq!(hash, expected, "{name}: {hash:#018x}");
    }
}

/// A static bottom third under a hammered remainder, with a wear gap of
/// three erases: the history that performs real wear swaps — under the
/// translation log too, where every swap is journalled as a delta and
/// the mid-run power cut replays them.
#[test]
fn wear_swaps_move_the_recorded_blocks() {
    for (mode, expected) in [
        (CheckpointMode::DramSnapshot, SYNC_GREEDY_WEAR_SWAPS),
        (CheckpointMode::FlashLog, SYNC_GREEDY_WEAR_SWAPS_FLASHLOG),
    ] {
        let config = config(GcPolicy::Greedy, mode, 3);
        let cold_below = config.logical_pages() / 3;
        let (hash, coverage) = run_sync(config, 0x7765_6172, cold_below);
        assert!(coverage.wear_swaps >= 1, "{mode:?}: {coverage:?}");
        assert!(coverage.gc_runs > 500, "{mode:?}: {coverage:?}");
        assert_eq!(hash, expected, "{mode:?}: {hash:#018x}");
    }
}
