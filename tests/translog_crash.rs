//! Flash-resident translation-log crash tests (PR 6 tentpole).
//!
//! The deterministic crash-point sweep is the heart: replay one fixed
//! workload through the queued [`Device`] path and cut power after
//! *every* k-th dispatched device command — host writes, GC
//! migrations, checkpoint/delta page programs, and log-block reclaim
//! erases all count — then recover and check the recovered state
//! against an oracle computed straight from the surviving flash
//! pages. Because every log page program is its own dispatch, the
//! sweep necessarily lands cuts mid-checkpoint (some but not all of a
//! generation's pages programmed) and mid-log-GC (a reclaim erase the
//! power cut races with).
//!
//! Set `TRANSLOG_SWEEP_STEP=n` to stride the sweep (CI smoke runs use
//! a reduced point count); the default sweeps every cut point.

#![expect(
    clippy::expect_used,
    reason = "a test: a step that fails should fail it with its message"
)]

use leaftl_repro::core::LeaFtlConfig;
use leaftl_repro::flash::{BlockId, FlashGeometry, Lpa};
use leaftl_repro::sim::{
    CheckpointMode, Command, Device, DeviceConfig, ExactPageMap, LeaFtlScheme, MappingScheme,
    RecoveryReport, Ssd, SsdConfig, MAPLOG_QUEUE,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};

/// A tiny device so the O(cuts × workload) sweep stays fast: 16 blocks
/// of 8 small pages. The 512 B page keeps checkpoints multi-page (the
/// mapping table for ~100 live pages outweighs one page), so cuts land
/// *inside* checkpoint write-out.
fn sweep_config() -> SsdConfig {
    let mut config = SsdConfig::small_test();
    config.geometry = FlashGeometry {
        channels: 2,
        dies_per_channel: 1,
        blocks: 16,
        pages_per_block: 8,
        page_size: 512,
        oob_size: 16,
        endurance: 1_000,
    };
    config.write_buffer_pages = 8;
    config.stripe_pages = 8;
    config.checkpoint_mode = CheckpointMode::FlashLog;
    config
}

/// Fixed GC-heavy workload: repeated overwrites of a working set that
/// exceeds physical capacity several times over, forcing GC passes
/// (which trigger checkpoint generations) and enough checkpoint churn
/// to supersede and reclaim log blocks.
fn sweep_ops() -> Vec<(u64, u64)> {
    let mut ops = Vec::new();
    let mut content = 1u64;
    for round in 0..5u64 {
        for i in 0..64u64 {
            ops.push(((i * 7 + round * 3) % 64, content));
            content += 1;
        }
    }
    ops
}

/// Runs `ops` through a background-GC device, optionally cutting power
/// after `cut` dispatched commands. Returns the SSD (still holding its
/// flash state) and the run's total dispatch count.
fn run_to_cut(
    config: &SsdConfig,
    ops: &[(u64, u64)],
    cut: Option<u64>,
) -> (Ssd<ExactPageMap>, u64) {
    run_to_cut_with(config, ExactPageMap::new(), ops, cut)
}

/// [`run_to_cut`] over any mapping scheme.
fn run_to_cut_with<S: MappingScheme + Clone>(
    config: &SsdConfig,
    scheme: S,
    ops: &[(u64, u64)],
    cut: Option<u64>,
) -> (Ssd<S>, u64) {
    let mut ssd = Ssd::new(config.clone(), scheme);
    let total;
    {
        let mut device = Device::new(&mut ssd, DeviceConfig::single(4).background_gc());
        if let Some(k) = cut {
            device.halt_after_dispatches(k);
        }
        for &(lpa, content) in ops {
            device.submit_write(Lpa::new(lpa), content).expect("write");
        }
        if cut.is_none() {
            device.drain().expect("drain");
        }
        total = device.dispatches();
        if cut.is_some() {
            device.power_cut();
        }
    }
    (ssd, total)
}

/// Recovers `ssd` from a power cut, then checks the accounting identity
/// recovery used to break: every flash op [`SimStats`] counts was
/// attributed to a die, and vice versa.
///
/// [`SimStats`]: leaftl_repro::sim::SimStats
fn recover<S: MappingScheme + Clone>(ssd: &mut Ssd<S>) -> RecoveryReport {
    let report = ssd.crash_and_recover().expect("recover");
    ssd.check_utilization_conservation()
        .expect("utilization conserved after recovery");
    report
}

/// Independent recovery oracle, computed straight from the surviving
/// flash pages: for each LPA, the content of its highest-program-seq
/// OOB copy. Every mapping-installing event (flush, GC migration, wear
/// swap) programs a fresh copy with a fresh seq, so the newest
/// physical copy *is* the durable value — no FTL state consulted.
fn flash_ground_truth<S: MappingScheme + Clone>(ssd: &Ssd<S>) -> HashMap<u64, u64> {
    let mut newest: HashMap<u64, (u64, u64)> = HashMap::new();
    for raw in 0..ssd.config().geometry.blocks {
        let pages: Vec<_> = ssd.device().scan_block(BlockId::new(raw)).collect();
        for (ppa, lpa, seq) in pages {
            let Some(lpa) = lpa else { continue };
            let content = ssd.device().read(ppa).expect("scanned page").content;
            let slot = newest.entry(lpa.raw()).or_insert((seq, content));
            if seq >= slot.0 {
                *slot = (seq, content);
            }
        }
    }
    newest.into_iter().map(|(lpa, (_, c))| (lpa, c)).collect()
}

/// Recovered state must be digest-equal to the flash ground truth:
/// every durable LPA reads back its newest flushed value, every other
/// LPA reads back nothing.
fn assert_recovered_matches<S: MappingScheme + Clone>(
    ssd: &mut Ssd<S>,
    truth: &HashMap<u64, u64>,
    label: &str,
) {
    for (&lpa, &content) in truth {
        assert_eq!(
            ssd.read(Lpa::new(lpa)).expect("read"),
            Some(content),
            "{label}: lpa {lpa} lost or stale after recovery"
        );
    }
    for lpa in 0..ssd.config().logical_pages() {
        if !truth.contains_key(&lpa) {
            assert_eq!(
                ssd.read(Lpa::new(lpa)).expect("read"),
                None,
                "{label}: phantom data at never-flushed lpa {lpa}"
            );
        }
    }
}

/// The uncut reference run must actually exercise the machinery the
/// sweep claims to cut through: background log traffic, multi-page
/// checkpoint generations, and log-block reclaims.
#[test]
fn sweep_workload_exercises_checkpoints_and_log_gc() {
    let config = sweep_config();
    let ops = sweep_ops();
    let mut ssd = Ssd::new(config, ExactPageMap::new());
    let mut maplog_seqs: Vec<u64> = Vec::new();
    {
        let mut device = Device::new(&mut ssd, DeviceConfig::single(4).background_gc());
        for &(lpa, content) in &ops {
            device.submit_write(Lpa::new(lpa), content).expect("write");
        }
        let completions = device.drain().expect("drain");
        assert!(device.maplog_dispatched() > 0, "no log traffic dispatched");
        maplog_seqs.extend(
            completions
                .iter()
                .filter(|c| c.queue == MAPLOG_QUEUE)
                .filter_map(|c| match c.command {
                    Command::MapLog { seq } => Some(seq),
                    Command::Read { .. }
                    | Command::Write { .. }
                    | Command::Flush
                    | Command::GcMigrate { .. }
                    | Command::Compact { .. } => None,
                }),
        );
    }
    // Multi-page checkpoints: some seq must appear on several pages,
    // so a dispatch-count cut can land between them.
    let mut counts: HashMap<u64, usize> = HashMap::new();
    for seq in &maplog_seqs {
        *counts.entry(*seq).or_insert(0) += 1;
    }
    assert!(
        counts.values().any(|&n| n >= 2),
        "no multi-page checkpoint generation in the sweep workload"
    );
    assert!(
        counts.len() >= 3,
        "too few log entries ({}) for a meaningful sweep",
        counts.len()
    );
    // Log-block reclaims: superseded generations must have been folded
    // back into the allocator, so cuts race the log's own GC too.
    assert!(
        ssd.maplog_reclaimed_blocks() > 0,
        "retention never reclaimed a log block"
    );
}

/// The tentpole acceptance test: cut after every k-th device command,
/// recover, and require digest-equality with the flash ground truth.
#[test]
fn crash_point_sweep_recovers_at_every_cut() {
    let config = sweep_config();
    let ops = sweep_ops();
    let (_, total) = run_to_cut(&config, &ops, None);
    let step: u64 = std::env::var("TRANSLOG_SWEEP_STEP")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&s| s > 0)
        .unwrap_or(1);
    let mut swept = 0u64;
    for k in (0..=total).step_by(step as usize) {
        let (mut ssd, _) = run_to_cut(&config, &ops, Some(k));
        let truth = flash_ground_truth(&ssd);
        recover(&mut ssd);
        assert_recovered_matches(&mut ssd, &truth, &format!("cut {k}"));
        swept += 1;
    }
    assert!(swept > 10, "sweep covered only {swept} cut points");
}

/// Wear swaps under the log: every swap is journalled as a delta like
/// a migration, so a cut after one or more swaps — with the swap's
/// delta durable, torn or still queued — must recover the moved data.
/// A static third under a hammered rest, with a wear gap of one erase.
#[test]
fn crash_after_wear_swaps_recovers_at_every_cut() {
    let mut config = sweep_config();
    config.geometry.blocks = 24;
    config.wear_gap_threshold = 1;
    let mut ops: Vec<(u64, u64)> = (0..48).map(|lpa| (lpa, 1 + lpa)).collect();
    ops.extend((0..480u64).map(|i| (48 + (i * 5) % 24, 100 + i)));
    let (reference, total) = run_to_cut(&config, &ops, None);
    assert!(reference.stats().wear_swaps >= 2, "the workload must swap");
    let mut cuts_after_a_swap = 0u64;
    for k in 0..=total {
        let (mut ssd, _) = run_to_cut(&config, &ops, Some(k));
        if ssd.stats().wear_swaps == 0 {
            continue;
        }
        cuts_after_a_swap += 1;
        let truth = flash_ground_truth(&ssd);
        recover(&mut ssd);
        assert_recovered_matches(&mut ssd, &truth, &format!("wear cut {k}"));
    }
    assert!(cuts_after_a_swap > 10, "only {cuts_after_a_swap} cuts");
}

/// After recovery at a cut point the device must keep working: new
/// writes land, read back, and survive a *second* crash.
#[test]
fn recovery_at_cut_is_reusable() {
    let config = sweep_config();
    let ops = sweep_ops();
    let (_, total) = run_to_cut(&config, &ops, None);
    for k in [total / 4, total / 2, 3 * total / 4] {
        let (mut ssd, _) = run_to_cut(&config, &ops, Some(k));
        recover(&mut ssd);
        for i in 0..40u64 {
            ssd.write(Lpa::new(i), 900_000 + i).expect("write");
        }
        ssd.flush().expect("flush");
        recover(&mut ssd);
        for i in 0..40u64 {
            assert_eq!(
                ssd.read(Lpa::new(i)).expect("read"),
                Some(900_000 + i),
                "cut {k}: lpa {i} after second crash"
            );
        }
    }
}

/// The kept baseline across a torn generation: cut power while a
/// checkpoint generation is being written out, so recovery restores
/// the older one and the next persistence point has to build on
/// *that*; run that point, then cut again — at once, with the new
/// generation torn in turn, and after a flush made it durable — and
/// read back exactly. LeaFTL, whose baseline is brought up to date
/// from the groups changed since rather than copied.
#[test]
fn persistence_point_after_a_torn_generation_recovers_exactly() {
    // γ = 1 is what the sweep geometry's 16-byte OOB can verify.
    let mut config = sweep_config();
    config.gamma = 1;
    let scheme = || LeaFtlScheme::new(LeaFtlConfig::default().with_gamma(1));
    let ops = sweep_ops();
    let (_, total) = run_to_cut_with(&config, scheme(), &ops, None);
    let newest = |ssd: &Ssd<LeaFtlScheme>| {
        ssd.newest_checkpoint()
            .map(|(scheme, _)| scheme as *const LeaFtlScheme)
    };
    let mut torn_cuts = 0u64;
    for k in 0..=total {
        let (mut ssd, _) = run_to_cut_with(&config, scheme(), &ops, Some(k));
        let in_flight = newest(&ssd);
        let truth = flash_ground_truth(&ssd);
        recover(&mut ssd);
        if in_flight == newest(&ssd) {
            // The newest generation survived (or there was none).
            continue;
        }
        torn_cuts += 1;
        assert_recovered_matches(&mut ssd, &truth, &format!("torn cut {k}"));
        // New writes, then the persistence point that must start from
        // the generation recovery fell back to.
        for i in 0..24u64 {
            ssd.write(Lpa::new((i * 5 + k) % 64), 800_000 + i)
                .expect("write");
        }
        ssd.flush().expect("flush");
        ssd.take_snapshot();
        let mut cut_at_once = ssd.clone();
        let truth = flash_ground_truth(&cut_at_once);
        recover(&mut cut_at_once);
        assert_recovered_matches(
            &mut cut_at_once,
            &truth,
            &format!("torn cut {k}, torn again"),
        );
        for i in 0..16u64 {
            ssd.write(Lpa::new((i * 3 + k) % 64), 900_000 + i)
                .expect("write");
        }
        ssd.flush().expect("flush");
        let truth = flash_ground_truth(&ssd);
        recover(&mut ssd);
        assert_recovered_matches(&mut ssd, &truth, &format!("torn cut {k}, durable"));
    }
    assert!(torn_cuts > 10, "only {torn_cuts} cuts tore a generation");
}

/// Generations paced by the journal: a run long enough for several
/// generations with delta tails between them, cut after every
/// dispatched command — in the middle of a tail, in the middle of a
/// generation's write-out, right behind a log-block reclaim. Recovery
/// reads back the flash ground truth every time, and replays a bounded
/// tail: a generation is requested once the tail is as long as the
/// generation, so what recovery replays is at most that, what accrued
/// while the generation before was written out, and whatever was still
/// queued when the power went.
#[test]
fn journal_paced_generations_recover_at_every_cut_with_a_bounded_tail() {
    let config = sweep_config();
    let mut ops = Vec::new();
    for round in 0..8u64 {
        ops.extend((0..64u64).map(|i| ((i * 7 + round * 3) % 64, 1 + round * 64 + i)));
    }
    let generation_pages = |ssd: &Ssd<ExactPageMap>| {
        let geometry = ssd.config().geometry;
        (ssd.scheme().snapshot_bytes() + 4 * geometry.blocks as usize)
            .div_ceil(geometry.page_size as usize)
    };
    let (reference, total) = run_to_cut(&config, &ops, None);
    let traffic = reference.maplog_traffic();
    assert!(traffic.generations >= 3, "{traffic:?}");
    assert!(
        traffic.delta_pages >= traffic.generation_pages,
        "{traffic:?}"
    );
    assert!(reference.maplog_reclaimed_blocks() > 0);

    let newest = |ssd: &Ssd<ExactPageMap>| {
        ssd.newest_checkpoint()
            .map(|(scheme, _)| scheme as *const ExactPageMap)
    };
    let (mut mid_tail, mut mid_generation, mut after_reclaim) = (0u64, 0u64, 0u64);
    let mut longest_replay = 0;
    let mut reclaimed_before = 0;
    for k in 0..=total {
        let (mut ssd, _) = run_to_cut(&config, &ops, Some(k));
        let pending = ssd.maplog_pending();
        let bound = 2 * generation_pages(&ssd) + pending;
        let in_flight = newest(&ssd);
        let reclaimed = ssd.maplog_reclaimed_blocks();
        let truth = flash_ground_truth(&ssd);
        let report = recover(&mut ssd);
        assert_recovered_matches(&mut ssd, &truth, &format!("paced cut {k}"));
        // (Until the first GC pass nothing asks for a generation: the
        // fill's tail is as long as the fill.)
        assert!(
            report.replayed_log_entries <= bound || newest(&ssd).is_none(),
            "cut {k}: replayed {} deltas, bound {bound} ({pending} ops pending)",
            report.replayed_log_entries
        );
        longest_replay = longest_replay.max(report.replayed_log_entries);
        if in_flight != newest(&ssd) {
            mid_generation += 1;
        } else if report.replayed_log_entries > 0 {
            mid_tail += 1;
        }
        after_reclaim += u64::from(reclaimed > reclaimed_before);
        reclaimed_before = reclaimed;
    }
    assert!(mid_tail > 10, "only {mid_tail} cuts inside a tail");
    assert!(
        mid_generation >= 3,
        "only {mid_generation} torn generations"
    );
    assert!(after_reclaim >= 1, "no cut right behind a reclaim");
    assert!(longest_replay >= 2, "tails of {longest_replay} at most");
}

/// The blocking path drains the log synchronously at flush boundaries,
/// so a LeaFTL device in FlashLog mode recovers through the log too —
/// and the §3.1 memory bound (segment bytes ≤ 8 B per live page)
/// holds for the *recovered* table.
#[test]
fn leaftl_flashlog_crash_recovers_with_memory_bound() {
    let mut config = SsdConfig::small_test();
    config.checkpoint_mode = CheckpointMode::FlashLog;
    config.gamma = 4;
    let scheme = LeaFtlScheme::new(LeaFtlConfig::default().with_gamma(4));
    let mut ssd = Ssd::new(config, scheme);
    let logical = ssd.config().logical_pages();
    let mut content = 0u64;
    for _round in 0..12 {
        for lpa in 0..logical / 3 {
            content += 1;
            ssd.write(Lpa::new(lpa), content).expect("write");
        }
    }
    assert!(ssd.stats().gc_runs > 0, "workload must trigger GC");
    let truth = flash_ground_truth(&ssd);
    let report = recover(&mut ssd);
    assert!(report.scanned_log_blocks > 0, "recovery must read the log");
    assert_recovered_matches(&mut ssd, &truth, "leaftl flashlog");
    // §3.1 post-recovery: learned segments cost at most one 8-byte
    // entry per live page (the page-table ceiling).
    let live = truth.len() as u64;
    let segment_bytes = ssd.scheme().table().memory_bytes().segment_bytes as u64;
    assert!(
        segment_bytes <= live * 8,
        "§3.1 violated after recovery: {segment_bytes} B of segments for {live} live pages"
    );
}

/// Acceptance criterion: on an aged device the flash-log replay scans
/// strictly fewer data blocks than the checkpoint-less full crash
/// scan of the same pre-crash state.
#[test]
fn log_replay_scans_strictly_fewer_blocks_than_full_scan() {
    let build = |mode: CheckpointMode| {
        let mut config = SsdConfig::small_test();
        config.checkpoint_mode = mode;
        let mut ssd = Ssd::new(config, ExactPageMap::new());
        let logical = ssd.config().logical_pages();
        let mut content = 0u64;
        for _round in 0..10 {
            for lpa in 0..logical / 3 {
                content += 1;
                ssd.write(Lpa::new(lpa), content).expect("write");
            }
        }
        assert!(ssd.stats().gc_runs > 0, "device must be aged");
        ssd
    };
    let mut logged = build(CheckpointMode::FlashLog);
    let mut bare = build(CheckpointMode::Disabled);
    let logged_report = recover(&mut logged);
    let bare_report = recover(&mut bare);
    assert!(
        logged_report.scanned_data_blocks < bare_report.scanned_data_blocks,
        "log replay scanned {} data blocks, full scan {}",
        logged_report.scanned_data_blocks,
        bare_report.scanned_data_blocks
    );
    assert!(logged_report.replayed_log_entries > 0);
    assert_eq!(bare_report.scanned_log_blocks, 0);
}

/// Log blocks erased by retention must flow back to the allocator —
/// the log never strands capacity: run far more checkpoint churn than
/// the device could hold if superseded generations were kept.
#[test]
fn reclaimed_log_blocks_return_to_the_allocator() {
    let config = sweep_config();
    let mut ssd = Ssd::new(config, ExactPageMap::new());
    let mut content = 0u64;
    // ~12 passes over capacity: without reclaim the log alone would
    // need more blocks than the device has.
    for _round in 0..24u64 {
        for i in 0..64u64 {
            content += 1;
            ssd.write(Lpa::new(i % 64), content).expect("write");
        }
    }
    assert!(
        ssd.maplog_reclaimed_blocks() >= 3,
        "only {} log blocks reclaimed",
        ssd.maplog_reclaimed_blocks()
    );
    // Still a working device with correct contents.
    let truth = flash_ground_truth(&ssd);
    recover(&mut ssd);
    assert_recovered_matches(&mut ssd, &truth, "post-churn");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary workload prefixes × arbitrary cut fractions through
    /// the queued device path: recovery is always digest-equal to the
    /// flash ground truth.
    #[test]
    fn arbitrary_prefix_and_cut_recovers(
        seed in 0u64..1_000,
        ops_len in 32usize..220,
        cut_permille in 0u64..1_000,
    ) {
        let config = sweep_config();
        let mut rng = StdRng::seed_from_u64(seed);
        let ops: Vec<(u64, u64)> = (seed * 1_000_000 + 1..)
            .take(ops_len)
            .map(|content| (rng.gen_range(0..64u64), content))
            .collect();
        let (_, total) = run_to_cut(&config, &ops, None);
        let cut = total * cut_permille / 1_000;
        let (mut ssd, _) = run_to_cut(&config, &ops, Some(cut));
        let truth = flash_ground_truth(&ssd);
        recover(&mut ssd);
        let written: HashSet<u64> = ops.iter().map(|&(lpa, _)| lpa).collect();
        for (&lpa, &v) in &truth {
            prop_assert_eq!(
                ssd.read(Lpa::new(lpa)).expect("read"),
                Some(v),
                "cut {}: lpa {}",
                cut,
                lpa
            );
        }
        for &lpa in &written {
            if !truth.contains_key(&lpa) {
                prop_assert_eq!(ssd.read(Lpa::new(lpa)).expect("read"), None);
            }
        }
    }
}
