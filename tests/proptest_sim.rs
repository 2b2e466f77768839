//! Property-based tests at the whole-SSD level: arbitrary operation
//! sequences against a shadow map, for every scheme and error bound,
//! including a crash at an arbitrary point.

#![expect(
    clippy::expect_used,
    reason = "a test: a step that fails should fail it with its message"
)]

use leaftl_repro::baselines::{Dftl, Sftl};
use leaftl_repro::core::{LeaFtlConfig, ShardedMapping};
use leaftl_repro::flash::{BlockId, Lpa, Ppa};
use leaftl_repro::sim::validity::Validity;
use leaftl_repro::sim::{
    CheckpointMode, Device, DeviceConfig, ExactPageMap, GcPolicy, LeaFtlScheme, MapCost,
    MappingLookup, MappingScheme, Ssd, SsdConfig,
};
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::HashMap;

/// An abstract host action over a small logical space.
#[derive(Debug, Clone, Copy)]
enum Action {
    Write { lpa: u64, len: u64 },
    StridedWrite { lpa: u64, stride: u64, count: u64 },
    Read { lpa: u64 },
    Flush,
}

fn action() -> impl Strategy<Value = Action> {
    prop_oneof![
        4 => (0u64..1200, 1u64..12).prop_map(|(lpa, len)| Action::Write { lpa, len }),
        2 => (0u64..1000, 2u64..6, 2u64..16)
            .prop_map(|(lpa, stride, count)| Action::StridedWrite { lpa, stride, count }),
        3 => (0u64..1400).prop_map(|lpa| Action::Read { lpa }),
        1 => Just(Action::Flush),
    ]
}

/// The addresses an action writes, in order (none for reads/flushes).
fn written(action: Action, logical: u64) -> Vec<u64> {
    match action {
        Action::Write { lpa, len } => (0..len).map(|j| (lpa + j) % logical).collect(),
        Action::StridedWrite { lpa, stride, count } => {
            (0..count).map(|j| (lpa + j * stride) % logical).collect()
        }
        Action::Read { .. } | Action::Flush => Vec::new(),
    }
}

fn apply<S: MappingScheme + Clone>(
    ssd: &mut Ssd<S>,
    shadow: &mut HashMap<u64, u64>,
    content: &mut u64,
    actions: &[Action],
) -> Result<(), TestCaseError> {
    let logical = ssd.config().logical_pages();
    for &action in actions {
        for addr in written(action, logical) {
            *content += 1;
            ssd.write(Lpa::new(addr), *content).expect("write");
            shadow.insert(addr, *content);
        }
        match action {
            Action::Read { lpa } => {
                let addr = lpa % logical;
                let got = ssd.read(Lpa::new(addr)).expect("read");
                prop_assert_eq!(got, shadow.get(&addr).copied(), "lpa {}", addr);
            }
            Action::Flush => ssd.flush().expect("flush"),
            Action::Write { .. } | Action::StridedWrite { .. } => {}
        }
    }
    Ok(())
}

fn full_sweep<S: MappingScheme + Clone>(
    ssd: &mut Ssd<S>,
    shadow: &HashMap<u64, u64>,
) -> Result<(), TestCaseError> {
    for (&lpa, &expected) in shadow {
        let got = ssd.read(Lpa::new(lpa)).expect("read");
        prop_assert_eq!(got, Some(expected), "sweep lpa {}", lpa);
    }
    Ok(())
}

/// Asserts [`Ssd::check_gc_index`] and the flash-op ledger's
/// conservation whenever a flush has happened since the last look
/// (`programs` is the data-program count seen then).
fn check_after_flush(ssd: &Ssd<ExactPageMap>, programs: &mut u64) -> Result<(), TestCaseError> {
    let now = ssd.stats().flash.data_programs;
    if now != *programs {
        *programs = now;
        let violations = ssd.check_gc_index();
        prop_assert!(violations.is_empty(), "{:#?}", violations);
        prop_assert_eq!(ssd.check_utilization_conservation(), Ok(()));
    }
    Ok(())
}

/// Applies `actions` through the blocking path, checking after every
/// flush.
fn apply_checked(
    ssd: &mut Ssd<ExactPageMap>,
    actions: &[Action],
    programs: &mut u64,
) -> Result<(), TestCaseError> {
    let logical = ssd.config().logical_pages();
    for &action in actions {
        match action {
            Action::Read { lpa } => {
                ssd.read(Lpa::new(lpa % logical)).expect("read");
            }
            Action::Flush => ssd.flush().expect("flush"),
            Action::Write { .. } | Action::StridedWrite { .. } => {}
        }
        for addr in written(action, logical) {
            ssd.write(Lpa::new(addr), addr).expect("write");
            check_after_flush(ssd, programs)?;
        }
        check_after_flush(ssd, programs)?;
    }
    Ok(())
}

/// One step of a persistence history: host traffic (whose overwrites
/// bring GC passes — each ending in a persistence point — and, for the
/// learned schemes, compaction sweeps), an explicit persistence point
/// that is then checked, or a power cut.
#[derive(Debug, Clone, Copy)]
enum Step {
    Host(Action),
    Persist,
    Crash,
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        8 => action().prop_map(Step::Host),
        2 => Just(Step::Persist),
        1 => Just(Step::Crash),
    ]
}

/// What a scheme shows of its demand-paging state beyond what lookups
/// cost: resident bytes and the resident ids in recency order.
trait Residency {
    fn residency(&self) -> (usize, Vec<u64>);
}

impl Residency for LeaFtlScheme {
    fn residency(&self) -> (usize, Vec<u64>) {
        (self.resident_bytes(), self.resident_groups().collect())
    }
}

impl Residency for ShardedMapping<LeaFtlScheme> {
    fn residency(&self) -> (usize, Vec<u64>) {
        let mut all = (0, Vec::new());
        for shard in self.shards() {
            let (bytes, groups) = shard.residency();
            all.0 += bytes;
            all.1.extend(groups);
        }
        all
    }
}

// The baselines expose no residency list; their CMT / page cache shows
// in `memory_bytes` and in what every lookup costs.
impl Residency for Dftl {
    fn residency(&self) -> (usize, Vec<u64>) {
        (self.memory_bytes(), Vec::new())
    }
}

impl Residency for Sftl {
    fn residency(&self) -> (usize, Vec<u64>) {
        (self.memory_bytes(), Vec::new())
    }
}

/// Everything a scheme answers, in one comparable value: its sizes, its
/// residency, and every LPA's translation with what the lookup cost
/// (on a copy — lookups move the residency state, so equal answers in
/// sequence mean equal state).
#[derive(Debug, PartialEq)]
struct SchemeAnswers {
    sizes: (usize, usize, (usize, usize)),
    residency: (usize, Vec<u64>),
    lookups: Vec<(Option<MappingLookup>, MapCost)>,
}

fn scheme_answers<S: MappingScheme + Clone + Residency>(scheme: &S, logical: u64) -> SchemeAnswers {
    let mut probe = scheme.clone();
    SchemeAnswers {
        sizes: (
            scheme.memory_bytes(),
            scheme.snapshot_bytes(),
            scheme.checkpoint_footprint(),
        ),
        residency: scheme.residency(),
        lookups: (0..logical)
            .map(|lpa| probe.lookup(Lpa::new(lpa)))
            .collect(),
    }
}

/// Every block's valid count and every page's valid bit.
fn validity_answers(validity: &Validity, config: &SsdConfig) -> (Vec<u32>, Vec<bool>) {
    let geometry = config.geometry;
    (
        (0..geometry.blocks)
            .map(|block| validity.valid_count(BlockId::new(block)))
            .collect(),
        (0..geometry.total_pages())
            .map(|ppa| validity.is_valid(Ppa::new(ppa)))
            .collect(),
    )
}

/// A copy of a persisted generation with what it answered when it was
/// taken.
struct Held<S> {
    scheme: S,
    validity: Validity,
    answers: (SchemeAnswers, (Vec<u32>, Vec<bool>)),
}

/// Runs `steps` over an aged device. After every explicit persistence
/// point the generation the log holds must answer exactly as the live
/// state does at that instant; copies of earlier generations must keep
/// answering what they did.
fn kept_baseline_history<S: MappingScheme + Clone + Residency>(
    scheme: S,
    flash_log: bool,
    dram_bytes: usize,
    steps: &[Step],
) -> Result<(), TestCaseError> {
    let mut config = SsdConfig::small_test();
    config.dram_bytes = dram_bytes;
    config.checkpoint_mode = if flash_log {
        CheckpointMode::FlashLog
    } else {
        CheckpointMode::DramSnapshot
    };
    let mut ssd = Ssd::new(config, scheme);
    let logical = ssd.config().logical_pages();
    let mut shadow = HashMap::new();
    let mut content = 0u64;
    let aging = [
        Action::Write {
            lpa: 0,
            len: logical,
        },
        Action::StridedWrite {
            lpa: 7,
            stride: 3,
            count: logical / 2,
        },
    ];
    apply(&mut ssd, &mut shadow, &mut content, &aging)?;
    prop_assert!(ssd.stats().gc_runs > 0, "aging must reach GC");

    let mut held: Vec<Held<S>> = Vec::new();
    for (index, &step) in steps.iter().enumerate() {
        match step {
            Step::Host(action) => apply(&mut ssd, &mut shadow, &mut content, &[action])?,
            Step::Persist => {
                // A flush of at least one page first: under the log
                // that drains the generation in flight, so this point
                // is not skipped.
                let page = Action::Write {
                    lpa: index as u64,
                    len: 1,
                };
                apply(&mut ssd, &mut shadow, &mut content, &[page, Action::Flush])?;
                ssd.take_snapshot();
                let live = (
                    scheme_answers(ssd.scheme(), logical),
                    validity_answers(ssd.validity(), ssd.config()),
                );
                let (scheme, validity) = ssd.newest_checkpoint().expect("a generation");
                let kept = (
                    scheme_answers(scheme, logical),
                    validity_answers(validity, ssd.config()),
                );
                prop_assert!(
                    kept == live,
                    "step {}: baseline is not the live state",
                    index
                );
                held.push(Held {
                    scheme: scheme.clone(),
                    validity: validity.clone(),
                    answers: kept,
                });
                if held.len() > 3 {
                    held.remove(0);
                }
            }
            Step::Crash => {
                ssd.crash_and_recover().expect("recover");
                // Buffered writes died with DRAM: the shadow follows
                // what survived.
                shadow.clear();
                for lpa in 0..logical {
                    if let Some(value) = ssd.read(Lpa::new(lpa)).expect("read") {
                        shadow.insert(lpa, value);
                    }
                }
            }
        }
        for (age, copy) in held.iter().enumerate() {
            let now = (
                scheme_answers(&copy.scheme, logical),
                validity_answers(&copy.validity, ssd.config()),
            );
            prop_assert!(
                now == copy.answers,
                "step {}: held copy {} moved",
                index,
                age
            );
        }
    }
    full_sweep(&mut ssd, &shadow)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The recovery baseline is kept and brought up to date, never
    /// rebuilt: for every scheme that lists its changes, under both
    /// persistence modes, across flushes, GC passes, compaction sweeps,
    /// explicit persistence points and power cuts in any order, it is
    /// what a clone taken at the persistence point would be, and copies
    /// taken of it stay what they were. (Debug builds also hold every
    /// sync — the GC passes' included — against a fresh clone.)
    #[test]
    fn kept_baseline_is_the_clone_it_replaces(
        steps in vec(step(), 1..60),
        scheme in 0usize..4,
        flash_log in proptest::bool::ANY,
        gamma in 0u32..5,
    ) {
        // Small budgets keep demand paging in play for every scheme.
        let leaftl = || LeaFtlScheme::new(
            LeaFtlConfig::default().with_gamma(gamma).with_compaction_interval(300),
        );
        let logical = SsdConfig::small_test().logical_pages();
        match scheme {
            0 => kept_baseline_history(leaftl(), flash_log, 1024, &steps)?,
            1 => kept_baseline_history(
                ShardedMapping::new(4, logical, |_| leaftl()),
                flash_log,
                1024,
                &steps,
            )?,
            2 => kept_baseline_history(Dftl::new(), flash_log, 4 * 1024, &steps)?,
            _ => kept_baseline_history(Sftl::new(), flash_log, 4 * 1024, &steps)?,
        }
    }

    /// What GC selection and wear levelling answer from — the victim
    /// index, the allocator's per-block state, the erase histogram —
    /// agrees with a scan of the device after every flush: on an aged
    /// device, under either policy, with GC in the flush path or as
    /// background traffic at queue depth 8, under either persistence
    /// mode, across a power cut at an arbitrary dispatch and the
    /// recovery after it. (Debug builds also re-run the scan beside
    /// every selection these histories make.)
    #[test]
    fn gc_index_matches_the_scan_after_every_flush(
        before in vec(action(), 1..80),
        after in vec(action(), 1..40),
        cost_benefit in proptest::bool::ANY,
        background in proptest::bool::ANY,
        flash_log in proptest::bool::ANY,
        wear_gap in 1u32..20,
        cut in 1u64..600,
    ) {
        let mut config = SsdConfig::small_test();
        config.gc_policy = if cost_benefit { GcPolicy::CostBenefit } else { GcPolicy::Greedy };
        config.checkpoint_mode =
            if flash_log { CheckpointMode::FlashLog } else { CheckpointMode::DramSnapshot };
        config.wear_gap_threshold = wear_gap;
        let mut ssd = Ssd::new(config, ExactPageMap::new());
        let logical = ssd.config().logical_pages();
        let mut programs = 0u64;
        // Age: the space written once, then strided overwrites until
        // the collector has run.
        let aging = [
            Action::Write { lpa: 0, len: logical },
            Action::StridedWrite { lpa: 7, stride: 3, count: logical / 2 },
        ];
        apply_checked(&mut ssd, &aging, &mut programs)?;
        prop_assert!(ssd.stats().gc_runs > 0);

        if background {
            let mut device = Device::new(&mut ssd, DeviceConfig::single(8).background_gc());
            device.halt_after_dispatches(cut);
            for &action in &before {
                if let Action::Read { lpa } = action {
                    device.submit_read(Lpa::new(lpa % logical)).expect("read");
                }
                for addr in written(action, logical) {
                    device.submit_write(Lpa::new(addr), addr).expect("write");
                    check_after_flush(device.ssd(), &mut programs)?;
                }
            }
            device.power_cut();
        } else {
            let cut = (cut as usize).min(before.len());
            apply_checked(&mut ssd, &before[..cut], &mut programs)?;
        }
        ssd.crash_and_recover().expect("recover");
        let violations = ssd.check_gc_index();
        prop_assert!(violations.is_empty(), "after recovery: {:#?}", violations);
        apply_checked(&mut ssd, &after, &mut programs)?;
    }

    #[test]
    fn leaftl_ssd_matches_shadow(actions in vec(action(), 1..120), gamma in 0u32..9) {
        let mut config = SsdConfig::small_test();
        config.gamma = gamma;
        let scheme = LeaFtlScheme::new(
            LeaFtlConfig::default().with_gamma(gamma).with_compaction_interval(300),
        );
        let mut ssd = Ssd::new(config, scheme);
        let mut shadow = HashMap::new();
        let mut content = 0u64;
        apply(&mut ssd, &mut shadow, &mut content, &actions)?;
        full_sweep(&mut ssd, &shadow)?;
    }

    #[test]
    fn dftl_ssd_matches_shadow(actions in vec(action(), 1..100)) {
        let mut config = SsdConfig::small_test();
        config.dram_bytes = 4 * 1024; // tiny CMT: force demand paging
        let mut ssd = Ssd::new(config, Dftl::new());
        let mut shadow = HashMap::new();
        let mut content = 0u64;
        apply(&mut ssd, &mut shadow, &mut content, &actions)?;
        full_sweep(&mut ssd, &shadow)?;
    }

    #[test]
    fn sftl_ssd_matches_shadow(actions in vec(action(), 1..100)) {
        let mut config = SsdConfig::small_test();
        config.dram_bytes = 4 * 1024;
        let mut ssd = Ssd::new(config, Sftl::new());
        let mut shadow = HashMap::new();
        let mut content = 0u64;
        apply(&mut ssd, &mut shadow, &mut content, &actions)?;
        full_sweep(&mut ssd, &shadow)?;
    }

    /// Crash anywhere: flushed data survives; divergence is bounded by
    /// the buffered writes lost with DRAM.
    #[test]
    fn leaftl_crash_anywhere_is_consistent(
        before in vec(action(), 1..80),
        after in vec(action(), 1..40),
        gamma in 0u32..5,
        snapshot in proptest::bool::ANY,
    ) {
        let mut config = SsdConfig::small_test();
        config.gamma = gamma;
        let scheme = LeaFtlScheme::new(
            LeaFtlConfig::default().with_gamma(gamma).with_compaction_interval(500),
        );
        let mut ssd = Ssd::new(config, scheme);
        let mut shadow = HashMap::new();
        let mut content = 0u64;
        apply(&mut ssd, &mut shadow, &mut content, &before)?;
        if snapshot {
            ssd.take_snapshot();
        }
        let report = ssd.crash_and_recover().expect("recover");
        // Verify: every shadow entry either matches or was a lost
        // buffered write (strictly newer than what survived).
        let mut divergent = 0usize;
        for (&lpa, &expected) in &shadow {
            match ssd.read(Lpa::new(lpa)).expect("read") {
                Some(v) if v == expected => {}
                Some(v) => {
                    prop_assert!(v < expected, "future value {} > {}", v, expected);
                    divergent += 1;
                }
                None => divergent += 1,
            }
        }
        prop_assert!(
            divergent <= report.lost_buffered_writes,
            "divergent {} > lost {}",
            divergent,
            report.lost_buffered_writes
        );
        // The device is fully usable afterwards. Seed the shadow with
        // the surviving state so reads of pre-crash data verify too.
        let mut shadow2 = HashMap::new();
        for &lpa in shadow.keys() {
            if let Some(v) = ssd.read(Lpa::new(lpa)).expect("read") {
                shadow2.insert(lpa, v);
            }
        }
        apply(&mut ssd, &mut shadow2, &mut content, &after)?;
        full_sweep(&mut ssd, &shadow2)?;
    }
}
