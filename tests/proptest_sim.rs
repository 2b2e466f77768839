//! Property-based tests at the whole-SSD level: every mapping scheme
//! held to one host model (`support/model.rs`) over arbitrary
//! histories of host traffic, persistence points and power cuts under
//! every checkpoint mode; the recovery baseline held to the live state
//! it was taken from; and the GC index held to a scan of the device.

#![expect(
    clippy::expect_used,
    reason = "a test: a step that fails should fail it with its message"
)]

#[path = "support/families.rs"]
mod families;
#[path = "support/flash_truth.rs"]
mod flash_truth;
#[path = "support/model.rs"]
mod model;
#[path = "support/ops.rs"]
mod ops;

use families::{aging, config, dftl, exact, leaftl, sftl, RESIDENT, TINY};
use flash_truth::recover;
use leaftl_repro::baselines::{Dftl, Sftl};
use leaftl_repro::core::{LeaFtlConfig, ShardedMapping};
use leaftl_repro::flash::{BlockId, Lpa, Ppa};
use leaftl_repro::sim::validity::Validity;
use leaftl_repro::sim::{
    CheckpointMode, Device, DeviceConfig, ExactPageMap, GcPolicy, LeaFtlScheme, MapCost,
    MappingLookup, MappingScheme, Ssd, SsdConfig,
};
use model::{check_model, step, Model, Step};
use ops::{action, page_ops, Action, Op};
use proptest::collection::vec;
use proptest::prelude::*;

/// What a scheme shows of its demand-paging state beyond what lookups
/// cost: resident bytes and the resident ids in recency order. The
/// baselines expose no residency list; their CMT / page cache shows in
/// `memory_bytes` and in what every lookup costs.
trait Residency: MappingScheme {
    fn residency(&self) -> (usize, Vec<u64>) {
        (self.memory_bytes(), Vec::new())
    }
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

impl Residency for Dftl {}
impl Residency for Sftl {}

/// Everything a persisted generation answers, in one comparable value:
/// the scheme's sizes, its residency, and every LPA's translation with
/// what the lookup cost (on a copy — lookups move the residency state,
/// so equal answers in sequence mean equal state); every block's valid
/// count and every page's valid bit.
#[derive(Debug, PartialEq)]
struct Answers {
    sizes: (usize, usize, (usize, usize)),
    residency: (usize, Vec<u64>),
    lookups: Vec<(Option<MappingLookup>, MapCost)>,
    valid_counts: Vec<u32>,
    valid_pages: Vec<bool>,
}

fn answers<S: MappingScheme + Clone + Residency>(
    scheme: &S,
    validity: &Validity,
    config: &SsdConfig,
) -> Answers {
    let mut probe = scheme.clone();
    let geometry = config.geometry;
    Answers {
        sizes: (
            scheme.memory_bytes(),
            scheme.snapshot_bytes(),
            scheme.checkpoint_footprint(),
        ),
        residency: scheme.residency(),
        lookups: (0..config.logical_pages())
            .map(|lpa| probe.lookup(Lpa::new(lpa)))
            .collect(),
        valid_counts: (0..geometry.blocks)
            .map(|block| validity.valid_count(BlockId::new(block)))
            .collect(),
        valid_pages: (0..geometry.total_pages())
            .map(|ppa| validity.is_valid(Ppa::new(ppa)))
            .collect(),
    }
}

/// A copy of a persisted generation with what it answered when it was
/// taken.
struct Held<S> {
    scheme: S,
    validity: Validity,
    answers: Answers,
}

/// Runs `steps` over an aged device under the host model. After every
/// persistence point the generation the log holds must answer exactly
/// as the live state does at that instant; copies of earlier
/// generations must keep answering what they did.
fn kept_baseline_history<S: MappingScheme + Clone + Residency>(
    scheme: S,
    flash_log: bool,
    dram_bytes: usize,
    steps: &[Step],
) -> Result<(), TestCaseError> {
    let mode = [CheckpointMode::DramSnapshot, CheckpointMode::FlashLog][usize::from(flash_log)];
    let mut ssd = Ssd::new(config(mode, dram_bytes), scheme);
    // Aged unchecked: the fixed histories in `differential.rs`
    // check the same aging.
    let logical = ssd.config().logical_pages();
    for op in page_ops(&aging(logical), logical, &mut 0) {
        if let Op::Write(lpa, content) = op {
            ssd.write(Lpa::new(lpa), content).expect("write");
        }
    }
    ssd.flush().expect("flush");
    prop_assert!(ssd.stats().gc_runs > 0, "aging must reach GC");
    let mut model = Model::new(ssd)?;

    let mut held: Vec<Held<S>> = Vec::new();
    for (index, &step) in steps.iter().enumerate() {
        model.step(step)?;
        let ssd = model.ssd();
        if let Step::Persist = step {
            let live = answers(ssd.scheme(), ssd.validity(), ssd.config());
            let (scheme, validity) = ssd.newest_checkpoint().expect("a generation");
            let kept = answers(scheme, validity, ssd.config());
            prop_assert!(kept == live, "step {index}: baseline is not the live state");
            held.push(Held {
                scheme: scheme.clone(),
                validity: validity.clone(),
                answers: kept,
            });
            if held.len() > 3 {
                held.remove(0);
            }
        }
        for (age, copy) in held.iter().enumerate() {
            let now = answers(&copy.scheme, &copy.validity, ssd.config());
            prop_assert!(now == copy.answers, "step {index}: held copy {age} moved");
        }
    }
    model.sweep()
}

/// Every checkpoint mode.
fn checkpoint_mode() -> impl Strategy<Value = CheckpointMode> {
    prop_oneof![
        Just(CheckpointMode::Disabled),
        Just(CheckpointMode::DramSnapshot),
        Just(CheckpointMode::FlashLog),
    ]
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
    /// agrees with a scan of the device after every flush, as do the
    /// other invariants [`Ssd::check_invariants`] checks: on an aged
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
        let mut model = Model::new(Ssd::new(config, ExactPageMap::new()))?;
        let logical = model.ssd().config().logical_pages();
        for action in aging(logical) {
            model.step(Step::Host(action))?;
        }
        prop_assert!(model.ssd().stats().gc_runs > 0);

        if background {
            let mut ssd = model.into_ssd();
            let mut device = Device::new(&mut ssd, DeviceConfig::single(8).background_gc());
            device.halt_after_dispatches(cut);
            let mut programs = device.ssd().stats().flash.data_programs;
            for op in page_ops(&before, logical, &mut 0) {
                match op {
                    Op::Write(lpa, content) => device.submit_write(Lpa::new(lpa), content),
                    Op::Read(lpa) => device.submit_read(Lpa::new(lpa)),
                    Op::Flush => continue,
                }
                .expect("submit");
                if device.ssd().stats().flash.data_programs != programs {
                    programs = device.ssd().stats().flash.data_programs;
                    prop_assert_eq!(device.ssd().check_invariants(), Vec::<String>::new());
                }
            }
            device.power_cut();
            // Commands still queued died with the device: the model
            // starts again from what recovery finds on flash.
            recover(&mut ssd)?;
            model = Model::new(ssd)?;
        } else {
            let cut = (cut as usize).min(before.len());
            for &action in &before[..cut] {
                model.step(Step::Host(action))?;
            }
            model.step(Step::Crash)?;
        }
        for &action in &after {
            model.step(Step::Host(action))?;
        }
    }

    /// The in-DRAM page map.
    #[test]
    fn exact_page_map_holds_the_model(steps in vec(step(), 1..120), mode in checkpoint_mode()) {
        check_model(exact(mode), &steps)?;
    }

    /// Resident LeaFTL at every error bound up to 8; its shadow is the
    /// host model.
    #[test]
    fn leaftl_ssd_matches_shadow(
        steps in vec(step(), 1..120),
        mode in checkpoint_mode(),
        gamma in 0u32..9,
    ) {
        check_model(leaftl(config(mode, RESIDENT), gamma, 300, true), &steps)?;
    }

    /// Demand-paged LeaFTL, compacting every 200 learned pages.
    #[test]
    fn leaftl_demand_paged_holds_the_model(
        steps in vec(step(), 1..120),
        mode in checkpoint_mode(),
        gamma in 0u32..9,
    ) {
        check_model(leaftl(config(mode, TINY), gamma, 200, true), &steps)?;
    }

    /// DFTL with a CMT far below the working set.
    #[test]
    fn dftl_ssd_matches_shadow(steps in vec(step(), 1..120), mode in checkpoint_mode()) {
        check_model(dftl(mode), &steps)?;
    }

    /// Demand-paged SFTL.
    #[test]
    fn sftl_ssd_matches_shadow(steps in vec(step(), 1..120), mode in checkpoint_mode()) {
        check_model(sftl(mode), &steps)?;
    }

    /// LeaFTL without the LPA sort before a flush.
    #[test]
    fn unsorted_flush_holds_the_model(steps in vec(step(), 1..120), mode in checkpoint_mode()) {
        check_model(leaftl(config(mode, RESIDENT), 0, 300, false), &steps)?;
    }

    /// One power cut anywhere in a LeaFTL host history, after a
    /// persistence point or not: recovery finds exactly the newest
    /// flash copies, loses exactly the buffered writes, and the device
    /// serves the rest of the history.
    #[test]
    fn leaftl_crash_anywhere_is_consistent(
        before in vec(action(), 1..80),
        after in vec(action(), 1..40),
        mode in checkpoint_mode(),
        gamma in 0u32..5,
        persist in proptest::bool::ANY,
    ) {
        let host = |actions: &[Action]| actions.iter().copied().map(Step::Host).collect::<Vec<_>>();
        let mut steps = host(&before);
        if persist {
            steps.push(Step::Persist);
        }
        steps.push(Step::Crash);
        steps.extend(host(&after));
        check_model(leaftl(config(mode, RESIDENT), gamma, 500, true), &steps)?;
    }
}
