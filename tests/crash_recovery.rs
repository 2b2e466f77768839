//! Crash-consistency tests (§3.8 of the paper), held to the host model
//! (`support/model.rs`): after a power cut every LPA reads exactly its
//! newest flash copy, and the LPAs that differ from the newest host
//! write are exactly the buffered writes DRAM lost (no battery-backed
//! DRAM in the prototype, §5).

#[path = "support/families.rs"]
mod families;
#[path = "support/fixed.rs"]
mod fixed;
#[path = "support/flash_truth.rs"]
mod flash_truth;
#[path = "support/model.rs"]
mod model;
#[path = "support/ops.rs"]
mod ops;

use families::{aging, config, dftl, exact, leaftl, sftl, RESIDENT};
use fixed::{fixed, history};
use flash_truth::recover;
use leaftl_repro::sim::{CheckpointMode, MappingScheme, Ssd};
use model::{check_model, Model, Step};
use ops::Action;
use proptest::prelude::*;

/// `len` steps of host traffic — writes, reads and host flushes — from
/// the fixed history named `name`.
fn churn(name: &str, len: usize) -> impl Iterator<Item = Step> {
    history(name, len)
        .into_iter()
        .filter(|step| matches!(step, Step::Host(_)))
}

#[test]
fn leaftl_crash_after_churn_gamma0() -> Result<(), TestCaseError> {
    let ssd = leaftl(config(CheckpointMode::DramSnapshot, RESIDENT), 0, 300, true);
    let steps: Vec<Step> = churn("leaftl γ=0", 400).chain([Step::Crash]).collect();
    check_model(ssd, &steps).map(drop)
}

/// The device stays fully operational after recovery.
#[test]
fn leaftl_crash_after_churn_gamma4() -> Result<(), TestCaseError> {
    let ssd = leaftl(config(CheckpointMode::FlashLog, RESIDENT), 4, 300, true);
    let steps: Vec<Step> = churn("leaftl γ=4", 400)
        .chain([Step::Crash])
        .chain(churn("leaftl γ=4 after the power cut", 100))
        .collect();
    check_model(ssd, &steps).map(drop)
}

#[test]
fn dftl_crash_recovery_matches() -> Result<(), TestCaseError> {
    let steps: Vec<Step> = churn("dftl", 400).chain([Step::Crash]).collect();
    check_model(dftl(CheckpointMode::DramSnapshot), &steps).map(drop)
}

/// A persistence point just before the power cut shrinks the scan.
#[test]
fn snapshot_shrinks_scan() -> Result<(), TestCaseError> {
    let ssd = leaftl(config(CheckpointMode::DramSnapshot, RESIDENT), 0, 300, true);
    let steps: Vec<Step> = churn("snapshot", 300).collect();
    let mut model = check_model(ssd, &steps)?;
    // Cut without a persistence point: scans everything programmed.
    let cold = recover(&mut model.ssd().clone())?;
    model.step(Step::Persist)?;
    let warm = recover(&mut model.ssd().clone())?;
    prop_assert!(
        warm.scanned_blocks() < cold.scanned_blocks(),
        "warm {} !< cold {}",
        warm.scanned_blocks(),
        cold.scanned_blocks()
    );
    prop_assert!(warm.scan_time_ns <= cold.scan_time_ns);
    model.step(Step::Crash)?;
    model.sweep()
}

/// At least five power cuts on one device, each checked exactly.
#[test]
fn repeated_crashes_are_survivable() -> Result<(), TestCaseError> {
    let ssd = leaftl(config(CheckpointMode::Disabled, RESIDENT), 0, 300, true);
    fixed("repeated_crashes", ssd).map(drop)
}

/// Ages `ssd` until GC has run, cuts the power, then churns and flushes
/// on the recovered device: recovery must deal with migrated pages.
fn crash_after_gc<S: MappingScheme + Clone>(ssd: Ssd<S>) -> Result<(), TestCaseError> {
    let mut model = Model::new(ssd)?;
    for action in aging(model.ssd().config().logical_pages()) {
        model.step(Step::Host(action))?;
    }
    prop_assert!(model.ssd().stats().gc_runs > 0, "test needs GC churn");
    model.step(Step::Crash)?;
    for step in churn("after GC and a power cut", 200).chain([Step::Host(Action::Flush)]) {
        model.step(step)?;
    }
    model.sweep()
}

#[test]
fn crash_with_gc_history_recovers() -> Result<(), TestCaseError> {
    crash_after_gc(exact(CheckpointMode::Disabled))?;
    crash_after_gc(leaftl(
        config(CheckpointMode::DramSnapshot, RESIDENT),
        0,
        300,
        true,
    ))?;
    crash_after_gc(dftl(CheckpointMode::FlashLog))?;
    crash_after_gc(sftl(CheckpointMode::DramSnapshot))
}

/// Recovery must mark one copy of each LPA valid. A full scan replays
/// pages with consecutive program sequences on consecutive PPAs as one
/// batch, and such a run can cross from one flush into the next and
/// name an LPA twice; when both copies stayed valid, a later GC pass
/// migrated the stale one over the live page, and the next flush left
/// LPAs whose newest flash copy was stale. Churn, flush, cut the
/// power, churn, flush.
#[test]
fn recovery_leaves_no_stale_copy_valid() -> Result<(), TestCaseError> {
    let flush = Step::Host(Action::Flush);
    let steps: Vec<Step> = churn("before the power cut", 400)
        .chain([flush, Step::Crash])
        .chain(churn("after the power cut", 400))
        .chain([flush])
        .collect();
    let model = check_model(exact(CheckpointMode::Disabled), &steps)?;
    prop_assert!(
        model.ssd().stats().gc_runs > 0,
        "GC must run after recovery"
    );
    Ok(())
}
