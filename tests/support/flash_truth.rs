//! What a power cut must leave readable, computed from the flash alone:
//! the newest programmed copy of every LPA.

use leaftl_repro::flash::{BlockId, Lpa};
use leaftl_repro::sim::{MappingScheme, RecoveryReport, Ssd};
use proptest::prelude::*;
use std::fmt::Display;

/// Each LPA's content, indexed by LPA over the logical space; `None`
/// where there is none.
pub type Contents = Vec<Option<u64>>;

/// `result`, or a failed case naming `what` went wrong.
pub fn checked<T, E: Display>(result: Result<T, E>, what: &str) -> Result<T, TestCaseError> {
    result.map_err(|e| TestCaseError::fail(format!("{what}: {e}")))
}

/// Recovers `ssd` from a power cut, then requires
/// [`Ssd::check_invariants`] to find nothing: among others, every flash
/// op recovery made is attributed to a die, and no LPA is left with two
/// valid pages.
pub fn recover<S: MappingScheme + Clone>(
    ssd: &mut Ssd<S>,
) -> Result<RecoveryReport, TestCaseError> {
    let report = checked(ssd.crash_and_recover(), "recover")?;
    prop_assert_eq!(
        ssd.check_invariants(),
        Vec::<String>::new(),
        "after recovery"
    );
    Ok(report)
}

/// [`recover`]s `ssd`, then requires every LPA to read exactly its
/// newest copy on flash from before the power cut; returns the report
/// and those contents.
pub fn assert_recovered_matches<S: MappingScheme + Clone>(
    ssd: &mut Ssd<S>,
    label: &str,
) -> Result<(RecoveryReport, Contents), TestCaseError> {
    let truth = flash_ground_truth(ssd)?;
    let report = recover(ssd)?;
    for (lpa, &content) in truth.iter().enumerate() {
        let got = checked(ssd.read(Lpa::new(lpa as u64)), "read")?;
        prop_assert_eq!(got, content, "{}: lpa {} after recovery", label, lpa);
    }
    Ok((report, truth))
}

/// The content of each LPA's newest copy on flash, by program
/// sequence. Every mapping-installing event (flush, GC migration, wear
/// swap) programs a fresh copy with a fresh sequence, so the newest
/// physical copy *is* the durable value — no FTL state consulted.
pub fn flash_ground_truth<S: MappingScheme + Clone>(
    ssd: &Ssd<S>,
) -> Result<Contents, TestCaseError> {
    let mut newest: Vec<Option<(u64, u64)>> = vec![None; ssd.config().logical_pages() as usize];
    for raw in 0..ssd.config().geometry.blocks {
        for (ppa, lpa, seq) in ssd.device().scan_block(BlockId::new(raw)) {
            let Some(lpa) = lpa else { continue };
            let content = checked(ssd.device().read(ppa), "scanned page")?.content;
            let slot = &mut newest[lpa.raw() as usize];
            if slot.is_none_or(|(newer, _)| seq >= newer) {
                *slot = Some((seq, content));
            }
        }
    }
    Ok(newest
        .into_iter()
        .map(|slot| slot.map(|(_, c)| c))
        .collect())
}
