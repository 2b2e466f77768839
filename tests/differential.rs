//! Differential testing: every FTL scheme returns exactly what the host
//! model (`support/model.rs`) predicts over a fixed history per family
//! — an aged device, then 300 steps of host traffic, persistence points
//! and power cuts — and the history exercised what the family claims.

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

use families::{config, dftl, exact, leaftl, sftl, RESIDENT, TINY};
use fixed::fixed;
use leaftl_repro::sim::CheckpointMode;
use proptest::prelude::*;

#[test]
fn exact_page_map_oracle() -> Result<(), TestCaseError> {
    fixed("exact_page_map", exact(CheckpointMode::FlashLog)).map(drop)
}

/// γ = 0: every learned segment is exact, so no lookup mispredicts.
#[test]
fn leaftl_gamma_zero_matches_shadow() -> Result<(), TestCaseError> {
    let ssd = leaftl(config(CheckpointMode::DramSnapshot, RESIDENT), 0, 300, true);
    let stats = fixed("leaftl_resident", ssd)?;
    prop_assert_eq!(stats.mispredictions, 0, "γ=0 must never mispredict");
    Ok(())
}

#[test]
fn leaftl_gamma_one_matches_shadow() -> Result<(), TestCaseError> {
    let ssd = leaftl(config(CheckpointMode::FlashLog, RESIDENT), 1, 300, true);
    fixed("leaftl_gamma_one", ssd).map(drop)
}

#[test]
fn leaftl_gamma_four_matches_shadow() -> Result<(), TestCaseError> {
    let ssd = leaftl(config(CheckpointMode::Disabled, RESIDENT), 4, 300, true);
    fixed("leaftl_gamma_four", ssd).map(drop)
}

/// γ = 8, demand-paged, and a sweep every 200 learned pages:
/// compaction must fire.
#[test]
fn leaftl_gamma_eight_with_frequent_compaction() -> Result<(), TestCaseError> {
    let ssd = leaftl(config(CheckpointMode::Disabled, TINY), 8, 200, true);
    let stats = fixed("leaftl_demand_paged", ssd)?;
    prop_assert!(stats.compactions > 0, "compaction must fire");
    Ok(())
}

/// The CMT must miss: translation pages are read back from flash.
#[test]
fn dftl_matches_shadow_with_tiny_cmt() -> Result<(), TestCaseError> {
    let stats = fixed("dftl", dftl(CheckpointMode::DramSnapshot))?;
    prop_assert!(stats.flash.translation_reads > 0, "tiny CMT must miss");
    Ok(())
}

#[test]
fn sftl_matches_shadow() -> Result<(), TestCaseError> {
    fixed("sftl", sftl(CheckpointMode::FlashLog)).map(drop)
}

/// The Fig. 7 ablation: no LPA sort before a flush. The learned
/// mappings become mostly single points but must stay correct.
#[test]
fn unsorted_flush_ablation_still_correct() -> Result<(), TestCaseError> {
    let ssd = leaftl(config(CheckpointMode::Disabled, RESIDENT), 0, 300, false);
    fixed("unsorted_flush", ssd).map(drop)
}
