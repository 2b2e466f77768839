//! Structural invariant checking for the learned mapping table.
//!
//! The log-structured table maintains several internal invariants that
//! the merge, patch, and compaction paths must preserve. This module
//! makes them checkable — tests call [`LeaFtlTable::validate`] after
//! every mutation pattern, and downstream users can assert it in debug
//! builds when bug-hunting.

use crate::group::Group;
use crate::table::LeaFtlTable;
use std::fmt;

/// A violated invariant, with enough context to locate it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantViolation {
    /// Group id where the violation was found.
    pub group: u64,
    /// Description of the violated invariant.
    pub detail: String,
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "group {}: {}", self.group, self.detail)
    }
}

pub(crate) fn validate_group(group_id: u64, group: &Group) -> Vec<InvariantViolation> {
    let mut violations = Vec::new();
    let mut report = |detail: String| {
        violations.push(InvariantViolation {
            group: group_id,
            detail,
        })
    };

    // 1. The level boundaries tile the segment array, no level is
    //    empty, and each level is sorted and non-overlapping; intervals
    //    stay in-group.
    if group.recount_segments() != group.segment_count() {
        report("level boundaries do not tile the segment array".to_string());
    }
    for (idx, level) in group.levels().enumerate() {
        for segment in level {
            if segment.start() as u16 + segment.len() as u16 > 255 {
                report(format!("segment {segment} leaves its group"));
            }
        }
        for pair in level.windows(2) {
            if pair[0].start() > pair[1].start() {
                report(format!(
                    "level {idx} unsorted: {} after {}",
                    pair[1], pair[0]
                ));
            }
            if pair[0].overlaps(&pair[1]) {
                report(format!("level {idx} overlap: {} and {}", pair[0], pair[1]));
            }
        }
        if level.is_empty() {
            // Empty levels are pruned by the mutation paths.
            report(format!("level {idx} is empty"));
        }
    }

    // 2. Every approximate segment has a CRB run anchored at its start,
    //    fully inside its interval.
    for (_, segment) in group.iter_segments() {
        if segment.is_accurate() {
            continue;
        }
        match group.crb().members_of(segment.start()) {
            None => report(format!("approximate {segment} has no CRB run")),
            Some(members) => {
                // The run head identifies the segment during lookups
                // and must match exactly. The interval end may
                // over-approximate: CRB deduplication can trim a run's
                // tail without patching the segment (the paper's
                // Algorithm 1 likewise only re-anchors S_LPA), which is
                // benign — covers() merely admits offsets the CRB then
                // rejects.
                if members.first() != Some(&segment.start()) {
                    report(format!("run head mismatch for {segment}"));
                }
                if let Some(&last) = members.last() {
                    if last > segment.end() {
                        report(format!(
                            "run end {last} beyond interval end {} for {segment}",
                            segment.end()
                        ));
                    }
                }
            }
        }
    }

    // 3. CRB runs correspond to live approximate segments (no orphans)
    //    and starts are unique (LPA-uniqueness implies this).
    let approx_starts: Vec<u8> = group
        .iter_segments()
        .filter(|(_, s)| s.is_approximate())
        .map(|(_, s)| s.start())
        .collect();
    {
        let mut sorted = approx_starts.clone();
        sorted.sort_unstable();
        let before = sorted.len();
        sorted.dedup();
        if sorted.len() != before {
            report("duplicate approximate segment starts".to_string());
        }
    }
    // The byte list: runs in head order, each strictly increasing, the
    // run boundaries tiling it.
    let mut previous_head = None;
    for members in group.crb().runs() {
        let Some(&start) = members.first() else {
            report("empty CRB run".to_string());
            continue;
        };
        if !approx_starts.contains(&start) {
            report(format!("orphan CRB run at {start}"));
        }
        if !members.windows(2).all(|w| w[0] < w[1]) {
            report(format!("CRB run at {start} not strictly increasing"));
        }
        if previous_head.is_some_and(|head| head >= start) {
            report(format!("CRB run at {start} out of head order"));
        }
        previous_head = Some(start);
    }
    if group.crb().recount_members() != group.crb().total_members() {
        report("CRB member count mismatch across runs".to_string());
    }

    violations
}

impl LeaFtlTable {
    /// Checks every structural invariant of the table, and the dirty
    /// tracking compaction relies on, returning all violations (empty =
    /// healthy). Intended for tests and debugging; cost is linear in the
    /// table size.
    pub fn validate(&self) -> Vec<InvariantViolation> {
        let mut violations = Vec::new();
        for (group_id, group) in self.groups_for_validation() {
            violations.extend(validate_group(group_id, group));
        }
        violations.extend(self.validate_dirty_tracking());
        violations
    }

    /// What lets [`LeaFtlTable::compact`] skip groups: every group not
    /// flagged dirty is already what a sweep would leave (and holds
    /// something — sweeps never empty a group, so none is ever dropped),
    /// and the dirty list names exactly the flagged groups, once each.
    fn validate_dirty_tracking(&self) -> Vec<InvariantViolation> {
        let mut violations = Vec::new();
        let mut report = |group: u64, detail: &str| {
            violations.push(InvariantViolation {
                group,
                detail: detail.to_string(),
            })
        };
        let mut listed = self.dirty_for_validation().to_vec();
        listed.sort_unstable();
        for pair in listed.windows(2) {
            if pair[0] == pair[1] {
                report(pair[0], "listed dirty more than once");
            }
        }
        for (group_id, group) in self.groups_for_validation() {
            if group.segment_count() == 0 {
                report(group_id, "group holds no segment");
            }
            if group.is_dirty() != listed.binary_search(&group_id).is_ok() {
                report(group_id, "dirty flag and dirty list disagree");
            }
            if !group.is_dirty() {
                let mut swept = group.clone();
                swept.compact();
                if swept != *group {
                    report(group_id, "clean group is not a compaction fixpoint");
                }
            }
        }
        let held: Vec<u64> = self.group_ids().collect();
        for &id in &listed {
            if held.binary_search(&id).is_err() {
                report(id, "listed dirty but not in the table");
            }
        }
        violations
    }

    /// Panics with a readable report if any invariant is violated.
    ///
    /// # Panics
    ///
    /// Panics when [`LeaFtlTable::validate`] returns violations.
    pub fn assert_valid(&self) {
        let violations = self.validate();
        assert!(
            violations.is_empty(),
            "table invariants violated:\n{}",
            violations
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}

#[cfg(test)]
mod tests {
    use crate::{LeaFtlConfig, LeaFtlTable};
    use leaftl_flash::{Lpa, Ppa};

    fn batch(lpa0: u64, ppa0: u64, n: u64) -> Vec<(Lpa, Ppa)> {
        (0..n)
            .map(|i| (Lpa::new(lpa0 + i), Ppa::new(ppa0 + i)))
            .collect()
    }

    #[test]
    fn healthy_table_validates() {
        let mut table = LeaFtlTable::new(LeaFtlConfig::default().with_gamma(4));
        table.learn(&batch(0, 100, 300));
        table.learn(&[
            (Lpa::new(10), Ppa::new(900)),
            (Lpa::new(13), Ppa::new(901)),
            (Lpa::new(17), Ppa::new(902)),
        ]);
        table.assert_valid();
        table.compact();
        table.assert_valid();
    }

    #[test]
    fn overwrite_storm_keeps_invariants() {
        let mut table = LeaFtlTable::new(LeaFtlConfig::default().with_gamma(8));
        let mut state = 17u64;
        let mut ppa = 0u64;
        for round in 0..60u64 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let start = state % 512;
            let stride = 1 + (state >> 32) % 4;
            let pairs: Vec<(Lpa, Ppa)> = (0..20)
                .map(|i| (Lpa::new(start + i * stride), Ppa::new(ppa + i)))
                .collect();
            ppa += 40;
            table.learn(&pairs);
            if round % 7 == 6 {
                table.compact();
            }
            table.assert_valid();
        }
    }

    #[test]
    fn empty_table_is_valid() {
        let table = LeaFtlTable::new(LeaFtlConfig::default());
        assert!(table.validate().is_empty());
    }
}
