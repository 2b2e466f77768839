//! Property-based tests for the learned mapping table: the paper's
//! correctness contracts hold for *arbitrary* monotonic batches and
//! overwrite histories.

#![expect(
    clippy::expect_used,
    reason = "a test: a step that fails should fail it with its message"
)]

use leaftl_repro::core::{plr, Group, LeaFtlConfig, LeaFtlTable, Segment};
use leaftl_repro::flash::{Lpa, Ppa};
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::HashMap;

/// Strategy: a strictly monotonic (offset, ppa) batch within one group,
/// as produced by a sorted buffer flush.
fn monotonic_batch() -> impl Strategy<Value = Vec<(u8, u64)>> {
    (vec(1u8..6, 1..120), 0u64..200, 1_000u64..1_000_000)
        .prop_map(|(gaps, start, base_ppa)| {
            let mut x = start;
            let mut out = Vec::new();
            for (i, gap) in gaps.into_iter().enumerate() {
                if x > 255 {
                    break;
                }
                out.push((x as u8, base_ppa + i as u64));
                x += gap as u64;
            }
            out
        })
        .prop_filter("non-empty", |b| !b.is_empty())
}

/// The parallel (offsets, PPAs) slices `plr::fit` takes.
fn unzip(batch: &[(u8, u64)]) -> (Vec<u8>, Vec<u64>) {
    batch.iter().copied().unzip()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every fitted segment honours the error bound for every member,
    /// for every γ.
    #[test]
    fn plr_error_bound_holds(batch in monotonic_batch(), gamma in 0u32..16) {
        let (offsets, ppas) = unzip(&batch);
        let truth: HashMap<u8, u64> = batch.iter().copied().collect();
        let mut covered = 0usize;
        for piece in plr::fit(&offsets, &ppas, gamma) {
            for &x in piece.members {
                let y = truth[&x];
                let err = (piece.segment.translate(x).raw() as i64 - y as i64).unsigned_abs();
                prop_assert!(err <= gamma as u64, "x={x} err={err} gamma={gamma}");
                covered += 1;
            }
        }
        // Members partition the input exactly.
        prop_assert_eq!(covered, batch.len());
    }

    /// γ=0 always yields accurate segments with exact translations.
    #[test]
    fn plr_gamma_zero_is_exact(batch in monotonic_batch()) {
        let (offsets, ppas) = unzip(&batch);
        let truth: HashMap<u8, u64> = batch.iter().copied().collect();
        for piece in plr::fit(&offsets, &ppas, 0) {
            prop_assert!(piece.segment.is_accurate());
            for &x in piece.members {
                prop_assert_eq!(piece.segment.translate(x).raw(), truth[&x]);
                prop_assert!(piece.segment.accurate_has_offset(x));
            }
        }
    }

    /// Accurate segments never claim offsets between their members
    /// right after fitting (the stride test identifies exactly the
    /// member set).
    #[test]
    fn plr_accurate_claims_exactly_members(batch in monotonic_batch()) {
        let (offsets, ppas) = unzip(&batch);
        for piece in plr::fit(&offsets, &ppas, 0) {
            let claimed = piece.segment.accurate_members();
            prop_assert_eq!(&claimed[..], piece.members);
        }
    }

    /// The 8-byte wire codec round-trips every segment.
    #[test]
    fn segment_codec_roundtrip(batch in monotonic_batch(), gamma in 0u32..16) {
        let (offsets, ppas) = unzip(&batch);
        for piece in plr::fit(&offsets, &ppas, gamma) {
            let decoded = Segment::decode(piece.segment.encode());
            prop_assert_eq!(decoded, piece.segment);
        }
    }

    /// The full table behaves exactly like a hash map under arbitrary
    /// overwrite histories, within the error bound, including after
    /// compaction.
    #[test]
    fn table_matches_oracle(
        batches in vec((monotonic_batch(), 0u64..4), 1..30),
        gamma in 0u32..10,
        compact_every in 1usize..10,
    ) {
        let mut table = LeaFtlTable::new(LeaFtlConfig::default().with_gamma(gamma));
        let mut oracle: HashMap<u64, u64> = HashMap::new();
        let mut ppa_base = 0u64;
        for (round, (batch, group)) in batches.iter().enumerate() {
            // Spread batches over a few groups; renumber PPAs so they
            // are unique and increasing per batch (allocator behaviour).
            let pairs: Vec<(Lpa, Ppa)> = batch
                .iter()
                .enumerate()
                .map(|(i, &(x, _))| {
                    (
                        Lpa::new(group * 256 + x as u64),
                        Ppa::new(ppa_base + i as u64),
                    )
                })
                .collect();
            ppa_base += batch.len() as u64 + 7;
            for &(lpa, ppa) in &pairs {
                oracle.insert(lpa.raw(), ppa.raw());
            }
            table.learn(&pairs);
            if round % compact_every == compact_every - 1 {
                table.compact();
            }
            // Mid-history too: a mix of swept, re-dirtied and never
            // swept groups is where the dirty tracking can go wrong.
            let violations = table.validate();
            prop_assert!(violations.is_empty(), "round {round}: {:?}", violations);
        }
        table.compact();
        let violations = table.validate();
        prop_assert!(violations.is_empty(), "invariants: {:?}", violations);
        for (&lpa, &ppa) in &oracle {
            let hit = table.lookup(Lpa::new(lpa));
            prop_assert!(hit.is_some(), "lpa {lpa} lost");
            let hit = hit.expect("checked");
            let err = (hit.ppa.raw() as i64 - ppa as i64).unsigned_abs();
            prop_assert!(
                err <= hit.error_bound as u64,
                "lpa {lpa}: predicted {} true {ppa} bound {}",
                hit.ppa.raw(),
                hit.error_bound
            );
            if !hit.approximate {
                prop_assert_eq!(hit.ppa.raw(), ppa, "accurate hits must be exact");
            }
        }
        // Nothing invented: unmapped LPAs stay unmapped.
        for probe in [0u64, 100, 255, 256, 999, 1023] {
            if !oracle.contains_key(&probe) {
                prop_assert!(table.lookup(Lpa::new(probe)).is_none(), "phantom {probe}");
            }
        }
    }

    /// `Group::compact` is a fixpoint on its own output: a second sweep
    /// with no insert in between changes nothing. `LeaFtlTable::compact`
    /// rests on this when it skips the groups no learn has touched since
    /// their last sweep.
    #[test]
    fn compaction_is_a_fixpoint(
        batches in vec((monotonic_batch(), 0usize..4), 1..30),
        gamma in 0u32..10,
        compact_every in 1usize..10,
    ) {
        let mut groups: [Group; 4] = Default::default();
        let mut ppa_base = 0u64;
        for (round, (batch, group)) in batches.iter().enumerate() {
            let (offsets, _) = unzip(batch);
            let ppas: Vec<u64> = (ppa_base..).take(batch.len()).collect();
            ppa_base += batch.len() as u64 + 7;
            for piece in plr::fit(&offsets, &ppas, gamma) {
                groups[*group].insert_piece(&piece);
            }
            if round % compact_every == compact_every - 1 {
                groups.iter_mut().for_each(Group::compact);
            }
        }
        for group in &mut groups {
            group.compact();
            let once = group.clone();
            group.compact();
            prop_assert_eq!(&*group, &once);
        }
    }

    /// A clone shares its groups with the table it was taken from, yet
    /// is a value of its own: whatever is learned into or swept in one
    /// of them, every other one — clones of clones included — keeps
    /// answering exactly as it did when it last changed, and stays
    /// valid. Dropping tables while others still share their groups is
    /// part of the history.
    #[test]
    fn clone_is_isolated(
        rounds in vec((monotonic_batch(), 0u64..4, 0usize..8, 0u8..4), 1..30),
        gamma in 0u32..10,
    ) {
        let answers = |table: &LeaFtlTable, group: u64| -> Vec<_> {
            (group * 256..(group + 1) * 256)
                .map(|lpa| table.lookup(Lpa::new(lpa)))
                .collect()
        };
        let all_answers = |table: &LeaFtlTable| -> Vec<_> {
            (0..4).flat_map(|group| answers(table, group)).collect()
        };
        // Each table with what it answered when it last changed.
        let empty = LeaFtlTable::new(LeaFtlConfig::default().with_gamma(gamma));
        let mut tables = vec![(all_answers(&empty), empty)];
        let mut ppa_base = 0u64;
        for (round, (batch, group, target, action)) in rounds.iter().enumerate() {
            let target = target % tables.len();
            let pairs: Vec<(Lpa, Ppa)> = batch
                .iter()
                .enumerate()
                .map(|(i, &(x, _))| {
                    (
                        Lpa::new(group * 256 + x as u64),
                        Ppa::new(ppa_base + i as u64),
                    )
                })
                .collect();
            ppa_base += batch.len() as u64 + 7;
            let (recorded, table) = &mut tables[target];
            table.learn(&pairs);
            if action & 1 == 1 {
                table.compact();
            }
            *recorded = all_answers(table);
            // Only `group` changed, so that is where a write through a
            // shared group would show in the others.
            for (index, (recorded, table)) in tables.iter().enumerate() {
                let range = (*group * 256) as usize..((*group + 1) * 256) as usize;
                prop_assert_eq!(
                    &answers(table, *group)[..],
                    &recorded[range],
                    "round {}: table {} moved with table {}",
                    round,
                    index,
                    target
                );
            }
            if action & 2 == 2 {
                let copy = tables[target].clone();
                tables.push(copy);
                if tables.len() > 5 {
                    tables.remove(1);
                }
            }
        }
        for (index, (recorded, table)) in tables.iter().enumerate() {
            prop_assert_eq!(&all_answers(table), recorded, "table {}", index);
            let violations = table.validate();
            prop_assert!(violations.is_empty(), "table {}: {:?}", index, violations);
            let walk = table.recompute_walk();
            prop_assert_eq!(table.memory_bytes(), walk.memory);
            prop_assert_eq!(table.segment_count(), walk.segments);
        }
    }

    /// Memory never exceeds the page-level equivalent: segments cost at
    /// most 8 bytes per *live* mapping plus CRB bookkeeping bounded by
    /// one byte per mapping (§3.1 worst case, after compaction).
    #[test]
    fn memory_bounded_by_page_level(
        batches in vec(monotonic_batch(), 1..15),
        gamma in 0u32..8,
    ) {
        let mut table = LeaFtlTable::new(LeaFtlConfig::default().with_gamma(gamma));
        let mut live = std::collections::HashSet::new();
        let mut ppa_base = 0u64;
        for batch in &batches {
            let pairs: Vec<(Lpa, Ppa)> = batch
                .iter()
                .enumerate()
                .map(|(i, &(x, _))| (Lpa::new(x as u64), Ppa::new(ppa_base + i as u64)))
                .collect();
            ppa_base += batch.len() as u64;
            for &(lpa, _) in &pairs {
                live.insert(lpa.raw());
            }
            table.learn(&pairs);
        }
        table.compact();
        let memory = table.memory_bytes();
        let page_level = live.len() * 8;
        prop_assert!(
            memory.segment_bytes <= page_level,
            "segments {} > page-level {page_level}",
            memory.segment_bytes
        );
    }
}
