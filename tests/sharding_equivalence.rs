//! Sharded-translation-service equivalence invariants, at the scheme
//! level.
//!
//! **N shards hold the same groups.** Shard boundaries are aligned to
//! 256-LPA group boundaries and every learned structure is per-group,
//! so a 2/4/8-shard service answers every lookup identically to the
//! unsharded scheme and occupies the same memory, before and after
//! compaction — and the §3.1 bound (segments ≤ live pages) holds
//! *inside each shard* against only that shard's live LPAs.
//!
//! A full SSD on a sharded service, blocking and queued, is held equal
//! in `tests/engine_equivalence.rs`; every path compacts inline at the
//! flush.

use leaftl_repro::core::{LeaFtlConfig, MappingScheme, ShardedMapping};
use leaftl_repro::flash::{Lpa, Ppa};
use leaftl_repro::sim::LeaFtlScheme;
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::HashMap;

/// LPA space for scheme-level tests: 32 groups, so every shard count
/// under test owns several groups.
const SPACE: u64 = 8192;

/// One scheme-level operation.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Learn a batch of `len` mappings starting at `lpa` with `stride`,
    /// mapped to consecutive fresh PPAs (the allocator's shape).
    Learn { lpa: u64, len: u64, stride: u64 },
    /// Probe one address.
    Probe { lpa: u64 },
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0u64..SPACE, 1u64..300, 1u64..5)
            .prop_map(|(lpa, len, stride)| Op::Learn { lpa, len, stride }),
        2 => (0u64..SPACE).prop_map(|lpa| Op::Probe { lpa }),
    ]
}

fn scheme(gamma: u32) -> LeaFtlScheme {
    let mut s = LeaFtlScheme::new(
        LeaFtlConfig::default()
            .with_gamma(gamma)
            // Interval-gated maintenance off: growth must be identical
            // step for step, compaction is exercised explicitly.
            .with_compaction_interval(u64::MAX),
    );
    s.set_memory_budget(usize::MAX);
    s
}

fn sharded(shards: usize, gamma: u32) -> ShardedMapping<LeaFtlScheme> {
    let mut s = ShardedMapping::new(shards, SPACE, |_| scheme(gamma));
    s.set_memory_budget(usize::MAX);
    s
}

/// Applies one op to any scheme, advancing the shared PPA counter the
/// way a flush would.
fn apply<S: MappingScheme>(scheme: &mut S, op: Op, next_ppa: &mut u64) {
    match op {
        Op::Learn { lpa, len, stride } => {
            let batch: Vec<(Lpa, Ppa)> = (0..len)
                .map(|j| {
                    let addr = (lpa + j * stride) % SPACE;
                    let pair = (Lpa::new(addr), Ppa::new(*next_ppa));
                    *next_ppa += 1;
                    pair
                })
                .collect();
            scheme.update_batch(&batch);
        }
        Op::Probe { .. } => {}
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// 2/4/8-shard services answer every lookup like the unsharded
    /// scheme and occupy the same memory, before and after compaction,
    /// over arbitrary learn sequences.
    #[test]
    fn sharded_scheme_is_lookup_and_memory_equivalent(
        ops in vec(op(), 1..40),
        shards in prop_oneof![Just(2usize), Just(4), Just(8)],
        gamma in 0u32..5,
    ) {
        let mut plain = scheme(gamma);
        let mut split = sharded(shards, gamma);
        let mut ppa_plain = 10_000u64;
        let mut ppa_split = 10_000u64;
        for &o in &ops {
            apply(&mut plain, o, &mut ppa_plain);
            apply(&mut split, o, &mut ppa_split);
            if let Op::Probe { lpa } = o {
                prop_assert_eq!(
                    split.lookup(Lpa::new(lpa)),
                    plain.lookup(Lpa::new(lpa)),
                    "probe {} diverged", lpa
                );
            }
        }
        // Group-aligned range shards hold exactly the unsharded groups:
        // byte-identical memory and pointwise-identical translation.
        prop_assert_eq!(split.memory_bytes(), plain.memory_bytes());
        for lpa in (0..SPACE).step_by(7) {
            prop_assert_eq!(
                split.lookup(Lpa::new(lpa)),
                plain.lookup(Lpa::new(lpa)),
                "lpa {} diverged", lpa
            );
        }

        // ... and still after a full compaction sweep on both.
        split.compact_all();
        plain.maintain_shard(0);
        prop_assert_eq!(split.memory_bytes(), plain.memory_bytes());
        for lpa in (0..SPACE).step_by(13) {
            prop_assert_eq!(
                split.lookup(Lpa::new(lpa)),
                plain.lookup(Lpa::new(lpa)),
                "post-compaction lpa {} diverged", lpa
            );
        }
    }

    /// §3.1 shard-locally: after compaction, each shard's learned
    /// segments are bounded by the live LPAs *of that shard's range*
    /// (8 B per segment ≤ 8 B per live page — never worse than a page
    /// table over the shard's slice).
    #[test]
    fn memory_bound_holds_per_shard(
        ops in vec(op(), 1..40),
        shards in prop_oneof![Just(2usize), Just(4), Just(8)],
        gamma in 0u32..5,
    ) {
        let mut split = sharded(shards, gamma);
        let mut live: HashMap<usize, std::collections::HashSet<u64>> = HashMap::new();
        let mut next_ppa = 10_000u64;
        for &o in &ops {
            if let Op::Learn { lpa, len, stride } = o {
                for j in 0..len {
                    let addr = (lpa + j * stride) % SPACE;
                    live.entry(split.shard_of(Lpa::new(addr)))
                        .or_default()
                        .insert(addr);
                }
            }
            apply(&mut split, o, &mut next_ppa);
        }
        split.compact_all();
        for (index, shard) in split.shards().enumerate() {
            let live_pages = live.get(&index).map_or(0, |s| s.len());
            let segments = shard.table().segment_count();
            prop_assert!(
                segments <= live_pages,
                "shard {}: {} segments > {} live pages",
                index, segments, live_pages
            );
        }
    }
}
