//! Golden test for learned-table compaction.
//!
//! `LeaFtlTable::compact` sweeps only the groups a learn has touched
//! since their last sweep, and `Group::compact` trims and re-layers
//! through one bitmap kernel. The constants below were recorded on the
//! commit *before* either existed — when every sweep compacted every
//! group through per-segment member lists — so they pin the table the
//! sweep leaves behind, after each of the history's sweeps, to what the
//! full walk produced: every segment on its level, every CRB byte,
//! every aggregate counter.
//!
//! The history comes from a generator local to this file, so the
//! constants depend on `leaftl_core` alone.

use leaftl_repro::core::{LeaFtlConfig, LeaFtlTable};
use leaftl_repro::flash::{Lpa, Ppa};
use std::collections::BTreeMap;

/// splitmix64 — the history's only randomness.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

fn fnv1a(hash: &mut u64, value: u64) {
    for byte in value.to_le_bytes() {
        *hash ^= byte as u64;
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

const GROUPS: u64 = 96;
const HOT_GROUPS: u64 = 12;
const SPACE: u64 = GROUPS * 256;
const FLUSHES: usize = 72;
const SWEEP_EVERY: usize = 3;

/// One buffer flush: the LPAs the buffer held, sorted and distinct.
/// Four in five land in the hot groups. A flush is a mix of scattered
/// single pages (irregular gaps: approximate segments at γ > 0), short
/// sequential extents and stride-2 runs (accurate segments that shadow
/// parts of older approximate runs), so that sweeps meet every kind of
/// victim.
fn flush_lpas(rng: &mut Rng) -> Vec<u64> {
    let mut lpas = Vec::new();
    let pick_base = |rng: &mut Rng| {
        let group = if rng.next() % 5 < 4 {
            rng.next() % HOT_GROUPS
        } else {
            HOT_GROUPS + rng.next() % (GROUPS - HOT_GROUPS)
        };
        group * 256 + rng.next() % 256
    };
    while lpas.len() < 192 {
        let base = pick_base(rng);
        match rng.next() % 10 {
            0..=5 => lpas.push(base),
            6..=7 => {
                let len = 2 + rng.next() % 24;
                lpas.extend((0..len).map(|i| (base + i) % SPACE));
            }
            _ => {
                let len = 2 + rng.next() % 12;
                lpas.extend((0..len).map(|i| (base + 2 * i) % SPACE));
            }
        }
    }
    lpas.sort_unstable();
    lpas.dedup();
    lpas
}

/// Per-group (approximate segments, CRB bytes).
fn crb_shape(table: &LeaFtlTable) -> BTreeMap<u64, (usize, usize)> {
    let mut approx: BTreeMap<u64, usize> = BTreeMap::new();
    for (group, _, segment) in table.iter_segments() {
        *approx.entry(group).or_default() += usize::from(segment.is_approximate());
    }
    let crb = table.stats().crb_bytes_per_group;
    assert_eq!(crb.len(), approx.len(), "one CRB figure per group");
    approx
        .into_iter()
        .zip(crb)
        .map(|((group, runs), bytes)| (group, (runs, bytes)))
        .collect()
}

/// Everything a sweep may legitimately change, in one digest.
fn table_digest(table: &LeaFtlTable) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for (group, level, segment) in table.iter_segments() {
        fnv1a(&mut hash, group);
        fnv1a(&mut hash, level as u64);
        fnv1a(&mut hash, segment.encode());
    }
    for (group, (_, bytes)) in crb_shape(table) {
        fnv1a(&mut hash, group);
        fnv1a(&mut hash, bytes as u64);
    }
    let memory = table.memory_bytes();
    fnv1a(&mut hash, memory.segment_bytes as u64);
    fnv1a(&mut hash, memory.crb_bytes as u64);
    fnv1a(&mut hash, table.max_level_depth() as u64);
    fnv1a(&mut hash, table.segment_count() as u64);
    fnv1a(&mut hash, table.group_count() as u64);
    hash
}

/// What the history exercised, so the golden is known to cover every
/// branch of the sweep.
#[derive(Debug, Default)]
struct Coverage {
    /// Sweeps after which approximate segments remain.
    sweeps_with_approximate: usize,
    /// (group, sweep) pairs where a group kept its approximate segment
    /// count but lost CRB bytes: a run shrank in place.
    crb_runs_shrunk: usize,
    /// (group, sweep) pairs where approximate segments disappeared.
    crb_runs_removed: usize,
    /// Segments reclaimed over all sweeps.
    segments_reclaimed: usize,
    /// Sweeps that left some group at least four levels deep.
    sweeps_leaving_deep_stacks: usize,
    /// Groups, summed over sweeps, that the sweep found exactly as its
    /// previous sweep left them (cold since then).
    untouched_group_sweeps: usize,
}

fn run_history() -> (Vec<u64>, Coverage, LeaFtlTable) {
    let mut rng = Rng(0x1eaf_7a61e);
    let mut table = LeaFtlTable::new(LeaFtlConfig::default().with_gamma(4));
    let mut next_ppa = 0u64;
    let mut digests = Vec::new();
    let mut coverage = Coverage::default();
    // Sequential prefill: every group starts as one accurate segment.
    let prefill: Vec<(Lpa, Ppa)> = (0..SPACE).map(|i| (Lpa::new(i), Ppa::new(i))).collect();
    table.learn_sorted(&prefill);
    next_ppa += SPACE;
    let mut touched: Vec<bool> = vec![true; GROUPS as usize];
    for flush in 0..FLUSHES {
        let lpas = flush_lpas(&mut rng);
        // The allocator hands the sorted buffer consecutive pages.
        let pairs: Vec<(Lpa, Ppa)> = lpas
            .iter()
            .zip(next_ppa..)
            .map(|(&lpa, ppa)| (Lpa::new(lpa), Ppa::new(ppa)))
            .collect();
        next_ppa += pairs.len() as u64 + 5;
        for &(lpa, _) in &pairs {
            touched[lpa.group() as usize] = true;
        }
        table.learn_sorted(&pairs);
        table.assert_valid();
        if flush % SWEEP_EVERY != SWEEP_EVERY - 1 {
            continue;
        }
        let before = crb_shape(&table);
        let segments_before = table.segment_count();
        table.compact();
        table.assert_valid();
        let after = crb_shape(&table);
        assert_eq!(
            before.len(),
            after.len(),
            "a sweep never empties a group: its freshest segment keeps every member"
        );
        for (group, &(runs_b, bytes_b)) in &before {
            let (runs_a, bytes_a) = after[group];
            if runs_a < runs_b {
                coverage.crb_runs_removed += 1;
            } else if bytes_a < bytes_b {
                coverage.crb_runs_shrunk += 1;
            }
        }
        coverage.segments_reclaimed += segments_before - table.segment_count();
        coverage.sweeps_with_approximate += usize::from(after.values().any(|&(runs, _)| runs > 0));
        coverage.sweeps_leaving_deep_stacks += usize::from(table.max_level_depth() >= 4);
        coverage.untouched_group_sweeps += touched.iter().filter(|&&t| !t).count();
        touched.fill(false);
        digests.push(table_digest(&table));
    }
    (digests, coverage, table)
}

/// Recorded on the parent commit (full-walk sweeps, `Vec<u8>` member
/// lists): the table's digest after each of the history's 24 sweeps.
const GOLDEN_SWEEP_DIGESTS: [u64; FLUSHES / SWEEP_EVERY] = [
    0x42c7_e973_8ec7_f885,
    0xf621_2445_ace5_1a9c,
    0x6dc7_80d5_4e8b_7c9c,
    0xd442_3814_e7e2_8d5f,
    0x8fbe_4a64_c67a_2c2c,
    0xb6e7_4436_05a3_3580,
    0x58da_2b53_156c_8176,
    0xee80_ce30_4778_1899,
    0x3db8_67c2_a431_d195,
    0x5b76_ad3e_e8c0_efa6,
    0x508d_6bac_5145_bd3c,
    0x4e9a_5256_a000_b5d2,
    0x36ce_a6c3_ceef_9647,
    0xf909_7e9e_4c66_cefc,
    0xaf1d_3eb1_4156_cd41,
    0xd4a0_89a6_1076_e857,
    0x65d0_6a64_6df0_1318,
    0x819c_ea0c_0a2a_007c,
    0x3cb2_29db_afe7_8a09,
    0xccce_53eb_5390_3ab7,
    0x532f_c9e6_5523_9e0f,
    0xccc8_2cf4_69f5_72d5,
    0x0034_fb7a_0b30_9923,
    0x03d2_6ba5_e818_0f57,
];

/// Recorded with the digests: the final table's segment count, segment
/// bytes, CRB bytes and deepest level stack.
const GOLDEN_FINAL: (usize, usize, usize, usize) = (1298, 10384, 2108, 23);

#[test]
fn sweeps_leave_the_recorded_table() {
    let (digests, coverage, table) = run_history();
    let memory = table.memory_bytes();
    let final_counters = (
        table.segment_count(),
        memory.segment_bytes,
        memory.crb_bytes,
        table.max_level_depth(),
    );

    // The history reaches every branch of the sweep.
    assert_eq!(coverage.sweeps_with_approximate, digests.len());
    assert!(coverage.crb_runs_shrunk >= 20, "{coverage:?}");
    assert!(coverage.crb_runs_removed >= 20, "{coverage:?}");
    assert!(coverage.segments_reclaimed >= 400, "{coverage:?}");
    assert!(coverage.sweeps_leaving_deep_stacks >= 12, "{coverage:?}");
    assert!(
        coverage.untouched_group_sweeps >= 10 * digests.len(),
        "{coverage:?}"
    );

    for (sweep, (got, want)) in digests.iter().zip(&GOLDEN_SWEEP_DIGESTS).enumerate() {
        assert_eq!(
            got, want,
            "table after sweep {sweep} differs from the record"
        );
    }
    assert_eq!(digests.len(), GOLDEN_SWEEP_DIGESTS.len());
    assert_eq!(final_counters, GOLDEN_FINAL);
}
