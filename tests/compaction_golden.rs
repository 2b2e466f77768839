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
//! A second set of constants was recorded on the commit before a
//! group became one flat segment array with a byte-list CRB: the stacks
//! `insert_piece` / `place_below` build are digested after *every*
//! learn (not only after the sweep that tidies them), and at every sweep
//! point every LPA of the space is looked up before and after the sweep
//! (`ppa`, `approximate`, `levels_visited`, or unmapped), so the level
//! a segment sits on and the depth a lookup resolves at are pinned
//! between sweeps too.
//!
//! The history comes from a generator local to this file, so the
//! constants depend on `leaftl_core` alone.
//!
//! Both sets were recorded again when an approximate segment began to
//! store the (K, I) that predicts the most of its members exactly instead
//! of the midrange intercept at the cone slope. Segmentation did not
//! move: every segment covers the interval and members it covered, sits
//! on the level it sat on, and `GOLDEN_FINAL` (segment count, segment
//! bytes, CRB bytes, deepest stack) is the previous recording's. The
//! approximate segments' slope and intercept bytes, and so every digest
//! after the prefill and every approximate lookup's predicted PPA, moved.

mod support;

use support::{fnv1a, Rng, FNV_OFFSET};

use leaftl_repro::core::{LeaFtlConfig, LeaFtlTable};
use leaftl_repro::flash::{Lpa, Ppa};
use std::collections::BTreeMap;

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
    let mut hash = FNV_OFFSET;
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

/// The level stacks alone: every segment with its group and level, in
/// the table's (group, level, start) order.
fn stack_digest(table: &LeaFtlTable) -> u64 {
    let mut hash = FNV_OFFSET;
    for (group, level, segment) in table.iter_segments() {
        fnv1a(&mut hash, group);
        fnv1a(&mut hash, level as u64);
        fnv1a(&mut hash, segment.encode());
    }
    hash
}

/// What a lookup of every LPA of the space answers.
fn lookup_digest(table: &LeaFtlTable) -> u64 {
    let mut hash = FNV_OFFSET;
    for lpa in 0..SPACE {
        match table.lookup(Lpa::new(lpa)) {
            Some(hit) => {
                fnv1a(&mut hash, hit.ppa.raw());
                fnv1a(&mut hash, u64::from(hit.approximate));
                fnv1a(&mut hash, u64::from(hit.levels_visited));
            }
            None => fnv1a(&mut hash, u64::MAX),
        }
    }
    hash
}

/// A segment's identity across trims, reheads and level moves: its
/// group with the slope and intercept no merge ever touches (PPAs are
/// handed out once, so no two segments of a group share a line).
type SegmentKey = (u64, u16, i32);

/// Every segment's (level, start, length) by identity.
fn placements(table: &LeaFtlTable) -> BTreeMap<SegmentKey, (usize, u8, u8)> {
    table
        .iter_segments()
        .map(|(group, level, segment)| {
            (
                (group, segment.k_bits(), segment.intercept()),
                (level, segment.start(), segment.len()),
            )
        })
        .collect()
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
    /// Approximate segments buried below level 0 whose start moved
    /// during a learn. Learns trim level 0 only, so nothing but a CRB
    /// `Rehead` patch moves a buried segment's start.
    buried_reheads: usize,
    /// Segments buried below level 0 that a learn left on a deeper
    /// level. Buried segments are never popped, so a popped victim
    /// conflicted with the level below and got a fresh level of its own
    /// in between.
    pushed_down_by_fresh_level: usize,
    /// Strided accurate segments a sweep trimmed to an interval that
    /// still spans a grid offset some fresher segment owns.
    strided_trimmed_to_hole: usize,
}

/// Everything the history records.
struct History {
    /// The table's digest after each sweep.
    sweeps: Vec<u64>,
    /// The level stacks after the prefill and after every flush's learn.
    learns: Vec<u64>,
    /// Every LPA's lookup (before, after) each sweep.
    lookups: Vec<(u64, u64)>,
    coverage: Coverage,
    table: LeaFtlTable,
}

fn run_history() -> History {
    let mut rng = Rng(0x1eaf_7a61e);
    let mut table = LeaFtlTable::new(LeaFtlConfig::default().with_gamma(4));
    let mut next_ppa = 0u64;
    let mut digests = Vec::new();
    let mut learns = Vec::new();
    let mut lookups = Vec::new();
    let mut coverage = Coverage::default();
    // Sequential prefill: every group starts as one accurate segment.
    let prefill: Vec<(Lpa, Ppa)> = (0..SPACE).map(|i| (Lpa::new(i), Ppa::new(i))).collect();
    table.learn_sorted(&prefill);
    learns.push(stack_digest(&table));
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
        let buried = placements(&table);
        table.learn_sorted(&pairs);
        table.assert_valid();
        learns.push(stack_digest(&table));
        for (key, (level, start, _)) in placements(&table) {
            let Some(&(old_level, old_start, _)) = buried.get(&key) else {
                continue;
            };
            if old_level == 0 {
                continue;
            }
            coverage.buried_reheads += usize::from(key.1 & 1 == 1 && start > old_start);
            coverage.pushed_down_by_fresh_level += usize::from(level > old_level);
        }
        if flush % SWEEP_EVERY != SWEEP_EVERY - 1 {
            continue;
        }
        let before = crb_shape(&table);
        let segments_before = table.segment_count();
        let unswept = placements(&table);
        let lookups_before = lookup_digest(&table);
        table.compact();
        table.assert_valid();
        lookups.push((lookups_before, lookup_digest(&table)));
        for (group, _, segment) in table.iter_segments() {
            let stride = match segment.stride() {
                Some(stride) if segment.is_accurate() && stride > 1 => stride as usize,
                _ => continue,
            };
            let key = (group, segment.k_bits(), segment.intercept());
            if unswept[&key].1 == segment.start() && unswept[&key].2 == segment.len() {
                continue;
            }
            let shadowed = (segment.start()..=segment.end()).step_by(stride).any(|x| {
                let hit = table.lookup(Lpa::new(group * 256 + u64::from(x)));
                hit.map(|hit| hit.ppa) != Some(segment.translate(x))
            });
            coverage.strided_trimmed_to_hole += usize::from(shadowed);
        }
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
    History {
        sweeps: digests,
        learns,
        lookups,
        coverage,
        table,
    }
}

/// Recorded on the parent commit (full-walk sweeps, `Vec<u8>` member
/// lists): the table's digest after each of the history's 24 sweeps.
const GOLDEN_SWEEP_DIGESTS: [u64; FLUSHES / SWEEP_EVERY] = [
    0xb7e4_be01_740b_597e,
    0x13fd_5066_91aa_e8ed,
    0x4589_83a6_1ae4_2887,
    0x57ac_cddc_7387_c4ef,
    0xa315_8847_abc1_e086,
    0xb787_d254_5a73_48f9,
    0xa137_e5b8_e6d3_3a10,
    0x7720_8bdd_c2be_8c99,
    0xfc7b_40c6_0a84_d6a9,
    0x1646_0c4f_798c_a66e,
    0x4eed_d456_ae94_fcf0,
    0xbb9e_c7e5_0000_cb98,
    0xf8f8_fc6f_29d1_5ade,
    0x2446_f35d_8062_c5ee,
    0x181a_0934_4e27_6b41,
    0x080f_1fff_5605_6ceb,
    0x5ca8_25cc_2d54_664b,
    0xee89_9c5d_958b_24ba,
    0xd47f_2869_f3eb_83ad,
    0xa5f4_be5f_7b03_e9ba,
    0xea2c_a109_ddf2_bf07,
    0x482a_2da6_9852_3340,
    0x0bc7_85dd_9ffc_c9e7,
    0xc4b0_b2a0_41b4_1eaa,
];

/// Recorded with the digests: the final table's segment count, segment
/// bytes, CRB bytes and deepest level stack.
const GOLDEN_FINAL: (usize, usize, usize, usize) = (1298, 10384, 2108, 23);

#[test]
fn sweeps_leave_the_recorded_table() {
    let History {
        sweeps: digests,
        coverage,
        table,
        ..
    } = run_history();
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

/// Recorded on the parent commit (`Vec<Level>` of `Vec<Segment>`, one
/// `Vec<u8>` per CRB run): the level stacks after the prefill and after
/// each flush's learn — what `insert_piece` and `place_below` build
/// before any sweep tidies it.
const GOLDEN_LEARN_DIGESTS: [u64; FLUSHES + 1] = [
    0x3122_51a8_c91d_eb45,
    0xac6f_dbfa_58e8_e812,
    0xaa92_9c82_c661_789c,
    0xa279_2575_1e6a_81fa,
    0xc736_c3ad_4941_8f30,
    0xf40f_1fba_b4dc_2b1e,
    0xac0e_e761_8e3c_2984,
    0x2083_d37f_59b5_dbcb,
    0xdc15_2a79_3714_b4b1,
    0x31b7_ab62_e248_61c6,
    0x2af8_d84f_0136_8c5c,
    0x1617_65a9_5358_fe4e,
    0x7d1f_2da3_eda1_ba98,
    0xc849_09fc_92dc_9a8f,
    0xb340_8e47_eef5_74fa,
    0xcbbc_7797_5fa6_c6c6,
    0x857d_ae84_bd9f_d796,
    0xd7f2_a3d2_0249_3edb,
    0x6ce9_1c60_5c80_8618,
    0x0d00_3cde_9810_60c0,
    0x3531_ebae_64de_2073,
    0x96e1_ec2d_228a_3abd,
    0x091c_38db_19d6_5896,
    0x2dd8_e017_242d_6d54,
    0xef70_1f2d_c999_0996,
    0xb408_645a_22fb_e41e,
    0xe944_ebd8_2f0d_8b2f,
    0x40ec_9c94_c653_bc45,
    0x2d2a_aaf8_8dd1_14ee,
    0x5676_5b90_77da_954d,
    0x11d3_9572_ca47_808b,
    0xcf60_ee93_3bce_690b,
    0x1d7a_534b_3007_1578,
    0xf135_daf6_7b5c_cbd8,
    0x74c6_f456_8d7e_94a8,
    0x3d6d_5837_8285_f3d1,
    0xbf40_da3e_3615_8003,
    0xbfbd_717f_8a6f_6181,
    0x07ea_8f60_739f_4a82,
    0xd694_7ad6_0565_b001,
    0x9f1d_2089_f5f1_5e25,
    0xe4f0_20a9_3431_36a6,
    0x7758_50a0_4690_d80a,
    0xbd4b_284d_22c6_7027,
    0x9413_5cb7_77ed_b287,
    0x523a_c1bd_ade5_9f1f,
    0x1011_72e8_0632_74dd,
    0xd4da_d510_5559_f3cd,
    0xcdd2_1357_e228_d2a1,
    0xbcbe_e828_f345_31e3,
    0x3611_a258_7e86_84e6,
    0xa59f_04f8_f679_b3ed,
    0x1882_752c_d3ac_851f,
    0x4e02_bbfd_7386_399e,
    0xff94_9964_8f00_fe05,
    0xf242_b518_bed8_353c,
    0xad03_e1eb_e8b8_ef18,
    0x56ee_eb9b_f99e_04be,
    0x77b5_2643_f57a_f5be,
    0x8ac4_1b5f_f4ea_a51a,
    0xa23f_19c1_dce6_3a0f,
    0xd0fb_0da2_dade_18c2,
    0xc6b5_fece_3239_5397,
    0xdf39_2dd2_b7fd_dd12,
    0x302a_91cb_c1d0_e069,
    0x73d0_87f7_1583_4b8e,
    0x287f_24a3_39de_8c41,
    0x6111_6622_95cd_df97,
    0x4483_c85d_3108_0e59,
    0xdffc_d325_3065_a102,
    0x1236_709a_15d6_783d,
    0x6e0f_77a2_47b2_4f65,
    0xd119_f8e7_94ed_2c72,
];

/// Recorded with them: every LPA's lookup (before, after) each sweep.
const GOLDEN_LOOKUP_DIGESTS: [(u64, u64); FLUSHES / SWEEP_EVERY] = [
    (0x062f_605e_1694_6956, 0x062f_605e_1694_6956),
    (0x8bbb_a29f_3a40_69dd, 0xab6f_db44_ccb7_685a),
    (0xd4ea_8855_ed97_9aba, 0x7af7_a4b5_7367_24c1),
    (0xe15a_0112_1a7d_9a25, 0x09d6_7f20_e817_2dcc),
    (0x1a4d_8837_9bca_d1d3, 0x309f_214a_3de3_89a9),
    (0xd6f0_280f_eb31_afef, 0x917a_1aca_a9c5_903b),
    (0xe280_f8fa_5429_c2fb, 0x9869_e989_b75d_f52f),
    (0x6225_338d_b338_a9b6, 0xd259_f96e_3fe9_cf77),
    (0x4c9d_057a_57bf_72bb, 0x204b_c449_a3c3_522a),
    (0x926f_d469_4ade_c27f, 0xb71e_67ac_8a9d_5062),
    (0x2bb6_ada9_c090_4d3a, 0x1699_a6b6_25e9_af88),
    (0x21c9_97b6_5cc0_bafe, 0xb5df_9d5b_c305_3963),
    (0x9898_3947_ac09_b87d, 0xfcd8_4e30_6a57_ac57),
    (0xd4d5_7cee_9fd7_ae23, 0x2049_20fe_9a40_91b0),
    (0xfd26_e890_071b_4735, 0x380c_79c6_3fec_30bb),
    (0x963c_301e_4560_8a35, 0x1579_fe33_a1b7_c525),
    (0x28e2_907d_72af_16b1, 0xf2a7_70da_d84e_2c8d),
    (0x5ba1_4603_ba71_7433, 0x88d2_c8ec_83f5_a66c),
    (0x231b_7522_4b11_b43b, 0xc5de_ec88_f6e0_1cd2),
    (0xb57c_3291_3dfe_c14b, 0xc270_e9a8_5902_b9a1),
    (0xbc0b_77fc_de43_846a, 0x2ebf_b060_3064_2988),
    (0xa58a_8d83_466d_08f2, 0x555f_9368_0b2b_09eb),
    (0xc456_8221_0279_2781, 0x1e5b_2676_a21c_d26d),
    (0xd0f2_5c51_f5ec_dcae, 0x23db_666b_5d0b_82cb),
];

#[test]
fn learns_and_lookups_match_the_record() {
    let history = run_history();
    let coverage = &history.coverage;

    // The history reaches the learn-path branches a flat layout has to
    // get right: a CRB rehead of a buried segment, a popped victim that
    // forces a fresh intermediate level, and a strided segment the
    // sweep trims around a hole in its grid.
    assert!(coverage.buried_reheads >= 1, "{coverage:?}");
    assert!(coverage.pushed_down_by_fresh_level >= 1, "{coverage:?}");
    assert!(coverage.strided_trimmed_to_hole >= 1, "{coverage:?}");

    assert_eq!(history.learns.len(), GOLDEN_LEARN_DIGESTS.len());
    for (learn, (got, want)) in history.learns.iter().zip(&GOLDEN_LEARN_DIGESTS).enumerate() {
        assert_eq!(
            got, want,
            "level stacks after learn {learn} (0 = prefill) differ from the record"
        );
    }
    assert_eq!(history.lookups.len(), GOLDEN_LOOKUP_DIGESTS.len());
    for (sweep, (got, want)) in history
        .lookups
        .iter()
        .zip(&GOLDEN_LOOKUP_DIGESTS)
        .enumerate()
    {
        assert_eq!(got.0, want.0, "lookups before sweep {sweep} differ");
        assert_eq!(got.1, want.1, "lookups after sweep {sweep} differ");
    }
}
