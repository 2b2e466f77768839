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
    0x2ccc_15b3_abd0_d50f,
    0x0bd5_5ad9_7ba1_6081,
    0xf505_6b54_48b7_c7c5,
    0x3145_9613_2477_e3f3,
    0xb4e5_5ef0_5a02_aae1,
    0x5daf_0a1c_c673_3f85,
    0x7b04_1131_8ebf_5581,
    0x8e57_f7af_69de_8f78,
    0xde1f_23c2_bc08_f6e1,
    0xfa49_f874_dc0e_e3ca,
    0x8650_d442_95b4_da12,
    0x11b8_b89b_2c5a_32ac,
    0x5ad6_da1e_7f9c_7b84,
    0x8fb4_8c8b_5d73_81b2,
    0xd8be_edb7_005a_ede4,
    0x14cf_8430_1aee_870c,
    0xa851_bcdd_8635_99c1,
    0x6db6_63d3_e332_0c0f,
    0x668d_4294_7201_3391,
    0xf90b_ecd9_0298_d8c3,
    0xf457_7550_e992_d91b,
    0xa5e9_4975_c19e_0236,
    0xa99a_7cc2_0e21_efa1,
    0xda40_f0e6_044b_8cb1,
    0x2aed_3bee_d1bb_4133,
    0x7930_9960_e9c1_ddf1,
    0xef9b_9e12_221c_3b59,
    0x12c7_4395_5c6d_d48f,
    0x7a9e_6878_935a_507b,
    0x146f_cff8_161c_1e50,
    0x2b8c_a527_b330_aa2b,
    0xa1a2_f032_5983_2d73,
    0x384e_32e4_83eb_f794,
    0xdafa_5b08_5679_13d3,
    0x0115_b7a9_56b2_9c50,
    0xf3fb_4c92_4be6_1172,
    0xf374_47bb_3087_72a2,
    0xb3e0_bfe0_4070_4c9f,
    0x23c7_0919_1153_4b0c,
    0xfa52_8971_826a_4458,
    0x913e_4aed_582a_07ee,
    0x5fea_bd58_0419_b019,
    0xa7c6_8b95_f5a2_4568,
    0xb614_5f42_de47_44bc,
    0xc61f_d363_e150_9678,
    0xb05f_1bc9_f506_95a6,
    0x010b_5120_b88f_d79e,
    0x7c84_16ea_e808_7ca4,
    0x7b89_0003_3987_7105,
    0x5b1e_c025_805d_7b1a,
    0x8d87_3482_95cd_7049,
    0xc267_d9af_2691_4589,
    0xa345_a486_e3cc_d048,
    0xcc6b_20b8_6628_07ac,
    0xa34b_b38d_d61e_8388,
    0x6240_a39d_e1f9_6268,
    0x972d_a466_ab4f_00a7,
    0x7c5f_f79b_a33c_efe3,
    0x9317_c523_ca66_ea9c,
    0xe806_8105_0a05_b959,
    0xf81e_73c9_f2a7_53c5,
    0x1a22_880c_e75a_b71b,
    0x5baf_f214_c3a6_67d3,
    0x07ca_53d1_2b42_f0ca,
    0xf951_06b6_5854_b876,
    0x93f8_e188_516e_dc9a,
    0xb735_f2b8_432f_379f,
    0x75ef_391a_1818_299a,
    0x4db3_698d_ad77_78f4,
    0x7afb_f832_ec39_8e5b,
    0x9ae0_98fd_043f_3c00,
    0x8293_ec4f_f51c_e995,
];

/// Recorded with them: every LPA's lookup (before, after) each sweep.
const GOLDEN_LOOKUP_DIGESTS: [(u64, u64); FLUSHES / SWEEP_EVERY] = [
    (0x9279_ba40_5aa7_1474, 0x9279_ba40_5aa7_1474),
    (0xb405_94a0_0da3_1700, 0x987d_5f80_acd2_e2c7),
    (0x14bb_36fc_6554_92d1, 0xa329_4071_ee15_454a),
    (0xfe07_cfb4_5cd8_b747, 0x15ec_fdee_10f7_1026),
    (0x2690_8dfd_fbd4_08a7, 0x6dc2_0ef5_37be_d3dd),
    (0xe582_3390_a2d5_2e9a, 0xa692_a56a_ce29_b7de),
    (0x1ee6_b7d3_8eee_fffe, 0x3ebb_01ea_d7bd_f28a),
    (0x4ba1_d21d_754b_5d3b, 0xbc50_81e6_f275_3eea),
    (0x0b67_5886_f4b9_8842, 0x30aa_0ad0_f8fc_239b),
    (0x8029_494d_c66c_9515, 0x35fd_4730_6d38_46a8),
    (0x12fb_5760_2491_50f7, 0x233e_0edc_1e59_82a1),
    (0x0551_9b1b_61bd_9ba2, 0xe131_ea24_3a6b_9693),
    (0x99a0_0714_53f8_5fb3, 0xcf54_d85c_cf68_79fd),
    (0xd1dd_5ada_0006_2737, 0x6c30_c53a_e42c_0dd0),
    (0x8e69_1fda_7a44_8d35, 0x0947_d9ef_ff39_351f),
    (0xe8aa_f9cf_4995_690b, 0xe051_42da_16e1_b5db),
    (0xa9ce_0d90_d97d_7ab6, 0xf2b9_703c_28c6_96a6),
    (0xceb5_f34e_7fb2_d7e4, 0x8b91_031b_a8f2_1cc7),
    (0x5043_88d9_be39_fc42, 0xe581_75b4_cbe0_2707),
    (0x5c6b_0d72_26ee_f2b1, 0x615c_6f1b_dc13_9793),
    (0x381c_e240_07f2_2f38, 0x846b_6d4a_d2fa_598e),
    (0x634a_2eff_dac9_e3e3, 0x88c7_7cff_7702_85be),
    (0x70c2_440c_784f_cbc4, 0x6773_059e_d230_cfa0),
    (0x31d8_0166_2908_3a24, 0xe558_ff2e_a415_ac59),
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
