//! One 256-LPA group: log-structured levels + conflict resolution
//! buffer.
//!
//! Implements Algorithms 1 and 2 of the paper:
//!
//! * `insert_piece` — segment insert/update: new segments enter level 0;
//!   overlapping *victims* are merged (their outdated members trimmed via
//!   bitmap subtraction) and, if their interval still overlaps, pushed
//!   one level down (creating a level when that would overlap again, to
//!   avoid recursion);
//! * `lookup` — top-down search: first level whose covering segment
//!   *actually indexes* the LPA wins (stride test for accurate segments,
//!   CRB ownership for approximate ones);
//! * `compact` — one global sweep in freshness order: every segment is
//!   trimmed against the cumulative claims of everything fresher through
//!   the same bitmap kernel `insert_piece` merges victims with (fully
//!   shadowed segments disappear, CRB runs with them), then survivors
//!   are re-layered newest-first into the fewest levels the freshness
//!   invariant allows. The sweep is a fixpoint on its own output, so a
//!   group nothing was inserted into since its last sweep
//!   (`!is_dirty()`) need not be swept again, and it allocates nothing:
//!   claims are four words, survivors sit on the stack and levels are
//!   refilled in place.
//!
//! # Sharing
//!
//! A group is the table's unit of copy-on-write: `LeaFtlTable` holds
//! each one behind an `Arc` and clones it (`Group: Clone`, a deep copy
//! of the levels and the CRB) only when `insert_piece` or `compact` is
//! about to run on a group some table clone still holds. Every method
//! that mutates takes `&mut self`, so nothing here can change a shared
//! group in place.
//!
//! # Freshness invariant
//!
//! Segments are only inserted *above* everything they overlap, and a
//! victim's trimmed claims always have a fresher mapping in some level
//! above it. Consequently the first member hit in top-down order is the
//! live mapping — the property the oracle-equivalence proptests pin
//! down.

use crate::crb::{Crb, CrbPatch};
use crate::level::Level;
use crate::plr::LearnedPiece;
use crate::segment::Segment;
use leaftl_flash::Ppa;
use serde::{Deserialize, Serialize};

/// Result of a group lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupLookup {
    /// Predicted physical page address.
    pub ppa: Ppa,
    /// Whether the prediction came from an approximate segment (and may
    /// be off by at most the configured γ).
    pub approximate: bool,
    /// How many levels were visited to find the mapping (1 = top level).
    pub levels_visited: u32,
}

/// A set of group offsets — the member bitmap of Algorithm 2.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct OffsetSet([u64; 4]);

impl OffsetSet {
    fn from_members(members: &[u8]) -> Self {
        let mut set = OffsetSet::default();
        for &m in members {
            set.insert(m);
        }
        set
    }

    /// The stride grid `first, first + stride, … ≤ last`.
    fn strided(first: u8, last: u8, stride: u32) -> Self {
        let mut set = OffsetSet::default();
        if stride == 1 {
            for word in (first >> 6)..=(last >> 6) {
                let from = if word == first >> 6 { first & 63 } else { 0 };
                let to = if word == last >> 6 { last & 63 } else { 63 };
                set.0[word as usize] |= (u64::MAX >> (63 - (to - from))) << from;
            }
        } else {
            for x in (first as u32..=last as u32).step_by(stride as usize) {
                set.insert(x as u8);
            }
        }
        set
    }

    fn insert(&mut self, offset: u8) {
        self.0[(offset >> 6) as usize] |= 1u64 << (offset & 63);
    }

    fn union_with(&mut self, other: &OffsetSet) {
        for (a, b) in self.0.iter_mut().zip(other.0.iter()) {
            *a |= b;
        }
    }

    /// The offsets of `self` that are not in `other`.
    fn without(&self, other: &OffsetSet) -> OffsetSet {
        let mut rest = *self;
        for (a, b) in rest.0.iter_mut().zip(other.0.iter()) {
            *a &= !b;
        }
        rest
    }

    /// Smallest and largest offset, `None` when the set is empty.
    fn span(&self) -> Option<(u8, u8)> {
        let low = self.0.iter().position(|&w| w != 0)?;
        let high = self.0.iter().rposition(|&w| w != 0)?;
        Some((
            (low * 64) as u8 + self.0[low].trailing_zeros() as u8,
            (high * 64) as u8 + 63 - self.0[high].leading_zeros() as u8,
        ))
    }

    /// The offsets in ascending order.
    fn iter(&self) -> impl Iterator<Item = u8> + '_ {
        (0..=255u8).filter(|&x| self.0[(x >> 6) as usize] >> (x & 63) & 1 == 1)
    }
}

/// The per-group learned mapping structure.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Group {
    levels: Vec<Level>,
    crb: Crb,
    /// Live segment count across all levels, maintained on every
    /// insert/remove so [`Group::segment_count`] — polled by the table's
    /// aggregate counters on every mutation — never walks the levels
    /// ([`Group::recount_segments`] is the test oracle).
    segment_total: usize,
    /// Whether a piece was inserted since the last [`Group::compact`].
    dirty: bool,
}

impl Group {
    /// An empty group.
    pub fn new() -> Self {
        Group::default()
    }

    /// Number of levels currently in the log structure.
    pub fn level_count(&self) -> usize {
        self.levels.len()
    }

    /// Whether a piece was inserted since the last [`Group::compact`].
    /// A clean group is exactly what its last sweep left, and the sweep
    /// is a fixpoint on its own output (pinned by the
    /// `compaction_is_a_fixpoint` proptest), so sweeping it again would
    /// change nothing.
    pub fn is_dirty(&self) -> bool {
        self.dirty
    }

    /// Total number of segments across all levels. O(1) — served from
    /// the live counter.
    pub fn segment_count(&self) -> usize {
        self.segment_total
    }

    /// Recounts the segments with a full walk over the levels — the
    /// test oracle the incremental [`Group::segment_count`] counter is
    /// proved against.
    pub fn recount_segments(&self) -> usize {
        self.levels.iter().map(Level::len).sum()
    }

    /// CRB footprint in bytes (members + separators, Fig. 10). O(1).
    pub fn crb_bytes(&self) -> usize {
        self.crb.byte_size()
    }

    /// DRAM footprint of this group: 8 B per segment plus the CRB
    /// bytes — the per-group unit the table's incremental accounting
    /// and the demand-paging cache charge. O(1).
    pub fn byte_size(&self) -> usize {
        self.segment_total * Segment::ENCODED_BYTES + self.crb.byte_size()
    }

    /// Read access to the group's CRB.
    pub fn crb(&self) -> &Crb {
        &self.crb
    }

    /// Iterates all segments with their level index, top-down.
    pub fn iter_segments(&self) -> impl Iterator<Item = (usize, &Segment)> {
        self.levels
            .iter()
            .enumerate()
            .flat_map(|(idx, level)| level.iter().map(move |seg| (idx, seg)))
    }

    /// Number of LPAs a segment indexes: stride-grid size for accurate
    /// segments, CRB run length for approximate ones.
    pub fn member_count(&self, segment: &Segment) -> usize {
        if segment.is_accurate() {
            match segment.stride() {
                None => 1,
                Some(stride) => segment.len() as usize / stride as usize + 1,
            }
        } else {
            self.crb
                .members_of(segment.start())
                .map_or(0, |members| members.len())
        }
    }

    /// The offsets a segment claims (Algorithm 2 `get_bitmap`): the
    /// stride grid of an accurate segment, the CRB run of an
    /// approximate one.
    fn claim_of(&self, segment: &Segment) -> OffsetSet {
        if segment.is_accurate() {
            match segment.stride() {
                None => OffsetSet::from_members(&[segment.start()]),
                Some(stride) => OffsetSet::strided(segment.start(), segment.end(), stride),
            }
        } else {
            self.crb
                .members_of(segment.start())
                .map_or_else(OffsetSet::default, OffsetSet::from_members)
        }
    }

    /// Inserts a freshly learned piece (Algorithm 1, `seg_update` at
    /// level 0). For approximate pieces the member run is registered in
    /// the CRB first, deduplicating members from older runs.
    pub fn insert_piece(&mut self, piece: &LearnedPiece) {
        self.dirty = true;
        if piece.segment.is_approximate() {
            let patches = self.crb.insert_run(&piece.members);
            self.apply_patches(&patches);
        }
        let members = OffsetSet::from_members(&piece.members);
        self.seg_update_at(piece.segment, 0, &members);
        self.prune_empty_levels();
    }

    /// Mirrors CRB side effects (reheads/removals of older approximate
    /// runs) onto the segments stored in the levels.
    fn apply_patches(&mut self, patches: &[CrbPatch]) {
        for patch in patches {
            match *patch {
                CrbPatch::Rehead {
                    old_start,
                    new_start,
                    new_end,
                } => {
                    let mut found = false;
                    'levels: for level in &mut self.levels {
                        for idx in 0..level.len() {
                            let seg = level.segment(idx);
                            if seg.is_approximate() && seg.start() == old_start {
                                level
                                    .segment_mut(idx)
                                    .set_interval(new_start, new_end - new_start);
                                found = true;
                                break 'levels;
                            }
                        }
                    }
                    debug_assert!(found, "crb rehead of {old_start} found no segment");
                }
                CrbPatch::Remove { start } => {
                    let mut found = false;
                    for level in &mut self.levels {
                        if level.remove_by_start(start, true).is_some() {
                            found = true;
                            break;
                        }
                    }
                    debug_assert!(found, "crb removal of {start} found no segment");
                    if found {
                        self.segment_total -= 1;
                    }
                }
            }
        }
    }

    /// Algorithm 1 `seg_update`: merge the new segment's members against
    /// level `level_idx`'s victims, pop still-overlapping victims one
    /// level down, and insert the new segment in sorted position.
    fn seg_update_at(&mut self, segment: Segment, level_idx: usize, members: &OffsetSet) {
        while self.levels.len() <= level_idx {
            self.levels.push(Level::new());
        }
        let victim_range = self.levels[level_idx].overlapping_indices(&segment);
        let mut popped = Vec::new();
        for idx in victim_range.rev() {
            let victim = *self.levels[level_idx].segment(idx);
            match self.merge_victim(&victim, members).span() {
                None => {
                    self.levels[level_idx].remove(idx);
                    self.segment_total -= 1;
                }
                Some((first, last)) => {
                    let stored = self.levels[level_idx].segment_mut(idx);
                    stored.set_interval(first, last - first);
                    if segment.overlaps(stored) {
                        // Popped victims re-enter via `place_below`:
                        // net zero for the segment counter.
                        popped.push(self.levels[level_idx].remove(idx));
                    }
                }
            }
        }
        self.levels[level_idx].insert(segment);
        self.segment_total += 1;
        // Victims were collected right-to-left; restore start order so
        // they land in a shared level deterministically.
        for victim in popped.into_iter().rev() {
            self.place_below(victim, level_idx + 1);
        }
    }

    /// Algorithm 2 `seg_merge`: subtract the newer member bitmap from
    /// the victim's claim and return what it keeps, whose span is the
    /// victim's new interval; an empty set means the victim is gone.
    /// An approximate victim's CRB run follows the claim — spliced only
    /// when it actually lost members, removed when it lost them all.
    /// The victim's `K` and `I` are never touched — translation is
    /// independent of the interval.
    fn merge_victim(&mut self, victim: &Segment, newer: &OffsetSet) -> OffsetSet {
        let claim = self.claim_of(victim);
        let remaining = claim.without(newer);
        if victim.is_approximate() && remaining != claim {
            self.crb
                .replace_run(victim.start(), remaining.iter().collect());
        }
        remaining
    }

    /// Places a popped victim below `level_idx - 1`: into the level at
    /// `idx` when disjoint, otherwise into a fresh level created at
    /// `idx` ("create level for victim to avoid recursion",
    /// Algorithm 1 line 16).
    fn place_below(&mut self, victim: Segment, idx: usize) {
        if idx >= self.levels.len() {
            self.levels.push(Level::with_segment(victim));
        } else if self.levels[idx].has_overlap(&victim) {
            self.levels.insert(idx, Level::with_segment(victim));
        } else {
            self.levels[idx].insert(victim);
        }
    }

    fn prune_empty_levels(&mut self) {
        self.levels.retain(|level| !level.is_empty());
    }

    /// Algorithm 1 `lookup`: top-down search for the first level whose
    /// covering segment genuinely indexes `offset`.
    pub fn lookup(&self, offset: u8) -> Option<GroupLookup> {
        for (idx, level) in self.levels.iter().enumerate() {
            if let Some(segment) = level.find_covering(offset) {
                let is_member = if segment.is_accurate() {
                    segment.accurate_has_offset(offset)
                } else {
                    self.crb.owner_of(offset) == Some(segment.start())
                };
                if is_member {
                    return Some(GroupLookup {
                        ppa: segment.translate(offset),
                        approximate: segment.is_approximate(),
                        levels_visited: (idx + 1) as u32,
                    });
                }
            }
        }
        None
    }

    /// Algorithm 1 `seg_compact` for this group: a single global sweep
    /// in freshness order (top level first).
    ///
    /// Every segment is trimmed against the *cumulative* claim set of
    /// all fresher segments — not just the adjacent level, which is
    /// what makes the paper's T8 example and deep stacks alike collapse:
    /// a segment whose members are all shadowed anywhere above it is
    /// reclaimed outright (its CRB run with it). Survivors are then
    /// re-layered greedily, newest first, with each segment placed in
    /// the topmost level that (a) holds nothing it range-overlaps and
    /// (b) is below every fresher segment it range-overlaps — the
    /// ordering the lookup freshness invariant requires, because claim
    /// overlap implies range overlap.
    ///
    /// Post-state: every surviving segment is the lookup winner for at
    /// least one live LPA, so the segment count is bounded by the live
    /// mapping count (the §3.1 worst-case memory argument).
    pub fn compact(&mut self) {
        self.dirty = false;
        let mut levels = std::mem::take(&mut self.levels);
        // Survivors keep disjoint, non-empty member sets, so a group
        // has at most 256 of them.
        let mut kept = [Segment::decode(0); 256];
        let mut kept_len = 0;
        let mut cumulative = OffsetSet::default();
        for segment in levels.iter().flat_map(Level::iter) {
            let remaining = self.merge_victim(segment, &cumulative);
            if let Some((first, last)) = remaining.span() {
                // What the trimmed segment claims beyond `remaining`
                // (stride-grid holes) is in `cumulative` already.
                cumulative.union_with(&remaining);
                kept[kept_len] = *segment;
                kept[kept_len].set_interval(first, last - first);
                kept_len += 1;
            }
        }
        self.segment_total = kept_len;
        levels.iter_mut().for_each(Level::clear);
        // `depth[x]` = 1 + the deepest level holding a segment that
        // covers offset `x`. A segment must sit strictly below every
        // (fresher) segment already placed that it overlaps, i.e. just
        // past the deepest level covering any offset of its interval.
        // A second level needs a segment with two members, which
        // leaves at most 255 survivors: the depth fits a byte.
        let mut depth = [0u8; 256];
        let mut used = 0;
        for segment in &kept[..kept_len] {
            let covered = &mut depth[segment.start() as usize..=segment.end() as usize];
            let floor = covered.iter().copied().max().unwrap_or(0);
            covered.fill(floor + 1);
            let floor = floor as usize;
            if floor == levels.len() {
                levels.push(Level::new());
            }
            levels[floor].insert(*segment);
            used = used.max(floor + 1);
        }
        levels.truncate(used);
        self.levels = levels;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plr;

    /// Learns pieces for consecutive PPAs over the given offsets.
    fn learn(offsets: &[u8], first_ppa: u64, gamma: u32) -> Vec<LearnedPiece> {
        let points: Vec<(u8, u64)> = offsets
            .iter()
            .enumerate()
            .map(|(i, &x)| (x, first_ppa + i as u64))
            .collect();
        plr::fit(&points, gamma)
    }

    fn insert_all(group: &mut Group, pieces: Vec<LearnedPiece>) {
        for piece in &pieces {
            group.insert_piece(piece);
        }
    }

    /// The word-mask fast path, `span` and `iter` against the obvious
    /// per-offset definitions.
    #[test]
    fn offset_set_matches_naive_enumeration() {
        for (first, last) in [
            (0u8, 0u8),
            (0, 255),
            (5, 63),
            (63, 64),
            (64, 127),
            (70, 200),
        ] {
            for stride in [1u32, 2, 3, 64, 300] {
                let naive: Vec<u8> = (first as u32..=last as u32)
                    .step_by(stride as usize)
                    .map(|x| x as u8)
                    .collect();
                let set = OffsetSet::strided(first, last, stride);
                assert_eq!(
                    set,
                    OffsetSet::from_members(&naive),
                    "{first}..={last}/{stride}"
                );
                assert_eq!(set.iter().collect::<Vec<_>>(), naive);
                assert_eq!(set.span(), Some((naive[0], *naive.last().unwrap())));
            }
        }
        assert_eq!(OffsetSet::default().span(), None);
        let rest = OffsetSet::strided(10, 20, 1).without(&OffsetSet::strided(12, 30, 2));
        assert_eq!(
            rest.iter().collect::<Vec<_>>(),
            vec![10, 11, 13, 15, 17, 19]
        );
    }

    #[test]
    fn lookup_on_empty_group() {
        let group = Group::new();
        assert!(group.lookup(0).is_none());
        assert_eq!(group.level_count(), 0);
    }

    #[test]
    fn sequential_insert_and_lookup() {
        let mut group = Group::new();
        let offsets: Vec<u8> = (0..=63).collect();
        insert_all(&mut group, learn(&offsets, 1000, 0));
        for x in 0..=63u8 {
            let hit = group.lookup(x).expect("mapped");
            assert_eq!(hit.ppa.raw(), 1000 + x as u64);
            assert_eq!(hit.levels_visited, 1);
            assert!(!hit.approximate);
        }
        assert!(group.lookup(64).is_none());
        assert_eq!(group.segment_count(), 1);
    }

    /// The full Figure 13 timeline of the paper (T0–T8).
    #[test]
    fn paper_figure13_timeline() {
        let mut group = Group::new();

        // T0: initial accurate segment [0, 63].
        insert_all(&mut group, learn(&(0..=63).collect::<Vec<_>>(), 1000, 1));
        assert_eq!(group.level_count(), 1);

        // T1: update LPAs 200-255 — disjoint, stays in level 0.
        insert_all(&mut group, learn(&(200..=255).collect::<Vec<_>>(), 2000, 1));
        assert_eq!(group.level_count(), 1);
        assert_eq!(group.segment_count(), 2);

        // T2: update LPAs 16-31 — overlaps [0,63]; old segment keeps
        // members and moves to level 1.
        insert_all(&mut group, learn(&(16..=31).collect::<Vec<_>>(), 3000, 1));
        assert_eq!(group.level_count(), 2);

        // T3: update irregular [75, 82] (approximate).
        let t3 = learn(&[75, 78, 82], 4000, 1);
        assert_eq!(t3.len(), 1);
        assert!(t3[0].segment.is_approximate());
        insert_all(&mut group, t3);

        // T4: update irregular [72, 80] (approximate) — [75,82] pops to
        // level 1 (range overlap, no member overlap).
        let t4 = learn(&[72, 73, 80], 5000, 1);
        assert_eq!(t4.len(), 1);
        assert!(t4[0].segment.is_approximate());
        insert_all(&mut group, t4);
        assert_eq!(group.level_count(), 2);

        // T5: lookup LPA 50 — found in level 1's [0,63].
        let t5 = group.lookup(50).expect("LPA 50 mapped");
        assert_eq!(t5.ppa.raw(), 1050);
        assert_eq!(t5.levels_visited, 2);

        // T6: lookup LPA 78 — level 0's [72,80] covers it but the CRB
        // resolves it to the [75,82] segment in level 1.
        let t6 = group.lookup(78).expect("LPA 78 mapped");
        assert!(t6.approximate);
        assert!((t6.ppa.raw() as i64 - 4001).unsigned_abs() <= 1);
        assert_eq!(t6.levels_visited, 2);

        // T7: update LPAs 32-90 — fully covers [72,80]; that segment and
        // its CRB run disappear.
        insert_all(&mut group, learn(&(32..=90).collect::<Vec<_>>(), 6000, 1));
        let t7 = group.lookup(78).expect("LPA 78 remapped");
        assert!(!t7.approximate);
        assert_eq!(t7.ppa.raw(), 6000 + (78 - 32));

        // T8: compaction merges everything into a single level; the
        // shadowed [75,82] member set is fully covered and removed, so
        // the CRB empties.
        group.compact();
        assert_eq!(group.level_count(), 1);
        assert!(group.crb().is_empty());

        // Final state answers every mapped LPA correctly.
        for x in 0..=15u8 {
            assert_eq!(group.lookup(x).unwrap().ppa.raw(), 1000 + x as u64);
        }
        for x in 16..=31u8 {
            assert_eq!(group.lookup(x).unwrap().ppa.raw(), 3000 + (x - 16) as u64);
        }
        for x in 32..=90u8 {
            assert_eq!(group.lookup(x).unwrap().ppa.raw(), 6000 + (x - 32) as u64);
        }
        for x in 200..=255u8 {
            assert_eq!(group.lookup(x).unwrap().ppa.raw(), 2000 + (x - 200) as u64);
        }
        for x in 91..=199u8 {
            assert!(group.lookup(x).is_none(), "offset {x} must be unmapped");
        }
    }

    #[test]
    fn full_overwrite_removes_old_segment() {
        let mut group = Group::new();
        insert_all(&mut group, learn(&(10..=20).collect::<Vec<_>>(), 100, 0));
        insert_all(&mut group, learn(&(10..=20).collect::<Vec<_>>(), 500, 0));
        assert_eq!(group.segment_count(), 1);
        assert_eq!(group.level_count(), 1);
        for x in 10..=20u8 {
            assert_eq!(group.lookup(x).unwrap().ppa.raw(), 500 + (x - 10) as u64);
        }
    }

    #[test]
    fn partial_overwrite_keeps_unshadowed_members() {
        let mut group = Group::new();
        insert_all(&mut group, learn(&(0..=40).collect::<Vec<_>>(), 100, 0));
        insert_all(&mut group, learn(&(10..=20).collect::<Vec<_>>(), 900, 0));
        for x in 0..=9u8 {
            assert_eq!(group.lookup(x).unwrap().ppa.raw(), 100 + x as u64);
        }
        for x in 10..=20u8 {
            assert_eq!(group.lookup(x).unwrap().ppa.raw(), 900 + (x - 10) as u64);
        }
        for x in 21..=40u8 {
            assert_eq!(group.lookup(x).unwrap().ppa.raw(), 100 + x as u64);
        }
    }

    #[test]
    fn single_point_overwrites() {
        let mut group = Group::new();
        insert_all(&mut group, learn(&[7], 42, 0));
        insert_all(&mut group, learn(&[7], 43, 0));
        insert_all(&mut group, learn(&[7], 44, 0));
        assert_eq!(group.lookup(7).unwrap().ppa.raw(), 44);
        group.compact();
        assert_eq!(group.segment_count(), 1);
        assert_eq!(group.lookup(7).unwrap().ppa.raw(), 44);
    }

    #[test]
    fn compaction_preserves_every_mapping() {
        let mut group = Group::new();
        // Deterministic overwrite storm.
        let mut truth = vec![None::<u64>; 256];
        let mut state = 7u64;
        let mut next_ppa = 10_000u64;
        for _round in 0..50 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let start = (state >> 33) as u8;
            let len = 1 + ((state >> 25) as usize % 32);
            let offsets: Vec<u8> = (start as usize..(start as usize + len).min(256))
                .map(|x| x as u8)
                .collect();
            for (i, &x) in offsets.iter().enumerate() {
                truth[x as usize] = Some(next_ppa + i as u64);
            }
            insert_all(&mut group, learn(&offsets, next_ppa, 0));
            next_ppa += 1000;
        }
        group.compact();
        for x in 0..=255u8 {
            match truth[x as usize] {
                Some(ppa) => {
                    assert_eq!(group.lookup(x).unwrap().ppa.raw(), ppa, "offset {x}")
                }
                None => assert!(group.lookup(x).is_none(), "offset {x}"),
            }
        }
    }

    #[test]
    fn compaction_reduces_structure() {
        let mut group = Group::new();
        for round in 0..20u64 {
            insert_all(
                &mut group,
                learn(&(0..=63).collect::<Vec<_>>(), 1000 * round, 0),
            );
        }
        let before = group.segment_count();
        group.compact();
        assert!(group.segment_count() <= before);
        assert_eq!(group.segment_count(), 1, "full shadowing compacts to one");
        assert_eq!(group.level_count(), 1);
    }

    #[test]
    fn interleaved_approximate_segments_cannot_merge() {
        let mut group = Group::new();
        insert_all(&mut group, learn(&[100, 103, 106], 500, 2));
        insert_all(&mut group, learn(&[101, 104], 800, 2));
        group.compact();
        // Ranges interleave with disjoint members: both must survive.
        assert_eq!(group.segment_count(), 2);
        for (x, expect) in [
            (100u8, 500u64),
            (103, 501),
            (106, 502),
            (101, 800),
            (104, 801),
        ] {
            let hit = group.lookup(x).unwrap();
            assert!(
                (hit.ppa.raw() as i64 - expect as i64).unsigned_abs() <= 2,
                "offset {x}: {} vs {expect}",
                hit.ppa.raw()
            );
        }
    }

    /// The paper's Fig. 9b at group level: a new approximate segment
    /// whose S_LPA collides with an old one reheads the old segment and
    /// both remain resolvable through the CRB.
    #[test]
    fn same_start_approximate_segments_rehead() {
        let mut group = Group::new();
        insert_all(&mut group, learn(&[100, 101, 103, 104, 106], 4000, 2));
        insert_all(&mut group, learn(&[100, 102, 105], 5000, 2));
        // New segment owns 100; the old segment reheaded to 101.
        let hit = group.lookup(100).unwrap();
        assert!((hit.ppa.raw() as i64 - 5000).unsigned_abs() <= 2);
        let hit = group.lookup(101).unwrap();
        assert!((hit.ppa.raw() as i64 - 4001).unsigned_abs() <= 2);
        let hit = group.lookup(105).unwrap();
        assert!((hit.ppa.raw() as i64 - 5002).unsigned_abs() <= 2);
        // Both segments remain, with unique starts.
        let mut starts: Vec<u8> = group
            .iter_segments()
            .filter(|(_, s)| s.is_approximate())
            .map(|(_, s)| s.start())
            .collect();
        starts.sort_unstable();
        assert_eq!(starts, vec![100, 101]);
    }

    /// A new approximate segment that swallows an old one's members
    /// entirely removes both the segment and its CRB run.
    #[test]
    fn swallowed_approximate_segment_disappears() {
        let mut group = Group::new();
        insert_all(&mut group, learn(&[50, 53, 57], 1000, 2));
        insert_all(&mut group, learn(&[50, 53, 57, 60], 2000, 2));
        let approx: Vec<_> = group
            .iter_segments()
            .filter(|(_, s)| s.is_approximate())
            .collect();
        assert_eq!(approx.len(), 1, "old segment must be removed");
        assert_eq!(group.crb().run_count(), 1);
    }

    /// Victims that still overlap after a trim descend one level and,
    /// if the next level also conflicts, get a fresh level of their own
    /// (Algorithm 1 lines 13–16: "avoid recursion").
    #[test]
    fn pop_creates_intermediate_level_on_double_conflict() {
        let mut group = Group::new();
        // Three interleaved approximate segments, inserted oldest first.
        insert_all(&mut group, learn(&[10, 14, 18], 100, 2)); // oldest
        insert_all(&mut group, learn(&[11, 15, 19], 200, 2)); // pops oldest down
        insert_all(&mut group, learn(&[12, 16, 20], 300, 2)); // pops middle; conflicts below
        assert!(group.level_count() >= 3, "levels: {}", group.level_count());
        // Every member still resolves to its own segment within bound.
        for (x, base, idx) in [
            (10u8, 100u64, 0u64),
            (14, 100, 1),
            (11, 200, 0),
            (19, 200, 2),
            (12, 300, 0),
            (20, 300, 2),
        ] {
            let hit = group.lookup(x).unwrap();
            assert!(
                (hit.ppa.raw() as i64 - (base + idx) as i64).unsigned_abs() <= 2,
                "offset {x}"
            );
        }
    }

    #[test]
    fn member_counts_track_crb_and_stride() {
        let mut group = Group::new();
        insert_all(&mut group, learn(&[0, 2, 4, 6], 100, 0)); // stride 2 accurate
        insert_all(&mut group, learn(&[10, 11, 15], 200, 2)); // approximate
        let counts: Vec<usize> = group
            .iter_segments()
            .map(|(_, seg)| group.member_count(seg))
            .collect();
        let mut sorted = counts.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![3, 4]);
    }
}
