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
//!   (`!is_dirty()`) need not be swept again.
//!
//! # Layout
//!
//! A group is one array: every segment of every level in one
//! `Vec<Segment>` ordered by (level, start), with one end index per
//! level beside it, plus the [`Crb`]'s byte list and its run starts —
//! at most four heap blocks, two when the group has no approximate
//! segment. Every kernel is a pass over that contiguous memory and
//! allocates nothing beyond the vectors' own growth: a lookup walks
//! one level slice after the next; an insert trims its victims where
//! they sit and *rotates* the popped ones past the end of level 0 into
//! the level below; the sweep closes survivors up toward the front as
//! it trims them — which, where little changed, is (level, start) order
//! already — and otherwise scatters them level by level. Claims are
//! four words whatever their shape — a stride grid is built a word at
//! a time, not a member at a time — and a victim the newer members miss
//! keeps its claim, its interval and its CRB run untouched.
//!
//! # Sharing
//!
//! A group is the table's unit of copy-on-write: `LeaFtlTable` holds
//! each one behind an `Arc` and clones it only when `insert_piece` or
//! `compact` is about to run on a group some other table still holds —
//! a clone, or the recovery baseline a persistence point keeps, which
//! holds every group as it was at that point until the next one
//! re-points the changed ones. `Group: Clone` copies those two to four
//! blocks — 8 bytes per segment, 4 per level, the CRB bytes — which is
//! all the first learn or sweep into a group after a persistence point
//! pays before it starts. Every method that mutates takes `&mut self`,
//! so nothing here can change a shared group in place.
//!
//! # Freshness invariant
//!
//! Segments are only inserted *above* everything they overlap, and a
//! victim's trimmed claims always have a fresher mapping in some level
//! above it. Consequently the first member hit in top-down order is the
//! live mapping — the property the oracle-equivalence proptests pin
//! down.

use crate::crb::{Crb, CrbPatch};
use crate::offsets::OffsetSet;
use crate::plr::LearnedPiece;
use crate::segment::Segment;
use leaftl_flash::Ppa;
use serde::{Deserialize, Serialize};
use std::ops::Range;

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

/// The segment of a level (sorted by start, disjoint intervals) whose
/// interval covers `offset`, if any.
fn find_covering(level: &[Segment], offset: u8) -> Option<&Segment> {
    let idx = level.partition_point(|s| s.start() <= offset);
    let candidate = level[..idx].last()?;
    candidate.covers(offset).then_some(candidate)
}

/// Indices of a level's segments whose intervals overlap `segment`'s.
/// They are contiguous because the level is sorted and disjoint.
fn overlapping(level: &[Segment], segment: &Segment) -> Range<usize> {
    let lo = level.partition_point(|s| s.end() < segment.start());
    let hi = level.partition_point(|s| s.start() <= segment.end());
    lo..hi
}

/// The per-group learned mapping structure.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Group {
    /// Every segment, ordered by (level, start); intervals within a
    /// level are disjoint (§3.4).
    segments: Vec<Segment>,
    /// `level_ends[l]` is one past level `l`'s last segment, so level
    /// `l` is `segments[level_ends[l - 1]..level_ends[l]]`. Strictly
    /// increasing between calls (no level is empty); `insert_piece`
    /// lets a level run empty while it works and prunes on return.
    level_ends: Vec<u32>,
    crb: Crb,
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
        self.level_ends.len()
    }

    /// Whether a piece was inserted since the last [`Group::compact`].
    /// A clean group is exactly what its last sweep left, and the sweep
    /// is a fixpoint on its own output (pinned by the
    /// `compaction_is_a_fixpoint` proptest), so sweeping it again would
    /// change nothing.
    pub fn is_dirty(&self) -> bool {
        self.dirty
    }

    /// Total number of segments across all levels. O(1).
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Recounts the segments level by level — the test oracle for
    /// [`Group::segment_count`]: the two agree exactly when the level
    /// boundaries tile the segment array.
    pub fn recount_segments(&self) -> usize {
        self.levels().map(<[Segment]>::len).sum()
    }

    /// CRB footprint in bytes (members + separators, Fig. 10). O(1).
    pub fn crb_bytes(&self) -> usize {
        self.crb.byte_size()
    }

    /// DRAM footprint of this group: 8 B per segment plus the CRB
    /// bytes — the per-group unit the table's incremental accounting
    /// and the demand-paging cache charge. O(1).
    pub fn byte_size(&self) -> usize {
        self.segments.len() * Segment::ENCODED_BYTES + self.crb.byte_size()
    }

    /// Read access to the group's CRB.
    pub fn crb(&self) -> &Crb {
        &self.crb
    }

    /// The levels, top-down, each a slice of the one segment array.
    pub(crate) fn levels(&self) -> impl Iterator<Item = &[Segment]> {
        self.level_ends.iter().scan(0, |from, &end| {
            let level = self.segments.get(*from..end as usize);
            *from = end as usize;
            level
        })
    }

    /// Iterates all segments with their level index, top-down.
    pub fn iter_segments(&self) -> impl Iterator<Item = (usize, &Segment)> {
        self.levels()
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

    /// The offsets a segment claims (Algorithm 2 `get_bitmap`) and the
    /// last of them — the first is its start: the stride grid of an
    /// accurate segment (whose interval ends on the grid: fitted that
    /// way, and only ever trimmed to a span of grid members), the CRB
    /// run of an approximate one (`None` if it has none).
    fn claim_of(&self, segment: &Segment) -> Option<(OffsetSet, u8)> {
        if segment.is_approximate() {
            let members = self.crb.members_of(segment.start())?;
            return Some((OffsetSet::from_members(members), *members.last()?));
        }
        let Some(stride) = segment.stride() else {
            return Some((OffsetSet::from_members(&[segment.start()]), segment.start()));
        };
        let claim = OffsetSet::strided(segment.start(), segment.end(), stride);
        debug_assert!(claim.contains(segment.end()), "{segment} ends off its grid");
        Some((claim, segment.end()))
    }

    /// Inserts a freshly learned piece (Algorithm 1, `seg_update` at
    /// level 0). For approximate pieces the member run is registered in
    /// the CRB first, deduplicating members from older runs.
    pub fn insert_piece(&mut self, piece: &LearnedPiece<'_>) {
        self.dirty = true;
        if piece.segment.is_approximate() {
            let Group {
                segments,
                level_ends,
                crb,
                ..
            } = self;
            crb.insert_run(piece.members, |patch| {
                apply_patch(segments, level_ends, patch)
            });
        }
        self.seg_update(piece.segment, &OffsetSet::from_members(piece.members));
        // Levels a removal emptied (level 0 holds the new segment).
        self.level_ends.dedup();
    }

    /// Algorithm 1 `seg_update` at level 0: merge the new segment's
    /// members against its victims there, insert it in sorted position
    /// and pop the victims that still overlap it one level down — into
    /// level 1 while they fit, and from the first that conflicts there
    /// into a fresh level of their own between the two ("create level
    /// for victim to avoid recursion", Algorithm 1 line 16). All of it
    /// happens inside the one segment array.
    fn seg_update(&mut self, segment: Segment, members: &OffsetSet) {
        if self.level_ends.is_empty() {
            self.level_ends.push(0);
        }
        let level0_end = self.level_ends[0] as usize;
        let victims = overlapping(&self.segments[..level0_end], &segment);
        // Trim the victims where they sit; the ones that keep a member
        // close ranks, still in start order.
        let mut kept_end = victims.start;
        for idx in victims.clone() {
            let mut victim = self.segments[idx];
            if let Some((_, first, last)) = self.merge_victim(&victim, members) {
                victim.set_interval(first, last - first);
                self.segments[kept_end] = victim;
                kept_end += 1;
            }
        }
        // Among them, those still overlapping the new segment are one
        // block again; it leaves level 0 and the segment takes its place.
        let popped = overlapping(&self.segments[victims.start..kept_end], &segment);
        let popped = victims.start + popped.start..victims.start + popped.end;
        if kept_end < victims.end {
            self.segments[popped.start..=kept_end].rotate_right(1);
            self.segments[popped.start] = segment;
            self.segments.drain(kept_end + 1..victims.end);
        } else {
            self.segments.insert(popped.start, segment);
        }
        let level0_len = level0_end + 1 - (victims.end - kept_end);
        for end in &mut self.level_ends[1..] {
            *end = *end + 1 - (victims.end - kept_end) as u32;
        }
        // The popped block rotates to the end of level 0 …
        self.segments[popped.start + 1..level0_len].rotate_left(popped.len());
        let below = level0_len - popped.len();
        self.level_ends[0] = below as u32;
        if popped.is_empty() {
            return;
        }
        // … where it sits between level 0 and level 1, in start order.
        let Some(&level1_end) = self.level_ends.get(1) else {
            self.level_ends.push(level0_len as u32);
            return;
        };
        let level1 = &self.segments[level0_len..level1_end as usize];
        let fits = self.segments[below..level0_len]
            .iter()
            .take_while(|victim| overlapping(level1, victim).is_empty())
            .count();
        // Victims from the first conflict on become the fresh level,
        // directly below level 0 …
        let mut joins = below..level0_len;
        if fits < popped.len() {
            self.segments[joins.clone()].rotate_left(fits);
            joins.start = level0_len - fits;
            self.level_ends.insert(1, joins.start as u32);
        }
        // … and those before it merge into the level that was level 1,
        // the last one first so each rotates past what it precedes.
        let level_end = level1_end as usize;
        for at in joins.rev() {
            let victim = self.segments[at];
            let ahead =
                self.segments[at + 1..level_end].partition_point(|s| s.start() < victim.start());
            self.segments[at..=at + ahead].rotate_left(1);
        }
    }

    /// Algorithm 2 `seg_merge`: subtract the newer member bitmap from
    /// the victim's claim and return what it keeps with its first and
    /// last offset — the victim's new interval; `None` means the victim
    /// is gone. A victim the newer members miss altogether keeps its
    /// claim as it is. An approximate victim's CRB run follows the claim
    /// — rewritten only when it actually lost members, removed when it
    /// lost them all. The victim's `K` and `I` are never touched —
    /// translation is independent of the interval.
    fn merge_victim(&mut self, victim: &Segment, newer: &OffsetSet) -> Option<(OffsetSet, u8, u8)> {
        let (claim, last) = self.claim_of(victim)?;
        if !claim.intersects(newer) {
            return Some((claim, victim.start(), last));
        }
        let remaining = claim.without(newer);
        if victim.is_approximate() {
            self.crb.replace_run(victim.start(), remaining.iter());
        }
        let (first, last) = remaining.span()?;
        Some((remaining, first, last))
    }

    /// Algorithm 1 `lookup`: top-down search for the first level whose
    /// covering segment genuinely indexes `offset`.
    pub fn lookup(&self, offset: u8) -> Option<GroupLookup> {
        // Which approximate segment owns the offset is a property of
        // the group, looked up when the first one covers it.
        let mut owner = None;
        for (idx, level) in self.levels().enumerate() {
            let Some(segment) = find_covering(level, offset) else {
                continue;
            };
            let is_member = if segment.is_accurate() {
                segment.accurate_has_offset(offset)
            } else {
                *owner.get_or_insert_with(|| self.crb.owner_of(offset)) == Some(segment.start())
            };
            if is_member {
                return Some(GroupLookup {
                    ppa: segment.translate(offset),
                    approximate: segment.is_approximate(),
                    levels_visited: (idx + 1) as u32,
                });
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
        // Survivors keep disjoint, non-empty member sets, so a group
        // has at most 256 of them. They close ranks at the front of the
        // array, in freshness order, each with the level it belongs on.
        let mut level_of = [0u8; 256];
        let mut kept_len = 0;
        // Whether that order is (level, start) order already — it is
        // wherever the sweep finds the levels as it would leave them.
        let mut in_order = true;
        let mut previous = (0, 0);
        // `depth[x]` = 1 + the deepest level holding a segment that
        // covers offset `x`. A segment must sit strictly below every
        // (fresher) segment already placed that it overlaps, i.e. just
        // past the deepest level covering any offset of its interval.
        // A second level needs a segment with two members, which
        // leaves at most 255 survivors: the depth fits a byte.
        let mut depth = [0u8; 256];
        // How many survivors each level receives; then, where its next
        // one goes.
        let mut slots = [0u32; 256];
        let mut cumulative = OffsetSet::default();
        for idx in 0..self.segments.len() {
            let mut segment = self.segments[idx];
            #[expect(
                clippy::len_zero,
                reason = "`Segment::is_empty` is always false; this asks for a zero-length interval"
            )]
            let level = if segment.is_accurate() && segment.len() == 0 {
                // Every other segment of an aged table indexes one
                // offset: a bit to test and set, a depth to bump.
                let offset = segment.start();
                if cumulative.contains(offset) {
                    continue;
                }
                cumulative.insert(offset);
                let below = &mut depth[offset as usize];
                *below += 1;
                *below - 1
            } else {
                let Some((remaining, first, last)) = self.merge_victim(&segment, &cumulative)
                else {
                    continue;
                };
                // What the trimmed segment claims beyond `remaining`
                // (stride-grid holes) is in `cumulative` already.
                cumulative.union_with(&remaining);
                segment.set_interval(first, last - first);
                let covered = &mut depth[first as usize..=last as usize];
                let level = covered.iter().copied().max().unwrap_or(0);
                covered.fill(level + 1);
                level
            };
            let place = (level, segment.start());
            in_order &= kept_len == 0 || previous < place;
            previous = place;
            self.segments[kept_len] = segment;
            level_of[kept_len] = level;
            slots[level as usize] += 1;
            kept_len += 1;
        }
        // Levels fill from the top without gaps (a segment lands on
        // level `l` only below one on `l - 1`): turn the counts into
        // each level's end.
        self.segments.truncate(kept_len);
        self.level_ends.clear();
        let mut end = 0;
        for slot in slots.iter_mut().take_while(|len| **len > 0) {
            let len = std::mem::replace(slot, end);
            end += len;
            self.level_ends.push(end);
        }
        if in_order {
            return;
        }
        // Otherwise scatter every survivor to its level's next free
        // slot, then put each level in start order.
        let mut kept = [Segment::decode(0); 256];
        kept[..kept_len].copy_from_slice(&self.segments);
        for (segment, &level) in kept[..kept_len].iter().zip(&level_of) {
            let slot = &mut slots[level as usize];
            self.segments[*slot as usize] = *segment;
            *slot += 1;
        }
        let mut from = 0;
        for &end in &self.level_ends {
            let level = &mut self.segments[from..end as usize];
            if !level.is_sorted_by_key(Segment::start) {
                level.sort_unstable_by_key(Segment::start);
            }
            from = end as usize;
        }
    }
}

/// Mirrors one CRB side effect (the rehead or removal of an older
/// approximate run) onto the segment that owns the run: the one
/// approximate segment starting at the run's old head, wherever in the
/// array it sits. A removal may leave its level empty; `insert_piece`
/// prunes once it is done.
fn apply_patch(segments: &mut Vec<Segment>, level_ends: &mut [u32], patch: CrbPatch) {
    let (CrbPatch::Rehead { old_start, .. } | CrbPatch::Remove { start: old_start }) = patch;
    let found = segments
        .iter()
        .position(|s| s.is_approximate() && s.start() == old_start);
    debug_assert!(found.is_some(), "{patch:?} found no segment");
    let Some(at) = found else {
        return;
    };
    match patch {
        CrbPatch::Rehead {
            new_start, new_end, ..
        } => segments[at].set_interval(new_start, new_end - new_start),
        CrbPatch::Remove { .. } => {
            segments.remove(at);
            for end in level_ends.iter_mut().filter(|end| **end as usize > at) {
                *end -= 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plr;

    /// Learns consecutive PPAs over the given offsets into the group;
    /// returns the segments learned.
    fn learn(group: &mut Group, offsets: &[u8], first_ppa: u64, gamma: u32) -> Vec<Segment> {
        let ppas: Vec<u64> = (first_ppa..).take(offsets.len()).collect();
        plr::fit(offsets, &ppas, gamma)
            .map(|piece| {
                group.insert_piece(&piece);
                piece.segment
            })
            .collect()
    }

    fn seg(start: u8, len: u8) -> Segment {
        Segment::from_parts(start, len, 0x3c00, 0)
    }

    /// `find_covering` agrees with the definition on a short and on a
    /// long level, on every offset.
    #[test]
    fn find_covering_hits_and_misses() {
        let short = [seg(10, 5), seg(30, 0)];
        let long: Vec<Segment> = (0..40u8).map(|i| seg(6 * i, i % 5)).collect();
        for level in [&short[..], &long[..]] {
            for offset in 0..=255u8 {
                let expected = level
                    .iter()
                    .find(|s| s.start() <= offset && offset <= s.end());
                assert_eq!(find_covering(level, offset), expected, "offset {offset}");
            }
        }
        assert_eq!(find_covering(&short, 15).map(Segment::start), Some(10));
        assert!(find_covering(&short, 16).is_none());
        assert!(find_covering(&[], 0).is_none());
    }

    #[test]
    fn overlapping_ranges() {
        let level = [seg(10, 5), seg(20, 5), seg(40, 5)];
        assert_eq!(overlapping(&level, &seg(0, 5)), 0..0);
        assert_eq!(overlapping(&level, &seg(12, 10)), 0..2); // hits both
        assert_eq!(overlapping(&level, &seg(26, 5)), 2..2); // between
        assert_eq!(overlapping(&level, &seg(15, 30)), 0..3); // hits all
        assert_eq!(overlapping(&level, &seg(46, 9)), 3..3);
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
        learn(&mut group, &offsets, 1000, 0);
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
        learn(&mut group, &(0..=63).collect::<Vec<_>>(), 1000, 1);
        assert_eq!(group.level_count(), 1);

        // T1: update LPAs 200-255 — disjoint, stays in level 0.
        learn(&mut group, &(200..=255).collect::<Vec<_>>(), 2000, 1);
        assert_eq!(group.level_count(), 1);
        assert_eq!(group.segment_count(), 2);

        // T2: update LPAs 16-31 — overlaps [0,63]; old segment keeps
        // members and moves to level 1.
        learn(&mut group, &(16..=31).collect::<Vec<_>>(), 3000, 1);
        assert_eq!(group.level_count(), 2);

        // T3: update irregular [75, 82] (approximate).
        let t3 = learn(&mut group, &[75, 78, 82], 4000, 1);
        assert_eq!(t3.len(), 1);
        assert!(t3[0].is_approximate());

        // T4: update irregular [72, 80] (approximate) — [75,82] pops to
        // level 1 (range overlap, no member overlap).
        let t4 = learn(&mut group, &[72, 73, 80], 5000, 1);
        assert_eq!(t4.len(), 1);
        assert!(t4[0].is_approximate());
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
        learn(&mut group, &(32..=90).collect::<Vec<_>>(), 6000, 1);
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
        learn(&mut group, &(10..=20).collect::<Vec<_>>(), 100, 0);
        learn(&mut group, &(10..=20).collect::<Vec<_>>(), 500, 0);
        assert_eq!(group.segment_count(), 1);
        assert_eq!(group.level_count(), 1);
        for x in 10..=20u8 {
            assert_eq!(group.lookup(x).unwrap().ppa.raw(), 500 + (x - 10) as u64);
        }
    }

    #[test]
    fn partial_overwrite_keeps_unshadowed_members() {
        let mut group = Group::new();
        learn(&mut group, &(0..=40).collect::<Vec<_>>(), 100, 0);
        learn(&mut group, &(10..=20).collect::<Vec<_>>(), 900, 0);
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
        learn(&mut group, &[7], 42, 0);
        learn(&mut group, &[7], 43, 0);
        learn(&mut group, &[7], 44, 0);
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
            learn(&mut group, &offsets, next_ppa, 0);
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
            learn(&mut group, &(0..=63).collect::<Vec<_>>(), 1000 * round, 0);
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
        learn(&mut group, &[100, 103, 106], 500, 2);
        learn(&mut group, &[101, 104], 800, 2);
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
        learn(&mut group, &[100, 101, 103, 104, 106], 4000, 2);
        learn(&mut group, &[100, 102, 105], 5000, 2);
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
        learn(&mut group, &[50, 53, 57], 1000, 2);
        learn(&mut group, &[50, 53, 57, 60], 2000, 2);
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
        learn(&mut group, &[10, 14, 18], 100, 2); // oldest
        learn(&mut group, &[11, 15, 19], 200, 2); // pops oldest down
        learn(&mut group, &[12, 16, 20], 300, 2); // pops middle; conflicts below
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

    /// One insert pops two victims: the first fits the level below and
    /// joins it in start order, the second conflicts there and gets the
    /// fresh level in between.
    #[test]
    fn popped_victims_split_between_the_level_below_and_a_fresh_one() {
        let every_other = |from: u8, to: u8| (from..=to).step_by(2).collect::<Vec<u8>>();
        let mut group = Group::new();
        learn(&mut group, &every_other(21, 35), 100, 0);
        learn(&mut group, &every_other(20, 30), 200, 0); // pops [21, 35] to level 1
        learn(&mut group, &every_other(0, 10), 300, 0);
        let layout = |group: &Group| -> Vec<(usize, u8, u8)> {
            group
                .iter_segments()
                .map(|(level, s)| (level, s.start(), s.end()))
                .collect()
        };
        assert_eq!(layout(&group), vec![(0, 0, 10), (0, 20, 30), (1, 21, 35)]);
        // Shares no member with either level-0 segment, overlaps both.
        learn(&mut group, &every_other(5, 27), 400, 0);
        assert_eq!(
            layout(&group),
            vec![(0, 5, 27), (1, 20, 30), (2, 0, 10), (2, 21, 35)]
        );
        assert_eq!(group.recount_segments(), group.segment_count());
        assert_eq!(group.lookup(8).unwrap().levels_visited, 3);
        assert_eq!(group.lookup(22).unwrap().levels_visited, 2);
        assert_eq!(group.lookup(23).unwrap().ppa.raw(), 400 + 9);
        assert_eq!(group.lookup(29).unwrap().ppa.raw(), 100 + 4);
    }

    #[test]
    fn member_counts_track_crb_and_stride() {
        let mut group = Group::new();
        learn(&mut group, &[0, 2, 4, 6], 100, 0); // stride 2 accurate
        learn(&mut group, &[10, 11, 15], 200, 2); // approximate
        let counts: Vec<usize> = group
            .iter_segments()
            .map(|(_, seg)| group.member_count(seg))
            .collect();
        let mut sorted = counts.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![3, 4]);
    }
}
