//! Conflict Resolution Buffer (CRB, §3.4 of the paper).
//!
//! Approximate segments are learned from irregular patterns, so their
//! member LPAs cannot be inferred from `(S, L, K, I)`. Each 256-LPA
//! group keeps a CRB recording, for every approximate segment, exactly
//! which group offsets it indexes. It is the paper's nearly-sorted byte
//! list: one `Vec<u8>` holding every run's offsets back to back, the
//! runs in head order, and beside it one position per run where the
//! paper writes a null separator. Its invariants:
//!
//! 1. offsets of one segment are stored contiguously (a *run*),
//! 2. runs are sorted by their starting offset,
//! 3. an offset appears at most once in the whole CRB (inserting a new
//!    run removes its offsets from older runs),
//! 4. run starting offsets are unique — this follows from invariant 3
//!    and identifies the owning segment during lookup.
//!
//! Finding an offset's owner walks the runs whose span can hold it
//! ("find the offset, walk left to the run head", Fig. 9b) and a run's
//! members are a sub-slice of the list; every mutation is a pass over
//! the same bytes —
//! deduplication compacts them in place, a run that lost its head is
//! rotated back into head order — so the buffer never allocates beyond
//! the two vectors' growth, and copying it copies two blocks.
//!
//! Byte accounting matches the paper: one byte per stored offset plus a
//! null separator per run (Fig. 10 reports ~14 B per group on average).

use crate::offsets::OffsetSet;
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Side effects of a CRB mutation that the owning group must mirror in
/// its log-structured levels (the run start identifies the segment).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrbPatch {
    /// An older run lost its head; the owning segment's interval must be
    /// updated to `[new_start, new_end]`.
    Rehead {
        /// Previous starting offset (segment identity before the patch).
        old_start: u8,
        /// New first member.
        new_start: u8,
        /// New last member.
        new_end: u8,
    },
    /// An older run lost all members; the owning segment must be removed.
    Remove {
        /// Starting offset of the emptied run.
        start: u8,
    },
}

/// The per-group conflict resolution buffer.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Crb {
    /// Every run's member offsets (sorted within a run, never empty),
    /// the runs back to back in head order.
    bytes: Vec<u8>,
    /// Where each run begins in `bytes`, ascending; a run ends where
    /// the next begins. One entry per run — the paper's separator.
    starts: Vec<u16>,
}

impl Crb {
    /// An empty CRB.
    pub fn new() -> Self {
        Crb::default()
    }

    /// The byte range of run `run`.
    fn range(&self, run: usize) -> Range<usize> {
        let end = self
            .starts
            .get(run + 1)
            .map_or(self.bytes.len(), |&s| s as usize);
        self.starts[run] as usize..end
    }

    /// The first member of run `run`.
    fn head(&self, run: usize) -> u8 {
        self.bytes[self.starts[run] as usize]
    }

    /// The index of the run whose head is `start`, or where such a run
    /// would go.
    fn find(&self, start: u8) -> Result<usize, usize> {
        self.starts
            .binary_search_by_key(&start, |&at| self.bytes[at as usize])
    }

    /// The runs' member lists, in head order.
    pub(crate) fn runs(&self) -> impl Iterator<Item = &[u8]> {
        (0..self.starts.len()).map(|run| &self.bytes[self.range(run)])
    }

    /// Registers the member set of a newly learned approximate segment.
    ///
    /// Removes the new members from every older run (invariant 3) and
    /// hands `on_patch` the segment patches the group must apply for
    /// runs that lost their head or emptied entirely, in head order. The
    /// paper's special case — a new segment sharing its `S_LPA` with an
    /// existing one — falls out naturally: the shared head is
    /// deduplicated from the old run, which reheads it (§3.4, Fig. 9b).
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty or not strictly increasing.
    pub fn insert_run(&mut self, members: &[u8], mut on_patch: impl FnMut(CrbPatch)) {
        assert!(!members.is_empty(), "crb runs cannot be empty");
        assert!(
            members.windows(2).all(|w| w[0] < w[1]),
            "crb run members must be strictly increasing"
        );
        let newer = OffsetSet::from_members(members);
        let (first, last) = (members[0], members[members.len() - 1]);
        // One pass over the byte list: older runs keep what the new run
        // does not claim, compacted toward the front. Only a run whose
        // own span meets the new run's can hold one of its offsets; the
        // others move down a block at a time (or stay where they are).
        let (mut write, mut kept_runs, mut reheaded) = (0, 0, false);
        for run in 0..self.starts.len() {
            let range = self.range(run);
            let (old_start, old_end, begin) =
                (self.bytes[range.start], self.bytes[range.end - 1], write);
            if old_start > last || old_end < first {
                if write != range.start {
                    self.bytes.copy_within(range.clone(), write);
                }
                write += range.len();
            } else {
                for read in range {
                    let member = self.bytes[read];
                    if !newer.contains(member) {
                        self.bytes[write] = member;
                        write += 1;
                    }
                }
                if write == begin {
                    on_patch(CrbPatch::Remove { start: old_start });
                    continue;
                }
                if self.bytes[begin] != old_start {
                    reheaded = true;
                    on_patch(CrbPatch::Rehead {
                        old_start,
                        new_start: self.bytes[begin],
                        new_end: self.bytes[write - 1],
                    });
                }
            }
            self.starts[kept_runs] = begin as u16;
            kept_runs += 1;
        }
        self.bytes.truncate(write);
        self.starts.truncate(kept_runs);
        if reheaded {
            self.restore_head_order();
        }
        let run = match self.find(members[0]) {
            Ok(run) | Err(run) => run,
        };
        debug_assert!(
            run == self.starts.len() || self.head(run) != members[0],
            "run start {} already present after dedup",
            members[0]
        );
        let at = self
            .starts
            .get(run)
            .map_or(self.bytes.len(), |&s| s as usize);
        self.bytes.extend_from_slice(members);
        self.bytes[at..].rotate_right(members.len());
        for start in &mut self.starts[run..] {
            *start += members.len() as u16;
        }
        self.starts.insert(run, at as u16);
    }

    /// Puts the runs back in head order after some heads moved up (a
    /// trimmed head can leapfrog an interleaved run): an insertion sort
    /// that swaps neighbouring runs by rotating their bytes.
    fn restore_head_order(&mut self) {
        for run in 1..self.starts.len() {
            let mut right = run;
            while right > 0 && self.head(right - 1) > self.head(right) {
                let (left, right_range) = (self.range(right - 1), self.range(right));
                self.bytes[left.start..right_range.end].rotate_left(left.len());
                self.starts[right] = (left.start + right_range.len()) as u16;
                right -= 1;
            }
        }
    }

    /// Which approximate segment (identified by its run start) indexes
    /// `offset`, if any. This is the lookup primitive of Fig. 9b: find
    /// the offset in the buffer, step left to the run head.
    pub fn owner_of(&self, offset: u8) -> Option<u8> {
        // Runs are in head order and a run holds nothing below its head
        // or above its last member.
        let candidates = self
            .starts
            .partition_point(|&at| self.bytes[at as usize] <= offset);
        self.runs().take(candidates).find_map(|members| {
            let (head, last) = (members[0], members[members.len() - 1]);
            (last >= offset && members.binary_search(&offset).is_ok()).then_some(head)
        })
    }

    /// Member offsets of the run starting at `start`.
    pub fn members_of(&self, start: u8) -> Option<&[u8]> {
        let run = self.find(start).ok()?;
        Some(&self.bytes[self.range(run)])
    }

    /// Replaces the member set of the run starting at `old_start` after
    /// a segment merge trimmed it (Algorithm 2 lines 24–25). An empty
    /// `remaining` removes the run.
    ///
    /// # Panics
    ///
    /// Panics if no run starts at `old_start` or `remaining` yields more
    /// members than the run held (it must be a strictly increasing
    /// subset of them).
    pub fn replace_run(&mut self, old_start: u8, remaining: impl IntoIterator<Item = u8>) {
        let run = self
            .find(old_start)
            .unwrap_or_else(|_| panic!("no crb run starts at {old_start}"));
        let range = self.range(run);
        let mut write = range.start;
        for member in remaining {
            assert!(
                write < range.end,
                "more members than the crb run at {old_start} held"
            );
            self.bytes[write] = member;
            write += 1;
        }
        debug_assert!(self.bytes[range.start..write]
            .windows(2)
            .all(|w| w[0] < w[1]));
        self.close_gap(run, write..range.end);
        // Trimming the head can reorder interleaved runs; restore start
        // order so binary searches stay sound.
        if write > range.start && self.bytes[range.start] != old_start {
            self.restore_head_order();
        }
    }

    /// Drops `gap`, the tail of run `run`'s bytes (all of them removes
    /// the run), and moves every later run down.
    fn close_gap(&mut self, run: usize, gap: Range<usize>) {
        let emptied = gap.start == self.starts[run] as usize;
        for start in &mut self.starts[run + 1..] {
            *start -= gap.len() as u16;
        }
        self.bytes.drain(gap);
        if emptied {
            self.starts.remove(run);
        }
    }

    /// Total bytes: one per member plus one null separator per run
    /// (paper Fig. 10 accounting). O(1).
    pub fn byte_size(&self) -> usize {
        self.bytes.len() + self.starts.len()
    }

    /// Number of member offsets stored across all runs. O(1).
    pub fn total_members(&self) -> usize {
        self.bytes.len()
    }

    /// Recounts the members run by run — the test oracle for
    /// [`Crb::total_members`]: the two agree exactly when the run
    /// boundaries tile the byte list.
    pub fn recount_members(&self) -> usize {
        self.runs().map(<[u8]>::len).sum()
    }

    /// Number of runs (approximate segments tracked).
    pub fn run_count(&self) -> usize {
        self.starts.len()
    }

    /// Whether the CRB holds no runs.
    pub fn is_empty(&self) -> bool {
        self.starts.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Inserts a run and collects the patches it raises.
    fn insert(crb: &mut Crb, members: &[u8]) -> Vec<CrbPatch> {
        let mut patches = Vec::new();
        crb.insert_run(members, |patch| patches.push(patch));
        patches
    }

    /// The byte list as the paper draws it: runs in head order.
    fn layout(crb: &Crb) -> Vec<Vec<u8>> {
        crb.runs().map(<[u8]>::to_vec).collect()
    }

    #[test]
    fn insert_and_lookup() {
        let mut crb = Crb::new();
        assert!(insert(&mut crb, &[100, 103, 106]).is_empty());
        assert_eq!(crb.owner_of(100), Some(100));
        assert_eq!(crb.owner_of(103), Some(100));
        assert_eq!(crb.owner_of(104), None);
        assert_eq!(crb.members_of(100), Some(&[100u8, 103, 106][..]));
        assert_eq!(crb.byte_size(), 4); // 3 members + 1 separator
    }

    #[test]
    fn dedup_removes_members_from_old_runs() {
        let mut crb = Crb::new();
        insert(&mut crb, &[100, 103, 106]);
        let patches = insert(&mut crb, &[103, 104]);
        assert!(patches.is_empty()); // head of old run unchanged
        assert_eq!(crb.members_of(100), Some(&[100u8, 106][..]));
        assert_eq!(crb.owner_of(103), Some(103));
        assert_eq!(crb.owner_of(104), Some(103));
    }

    #[test]
    fn paper_fig9b_same_start_reheads_old_run() {
        // Old approximate segment starts at 100; a new one with the same
        // S_LPA arrives; the old segment's head moves to its next member.
        let mut crb = Crb::new();
        insert(&mut crb, &[100, 101, 103, 104, 106]);
        let patches = insert(&mut crb, &[100, 102, 105]);
        assert_eq!(
            patches,
            vec![CrbPatch::Rehead {
                old_start: 100,
                new_start: 101,
                new_end: 106
            }]
        );
        assert_eq!(crb.owner_of(100), Some(100));
        assert_eq!(crb.owner_of(101), Some(101));
        assert_eq!(crb.owner_of(105), Some(100));
        assert_eq!(crb.members_of(101), Some(&[101u8, 103, 104, 106][..]));
    }

    #[test]
    fn emptied_run_is_removed_with_patch() {
        let mut crb = Crb::new();
        insert(&mut crb, &[10, 20]);
        let patches = insert(&mut crb, &[10, 20, 30]);
        assert_eq!(patches, vec![CrbPatch::Remove { start: 10 }]);
        assert_eq!(crb.run_count(), 1);
        assert_eq!(crb.owner_of(20), Some(10)); // owned by the new run
        assert_eq!(crb.members_of(10), Some(&[10u8, 20, 30][..]));
    }

    #[test]
    fn interleaved_runs_resolve_owners() {
        let mut crb = Crb::new();
        insert(&mut crb, &[100, 103, 106]);
        insert(&mut crb, &[101, 104]);
        assert_eq!(crb.owner_of(103), Some(100));
        assert_eq!(crb.owner_of(104), Some(101));
        assert_eq!(crb.owner_of(106), Some(100));
        assert_eq!(crb.owner_of(102), None);
    }

    #[test]
    fn replace_run_trims_and_removes() {
        let mut crb = Crb::new();
        insert(&mut crb, &[5, 8, 11]);
        crb.replace_run(5, vec![8, 11]);
        assert_eq!(crb.owner_of(5), None);
        assert_eq!(crb.members_of(8), Some(&[8u8, 11][..]));
        crb.replace_run(8, vec![]);
        assert!(crb.is_empty());
    }

    #[test]
    fn offsets_unique_across_runs() {
        let mut crb = Crb::new();
        insert(&mut crb, &[0, 50, 100]);
        insert(&mut crb, &[25, 50, 75]);
        insert(&mut crb, &[50, 60]);
        // 50 must appear exactly once, owned by the newest run.
        let mut count = 0;
        for start in [0u8, 25, 50] {
            if let Some(members) = crb.members_of(start) {
                count += members.iter().filter(|&&m| m == 50).count();
            }
        }
        assert_eq!(count, 1);
        assert_eq!(crb.owner_of(50), Some(50));
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn rejects_unsorted_run() {
        let mut crb = Crb::new();
        insert(&mut crb, &[3, 1]);
    }

    /// A trimmed head can leapfrog an interleaved run; the byte list
    /// goes back to head order, whichever mutation moved the head.
    #[test]
    fn runs_stay_in_head_order_when_heads_move() {
        let mut crb = Crb::new();
        insert(&mut crb, &[10, 40, 50]);
        insert(&mut crb, &[20, 45]);
        insert(&mut crb, &[30, 60]);
        assert_eq!(
            layout(&crb),
            vec![vec![10, 40, 50], vec![20, 45], vec![30, 60]]
        );
        // The new run takes both 10 and 20: two runs rehead past 30.
        let patches = insert(&mut crb, &[5, 10, 20]);
        assert_eq!(
            patches,
            vec![
                CrbPatch::Rehead {
                    old_start: 10,
                    new_start: 40,
                    new_end: 50
                },
                CrbPatch::Rehead {
                    old_start: 20,
                    new_start: 45,
                    new_end: 45
                },
            ]
        );
        assert_eq!(
            layout(&crb),
            vec![vec![5, 10, 20], vec![30, 60], vec![40, 50], vec![45]]
        );
        // A merge trims a head: that run alone moves.
        crb.replace_run(5, [20]);
        assert_eq!(
            layout(&crb),
            vec![vec![20], vec![30, 60], vec![40, 50], vec![45]]
        );
        crb.replace_run(20, []);
        crb.replace_run(30, [60]);
        assert_eq!(layout(&crb), vec![vec![40, 50], vec![45], vec![60]]);
        for (offset, owner) in [(40, 40), (50, 40), (45, 45), (60, 60)] {
            assert_eq!(crb.owner_of(offset), Some(owner));
        }
        assert_eq!(crb.owner_of(30), None);
        assert_eq!(crb.members_of(45), Some(&[45u8][..]));
        assert_eq!(crb.total_members(), crb.recount_members());
        assert_eq!(crb.byte_size(), 4 + 3);
    }

    #[test]
    #[should_panic(expected = "more members")]
    fn replace_run_rejects_a_superset() {
        let mut crb = Crb::new();
        insert(&mut crb, &[1, 2]);
        insert(&mut crb, &[5, 6]);
        crb.replace_run(1, [1, 2, 3]);
    }

    #[test]
    fn member_counter_tracks_every_mutation() {
        let mut crb = Crb::new();
        insert(&mut crb, &[0, 50, 100]);
        insert(&mut crb, &[25, 50, 75]); // dedups 50 from the first run
        assert_eq!(crb.total_members(), crb.recount_members());
        insert(&mut crb, &[0, 25]); // reheads both older runs
        assert_eq!(crb.total_members(), crb.recount_members());
        crb.replace_run(50, vec![75]);
        assert_eq!(crb.total_members(), crb.recount_members());
        crb.replace_run(100, vec![]);
        assert_eq!(crb.total_members(), crb.recount_members());
        crb.replace_run(0, vec![]);
        assert_eq!(crb.total_members(), crb.recount_members());
        assert_eq!(crb.byte_size(), crb.recount_members() + crb.run_count());
    }
}
