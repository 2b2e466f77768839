//! One level of the log-structured mapping table.
//!
//! Segments within a level are sorted by start offset and never overlap
//! (§3.4), so a covering segment is found with one binary search.

use crate::segment::Segment;
use serde::{Deserialize, Serialize};

/// A sorted, non-overlapping run of segments.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Level {
    segments: Vec<Segment>,
}

impl Level {
    /// An empty level.
    pub fn new() -> Self {
        Level::default()
    }

    /// A level containing a single segment.
    pub fn with_segment(segment: Segment) -> Self {
        Level {
            segments: vec![segment],
        }
    }

    /// Number of segments in the level.
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    /// Whether the level holds no segments.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// Removes every segment, keeping the allocation.
    pub fn clear(&mut self) {
        self.segments.clear();
    }

    /// Iterates the segments in start order.
    pub fn iter(&self) -> impl Iterator<Item = &Segment> {
        self.segments.iter()
    }

    /// The segment whose interval covers `offset`, if any.
    pub fn find_covering(&self, offset: u8) -> Option<&Segment> {
        let idx = self.segments.partition_point(|s| s.start() <= offset);
        if idx == 0 {
            return None;
        }
        let candidate = &self.segments[idx - 1];
        candidate.covers(offset).then_some(candidate)
    }

    /// Indices of segments whose intervals overlap `segment`'s.
    /// They are contiguous because the level is sorted and disjoint.
    pub fn overlapping_indices(&self, segment: &Segment) -> std::ops::Range<usize> {
        let lo = self.segments.partition_point(|s| s.end() < segment.start());
        let hi = self
            .segments
            .partition_point(|s| s.start() <= segment.end());
        lo..hi
    }

    /// Whether any stored segment overlaps `segment`.
    pub fn has_overlap(&self, segment: &Segment) -> bool {
        !self.overlapping_indices(segment).is_empty()
    }

    /// Inserts a segment, keeping the level sorted.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if the segment overlaps an existing one —
    /// the caller must merge/evict victims first (Algorithm 1).
    pub fn insert(&mut self, segment: Segment) {
        debug_assert!(
            !self.has_overlap(&segment),
            "inserting {segment} into a level with an overlapping segment"
        );
        let pos = self
            .segments
            .partition_point(|s| s.start() < segment.start());
        self.segments.insert(pos, segment);
    }

    /// Mutable access to a segment by index.
    pub fn segment_mut(&mut self, idx: usize) -> &mut Segment {
        &mut self.segments[idx]
    }

    /// Read access to a segment by index.
    pub fn segment(&self, idx: usize) -> &Segment {
        &self.segments[idx]
    }

    /// Removes and returns the segment at `idx`.
    pub fn remove(&mut self, idx: usize) -> Segment {
        self.segments.remove(idx)
    }

    /// Removes the approximate/accurate segment that starts exactly at
    /// `start`, returning it if found.
    pub fn remove_by_start(&mut self, start: u8, approximate: bool) -> Option<Segment> {
        let idx = self
            .segments
            .iter()
            .position(|s| s.start() == start && s.is_approximate() == approximate)?;
        Some(self.segments.remove(idx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(start: u8, len: u8) -> Segment {
        Segment::from_parts(start, len, 0x3c00, 0)
    }

    #[test]
    fn insert_keeps_sorted() {
        let mut level = Level::new();
        level.insert(seg(50, 5));
        level.insert(seg(10, 5));
        level.insert(seg(30, 5));
        let starts: Vec<u8> = level.iter().map(|s| s.start()).collect();
        assert_eq!(starts, vec![10, 30, 50]);
    }

    #[test]
    fn find_covering_hits_and_misses() {
        let mut level = Level::new();
        level.insert(seg(10, 5)); // [10,15]
        level.insert(seg(30, 0)); // [30,30]
        assert_eq!(level.find_covering(10).map(|s| s.start()), Some(10));
        assert_eq!(level.find_covering(15).map(|s| s.start()), Some(10));
        assert!(level.find_covering(16).is_none());
        assert!(level.find_covering(9).is_none());
        assert_eq!(level.find_covering(30).map(|s| s.start()), Some(30));
        assert!(level.find_covering(31).is_none());
    }

    #[test]
    fn overlapping_indices_ranges() {
        let mut level = Level::new();
        level.insert(seg(10, 5)); // [10,15]
        level.insert(seg(20, 5)); // [20,25]
        level.insert(seg(40, 5)); // [40,45]
        assert_eq!(level.overlapping_indices(&seg(0, 5)), 0..0);
        assert_eq!(level.overlapping_indices(&seg(12, 10)), 0..2); // hits both
        assert_eq!(level.overlapping_indices(&seg(26, 5)), 2..2); // between
        assert_eq!(level.overlapping_indices(&seg(15, 30)), 0..3); // hits all
        assert_eq!(level.overlapping_indices(&seg(46, 9)), 3..3);
    }

    #[test]
    fn remove_by_start_respects_type() {
        let mut level = Level::new();
        level.insert(seg(10, 5)); // accurate (LSB of 0x3c00 is 0)
        assert!(level.remove_by_start(10, true).is_none());
        assert!(level.remove_by_start(10, false).is_some());
        assert!(level.is_empty());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "overlapping")]
    fn insert_overlap_panics_in_debug() {
        let mut level = Level::new();
        level.insert(seg(10, 5));
        level.insert(seg(12, 5));
    }
}
