//! The controller's write data buffer (§3.3 of the paper).
//!
//! Writes accumulate here and are flushed to flash in flash-block-sized
//! chunks. Before a flush the pages are sorted by LPA so that ascending
//! LPAs receive consecutive PPAs — the property that makes mappings
//! learnable. The buffer also absorbs read hits for recently written
//! pages and write coalescing (a rewrite of a buffered page costs no
//! flash traffic at all).

use leaftl_flash::{IntMap, Lpa};
use std::collections::hash_map::Entry;

/// Write buffer: pending `(LPA → content)` pages awaiting flush.
///
/// Pages sit in arrival order (a rewrite keeps its first slot) behind a
/// hashed index — every host read probes the buffer first, and only a
/// flush needs an order, so the LPA sort happens once, at drain.
#[derive(Debug, Clone, Default)]
pub struct WriteBuffer {
    /// Position of each buffered LPA in `pages`.
    index: IntMap<Lpa, usize>,
    pages: Vec<(Lpa, u64)>,
}

impl WriteBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        WriteBuffer::default()
    }

    /// Buffers a page write, coalescing rewrites. Returns `true` when
    /// the LPA was already buffered (coalesced).
    pub fn insert(&mut self, lpa: Lpa, content: u64) -> bool {
        match self.index.entry(lpa) {
            Entry::Occupied(buffered) => {
                self.pages[*buffered.get()].1 = content;
                true
            }
            Entry::Vacant(vacant) => {
                vacant.insert(self.pages.len());
                self.pages.push((lpa, content));
                false
            }
        }
    }

    /// Reads a buffered page (newest data wins over flash).
    pub fn get(&self, lpa: Lpa) -> Option<u64> {
        self.index.get(&lpa).map(|&at| self.pages[at].1)
    }

    /// Number of buffered pages.
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// Whether the buffer holds no pages.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// Drains every page sorted by LPA (the §3.3 optimisation).
    pub fn drain_sorted(&mut self) -> Vec<(Lpa, u64)> {
        let mut pages = self.drain_unsorted();
        // One entry per LPA, so no two keys compare equal.
        pages.sort_unstable_by_key(|&(lpa, _)| lpa);
        pages
    }

    /// Drains every page in arrival order (the Fig. 7 "unoptimized"
    /// ablation: no LPA sorting before allocation).
    pub fn drain_unsorted(&mut self) -> Vec<(Lpa, u64)> {
        self.index.clear();
        std::mem::take(&mut self.pages)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_read_back() {
        let mut buffer = WriteBuffer::new();
        assert!(!buffer.insert(Lpa::new(5), 50));
        assert!(!buffer.insert(Lpa::new(3), 30));
        assert_eq!(buffer.get(Lpa::new(5)), Some(50));
        assert_eq!(buffer.get(Lpa::new(4)), None);
        assert_eq!(buffer.len(), 2);
    }

    #[test]
    fn rewrite_coalesces() {
        let mut buffer = WriteBuffer::new();
        buffer.insert(Lpa::new(5), 50);
        assert!(buffer.insert(Lpa::new(5), 51));
        assert_eq!(buffer.get(Lpa::new(5)), Some(51));
        assert_eq!(buffer.len(), 1);
    }

    #[test]
    fn drain_sorted_orders_by_lpa() {
        let mut buffer = WriteBuffer::new();
        for lpa in [78u64, 32, 33, 76, 115, 34, 38] {
            buffer.insert(Lpa::new(lpa), lpa * 10);
        }
        let drained = buffer.drain_sorted();
        let lpas: Vec<u64> = drained.iter().map(|(l, _)| l.raw()).collect();
        assert_eq!(lpas, vec![32, 33, 34, 38, 76, 78, 115]);
        assert!(buffer.is_empty());
    }

    #[test]
    fn drain_unsorted_preserves_arrival_order() {
        let mut buffer = WriteBuffer::new();
        for lpa in [78u64, 32, 33] {
            buffer.insert(Lpa::new(lpa), lpa);
        }
        buffer.insert(Lpa::new(78), 780); // coalesce keeps first arrival slot
        let drained = buffer.drain_unsorted();
        let lpas: Vec<u64> = drained.iter().map(|(l, _)| l.raw()).collect();
        assert_eq!(lpas, vec![78, 32, 33]);
        assert_eq!(drained[0].1, 780);
    }
}
