//! Erase-block state machine.

use crate::addr::Lpa;
use serde::{Deserialize, Serialize};

/// Physical state of a NAND page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PageState {
    /// Erased and programmable.
    Free,
    /// Programmed since the last erase (the device does not distinguish
    /// valid from stale data — that is FTL metadata).
    Programmed,
}

/// Sentinel for "no reverse mapping stored" (metadata pages).
const NO_LPA: u64 = u64::MAX;

/// An erase block: the unit of NAND erasure.
///
/// Enforces the two fundamental NAND constraints:
/// 1. a page can only be programmed when `Free` (erase-before-write);
/// 2. pages within a block are programmed strictly in order
///    (`write_ptr`), matching how real SSD controllers avoid the
///    open-block problem.
///
/// Storage is deliberately compact (16 B/page): a 64-bit content tag
/// standing in for the 4 KB payload, plus the page's OOB reverse
/// mapping (its LPA). Neighbour reverse-mapping *windows* (§3.5 of the
/// LeaFTL paper) are synthesised from these words by the device.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Block {
    contents: Vec<u64>,
    lpas: Vec<u64>,
    /// Device-wide program sequence number per page (stored in the OOB
    /// by real controllers; crash recovery orders versions with it).
    seqs: Vec<u64>,
    write_ptr: u32,
    erase_count: u32,
}

impl Block {
    /// A fresh (erased) block with the given page count.
    pub(crate) fn new(pages_per_block: u32) -> Self {
        Block {
            contents: vec![0; pages_per_block as usize],
            lpas: vec![NO_LPA; pages_per_block as usize],
            seqs: vec![0; pages_per_block as usize],
            write_ptr: 0,
            erase_count: 0,
        }
    }

    /// State of the page at `page_idx` within this block. Sequential
    /// programming means exactly the pages below the write pointer are
    /// programmed.
    pub fn page_state(&self, page_idx: u32) -> PageState {
        if page_idx < self.write_ptr {
            PageState::Programmed
        } else {
            PageState::Free
        }
    }

    /// Next page index the block expects to program.
    pub fn write_ptr(&self) -> u32 {
        self.write_ptr
    }

    /// Number of erases this block has endured.
    pub fn erase_count(&self) -> u32 {
        self.erase_count
    }

    /// Whether every page is programmed.
    pub fn is_full(&self) -> bool {
        self.write_ptr as usize >= self.contents.len()
    }

    /// Whether no page is programmed.
    pub fn is_erased(&self) -> bool {
        self.write_ptr == 0
    }

    pub(crate) fn content(&self, page_idx: u32) -> u64 {
        self.contents[page_idx as usize]
    }

    pub(crate) fn lpa(&self, page_idx: u32) -> Option<Lpa> {
        let raw = self.lpas[page_idx as usize];
        (raw != NO_LPA).then(|| Lpa::new(raw))
    }

    pub(crate) fn program(&mut self, page_idx: u32, content: u64, lpa: Option<Lpa>, seq: u64) {
        debug_assert_eq!(page_idx, self.write_ptr);
        self.contents[page_idx as usize] = content;
        self.lpas[page_idx as usize] = lpa.map_or(NO_LPA, Lpa::raw);
        self.seqs[page_idx as usize] = seq;
        self.write_ptr += 1;
    }

    /// The device-wide program sequence number stamped on the page at
    /// `page_idx` (meaningful below the write pointer).
    pub fn seq(&self, page_idx: u32) -> u64 {
        self.seqs[page_idx as usize]
    }

    pub(crate) fn erase(&mut self) {
        self.write_ptr = 0;
        self.erase_count += 1;
    }

    /// Iterates over programmed pages as `(page_in_block, own_lpa)`.
    pub fn programmed_lpas(&self) -> impl Iterator<Item = (u32, Option<Lpa>)> + '_ {
        (0..self.write_ptr).map(|idx| (idx, self.lpa(idx)))
    }

    /// Iterates over programmed pages as `(page_in_block, own_lpa,
    /// program_seq)`. Crash recovery scans blocks with this to rebuild
    /// mappings in write order (§3.8).
    pub fn programmed_pages(&self) -> impl Iterator<Item = (u32, Option<Lpa>, u64)> + '_ {
        (0..self.write_ptr).map(|idx| (idx, self.lpa(idx), self.seq(idx)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_block_is_erased() {
        let b = Block::new(8);
        assert!(b.is_erased());
        assert!(!b.is_full());
        assert_eq!(b.erase_count(), 0);
        assert_eq!(b.page_state(0), PageState::Free);
    }

    #[test]
    fn program_advances_write_ptr() {
        let mut b = Block::new(4);
        for i in 0..4u32 {
            b.program(i, i as u64 * 10, Some(Lpa::new(i as u64)), i as u64);
        }
        assert!(b.is_full());
        assert_eq!(b.content(2), 20);
        assert_eq!(b.lpa(2), Some(Lpa::new(2)));
    }

    #[test]
    fn erase_resets_everything() {
        let mut b = Block::new(4);
        b.program(0, 7, Some(Lpa::new(7)), 1);
        assert_eq!(b.page_state(0), PageState::Programmed);
        b.erase();
        assert!(b.is_erased());
        assert_eq!(b.erase_count(), 1);
        assert_eq!(b.page_state(0), PageState::Free);
    }

    #[test]
    fn metadata_pages_have_no_lpa() {
        let mut b = Block::new(4);
        b.program(0, 1, Some(Lpa::new(10)), 1);
        b.program(1, 2, None, 2);
        let entries: Vec<_> = b.programmed_lpas().collect();
        assert_eq!(entries, vec![(0, Some(Lpa::new(10))), (1, None)]);
    }
}
