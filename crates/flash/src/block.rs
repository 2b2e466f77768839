//! Erase-block state machine.

use crate::addr::Lpa;
use serde::{Deserialize, Serialize};

/// Sentinel for "no reverse mapping stored" (metadata pages).
const NO_LPA: u64 = u64::MAX;

/// What the device stores per NAND page: a 64-bit content tag standing
/// in for the 4 KB payload, the page's OOB reverse mapping (its LPA)
/// and the device-wide program sequence number real controllers keep
/// in the OOB too (crash recovery orders versions with it). 24 B, so a
/// page read touches one cache line (two for the pages that straddle
/// one). The device keeps every page of every block in one array
/// indexed by raw PPA; neighbour reverse-mapping *windows* (§3.5 of
/// the LeaFTL paper) are views into it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Page {
    pub(crate) content: u64,
    lpa: u64,
    pub(crate) seq: u64,
}

impl Page {
    /// What an erased device holds in every page (never observable:
    /// reads stop at the block's write pointer).
    pub(crate) const ERASED: Page = Page {
        content: 0,
        lpa: NO_LPA,
        seq: 0,
    };

    pub(crate) fn new(content: u64, lpa: Option<Lpa>, seq: u64) -> Self {
        Page {
            content,
            lpa: lpa.map_or(NO_LPA, Lpa::raw),
            seq,
        }
    }

    pub(crate) fn lpa(&self) -> Option<Lpa> {
        (self.lpa != NO_LPA).then(|| Lpa::new(self.lpa))
    }
}

/// An erase block: the unit of NAND erasure. This is the block's
/// *header* — how far it has been programmed and how often erased; the
/// pages themselves live in the device's page array.
///
/// Together with the device it enforces the two fundamental NAND
/// constraints:
/// 1. a page can only be programmed while erased (erase-before-write);
/// 2. pages within a block are programmed strictly in order
///    (`write_ptr`), matching how real SSD controllers avoid the
///    open-block problem.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Block {
    write_ptr: u32,
    erase_count: u32,
}

impl Block {
    /// Next page index the block expects to program: sequential
    /// programming means exactly the pages below this are programmed,
    /// the rest erased.
    pub fn write_ptr(&self) -> u32 {
        self.write_ptr
    }

    /// Number of erases this block has endured.
    pub fn erase_count(&self) -> u32 {
        self.erase_count
    }

    /// Whether no page is programmed.
    pub fn is_erased(&self) -> bool {
        self.write_ptr == 0
    }

    pub(crate) fn advance(&mut self) {
        self.write_ptr += 1;
    }

    pub(crate) fn erase(&mut self) {
        self.write_ptr = 0;
        self.erase_count += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_block_is_erased() {
        let b = Block::default();
        assert!(b.is_erased());
        assert_eq!(b.erase_count(), 0);
        assert_eq!(b.write_ptr(), 0);
    }

    #[test]
    fn advancing_programs_pages_in_order() {
        let mut b = Block::default();
        b.advance();
        b.advance();
        assert_eq!(b.write_ptr(), 2);
        assert!(!b.is_erased());
    }

    #[test]
    fn erase_resets_everything_but_wear() {
        let mut b = Block::default();
        b.advance();
        b.erase();
        assert!(b.is_erased());
        assert_eq!(b.write_ptr(), 0);
        assert_eq!(b.erase_count(), 1);
    }

    #[test]
    fn metadata_pages_have_no_lpa() {
        assert_eq!(
            Page::new(1, Some(Lpa::new(10)), 1).lpa(),
            Some(Lpa::new(10))
        );
        assert_eq!(Page::new(2, None, 2).lpa(), None);
        assert_eq!(Page::ERASED.lpa(), None);
        assert_eq!(std::mem::size_of::<Page>(), 24);
    }
}
