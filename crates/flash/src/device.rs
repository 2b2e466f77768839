//! The flash device: geometry + blocks + operations.

use crate::addr::{BlockId, Lpa, Ppa};
use crate::block::{Block, Page};
use crate::error::FlashError;
use crate::geometry::FlashGeometry;
use crate::oob::OobWindow;

/// Read-only view of a programmed page: the content tag plus the OOB
/// reverse mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageView {
    /// 64-bit content tag stored at program time (stands in for the
    /// 4 KB payload; see crate docs).
    pub content: u64,
    /// The page's own reverse mapping from its OOB (None for
    /// FTL-internal metadata pages).
    pub lpa: Option<Lpa>,
    /// Device-wide program sequence number (OOB timestamp; orders
    /// versions of the same LPA during crash recovery).
    pub seq: u64,
}

impl PageView {
    fn of(page: &Page) -> Self {
        PageView {
            content: page.content,
            lpa: page.lpa(),
            seq: page.seq,
        }
    }
}

/// An in-memory NAND flash device.
///
/// Enforces NAND programming constraints and tracks per-block wear. The
/// device is deliberately *passive*: it has no notion of valid/invalid
/// data, mapping, GC, time or operation counts — those belong to the
/// FTL layers above.
///
/// # Example
///
/// ```
/// use leaftl_flash::{FlashDevice, FlashGeometry, Lpa, Ppa};
///
/// # fn main() -> Result<(), leaftl_flash::FlashError> {
/// let mut device = FlashDevice::new(FlashGeometry::small_test());
/// device.program(Ppa::new(0), 0xdead_beef, Some(Lpa::new(42)))?;
/// let page = device.read(Ppa::new(0))?;
/// assert_eq!(page.content, 0xdead_beef);
/// assert_eq!(page.lpa, Some(Lpa::new(42)));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct FlashDevice {
    geometry: FlashGeometry,
    /// Every page of the device, indexed by raw PPA: a read touches
    /// its block's header and one entry here.
    pages: Vec<Page>,
    blocks: Vec<Block>,
    program_seq: u64,
}

impl FlashDevice {
    /// Creates an erased device with the given geometry.
    pub fn new(geometry: FlashGeometry) -> Self {
        FlashDevice {
            geometry,
            pages: vec![Page::ERASED; geometry.total_pages() as usize],
            blocks: vec![Block::default(); geometry.blocks as usize],
            program_seq: 0,
        }
    }

    /// The device geometry.
    pub fn geometry(&self) -> &FlashGeometry {
        &self.geometry
    }

    fn check_ppa(&self, ppa: Ppa) -> Result<(BlockId, u32), FlashError> {
        if !self.geometry.contains(ppa) {
            return Err(FlashError::OutOfRange(ppa));
        }
        Ok((
            self.geometry.block_of(ppa),
            self.geometry.page_in_block(ppa),
        ))
    }

    /// The page at `ppa` if it is in range and programmed.
    fn programmed(&self, ppa: Ppa) -> Result<&Page, FlashError> {
        let (block_id, page_idx) = self.check_ppa(ppa)?;
        if page_idx >= self.blocks[block_id.raw() as usize].write_ptr() {
            return Err(FlashError::ReadErased(ppa));
        }
        Ok(&self.pages[ppa.raw() as usize])
    }

    /// The programmed pages of a block, in page order.
    fn programmed_pages(&self, block_id: BlockId) -> &[Page] {
        let first = self.geometry.first_ppa(block_id).raw() as usize;
        let programmed = self.blocks[block_id.raw() as usize].write_ptr() as usize;
        &self.pages[first..first + programmed]
    }

    fn check_block(&self, block: BlockId) -> Result<(), FlashError> {
        if block.raw() >= self.geometry.blocks {
            return Err(FlashError::BlockOutOfRange(block));
        }
        Ok(())
    }

    /// Programs a page with a content tag and its OOB reverse mapping
    /// (`None` for FTL-internal metadata pages).
    ///
    /// # Errors
    ///
    /// * [`FlashError::OutOfRange`] — `ppa` beyond the geometry.
    /// * [`FlashError::ProgramNonFree`] — erase-before-write violation.
    /// * [`FlashError::NonSequentialProgram`] — pages within a block must
    ///   be programmed in order.
    /// * [`FlashError::WornOut`] — block exceeded its endurance.
    pub fn program(&mut self, ppa: Ppa, content: u64, lpa: Option<Lpa>) -> Result<(), FlashError> {
        let (block_id, page_idx) = self.check_ppa(ppa)?;
        let block = &mut self.blocks[block_id.raw() as usize];
        if block.erase_count() >= self.geometry.endurance {
            return Err(FlashError::WornOut(block_id));
        }
        if page_idx < block.write_ptr() {
            return Err(FlashError::ProgramNonFree(ppa));
        }
        if page_idx > block.write_ptr() {
            return Err(FlashError::NonSequentialProgram {
                requested: ppa,
                expected: self.geometry.ppa(block_id, block.write_ptr()),
            });
        }
        self.program_seq += 1;
        self.pages[ppa.raw() as usize] = Page::new(content, lpa, self.program_seq);
        block.advance();
        Ok(())
    }

    /// Reads a programmed page.
    ///
    /// # Errors
    ///
    /// * [`FlashError::OutOfRange`] — `ppa` beyond the geometry.
    /// * [`FlashError::ReadErased`] — the page has not been programmed
    ///   since its block was last erased.
    pub fn read(&self, ppa: Ppa) -> Result<PageView, FlashError> {
        self.programmed(ppa).map(PageView::of)
    }

    /// The OOB reverse-mapping window of a *programmed* page, as the
    /// controller would have staged it at program time: the LPAs of the
    /// `2γ+1` physically neighbouring pages, with nulls beyond the block
    /// boundary or over unprogrammed neighbours (Fig. 11 of the paper).
    ///
    /// This accompanies a [`FlashDevice::read`] of the same page and
    /// costs no additional flash access (§3.5: "it will incur only one
    /// extra flash access for address mispredictions").
    pub fn oob_window(&self, ppa: Ppa, gamma: u32) -> Option<OobWindow<'_>> {
        let (block_id, page_idx) = self.check_ppa(ppa).ok()?;
        let programmed = self.programmed_pages(block_id);
        // Beyond the write pointer: the centre itself is unprogrammed.
        ((page_idx as usize) < programmed.len())
            .then(|| OobWindow::around(programmed, page_idx as usize, gamma))
    }

    /// The sequence number of the most recent program: every page
    /// programmed so far carries one no greater, every later page a
    /// greater one.
    pub fn program_seq(&self) -> u64 {
        self.program_seq
    }

    /// Erases a block, returning its new erase count.
    ///
    /// # Errors
    ///
    /// * [`FlashError::BlockOutOfRange`] — invalid block id.
    /// * [`FlashError::WornOut`] — block exceeded its endurance.
    pub fn erase(&mut self, block_id: BlockId) -> Result<u32, FlashError> {
        self.check_block(block_id)?;
        let endurance = self.geometry.endurance;
        let block = &mut self.blocks[block_id.raw() as usize];
        if block.erase_count() >= endurance {
            return Err(FlashError::WornOut(block_id));
        }
        block.erase();
        Ok(block.erase_count())
    }

    /// Immutable access to a block's state.
    ///
    /// # Panics
    ///
    /// Panics if `block_id` is out of range.
    pub fn block(&self, block_id: BlockId) -> &Block {
        &self.blocks[block_id.raw() as usize]
    }

    /// Erase counts of every block (wear-levelling input).
    pub fn erase_counts(&self) -> impl Iterator<Item = (BlockId, u32)> + '_ {
        self.blocks
            .iter()
            .enumerate()
            .map(|(idx, block)| (BlockId::new(idx as u64), block.erase_count()))
    }

    /// Scans a block's programmed pages, yielding
    /// `(ppa, own_lpa, program_seq)`. Crash recovery uses this to
    /// rebuild mappings in write order (§3.8).
    pub fn scan_block(
        &self,
        block_id: BlockId,
    ) -> impl DoubleEndedIterator<Item = (Ppa, Option<Lpa>, u64)> + '_ {
        let first = self.geometry.first_ppa(block_id);
        self.programmed_pages(block_id)
            .iter()
            .enumerate()
            .map(move |(idx, page)| (first.offset(idx as u64), page.lpa(), page.seq))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn device() -> FlashDevice {
        FlashDevice::new(FlashGeometry::small_test())
    }

    #[test]
    fn program_then_read_roundtrip() {
        let mut d = device();
        d.program(Ppa::new(0), 111, Some(Lpa::new(7))).unwrap();
        let view = d.read(Ppa::new(0)).unwrap();
        assert_eq!(view.content, 111);
        assert_eq!(view.lpa, Some(Lpa::new(7)));
        assert_eq!(d.program_seq(), 1);
    }

    #[test]
    fn double_program_rejected() {
        let mut d = device();
        d.program(Ppa::new(0), 1, Some(Lpa::new(1))).unwrap();
        d.program(Ppa::new(1), 2, Some(Lpa::new(2))).unwrap();
        assert_eq!(
            d.program(Ppa::new(0), 3, Some(Lpa::new(3))),
            Err(FlashError::ProgramNonFree(Ppa::new(0)))
        );
    }

    #[test]
    fn out_of_order_program_rejected() {
        let mut d = device();
        assert_eq!(
            d.program(Ppa::new(2), 1, Some(Lpa::new(1))),
            Err(FlashError::NonSequentialProgram {
                requested: Ppa::new(2),
                expected: Ppa::new(0),
            })
        );
    }

    #[test]
    fn read_erased_rejected() {
        let d = device();
        assert_eq!(
            d.read(Ppa::new(5)),
            Err(FlashError::ReadErased(Ppa::new(5)))
        );
    }

    #[test]
    fn erase_frees_pages_for_reprogramming() {
        let mut d = device();
        d.program(Ppa::new(0), 1, Some(Lpa::new(1))).unwrap();
        d.erase(BlockId::new(0)).unwrap();
        d.program(Ppa::new(0), 2, Some(Lpa::new(2))).unwrap();
        assert_eq!(d.read(Ppa::new(0)).unwrap().content, 2);
        assert_eq!(d.block(BlockId::new(0)).erase_count(), 1);
    }

    #[test]
    fn endurance_enforced() {
        let mut geometry = FlashGeometry::small_test();
        geometry.endurance = 2;
        let mut d = FlashDevice::new(geometry);
        d.erase(BlockId::new(0)).unwrap();
        d.erase(BlockId::new(0)).unwrap();
        assert_eq!(
            d.erase(BlockId::new(0)),
            Err(FlashError::WornOut(BlockId::new(0)))
        );
        assert_eq!(
            d.program(Ppa::new(0), 1, Some(Lpa::new(1))),
            Err(FlashError::WornOut(BlockId::new(0)))
        );
    }

    #[test]
    fn out_of_range_rejected() {
        let mut d = device();
        let beyond = Ppa::new(d.geometry().total_pages());
        assert_eq!(d.read(beyond), Err(FlashError::OutOfRange(beyond)));
        assert_eq!(
            d.erase(BlockId::new(d.geometry().blocks)),
            Err(FlashError::BlockOutOfRange(BlockId::new(64)))
        );
    }

    #[test]
    fn oob_window_contents() {
        let mut d = device();
        for i in 0..4u64 {
            d.program(Ppa::new(i), i, Some(Lpa::new(100 + i))).unwrap();
        }
        let w = d.oob_window(Ppa::new(1), 2).unwrap();
        assert_eq!(w.own_lpa(), Some(Lpa::new(101)));
        assert_eq!(w.entry(-1), Some(Lpa::new(100)));
        assert_eq!(w.entry(-2), None); // before block start
        assert_eq!(w.entry(1), Some(Lpa::new(102)));
        assert_eq!(w.entry(2), Some(Lpa::new(103)));
        assert_eq!(w.find(Lpa::new(103)).collect::<Vec<_>>(), vec![2]);
    }

    #[test]
    fn oob_window_clips_at_block_boundary() {
        let mut d = device();
        // Fill block 0 (pages 0..32) and page 0 of block 1.
        for i in 0..33u64 {
            d.program(Ppa::new(i), i, Some(Lpa::new(i))).unwrap();
        }
        // Page 31 is the last of block 0; its +1 neighbour is in block 1
        // and must be null even though it is programmed.
        let w = d.oob_window(Ppa::new(31), 1).unwrap();
        assert_eq!(w.own_lpa(), Some(Lpa::new(31)));
        assert_eq!(w.entry(-1), Some(Lpa::new(30)));
        assert_eq!(w.entry(1), None);
        // Unprogrammed neighbours are null too.
        let w = d.oob_window(Ppa::new(32), 1).unwrap();
        assert_eq!(w.entry(1), None);
    }

    #[test]
    fn oob_window_of_erased_page_is_none() {
        let d = device();
        assert!(d.oob_window(Ppa::new(0), 1).is_none());
    }

    #[test]
    fn scan_block_yields_reverse_mappings() {
        let mut d = device();
        d.program(Ppa::new(0), 1, Some(Lpa::new(40))).unwrap();
        d.program(Ppa::new(1), 2, None).unwrap();
        let scanned: Vec<_> = d.scan_block(BlockId::new(0)).collect();
        assert_eq!(
            scanned,
            vec![(Ppa::new(0), Some(Lpa::new(40)), 1), (Ppa::new(1), None, 2)]
        );
    }
}
