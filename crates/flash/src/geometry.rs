//! SSD geometry: how pages, blocks, chips and channels are laid out.

use crate::addr::{BlockId, Die, Ppa};
use serde::{Deserialize, Serialize};

/// Physical organisation of the NAND array.
///
/// The default mirrors Table 1 of the LeaFTL paper: a 2 TB SSD with 16
/// channels, 4 KB pages, 256 pages per block and 128 B of OOB per page.
/// Each channel multiplexes [`FlashGeometry::dies_per_channel`] dies
/// (LUNs); a die executes one NAND operation at a time, so the device's
/// service parallelism is `channels × dies_per_channel`. Blocks are
/// interleaved across dies (`die = block_id % total_dies`), which keeps
/// the channel layout (`channel = block_id % channels`) unchanged while
/// spreading consecutive block allocations over all dies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FlashGeometry {
    /// Number of independent flash channels.
    pub channels: u32,
    /// Dies (LUNs) multiplexed on each channel. The timing model
    /// serialises operations per die, not per channel.
    pub dies_per_channel: u32,
    /// Number of erase blocks in the whole device.
    pub blocks: u64,
    /// Pages per erase block.
    pub pages_per_block: u32,
    /// User-data bytes per page.
    pub page_size: u32,
    /// Out-of-band metadata bytes per page.
    pub oob_size: u32,
    /// Program/erase cycles a block endures before it becomes a bad block.
    pub endurance: u32,
}

impl FlashGeometry {
    /// Geometry from Table 1 of the paper: 2 TB, 16 channels, 4 KB pages,
    /// 256 pages/block, 128 B OOB.
    ///
    /// 2 TB / 4 KB = 512 Mi pages = 2 Mi blocks.
    pub fn paper_default() -> Self {
        FlashGeometry {
            channels: 16,
            dies_per_channel: 4,
            blocks: 2 * 1024 * 1024,
            pages_per_block: 256,
            page_size: 4096,
            oob_size: 128,
            endurance: 10_000,
        }
    }

    /// A scaled-down geometry for unit tests: 4 channels, 64 blocks of
    /// 32 pages (8 MiB of 4 KB pages).
    pub fn small_test() -> Self {
        FlashGeometry {
            channels: 4,
            dies_per_channel: 2,
            blocks: 64,
            pages_per_block: 32,
            page_size: 4096,
            oob_size: 128,
            endurance: 1_000,
        }
    }

    /// A geometry scaled to a given capacity in bytes, keeping the
    /// paper's channel count, page size and block size.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_bytes` is not a multiple of the block byte
    /// size or results in zero blocks.
    pub fn with_capacity(capacity_bytes: u64) -> Self {
        let mut geometry = FlashGeometry::paper_default();
        let block_bytes = geometry.block_bytes();
        assert!(
            capacity_bytes >= block_bytes && capacity_bytes.is_multiple_of(block_bytes),
            "capacity {capacity_bytes} is not a positive multiple of the block size {block_bytes}"
        );
        geometry.blocks = capacity_bytes / block_bytes;
        geometry
    }

    /// Total number of pages in the device.
    #[inline]
    pub fn total_pages(&self) -> u64 {
        self.blocks * self.pages_per_block as u64
    }

    /// Device capacity in bytes (user data only, ignoring OOB).
    #[inline]
    pub fn capacity_bytes(&self) -> u64 {
        self.total_pages() * self.page_size as u64
    }

    /// Bytes of user data per erase block.
    #[inline]
    pub fn block_bytes(&self) -> u64 {
        self.pages_per_block as u64 * self.page_size as u64
    }

    /// The block containing a PPA.
    #[inline]
    pub fn block_of(&self, ppa: Ppa) -> BlockId {
        BlockId::new(ppa.raw() / self.pages_per_block as u64)
    }

    /// The page offset of a PPA within its block.
    #[inline]
    pub fn page_in_block(&self, ppa: Ppa) -> u32 {
        (ppa.raw() % self.pages_per_block as u64) as u32
    }

    /// Total number of dies (LUNs) in the device — the timing model's
    /// independent service resources.
    #[inline]
    pub fn total_dies(&self) -> u32 {
        self.channels * self.dies_per_channel.max(1)
    }

    /// The die servicing a block (die-interleaved layout).
    #[inline]
    pub fn die_of_block(&self, block: BlockId) -> Die {
        Die::new((block.raw() % self.total_dies() as u64) as u32)
    }

    /// The die servicing a PPA.
    #[inline]
    pub fn die_of(&self, ppa: Ppa) -> Die {
        self.die_of_block(self.block_of(ppa))
    }

    /// First PPA of a block.
    #[inline]
    pub fn first_ppa(&self, block: BlockId) -> Ppa {
        Ppa::new(block.raw() * self.pages_per_block as u64)
    }

    /// The PPA for (block, page-in-block).
    #[inline]
    pub fn ppa(&self, block: BlockId, page: u32) -> Ppa {
        debug_assert!(page < self.pages_per_block);
        Ppa::new(block.raw() * self.pages_per_block as u64 + page as u64)
    }

    /// Whether a PPA is within the device.
    #[inline]
    pub fn contains(&self, ppa: Ppa) -> bool {
        ppa.raw() < self.total_pages()
    }

    /// Number of 4-byte reverse-mapping entries that fit in the OOB.
    ///
    /// The paper (§3.5) stores one 4-byte LPA per entry; a 128 B OOB
    /// therefore holds 32 entries, bounding the usable error bound γ by
    /// `(entries - 1) / 2`.
    #[inline]
    pub fn oob_entries(&self) -> u32 {
        self.oob_size / 4
    }

    /// Largest error bound γ whose `2γ+1` reverse mappings fit in OOB.
    #[inline]
    pub fn max_gamma(&self) -> u32 {
        (self.oob_entries().saturating_sub(1)) / 2
    }
}

impl Default for FlashGeometry {
    fn default() -> Self {
        FlashGeometry::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_capacity_is_2tb() {
        let g = FlashGeometry::paper_default();
        assert_eq!(g.capacity_bytes(), 2 * 1024 * 1024 * 1024 * 1024);
        assert_eq!(g.oob_entries(), 32);
        assert_eq!(g.max_gamma(), 15);
    }

    #[test]
    fn ppa_block_roundtrip() {
        let g = FlashGeometry::small_test();
        for raw in [0u64, 1, 31, 32, 33, 100, g.total_pages() - 1] {
            let ppa = Ppa::new(raw);
            let block = g.block_of(ppa);
            let page = g.page_in_block(ppa);
            assert_eq!(g.ppa(block, page), ppa);
        }
    }

    #[test]
    fn dies_are_block_interleaved() {
        let g = FlashGeometry::small_test();
        assert_eq!(g.total_dies(), 8);
        assert_eq!(g.die_of_block(BlockId::new(0)), Die::new(0));
        assert_eq!(g.die_of_block(BlockId::new(5)), Die::new(5));
        assert_eq!(g.die_of_block(BlockId::new(9)), Die::new(1));
        // All pages of one block share a die.
        let b = BlockId::new(11);
        let d = g.die_of_block(b);
        for page in 0..g.pages_per_block {
            assert_eq!(g.die_of(g.ppa(b, page)), d);
        }
    }

    #[test]
    fn with_capacity_scales_blocks() {
        let g = FlashGeometry::with_capacity(64 * 1024 * 1024 * 1024);
        assert_eq!(g.capacity_bytes(), 64 * 1024 * 1024 * 1024);
        assert_eq!(g.page_size, 4096);
    }

    #[test]
    #[should_panic(expected = "not a positive multiple")]
    fn with_capacity_rejects_unaligned() {
        let _ = FlashGeometry::with_capacity(1234567);
    }

    #[test]
    fn contains_bounds() {
        let g = FlashGeometry::small_test();
        assert!(g.contains(Ppa::new(0)));
        assert!(g.contains(Ppa::new(g.total_pages() - 1)));
        assert!(!g.contains(Ppa::new(g.total_pages())));
    }
}
