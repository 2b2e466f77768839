//! DFTL: Demand-based Flash Translation Layer (Gupta et al.,
//! ASPLOS 2009) — the page-level baseline of the LeaFTL evaluation.
//!
//! The full page-level table lives in flash translation pages (512
//! 8-byte entries per 4 KB page; copy-on-write chunks, so a persistence
//! point re-points the pages written since the previous one and copies
//! the CMT into the storage its baseline already has). A Cached Mapping Table (CMT) holds
//! recently used entries in DRAM under an LRU policy:
//!
//! * lookup miss → fetch the entry's translation page (1 flash read);
//! * update → install/refresh the entry in the CMT, marked dirty;
//! * dirty eviction → read-modify-write of the victim's translation
//!   page (1 read + 1 write), the classic DFTL write-back cost that
//!   dominates its WAF in Fig. 25.
//!
//! Memory accounting: 8 B per cached entry plus the Global Translation
//! Directory (one 8-byte pointer per translation page).

use crate::page_table::PageTable;
use leaftl_flash::{Lpa, Ppa};
use leaftl_sim::lru::LruCache;
use leaftl_sim::{MapCost, MappingLookup, MappingScheme};

/// Bytes per CMT entry (4 B LPA + 4 B PPA).
pub const ENTRY_BYTES: usize = 8;

/// The DFTL mapping scheme.
#[derive(Debug, Clone, Default)]
pub struct Dftl {
    /// Authoritative table (models the translation pages in flash).
    flash_table: PageTable,
    /// Cached mapping table: LRU over individual entries.
    cmt: LruCache<Lpa, Ppa>,
    /// DRAM budget for the CMT in bytes.
    budget: usize,
}

impl Dftl {
    /// An empty DFTL instance (budget set by the simulator).
    pub fn new() -> Self {
        Dftl::default()
    }

    /// Total mapped pages (authoritative table size).
    pub fn mapped_pages(&self) -> usize {
        self.flash_table.mapped_pages()
    }

    /// The full page-level table footprint if it were held in DRAM —
    /// the paper's memory-reduction baseline (Fig. 15).
    pub fn full_table_bytes(&self) -> usize {
        self.flash_table.mapped_pages() * ENTRY_BYTES
    }

    /// GTD footprint: one 8-byte pointer per translation page.
    fn gtd_bytes(&self) -> usize {
        self.flash_table.translation_pages() as usize * 8
    }

    /// Evicts LRU entries until the CMT fits its budget; each dirty
    /// victim costs a translation-page read-modify-write.
    fn evict_to_fit(&mut self, cost: &mut MapCost) {
        let dirty = self.cmt.evict_to(self.budget);
        cost.translation_reads += dirty;
        cost.translation_writes += dirty;
    }
}

impl MappingScheme for Dftl {
    fn name(&self) -> &'static str {
        "DFTL"
    }

    fn update_batch(&mut self, pairs: &[(Lpa, Ppa)]) -> MapCost {
        let mut cost = MapCost::FREE;
        for &(lpa, ppa) in pairs {
            self.flash_table.insert(lpa, ppa);
            self.cmt.insert(lpa, ppa, ENTRY_BYTES, true);
        }
        self.evict_to_fit(&mut cost);
        cost
    }

    fn lookup(&mut self, lpa: Lpa) -> (Option<MappingLookup>, MapCost) {
        let mut cost = MapCost::FREE;
        if let Some(&ppa) = self.cmt.get(&lpa) {
            return (Some(MappingLookup::exact(ppa)), cost);
        }
        let Some(ppa) = self.flash_table.get(lpa) else {
            return (None, cost);
        };
        // CMT miss: fetch the translation page, cache the entry clean.
        cost.translation_reads += 1;
        self.cmt.insert(lpa, ppa, ENTRY_BYTES, false);
        self.evict_to_fit(&mut cost);
        (Some(MappingLookup::exact(ppa)), cost)
    }

    fn memory_bytes(&self) -> usize {
        self.cmt.bytes() + self.gtd_bytes()
    }

    fn set_memory_budget(&mut self, bytes: usize) {
        self.budget = bytes.max(ENTRY_BYTES);
    }

    fn maintain(&mut self) -> (MapCost, bool) {
        (MapCost::FREE, false)
    }

    fn snapshot_bytes(&self) -> usize {
        // Only the GTD + dirty bookkeeping needs snapshotting; the table
        // itself already lives in flash translation pages.
        self.gtd_bytes()
    }

    fn sync_checkpoint(&mut self, checkpoint: &mut Self) {
        self.flash_table
            .sync_checkpoint(&mut checkpoint.flash_table);
        checkpoint.budget = self.budget;
        checkpoint.cmt.clone_from(&self.cmt);
        debug_assert!(
            checkpoint.cmt == self.cmt,
            "a synced checkpoint is a clone of the scheme"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(lpa0: u64, ppa0: u64, n: u64) -> Vec<(Lpa, Ppa)> {
        (0..n)
            .map(|i| (Lpa::new(lpa0 + i), Ppa::new(ppa0 + i)))
            .collect()
    }

    #[test]
    fn hit_after_update_is_free() {
        let mut dftl = Dftl::new();
        dftl.set_memory_budget(1 << 20);
        dftl.update_batch(&batch(0, 100, 16));
        let (hit, cost) = dftl.lookup(Lpa::new(3));
        assert_eq!(hit.unwrap().ppa, Ppa::new(103));
        assert_eq!(cost, MapCost::FREE);
    }

    #[test]
    fn miss_costs_translation_read() {
        let mut dftl = Dftl::new();
        dftl.set_memory_budget(4 * ENTRY_BYTES); // 4 entries
                                                 // Inserting 16 entries evicts most of them dirty; LPA 0 is
                                                 // among the victims, so looking it up misses (1 fetch, plus a
                                                 // dirty victim's read-modify-write to make room).
        dftl.update_batch(&batch(0, 100, 16));
        let (hit, cost) = dftl.lookup(Lpa::new(0));
        assert_eq!(hit.unwrap().ppa, Ppa::new(100));
        assert_eq!(cost.translation_reads, 2);
        assert_eq!(cost.translation_writes, 1);
    }

    #[test]
    fn dirty_eviction_costs_read_modify_write() {
        let mut dftl = Dftl::new();
        dftl.set_memory_budget(2 * ENTRY_BYTES);
        let cost = dftl.update_batch(&batch(0, 100, 3));
        // 3 dirty inserts into a 2-entry CMT: one dirty eviction.
        assert_eq!(cost.translation_reads, 1);
        assert_eq!(cost.translation_writes, 1);
    }

    #[test]
    fn clean_eviction_is_free() {
        let mut dftl = Dftl::new();
        dftl.set_memory_budget(ENTRY_BYTES); // one-entry CMT
        let cost = dftl.update_batch(&[(Lpa::new(0), Ppa::new(100))]);
        assert_eq!(cost, MapCost::FREE); // fits, no eviction yet
                                         // Inserting LPA 1 evicts dirty 0.
        dftl.update_batch(&[(Lpa::new(1), Ppa::new(101))]);
        // Miss on 0: fetch (1 read) + evict dirty 1 (1 read + 1 write).
        let (_, cost) = dftl.lookup(Lpa::new(0));
        assert_eq!(cost.translation_reads, 2);
        assert_eq!(cost.translation_writes, 1);
        // Miss on 1: fetch (1 read) + evict CLEAN 0 (free).
        let (_, cost) = dftl.lookup(Lpa::new(1));
        assert_eq!(cost.translation_reads, 1);
        assert_eq!(cost.translation_writes, 0);
    }

    #[test]
    fn unmapped_lookup_is_none() {
        let mut dftl = Dftl::new();
        dftl.set_memory_budget(1024);
        assert!(dftl.lookup(Lpa::new(9)).0.is_none());
    }

    #[test]
    fn memory_includes_gtd() {
        let mut dftl = Dftl::new();
        dftl.set_memory_budget(1 << 20);
        dftl.update_batch(&[(Lpa::new(5000), Ppa::new(1))]);
        // Translation page 9 touched -> GTD covers 10 pages.
        assert_eq!(dftl.memory_bytes(), ENTRY_BYTES + 10 * 8);
        assert_eq!(dftl.full_table_bytes(), 8);
    }

    #[test]
    fn overwrite_updates_authoritative_table() {
        let mut dftl = Dftl::new();
        dftl.set_memory_budget(1 << 20);
        dftl.update_batch(&[(Lpa::new(1), Ppa::new(10))]);
        dftl.update_batch(&[(Lpa::new(1), Ppa::new(20))]);
        assert_eq!(dftl.lookup(Lpa::new(1)).0.unwrap().ppa, Ppa::new(20));
        assert_eq!(dftl.mapped_pages(), 1);
    }
}
