//! SFTL: Spatial-locality-aware FTL (Jiang et al., MSST 2011) — the
//! condensed page-level baseline of the LeaFTL evaluation.
//!
//! SFTL keeps DFTL's translation-page organisation but condenses each
//! cached translation page: a page's 512 entries collapse into its
//! strictly sequential runs (consecutive LPAs mapped to consecutive
//! PPAs), each run costing one 8-byte descriptor. Sequential workloads
//! condense dramatically; random workloads degrade to one descriptor
//! per entry — exactly the behaviour the paper contrasts LeaFTL
//! against (LeaFTL additionally captures strided and irregular
//! patterns).

use crate::page_table::PageTable;
use leaftl_flash::{Lpa, Ppa};
use leaftl_sim::lru::LruCache;
use leaftl_sim::{MapCost, MappingLookup, MappingScheme};

/// Bytes per run descriptor.
pub const RUN_BYTES: usize = 8;

/// The SFTL mapping scheme.
#[derive(Debug, Clone, Default)]
pub struct Sftl {
    /// Authoritative table (models the translation pages in flash;
    /// copy-on-write chunks, so neither a clone nor a persistence point
    /// copies it).
    flash_table: PageTable,
    /// Cached translation pages: page id → condensed byte size. The
    /// mappings themselves are read through `flash_table`; the cache
    /// models *which* pages are resident and how many bytes they cost.
    /// A resident page's record always equals
    /// [`Sftl::condensed_bytes`] of the page: only `update_batch`
    /// changes a page, and it re-syncs the record.
    resident: LruCache<u64, ()>,
    budget: usize,
}

impl Sftl {
    /// An empty SFTL instance (budget set by the simulator).
    pub fn new() -> Self {
        Sftl::default()
    }

    /// Total mapped pages.
    pub fn mapped_pages(&self) -> usize {
        self.flash_table.mapped_pages()
    }

    /// Condensed size of one translation page: number of strictly
    /// sequential runs × 8 B. An empty page costs one descriptor
    /// (the page header).
    pub fn condensed_bytes(&self, page: u64) -> usize {
        let mut runs = 0usize;
        // The previous LPA's mapping; a run never spans pages.
        let mut prev: Option<Ppa> = None;
        for &entry in self.flash_table.page(page).into_iter().flatten() {
            if let Some(ppa) = entry {
                if prev.map(|last| last.raw() + 1) != Some(ppa.raw()) {
                    runs += 1;
                }
            }
            prev = entry;
        }
        runs.max(1) * RUN_BYTES
    }

    /// Ensures a translation page is resident; returns the cost. A page
    /// already resident keeps its recorded size (see `resident`); a
    /// `dirty` touch is the first update of a page run, and
    /// `update_batch` re-syncs the record when the run ends.
    fn touch_page(&mut self, page: u64, dirty: bool) -> MapCost {
        let mut cost = MapCost::FREE;
        if self.resident.contains(&page) {
            self.resident.get(&page); // promote
            if dirty {
                let bytes = self.condensed_bytes(page);
                self.resident.resize(&page, bytes);
                self.resident.mark_dirty(&page);
            }
        } else {
            cost.translation_reads += 1;
            self.resident
                .insert(page, (), self.condensed_bytes(page), dirty);
        }
        cost.translation_writes += self.resident.evict_to(self.budget);
        cost
    }
}

impl MappingScheme for Sftl {
    fn name(&self) -> &'static str {
        "SFTL"
    }

    fn update_batch(&mut self, pairs: &[(Lpa, Ppa)]) -> MapCost {
        let mut cost = MapCost::FREE;
        // One run of consecutive pairs on the same translation page at
        // a time: its first pair faults the page in (and may evict), the
        // rest only change the page's size, which nothing reads before
        // the run ends — so the record is re-synced once, there.
        for run in pairs.chunk_by(|a, b| PageTable::page_of(a.0) == PageTable::page_of(b.0)) {
            let (lpa, ppa) = run[0];
            let page = PageTable::page_of(lpa);
            self.flash_table.insert(lpa, ppa);
            cost.add(self.touch_page(page, true));
            if run.len() > 1 {
                for &(lpa, ppa) in &run[1..] {
                    self.flash_table.insert(lpa, ppa);
                }
                // No-ops when the page's own first touch evicted it.
                self.resident.resize(&page, self.condensed_bytes(page));
                self.resident.mark_dirty(&page);
            }
        }
        cost
    }

    fn lookup(&mut self, lpa: Lpa) -> (Option<MappingLookup>, MapCost) {
        let Some(ppa) = self.flash_table.get(lpa) else {
            return (None, MapCost::FREE);
        };
        let cost = self.touch_page(PageTable::page_of(lpa), false);
        (Some(MappingLookup::exact(ppa)), cost)
    }

    fn memory_bytes(&self) -> usize {
        self.resident.bytes() + self.flash_table.translation_pages() as usize * 8
    }

    fn set_memory_budget(&mut self, bytes: usize) {
        self.budget = bytes.max(RUN_BYTES);
    }

    fn maintain(&mut self) -> (MapCost, bool) {
        (MapCost::FREE, false)
    }

    fn snapshot_bytes(&self) -> usize {
        self.flash_table.translation_pages() as usize * 8
    }

    fn sync_checkpoint(&mut self, checkpoint: &mut Self) {
        self.flash_table
            .sync_checkpoint(&mut checkpoint.flash_table);
        checkpoint.budget = self.budget;
        checkpoint.resident.clone_from(&self.resident);
        debug_assert!(
            checkpoint.resident == self.resident,
            "a synced checkpoint is a clone of the scheme"
        );
    }
}

/// The condensed size SFTL would need to hold *everything* in DRAM —
/// used by the memory-footprint comparison (Fig. 15), independent of
/// the cache budget.
pub fn sftl_full_table_bytes(sftl: &Sftl) -> usize {
    (0..sftl.flash_table.translation_pages())
        .map(|page| sftl.condensed_bytes(page))
        .sum()
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
    fn sequential_page_condenses_to_one_run() {
        let mut sftl = Sftl::new();
        sftl.set_memory_budget(1 << 20);
        sftl.update_batch(&batch(0, 1000, 512));
        assert_eq!(sftl.condensed_bytes(0), RUN_BYTES);
        assert_eq!(sftl_full_table_bytes(&sftl), RUN_BYTES);
    }

    #[test]
    fn random_page_degrades_to_per_entry_runs() {
        let mut sftl = Sftl::new();
        sftl.set_memory_budget(1 << 20);
        // Every other LPA: no two entries are sequential.
        for i in 0..256u64 {
            sftl.update_batch(&[(Lpa::new(i * 2), Ppa::new(5000 + i))]);
        }
        assert_eq!(sftl.condensed_bytes(0), 256 * RUN_BYTES);
    }

    #[test]
    fn lookup_roundtrip_and_costs() {
        let mut sftl = Sftl::new();
        sftl.set_memory_budget(1 << 20);
        sftl.update_batch(&batch(0, 100, 8));
        let (hit, cost) = sftl.lookup(Lpa::new(3));
        assert_eq!(hit.unwrap().ppa, Ppa::new(103));
        assert_eq!(cost, MapCost::FREE); // page already resident
        assert!(sftl.lookup(Lpa::new(99)).0.is_none());
    }

    #[test]
    fn eviction_and_refetch() {
        let mut sftl = Sftl::new();
        sftl.set_memory_budget(RUN_BYTES); // one run fits
        sftl.update_batch(&batch(0, 100, 4)); // page 0 resident, dirty
                                              // Page 1 arrives; page 0 is evicted dirty.
        let cost = sftl.update_batch(&batch(512, 200, 4));
        assert_eq!(cost.translation_writes, 1);
        // Re-touching page 0 misses.
        let (_, cost) = sftl.lookup(Lpa::new(0));
        assert_eq!(cost.translation_reads, 1);
    }

    #[test]
    fn overwrite_breaks_runs() {
        let mut sftl = Sftl::new();
        sftl.set_memory_budget(1 << 20);
        sftl.update_batch(&batch(0, 1000, 512));
        assert_eq!(sftl.condensed_bytes(0), RUN_BYTES);
        // Rewrite one LPA in the middle to a far PPA: run splits in 3.
        sftl.update_batch(&[(Lpa::new(100), Ppa::new(9000))]);
        assert_eq!(sftl.condensed_bytes(0), 3 * RUN_BYTES);
    }

    /// Lookups keep a resident page's recorded size and a page run is
    /// re-synced once at its end; both rest on the record of every
    /// resident page being its condensed size between calls.
    #[test]
    fn resident_records_track_condensed_sizes() {
        let mut sftl = Sftl::new();
        sftl.set_memory_budget(40 * RUN_BYTES); // evictions throughout
        let mut state = 9u64;
        let mut next_ppa = 0u64;
        for _ in 0..400 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let lpa0 = (state >> 33) % 4096;
            let len = 1 + (state >> 20) % 24;
            let stride = 1 + (state >> 12) % 3;
            if state & 1 == 0 {
                // Sorted like a flush; runs may straddle pages.
                let pairs: Vec<(Lpa, Ppa)> = (0..len)
                    .map(|i| (Lpa::new(lpa0 + i * stride), Ppa::new(next_ppa + i)))
                    .collect();
                next_ppa += len + 1;
                sftl.update_batch(&pairs);
            } else {
                sftl.lookup(Lpa::new(lpa0));
            }
            let recomputed: usize = sftl
                .resident
                .keys_mru()
                .map(|&page| sftl.condensed_bytes(page))
                .sum();
            assert_eq!(sftl.resident.bytes(), recomputed);
        }
    }

    #[test]
    fn gap_breaks_runs() {
        let mut sftl = Sftl::new();
        sftl.set_memory_budget(1 << 20);
        sftl.update_batch(&batch(0, 1000, 10));
        sftl.update_batch(&batch(20, 1010, 10));
        // Two runs (gap at LPAs 10..19) even though PPAs continue.
        assert_eq!(sftl.condensed_bytes(0), 2 * RUN_BYTES);
    }
}
