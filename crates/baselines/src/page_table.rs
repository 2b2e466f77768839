//! The authoritative page-level table both baselines keep "in flash":
//! one dense 512-entry chunk per translation page, indexed by page id
//! (the vector is the Global Translation Directory).
//!
//! Chunks sit in [`CowSlots`]: shared behind `Arc` and copied on
//! write, so a clone copies one pointer per translation page, and the
//! first update to a page that a clone still holds copies that page's
//! 512 entries. The slots list the pages written, and
//! [`PageTable::sync_checkpoint`] re-points exactly those in a copy
//! kept from earlier — what a persistence point (§3.8) does to its
//! recovery baseline.

use leaftl_flash::{Lpa, Ppa};
use leaftl_sim::CowSlots;

/// Entries per translation page: 4 KB / 8 B.
pub(crate) const ENTRIES_PER_TRANSLATION_PAGE: u64 = 512;

/// One translation page: the mapping of each of its 512 LPAs.
pub(crate) type TranslationPage = [Option<Ppa>; ENTRIES_PER_TRANSLATION_PAGE as usize];

/// The full LPA→PPA table, chunked by translation page.
#[derive(Debug, Clone, Default)]
pub(crate) struct PageTable {
    /// Indexed by translation page id.
    pages: CowSlots<TranslationPage>,
    /// Number of mapped LPAs.
    mapped: usize,
}

impl PageTable {
    /// The translation page holding `lpa`'s entry.
    pub fn page_of(lpa: Lpa) -> u64 {
        lpa.raw() / ENTRIES_PER_TRANSLATION_PAGE
    }

    /// Where `lpa`'s entry sits within its translation page.
    fn slot_of(lpa: Lpa) -> usize {
        (lpa.raw() % ENTRIES_PER_TRANSLATION_PAGE) as usize
    }

    /// The mapping of `lpa`, `None` when never written.
    pub fn get(&self, lpa: Lpa) -> Option<Ppa> {
        self.page(Self::page_of(lpa))?[Self::slot_of(lpa)]
    }

    /// Installs or replaces the mapping of `lpa`.
    pub fn insert(&mut self, lpa: Lpa, ppa: Ppa) {
        let entries = self.pages.make_mut(Self::page_of(lpa), || {
            [None; ENTRIES_PER_TRANSLATION_PAGE as usize]
        });
        let entry = &mut entries[Self::slot_of(lpa)];
        if entry.is_none() {
            self.mapped += 1;
        }
        *entry = Some(ppa);
    }

    /// Brings `checkpoint` — what this table was when this last ran on
    /// it, or any clone of it taken since — up to date, as
    /// `*checkpoint = self.clone()` would, by re-pointing the
    /// translation pages written since. Debug builds check the result
    /// against that clone.
    pub fn sync_checkpoint(&mut self, checkpoint: &mut PageTable) {
        self.pages.sync(&mut checkpoint.pages);
        checkpoint.mapped = self.mapped;
        debug_assert!(
            self.pages.same_state(&checkpoint.pages),
            "a synced checkpoint is a clone of the table"
        );
    }

    /// Number of mapped LPAs.
    pub fn mapped_pages(&self) -> usize {
        self.mapped
    }

    /// Highest translation page ever written, plus one (sizes the GTD).
    pub fn translation_pages(&self) -> u64 {
        self.pages.len() as u64
    }

    /// The entries of one translation page, `None` when nothing was
    /// written to it.
    pub fn page(&self, page: u64) -> Option<&TranslationPage> {
        self.pages.get(page)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_and_mapped_count() {
        let mut table = PageTable::default();
        assert_eq!(table.get(Lpa::new(3)), None);
        table.insert(Lpa::new(3), Ppa::new(30));
        table.insert(Lpa::new(1500), Ppa::new(31));
        table.insert(Lpa::new(3), Ppa::new(32));
        assert_eq!(table.get(Lpa::new(3)), Some(Ppa::new(32)));
        assert_eq!(table.get(Lpa::new(1500)), Some(Ppa::new(31)));
        assert_eq!(table.get(Lpa::new(600)), None, "page 1 was never written");
        assert_eq!(table.get(Lpa::new(9_999_999)), None, "beyond the directory");
        assert_eq!(table.mapped_pages(), 2, "an overwrite maps nothing new");
        assert_eq!(table.translation_pages(), 3);
        assert!(table.page(1).is_none());
    }

    #[test]
    fn a_clone_shares_pages_until_one_is_written() {
        let mut table = PageTable::default();
        for page in 0..4u64 {
            table.insert(Lpa::new(page * 512), Ppa::new(page));
        }
        let mut snapshot = table.clone();
        table.insert(Lpa::new(512 + 7), Ppa::new(99));
        let shared = |a: &PageTable, b: &PageTable| -> Vec<bool> {
            (0..4)
                .map(|page| matches!((a.page(page), b.page(page)), (Some(a), Some(b)) if std::ptr::eq(a, b)))
                .collect()
        };
        assert_eq!(
            shared(&table, &snapshot),
            vec![true, false, true, true],
            "only the written page was copied"
        );
        assert_eq!(snapshot.get(Lpa::new(512 + 7)), None);
        assert_eq!(snapshot.mapped_pages(), 4);
        assert_eq!(table.mapped_pages(), 5);
        // Brought up to date, it shares every page again.
        table.sync_checkpoint(&mut snapshot);
        assert_eq!(shared(&table, &snapshot), vec![true; 4]);
        assert_eq!(snapshot.get(Lpa::new(512 + 7)), Some(Ppa::new(99)));
        assert_eq!(snapshot.mapped_pages(), 5);
        // With the clone gone the next write copies nothing.
        drop(snapshot);
        let before = table.page(2).unwrap() as *const TranslationPage;
        table.insert(Lpa::new(2 * 512 + 1), Ppa::new(100));
        assert_eq!(before, table.page(2).unwrap() as *const TranslationPage);
    }
}
