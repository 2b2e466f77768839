//! The authoritative page-level table both baselines keep "in flash":
//! one dense 512-entry chunk per translation page, indexed by page id
//! (the vector is the Global Translation Directory).
//!
//! Chunks are shared behind [`Arc`] and copied on write
//! ([`Arc::make_mut`]), so cloning the table — what every persistence
//! point does to the scheme (§3.8) — copies one pointer per translation
//! page, and the first update to a page that a clone still holds copies
//! that page's 512 entries.

use leaftl_flash::{Lpa, Ppa};
use std::sync::Arc;

/// Entries per translation page: 4 KB / 8 B.
pub(crate) const ENTRIES_PER_TRANSLATION_PAGE: u64 = 512;

/// One translation page: the mapping of each of its 512 LPAs.
pub(crate) type TranslationPage = [Option<Ppa>; ENTRIES_PER_TRANSLATION_PAGE as usize];

/// The full LPA→PPA table, chunked by translation page.
#[derive(Debug, Clone, Default)]
pub(crate) struct PageTable {
    /// Indexed by translation page id, grown to the highest page ever
    /// written; `None` for a page nothing was written to.
    pages: Vec<Option<Arc<TranslationPage>>>,
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
        let page = Self::page_of(lpa) as usize;
        if self.pages.len() <= page {
            self.pages.resize(page + 1, None);
        }
        let entries = Arc::make_mut(
            self.pages[page]
                .get_or_insert_with(|| Arc::new([None; ENTRIES_PER_TRANSLATION_PAGE as usize])),
        );
        let entry = &mut entries[Self::slot_of(lpa)];
        if entry.is_none() {
            self.mapped += 1;
        }
        *entry = Some(ppa);
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
        self.pages.get(page as usize)?.as_deref()
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
        let snapshot = table.clone();
        table.insert(Lpa::new(512 + 7), Ppa::new(99));
        let shared = |page: usize| match (&table.pages[page], &snapshot.pages[page]) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        };
        assert_eq!(
            (0..4).map(shared).collect::<Vec<_>>(),
            vec![true, false, true, true],
            "only the written page was copied"
        );
        assert_eq!(snapshot.get(Lpa::new(512 + 7)), None);
        assert_eq!(snapshot.mapped_pages(), 4);
        assert_eq!(table.mapped_pages(), 5);
        // With the clone gone the next write copies nothing.
        drop(snapshot);
        let before = Arc::as_ptr(table.pages[2].as_ref().unwrap());
        table.insert(Lpa::new(2 * 512 + 1), Ppa::new(100));
        assert_eq!(before, Arc::as_ptr(table.pages[2].as_ref().unwrap()));
    }
}
