//! The controller's write data buffer (§3.3 of the paper).
//!
//! Writes accumulate here and are flushed to flash in flash-block-sized
//! chunks. Before a flush the pages are sorted by LPA so that ascending
//! LPAs receive consecutive PPAs — the property that makes mappings
//! learnable. The buffer also absorbs read hits for recently written
//! pages and write coalescing (a rewrite of a buffered page costs no
//! flash traffic at all).
//!
//! The buffer and the pages of earlier flushes share the controller's
//! DRAM page slots ([`WritePool`]): a flushed page keeps its slot, and
//! stays readable from DRAM, until a write that finds every slot held
//! takes it once the page's program has ended. A page is in DRAM in one
//! place: the buffer or a pool slot holds what a write brought in, the
//! read cache what a read brought in. The pool knows where each flushed
//! page went on flash, so an overwrite of a page still in DRAM finds the
//! old copy without reading flash.

use leaftl_flash::{IntMap, Lpa, Ppa};
use std::collections::hash_map::Entry;
use std::collections::VecDeque;

/// Write buffer: pending `(LPA → content)` pages awaiting flush.
///
/// Pages sit in arrival order (a rewrite keeps its first slot) behind a
/// hashed index — every host read probes the buffer first, and only a
/// flush needs an order, so the LPA sort happens once, when the flush
/// takes the pages.
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

    /// Every buffered page, sorted by LPA (the §3.3 optimisation) or,
    /// unsorted, in arrival order (the Fig. 7 "unoptimized" ablation);
    /// the buffer keeps them.
    pub fn pages(&self, sorted: bool) -> Vec<(Lpa, u64)> {
        let mut pages = self.pages.clone();
        if sorted {
            // One entry per LPA, so no two keys compare equal.
            pages.sort_unstable_by_key(|&(lpa, _)| lpa);
        }
        pages
    }

    /// Empties the buffer, keeping its memory for the next fill.
    pub fn clear(&mut self) {
        self.index.clear();
        self.pages.clear();
    }
}

/// Buffers' worth of page slots in the controller's [`WritePool`]: the
/// buffer that fills shares them with the flush before it. The host
/// stream keeps as many lanes of open blocks, so those two flushes
/// program on disjoint dies (one lane on a device too small for a
/// flush of lead).
pub(crate) const POOL_FLUSHES: usize = 2;

/// The controller's DRAM page slots: the [`WriteBuffer`] that fills,
/// and the pages of earlier flushes still in DRAM, `capacity` slots
/// between them (two buffers' worth in [`crate::Ssd`], whose host stream
/// keeps a lane of open blocks per buffer).
///
/// [`WritePool::flush`] hands the buffer's pages out for programming,
/// each named by a tag (one count over every flush), and keeps them: a
/// flushed page holds its slot and is read from DRAM (the newest flush
/// of its address decides) until [`WritePool::release`] gives the slot
/// up. The caller releases a page only once its program has ended, and
/// only for a write that found every slot held ([`WritePool::overflows`]
/// after it); from then on the page is read from flash.
///
/// One record per address holds its newest flushed copy, with the PPA
/// the flush gave it (followed through GC and wear swaps by
/// [`WritePool::moved`]), and where the copy it overwrote is while that
/// one holds its slot: [`WritePool::overwritten`] names it.
#[derive(Debug, Clone)]
pub struct WritePool {
    capacity: usize,
    buffer: WriteBuffer,
    /// Kept while an address's newest copy, or the one it overwrote,
    /// holds a slot.
    records: IntMap<Lpa, Record>,
    /// Each tag's address from `first_tag` on, `None` once its page gave
    /// its slot up; the next tag is the first past the end.
    slots: VecDeque<Option<Lpa>>,
    first_tag: u64,
    /// The first tag of the newest flush.
    newest_flush: u64,
    /// Flushed pages holding a slot.
    resident: usize,
}

/// An address's newest flushed copy, and the PPA and tag of the copy it
/// overwrote while that one holds its slot.
#[derive(Debug, Clone, Copy)]
struct Record {
    content: u64,
    ppa: Ppa,
    tag: u64,
    overwrote: Option<(Ppa, u64)>,
}

impl WritePool {
    /// An empty pool of `capacity` page slots.
    pub fn new(capacity: usize) -> Self {
        WritePool {
            capacity,
            buffer: WriteBuffer::new(),
            records: IntMap::default(),
            slots: VecDeque::new(),
            first_tag: 0,
            newest_flush: 0,
            resident: 0,
        }
    }

    /// Page slots in all.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The buffer that fills.
    pub fn buffer(&self) -> &WriteBuffer {
        &self.buffer
    }

    /// Flushed pages holding a slot.
    pub fn resident(&self) -> usize {
        self.resident
    }

    /// Whether the pages hold more than every slot: after a write the
    /// buffer did not hold before, one page must give its slot up.
    pub fn overflows(&self) -> bool {
        self.buffer.len() + self.resident > self.capacity
    }

    /// Buffers a page write, coalescing rewrites; returns `true` when
    /// the buffer already held the address.
    pub fn insert(&mut self, lpa: Lpa, content: u64) -> bool {
        self.buffer.insert(lpa, content)
    }

    /// Whether the page `tag` names still holds its slot.
    fn holds_slot(&self, tag: u64) -> bool {
        let at = tag.checked_sub(self.first_tag);
        at.and_then(|at| self.slots.get(at as usize))
            .is_some_and(Option::is_some)
    }

    /// A flushed page still in DRAM: the newest flush of `lpa` decides,
    /// so once that one released its slot the page is read from flash.
    pub fn flushed(&self, lpa: Lpa) -> Option<u64> {
        let record = self.records.get(&lpa)?;
        self.holds_slot(record.tag).then_some(record.content)
    }

    /// Where the copy of `lpa` that the newest flush overwrote is on
    /// flash, while that copy still holds its slot: the page of the
    /// newest flush before it that wrote `lpa`. `None` when that page
    /// gave its slot up (its program has ended; read flash to find it)
    /// or no flush in DRAM wrote `lpa`.
    pub fn overwritten(&self, lpa: Lpa) -> Option<Ppa> {
        let record = self.records.get(&lpa)?;
        if record.tag >= self.newest_flush {
            return record.overwrote.map(|(ppa, _)| ppa);
        }
        self.holds_slot(record.tag).then_some(record.ppa)
    }

    /// Follows `lpa`'s live copy, its newest flushed one, to `to`, where
    /// GC or a wear swap moved it.
    pub fn moved(&mut self, lpa: Lpa, to: Ppa) {
        if let Entry::Occupied(mut record) = self.records.entry(lpa) {
            record.get_mut().ppa = to;
        }
    }

    /// What DRAM holds for `lpa`: the buffer's page, else a flushed one.
    pub fn get(&self, lpa: Lpa) -> Option<u64> {
        self.buffer.get(lpa).or_else(|| self.flushed(lpa))
    }

    /// Flushes the buffer onto `ppas`, one page each: returns its pages
    /// in programming order (as [`WriteBuffer::pages`] lists them, the
    /// `i`-th onto the `i`-th PPA) and the first page's tag (the `i`-th
    /// page's is that plus `i`). The pages keep their slots.
    ///
    /// # Panics
    ///
    /// Panics when `ppas` does not name one page per buffered page.
    pub fn flush(
        &mut self,
        sorted: bool,
        ppas: impl IntoIterator<Item = Ppa>,
    ) -> (Vec<(Lpa, u64)>, u64) {
        let pages = self.buffer.pages(sorted);
        self.buffer.clear();
        self.newest_flush = self.first_tag + self.slots.len() as u64;
        let mut ppas = ppas.into_iter();
        for (&(lpa, content), ppa) in pages.iter().zip(ppas.by_ref()) {
            let older = self.records.get(&lpa).map(|older| (older.ppa, older.tag));
            let overwrote = older.filter(|&(_, tag)| self.holds_slot(tag));
            let tag = self.first_tag + self.slots.len() as u64;
            let record = Record {
                content,
                ppa,
                tag,
                overwrote,
            };
            self.records.insert(lpa, record);
            self.slots.push_back(Some(lpa));
        }
        let tags = self.first_tag + self.slots.len() as u64 - self.newest_flush;
        let one_each = tags == pages.len() as u64 && ppas.next().is_none();
        assert!(one_each, "one PPA per flushed page");
        self.resident += pages.len();
        (pages, self.newest_flush)
    }

    /// Gives up the slot of the flushed page `tag` names: from here on
    /// the page is not in DRAM.
    ///
    /// # Panics
    ///
    /// Panics when `tag` names no page still holding a slot.
    pub fn release(&mut self, tag: u64) {
        let at = tag.checked_sub(self.first_tag);
        let lpa = at.and_then(|at| self.slots.get_mut(at as usize)?.take());
        let lpa = lpa.unwrap_or_else(|| panic!("page {tag} holds no slot"));
        self.resident -= 1;
        while self.slots.front().is_some_and(Option::is_none) {
            self.slots.pop_front();
            self.first_tag += 1;
        }
        // The record goes once neither copy it names holds a slot.
        let Some(&record) = self.records.get(&lpa) else {
            return;
        };
        let overwrote = record.overwrote.filter(|&(_, older)| older != tag);
        if overwrote.is_none() && !self.holds_slot(record.tag) {
            self.records.remove(&lpa);
        } else if let Entry::Occupied(mut kept) = self.records.entry(lpa) {
            kept.get_mut().overwrote = overwrote;
        }
    }

    /// Empties every slot (a power cut: DRAM is lost). Tags handed out
    /// before name no page afterwards.
    pub fn clear(&mut self) {
        self.buffer.clear();
        self.records.clear();
        self.first_tag += self.slots.len() as u64;
        self.slots.clear();
        self.resident = 0;
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
    fn sorted_pages_order_by_lpa() {
        let mut buffer = WriteBuffer::new();
        for lpa in [78u64, 32, 33, 76, 115, 34, 38] {
            buffer.insert(Lpa::new(lpa), lpa * 10);
        }
        let pages = buffer.pages(true);
        let lpas: Vec<u64> = pages.iter().map(|(l, _)| l.raw()).collect();
        assert_eq!(lpas, vec![32, 33, 34, 38, 76, 78, 115]);
        assert_eq!(buffer.len(), 7);
        buffer.clear();
        assert!(buffer.is_empty());
        assert_eq!(buffer.get(Lpa::new(32)), None);
    }

    #[test]
    fn unsorted_pages_keep_arrival_order() {
        let mut buffer = WriteBuffer::new();
        for lpa in [78u64, 32, 33] {
            buffer.insert(Lpa::new(lpa), lpa);
        }
        buffer.insert(Lpa::new(78), 780); // coalesce keeps first arrival slot
        let pages = buffer.pages(false);
        let lpas: Vec<u64> = pages.iter().map(|(l, _)| l.raw()).collect();
        assert_eq!(lpas, vec![78, 32, 33]);
        assert_eq!(pages[0].1, 780);
    }

    #[test]
    fn a_flushed_page_reads_from_dram_until_it_gives_its_slot_up() {
        let mut pool = WritePool::new(4);
        pool.insert(Lpa::new(7), 70);
        pool.insert(Lpa::new(3), 30);
        let (pages, first) = pool.flush(true, [Ppa::new(0), Ppa::new(1)]);
        assert_eq!(pages, vec![(Lpa::new(3), 30), (Lpa::new(7), 70)]);
        assert_eq!(pool.resident(), 2);
        assert_eq!(pool.get(Lpa::new(7)), Some(70));
        // A newer flush of address 7 shadows the older one, released
        // or not.
        pool.insert(Lpa::new(7), 71);
        pool.insert(Lpa::new(9), 90);
        assert_eq!(pool.get(Lpa::new(7)), Some(71));
        let (_, second) = pool.flush(true, [Ppa::new(2), Ppa::new(3)]);
        assert!(!pool.overflows());
        pool.insert(Lpa::new(1), 10);
        assert!(pool.overflows());
        pool.release(first + 1);
        assert_eq!(pool.get(Lpa::new(7)), Some(71));
        pool.release(second);
        assert_eq!(pool.get(Lpa::new(7)), None);
        assert_eq!(pool.get(Lpa::new(3)), Some(30));
        pool.release(first);
        assert_eq!(pool.get(Lpa::new(3)), None);
        // The oldest flush left DRAM whole; the newer one still holds 9.
        assert_eq!(pool.slots.len(), 1);
        pool.release(second + 1);
        assert_eq!(pool.get(Lpa::new(9)), None);
        assert_eq!(pool.resident(), 0);
        assert!(pool.slots.is_empty());
        assert!(pool.records.is_empty());
        pool.clear();
        assert_eq!(pool.get(Lpa::new(1)), None);
    }

    #[test]
    fn the_pool_names_the_overwritten_copy_while_it_holds_its_slot() {
        let mut pool = WritePool::new(8);
        pool.insert(Lpa::new(7), 70);
        pool.insert(Lpa::new(3), 30);
        let (_, first) = pool.flush(true, [Ppa::new(10), Ppa::new(11)]);
        // The newest flush overwrites nothing of its own.
        assert_eq!(pool.overwritten(Lpa::new(7)), None);
        // GC moves address 7's page; a newer flush overwrites both.
        pool.moved(Lpa::new(7), Ppa::new(40));
        pool.moved(Lpa::new(9), Ppa::new(41));
        pool.insert(Lpa::new(7), 71);
        pool.insert(Lpa::new(3), 31);
        pool.insert(Lpa::new(9), 91);
        let (_, second) = pool.flush(true, [Ppa::new(20), Ppa::new(21), Ppa::new(22)]);
        assert_eq!(pool.overwritten(Lpa::new(7)), Some(Ppa::new(40)));
        assert_eq!(pool.overwritten(Lpa::new(3)), Some(Ppa::new(10)));
        assert_eq!(pool.overwritten(Lpa::new(9)), None);
        // Once the old copy gives its slot up, flash must be read.
        pool.release(first);
        assert_eq!(pool.overwritten(Lpa::new(3)), None);
        // A third flush overwrites the second's copies: 7's is moved
        // again, and the move follows the newest copy only.
        pool.moved(Lpa::new(7), Ppa::new(50));
        pool.insert(Lpa::new(7), 72);
        pool.flush(true, [Ppa::new(30)]);
        assert_eq!(pool.overwritten(Lpa::new(7)), Some(Ppa::new(50)));
        pool.release(second + 1);
        assert_eq!(pool.overwritten(Lpa::new(7)), None);
        // A newer copy may give its slot up first (its program ended
        // first, on another die): the copy it overwrote is still named.
        pool.insert(Lpa::new(3), 32);
        let (_, fourth) = pool.flush(true, [Ppa::new(60)]);
        pool.release(fourth);
        assert_eq!(pool.get(Lpa::new(3)), None);
        assert_eq!(pool.overwritten(Lpa::new(3)), Some(Ppa::new(20)));
        pool.release(second);
        assert_eq!(pool.overwritten(Lpa::new(3)), None);
    }
}
