//! Out-of-band (OOB) reverse-mapping windows.
//!
//! Every NAND page carries a small spare area (128–256 B on modern
//! devices). Conventional FTLs store the page's own reverse mapping (its
//! LPA) there for GC and recovery. LeaFTL additionally stores the LPAs
//! of the `2γ+1` *neighbouring* PPAs centred on the page (§3.5), so that
//! a mispredicted lookup can locate the correct PPA with exactly one
//! extra flash read.
//!
//! The simulator stores the canonical per-page reverse mapping (4 B per
//! page, as in the paper) and reads the neighbour window straight from
//! the neighbours' own entries — the exact content the controller would
//! have staged at program time, with `null` entries outside the block
//! boundary (Fig. 11). [`OobWindow`] is the view returned alongside a
//! page read: three words over the device's page array, nothing copied.

use crate::addr::Lpa;
use crate::block::Page;

/// The reverse-mapping window carried in a page's OOB area.
///
/// `entry(d)` is the LPA of the page at `PPA + d` for `d ∈ [−γ, +γ]`,
/// or `None` where the paper stores null bytes (block boundaries,
/// metadata pages, unwritten neighbours).
#[derive(Debug, Clone, Copy)]
pub struct OobWindow<'a> {
    /// The programmed pages of the centre's block that fall inside the
    /// window, in page order.
    pages: &'a [Page],
    /// Position of the centre page in `pages`.
    centre: usize,
    gamma: u32,
}

impl<'a> OobWindow<'a> {
    /// The window of radius `gamma` around `block[centre]`, where
    /// `block` is the *programmed* part of the centre's block — so
    /// clipping to the slice clips at both block boundaries and at the
    /// write pointer.
    pub(crate) fn around(block: &'a [Page], centre: usize, gamma: u32) -> Self {
        let first = centre.saturating_sub(gamma as usize);
        let end = block.len().min(centre + gamma as usize + 1);
        OobWindow {
            pages: &block[first..end],
            centre: centre - first,
            gamma,
        }
    }

    /// The window radius γ.
    pub fn gamma(&self) -> u32 {
        self.gamma
    }

    /// The page's own reverse mapping (centre entry).
    pub fn own_lpa(&self) -> Option<Lpa> {
        self.pages[self.centre].lpa()
    }

    /// The reverse mapping stored for `PPA + delta`.
    pub fn entry(&self, delta: i64) -> Option<Lpa> {
        let at = usize::try_from(self.centre as i64 + delta).ok()?;
        self.pages.get(at)?.lpa()
    }

    /// All PPA deltas whose stored reverse mapping equals `lpa`, in
    /// ascending order (§3.5 misprediction recovery). Multiple stale
    /// copies of an LPA can coexist; the FTL disambiguates with its
    /// page-validity table.
    pub fn find(&self, lpa: Lpa) -> impl Iterator<Item = i64> + 'a {
        let centre = self.centre as i64;
        self.pages
            .iter()
            .enumerate()
            .filter(move |(_, page)| page.lpa() == Some(lpa))
            .map(move |(at, _)| at as i64 - centre)
    }

    /// Bytes this window occupies on flash (4 B per entry, §3.5).
    pub fn byte_size(&self) -> usize {
        (2 * self.gamma as usize + 1) * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The programmed part of a block: LPAs 48, none, 50, 51, 48.
    fn block() -> Vec<Page> {
        [Some(48), None, Some(50), Some(51), Some(48)]
            .into_iter()
            .zip(1..)
            .map(|(lpa, seq)| Page::new(seq, lpa.map(Lpa::new), seq))
            .collect()
    }

    #[test]
    fn own_and_neighbors() {
        let block = block();
        let w = OobWindow::around(&block, 2, 2);
        assert_eq!(w.own_lpa(), Some(Lpa::new(50)));
        assert_eq!(w.entry(-2), Some(Lpa::new(48)));
        assert_eq!(w.entry(-1), None);
        assert_eq!(w.entry(1), Some(Lpa::new(51)));
        assert_eq!(w.entry(3), None);
        assert_eq!(w.entry(-3), None);
    }

    #[test]
    fn find_returns_all_candidates() {
        let block = block();
        let w = OobWindow::around(&block, 2, 2);
        assert_eq!(w.find(Lpa::new(48)).collect::<Vec<_>>(), vec![-2, 2]);
        assert_eq!(w.find(Lpa::new(51)).collect::<Vec<_>>(), vec![1]);
        assert_eq!(w.find(Lpa::new(99)).count(), 0);
    }

    #[test]
    fn radius_clips_to_the_programmed_pages() {
        let block = block();
        // γ = 1 around the first page: nothing to its left.
        let w = OobWindow::around(&block, 0, 1);
        assert_eq!(w.own_lpa(), Some(Lpa::new(48)));
        assert_eq!((w.entry(-1), w.entry(1), w.entry(2)), (None, None, None));
        // γ wider than the block: every programmed page, nothing else.
        let w = OobWindow::around(&block, 4, 16);
        assert_eq!(w.entry(-4), Some(Lpa::new(48)));
        assert_eq!(w.entry(-5), None);
        assert_eq!(w.entry(1), None);
        assert_eq!(w.find(Lpa::new(48)).collect::<Vec<_>>(), vec![-4, 0]);
    }

    #[test]
    fn byte_size_matches_paper() {
        // γ=15 on a 128 B OOB: 31 entries * 4 B = 124 B ≤ 128 B.
        let block = block();
        assert_eq!(OobWindow::around(&block, 0, 15).byte_size(), 124);
    }
}
