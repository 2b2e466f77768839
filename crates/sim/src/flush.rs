//! The flush's state half (§3.3, §3.5): allocation, the pool hand-off,
//! the programs on the device, resolving each overwritten LPA's old
//! copy, learning, the journal delta and compaction change the SSD's
//! state and return one [`FlushPlan`]; `Ssd::place_flush` (in `ssd.rs`)
//! puts it on the dies. Nothing here places an operation or reads the
//! clock. A resolution is planned in full, and placing it decides which
//! of its probes are read, as the dies then stand. Host reads share the
//! probe planner, GC the allocation, programming, learning and journal.
//! A child module of `ssd`, like `gc.rs`: it changes private state.

use super::{Batch, Ssd};
use crate::allocator::{PageRun, Stream};
use crate::config::CheckpointMode;
use crate::error::SimError;
use leaftl_core::{MapCost, MappingLookup, MappingScheme};
use leaftl_flash::{BlockId, Lpa, Ppa};
use std::ops::Range;

/// What a flush needs on the dies, as its state change left it.
#[derive(Debug, Clone)]
pub(super) struct FlushPlan {
    /// When it was dispatched: no operation starts earlier.
    pub(super) dispatch_ns: u64,
    /// Where its pages went, in programming order.
    pub(super) runs: Vec<PageRun>,
    /// The first page's DRAM slot: the `i`-th page's is this plus `i`.
    pub(super) first_tag: u64,
    /// The translation I/O in the order it was charged, by the LPA whose
    /// die it goes on: each overwritten LPA's lookup, with the
    /// resolution of an approximate hit, then each learned batch's — a
    /// lookup that charged nothing and resolved nothing is left out.
    pub(super) map_costs: Vec<(Lpa, MapCost, Option<Resolution>)>,
    /// Every resolution's probes, unfiltered, plan after plan (in the
    /// read path's probe list, which placing hands back).
    pub(super) probes: Vec<Ppa>,
}

/// An approximate hit resolved to the live page, and where its plan's
/// probes sit in the probe list: `None` when the page is a flushed one
/// still in DRAM, whose address the pool knows.
#[derive(Debug, Clone)]
pub(super) struct Resolution {
    pub(super) hit: MappingLookup,
    pub(super) exact: Ppa,
    pub(super) probes: Option<Range<usize>>,
}

/// The state half of a resolved read ([`Ssd::plan_read_probes`]): the
/// live page, what it holds, and where the pages to read sit in the
/// probe list it was planned into — one list holds a whole burst's
/// probes back to back, so a read owns no allocation.
#[derive(Debug, Clone)]
pub(super) struct ReadPlan {
    pub(super) exact: Ppa,
    pub(super) predicted: Ppa,
    pub(super) content: u64,
    pub(super) probes: Range<usize>,
}

impl<S: MappingScheme + Clone> Ssd<S> {
    /// A flush's state change at `dispatch_ns`, of a non-empty buffer
    /// the host stream has room for: its pages go onto allocated runs and
    /// the device, keeping their DRAM slots as the pool learns where each
    /// went; each page's old copy is looked up and invalidated, in one
    /// pass in programming order, an approximate hit once resolved
    /// ([`Ssd::resolve`]); then each run is learned as one batch and
    /// journalled, and the table compacts (§3.7, in DRAM).
    pub(super) fn plan_flush(&mut self, dispatch_ns: u64) -> Result<FlushPlan, SimError> {
        let sorted = self.config.sort_buffer_on_flush;
        let len = self.pool.buffer().len() as u32;
        let runs = self
            .allocate(Stream::Host, len)
            .ok_or(SimError::DeviceFull)?;
        let (pages, first_tag) = self.pool.flush(sorted, runs.iter().flat_map(PageRun::ppas));
        let batches = self.program_runs(&runs, &pages, dispatch_ns)?;
        let mut plan = FlushPlan {
            dispatch_ns,
            runs,
            first_tag,
            map_costs: Vec::with_capacity(pages.len() + batches.len()),
            probes: std::mem::take(&mut self.read_scratch.probes),
        };
        plan.probes.clear();
        for &(lpa, _) in batches.iter().flatten() {
            let (hit, cost) = self.scheme.lookup(lpa);
            let mut resolution = None;
            if let Some(hit) = hit {
                let old = if hit.approximate {
                    let resolved = self.resolve(lpa, hit, &mut plan.probes)?;
                    self.stats.lookups += 1;
                    self.stats.mispredictions += u64::from(resolved.exact != hit.ppa);
                    resolution.insert(resolved).exact
                } else {
                    debug_assert!(self.validity.is_valid(hit.ppa));
                    hit.ppa
                };
                self.invalidate(old);
            }
            if resolution.is_some() || cost != MapCost::FREE {
                plan.map_costs.push((lpa, cost, resolution));
            }
        }
        for batch in &batches {
            let cost = self.learn_and_mark(batch, sorted);
            if cost != MapCost::FREE {
                plan.map_costs.push((batch[0].0, cost, None));
            }
        }
        self.translog_append_delta(batches.into_iter().flatten());
        let (cost, compacted) = self.scheme.maintain();
        debug_assert_eq!(cost, MapCost::FREE, "a compaction that charges flash I/O");
        self.stats.compactions += u64::from(compacted);
        Ok(plan)
    }

    /// Finds the live page of `lpa`, which `hit` predicts approximately:
    /// a flushed page still in DRAM is where the pool says (a power cut
    /// empties it), any other where a probe plan finds it, its probes
    /// appended to `probes`. That page is the LPA's one valid copy, so
    /// it is also the page any OOB window naming a live copy names.
    pub(super) fn resolve(
        &self,
        lpa: Lpa,
        hit: MappingLookup,
        probes: &mut Vec<Ppa>,
    ) -> Result<Resolution, SimError> {
        let (exact, probes) = match self.pool.overwritten(lpa) {
            Some(exact) => (exact, None),
            None => {
                let plan = self.plan_read_probes(lpa, &hit, false, probes)?;
                (plan.exact, Some(plan.probes))
            }
        };
        debug_assert!(
            self.validity.is_valid(exact)
                && self
                    .device
                    .read(exact)
                    .is_ok_and(|page| page.lpa == Some(lpa)),
            "{lpa:?} is not live at {exact:?}"
        );
        Ok(Resolution { hit, exact, probes })
    }

    /// [`crate::allocator::BlockAllocator::allocate`], marking the
    /// blocks the request closed (filled, or the log's replaced in its
    /// slot): closing is what makes a block a GC candidate.
    pub(super) fn allocate(&mut self, stream: Stream, pages: u32) -> Option<Vec<PageRun>> {
        let runs = self.allocator.allocate(stream, pages);
        for block in self.allocator.take_closed() {
            self.gc_index.touch(block);
        }
        runs
    }

    // The three ways a valid count changes. Each marks the block for
    // the victim index, which re-reads the count at the next selection.

    pub(super) fn invalidate(&mut self, ppa: Ppa) {
        self.validity.invalidate(ppa);
        self.gc_index.touch(self.config.geometry.block_of(ppa));
    }

    pub(super) fn mark_valid(&mut self, ppa: Ppa) {
        self.validity.mark_valid(ppa);
        self.gc_index.touch(self.config.geometry.block_of(ppa));
    }

    pub(super) fn clear_block(&mut self, block: BlockId) {
        self.validity.clear_block(block);
        self.gc_index.touch(block);
    }

    /// Resolves a (possibly approximate) prediction to the live page,
    /// touching no timeline or counter: walks the probe sequence against
    /// the device and appends the pages that must be read, in order, to
    /// `probes` for the caller to filter and schedule — which lets a
    /// burst plan in batch order and schedule in map-ready order. The
    /// first probe is the predicted page whenever it is listed; no other
    /// probe is.
    ///
    /// Correct-page criterion: the OOB reverse mapping matches *and* the
    /// PVT says the page is live — stale copies of the same LPA within
    /// the error window are rejected by the validity check. A host read
    /// (`host_read`) needs the live page's content, so a page the
    /// predicted page's window names is read too; a resolution for
    /// invalidation needs only its address, which the window gives.
    pub(super) fn plan_read_probes(
        &self,
        lpa: Lpa,
        hit: &MappingLookup,
        host_read: bool,
        probes: &mut Vec<Ppa>,
    ) -> Result<ReadPlan, SimError> {
        let gamma = hit.error_bound as u64;
        let predicted = hit.ppa;
        let first = probes.len();
        let geometry = self.config.geometry;
        let plan = |exact: Ppa, content: u64, probes: &[Ppa]| ReadPlan {
            exact,
            predicted,
            content,
            probes: first..probes.len(),
        };

        // First attempt: the predicted page, when in range.
        if geometry.contains(predicted) {
            probes.push(predicted);
            if let Ok(view) = self.device.read(predicted) {
                if view.lpa == Some(lpa) && self.validity.is_valid(predicted) {
                    return Ok(plan(predicted, view.content, probes));
                }
                // Misprediction: consult the OOB reverse-mapping window
                // of the page we already read (§3.5) — one extra flash
                // access suffices when the window names the LPA, and
                // none when only its address is wanted.
                if let Some(candidate) = self.named_live(predicted, hit.error_bound, lpa) {
                    if host_read {
                        probes.push(candidate);
                    }
                    let view = self.device.read(candidate)?;
                    debug_assert_eq!(view.lpa, Some(lpa));
                    return Ok(plan(candidate, view.content, probes));
                }
            }
        }

        // Fallback: scan outward within the guaranteed bound. Reached
        // only when the predicted page was erased/out-of-range or the
        // window was clipped at a block boundary.
        for distance in 1..=gamma.max(1) {
            for candidate in [
                predicted.checked_sub(distance),
                Some(predicted.offset(distance)),
            ]
            .into_iter()
            .flatten()
            {
                if !geometry.contains(candidate) || !self.validity.is_valid(candidate) {
                    continue;
                }
                probes.push(candidate);
                if let Ok(view) = self.device.read(candidate) {
                    if view.lpa == Some(lpa) {
                        return Ok(plan(candidate, view.content, probes));
                    }
                }
            }
        }
        Err(SimError::MappingCorruption { lpa, predicted })
    }

    /// The live page of `lpa` among those the OOB window of `page`
    /// names (§3.5). The window comes with a read of `page`, so asking
    /// it costs no flash access; a page the PVT marks live whose reverse
    /// mapping is `lpa` is that LPA's one live copy.
    pub(super) fn named_live(&self, page: Ppa, gamma: u32, lpa: Lpa) -> Option<Ppa> {
        self.device
            .oob_window(page, gamma)?
            .find(lpa)
            .map(|delta| Ppa::new((page.raw() as i64 + delta) as u64))
            .find(|&candidate| self.validity.is_valid(candidate))
    }

    /// Whether the OOB window of `page`, ± `gamma`, names `exact` as a
    /// copy of `lpa`: [`Ssd::named_live`]'s answer for a resolved page,
    /// asked after the resolution invalidated it.
    pub(super) fn window_names(&self, (page, gamma): (Ppa, u32), lpa: Lpa, exact: Ppa) -> bool {
        let named = |delta: i64| page.raw() as i64 + delta == exact.raw() as i64;
        self.device
            .oob_window(page, gamma)
            .is_some_and(|window| window.find(lpa).any(named))
    }

    /// Installs a batch's mappings and marks the new pages live;
    /// returns the translation I/O the scheme charged, for the caller
    /// to place ([`Ssd::charge_map_cost`]). `sorted` batches (every
    /// sorted flush, GC migration and wear swap) take the scheme's
    /// pre-sorted fast path. Learning runs on the controller CPU
    /// alongside the asynchronous flush, so it is accounted but does
    /// not block the host (§4.5: 0.02% of the flash write latency).
    pub(super) fn learn_and_mark(&mut self, batch: &[(Lpa, Ppa)], sorted: bool) -> MapCost {
        if batch.is_empty() {
            return MapCost::FREE;
        }
        self.unpersisted.note(batch);
        let cost = if sorted {
            self.scheme.update_batch_sorted(batch)
        } else {
            self.scheme.update_batch(batch)
        };
        let learn_ns = self.scheme.learn_cost_ns(batch.len());
        self.stats.learn_cpu_ns += learn_ns;
        for &(_, ppa) in batch {
            self.mark_valid(ppa);
        }
        cost
    }

    /// Programs `pages` onto `runs` in order at `now_ns`, on the device
    /// only: the dies are the caller's to schedule. Returns the
    /// installed `(LPA, PPA)` pairs run by run — a run is one learning
    /// batch. Every data page the device programs goes through here, for
    /// a flush, a migration or a wear swap alike.
    pub(super) fn program_runs(
        &mut self,
        runs: &[PageRun],
        pages: &[(Lpa, u64)],
        now_ns: u64,
    ) -> Result<Vec<Batch>, SimError> {
        let mut pages = pages.iter();
        let mut batches: Vec<Batch> = Vec::with_capacity(runs.len());
        for run in runs {
            let mut batch = Vec::with_capacity(run.len as usize);
            for (ppa, &(lpa, content)) in run.ppas().zip(&mut pages) {
                self.device.program(ppa, content, Some(lpa))?;
                self.note_block_write(ppa, now_ns);
                batch.push((lpa, ppa));
            }
            batches.push(batch);
        }
        Ok(batches)
    }

    /// Journals `batch`'s installed mappings as a translation-log delta
    /// (one per flush, migration or wear swap), which recovery replays
    /// instead of rescanning the blocks they landed in. Only
    /// [`CheckpointMode::FlashLog`] keeps a journal.
    pub(super) fn translog_append_delta(&mut self, batch: impl IntoIterator<Item = (Lpa, Ppa)>) {
        if self.config.checkpoint_mode == CheckpointMode::FlashLog {
            let batch = batch.into_iter().collect();
            self.translog.push_delta(batch, self.device.program_seq());
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{ExactPageMap, Ssd, SsdConfig};
    use leaftl_flash::Lpa;

    /// A window names a resolved page whether or not the page is still
    /// valid, and only within ± its bound, in its own block.
    #[test]
    fn a_window_names_a_copy_within_its_bound_valid_or_not() {
        let mut ssd = Ssd::new(SsdConfig::small_test(), ExactPageMap::new());
        for lpa in 0..32 {
            ssd.write(Lpa::new(lpa), lpa).unwrap();
        }
        let page = |lpa| ssd.scheme().get(Lpa::new(lpa)).unwrap();
        let (read, named, far) = (page(10), page(12), page(15));
        assert_eq!((named, far), (read.offset(2), read.offset(5)));
        assert!(ssd.window_names((read, 4), Lpa::new(12), named));
        assert!(!ssd.window_names((read, 4), Lpa::new(15), far));
        assert!(!ssd.window_names((read, 4), Lpa::new(11), named));
        assert_eq!(ssd.named_live(read, 4, Lpa::new(12)), Some(named));
        ssd.invalidate(named);
        assert_eq!(ssd.named_live(read, 4, Lpa::new(12)), None);
        assert!(ssd.window_names((read, 4), Lpa::new(12), named));
    }
}
