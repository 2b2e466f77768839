//! Garbage collection's state half (§3.6, §3.8): victim selection, the
//! relocation kernel, wear swaps and persistence points change the
//! SSD's state and return one [`GcPlan`] of what that needs on the dies.
//! Nothing here places an operation or reads the clock: a plan carries
//! the dispatch time it was planned from, and `Ssd::place_gc` (in
//! `ssd.rs`) puts it on the dies, ahead of or behind the queued flush
//! programs as its caller says. A child module of `ssd`, in a file of
//! its own: it changes the SSD's private state.

use super::{Batch, FlashOp, Ssd};
use crate::allocator::{PageRun, Stream};
use crate::collection::{victim_slack, Relocation};
use crate::config::{CheckpointMode, GcPolicy, GcWatermarks};
use crate::error::SimError;
use crate::gc_index::{VictimIndex, NOT_A_CANDIDATE};
use crate::trace::ArgValue;
use crate::translog::Baseline;
use crate::validity::Validity;
use leaftl_core::{MapCost, MappingScheme};
use leaftl_flash::{BlockId, Lpa, Ppa};

/// Bytes of one block's BVC entry as a persistence point writes it.
const BVC_ENTRY_BYTES: usize = 4;

/// What a collection, a wear swap or a persistence point needs on the
/// dies, as its state change left it.
#[derive(Debug, Clone, Default)]
pub(crate) struct GcPlan {
    /// When it was dispatched: no step starts earlier.
    pub(crate) dispatch_ns: u64,
    /// The relocations, in the order they changed state.
    pub(crate) passes: Vec<Relocation>,
    /// The persistence points' pages, in the order they ran.
    pub(crate) points: Vec<PointPages>,
}

/// A [`CheckpointMode::DramSnapshot`] persistence point's translation
/// programs: `pages` of them, on consecutive dies from `first_die`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PointPages {
    pub(crate) first_die: u32,
    pub(crate) pages: usize,
}

/// The mapping table's 256-LPA groups ([`Lpa::group`]) by persistence
/// standing: how many were ever mapped, and which were remapped since
/// the last [`CheckpointMode::DramSnapshot`] persistence point — each
/// listed once, however often it was rewritten. It is kept beside the
/// scheme rather than asked of it, so a scheme behind a forwarding
/// wrapper is priced exactly as the bare one.
#[derive(Debug, Clone)]
pub(super) struct UnpersistedGroups {
    /// Groups a mapping was ever installed in.
    pub(super) mapped: usize,
    mapped_mark: Vec<bool>,
    /// Groups remapped since the last point — exactly the groups
    /// `listed_mark` flags.
    pub(super) listed: Vec<u32>,
    listed_mark: Vec<bool>,
}

impl UnpersistedGroups {
    pub(super) fn new(logical_pages: u64) -> Self {
        let groups = logical_pages.div_ceil(Lpa::GROUP_SIZE) as usize;
        UnpersistedGroups {
            mapped: 0,
            mapped_mark: vec![false; groups],
            listed: Vec::new(),
            listed_mark: vec![false; groups],
        }
    }

    /// Lists the groups `batch` installs mappings in.
    pub(super) fn note(&mut self, batch: &[(Lpa, Ppa)]) {
        // Batches are runs of neighbouring LPAs: look a group up once.
        let mut last = usize::MAX;
        for group in batch.iter().map(|&(lpa, _)| lpa.group() as usize) {
            if std::mem::replace(&mut last, group) == group || self.listed_mark[group] {
                continue;
            }
            self.listed_mark[group] = true;
            self.listed.push(group as u32);
            if !std::mem::replace(&mut self.mapped_mark[group], true) {
                self.mapped += 1;
            }
        }
    }

    /// Forgets the list: what it named is persisted (or, after a power
    /// cut, lost with the table that held it).
    pub(super) fn forget(&mut self) {
        for group in self.listed.drain(..) {
            self.listed_mark[group as usize] = false;
        }
    }
}

impl<S: MappingScheme + Clone> Ssd<S> {
    /// Collects synchronously from the low watermark to the high one.
    pub(super) fn maybe_gc(&mut self) -> Result<(), SimError> {
        let lines = self.gc_lines;
        if self.allocator.free_fraction() < lines.low {
            self.collect_while(|ssd| ssd.allocator.free_fraction() < lines.high)?;
        }
        Ok(())
    }

    /// Plans one GC collection dispatched at `dispatch_ns`: while
    /// `wanted` holds and there is a victim, at most `max_passes` and
    /// at most one per block, a pass ([`Ssd::gc_pass`]) over the best
    /// block there is when it runs ([`Ssd::select_gc_victim`]). Both
    /// collectors run it, then place the plan. Returns beside it the
    /// error of a pass that failed, which ended the plan.
    pub(crate) fn plan_collection(
        &mut self,
        wanted: impl Fn(&Self) -> bool,
        max_passes: usize,
        dispatch_ns: u64,
    ) -> (GcPlan, Result<(), SimError>) {
        let geometry = self.config.geometry;
        let max_passes = max_passes.min(geometry.blocks as usize + 1);
        let mut plan = GcPlan {
            dispatch_ns,
            ..GcPlan::default()
        };
        // The victims each die has given the collection, which greedy
        // balances. A device whose GC lines sit at the cap keeps plain
        // greedy, as it keeps one host lane: with a few free blocks per
        // way, the pages the slack lets a victim keep cost free space it
        // does not have.
        let mut die_victims = vec![0; geometry.total_dies() as usize];
        while plan.passes.len() < max_passes && wanted(self) {
            let Some(victim) = self.select_gc_victim(dispatch_ns, &die_victims) else {
                break;
            };
            if let Err(error) = self.gc_pass(victim, &mut plan) {
                return (plan, Err(error));
            }
            if !self.gc_lines.capped() {
                die_victims[geometry.die_of_block(victim).raw() as usize] += 1;
            }
        }
        (plan, Ok(()))
    }

    /// One GC pass over `victim` (§3.6): migrate its live pages, erase
    /// it, and persist mapping table + BVC (§3.8) if a persistence
    /// point is due ([`Ssd::persistence_point_due`]), adding what that
    /// needs on flash to `plan`. A pass whose live pages the GC stream
    /// cannot take fails with [`SimError::DeviceFull`]: its victim is
    /// the best block there is when it runs, so under greedy no other
    /// pass could make the room.
    pub(super) fn gc_pass(&mut self, victim: BlockId, plan: &mut GcPlan) -> Result<(), SimError> {
        self.stats.gc_runs += 1;
        plan.passes
            .push(self.migrate_block(victim, None, plan.dispatch_ns)?);
        if self.persistence_point_due() {
            plan.points.extend(self.persist(plan.dispatch_ns));
        }
        Ok(())
    }

    /// Where GC starts and stops on this device; the device front-end
    /// reads the same lines.
    pub(crate) fn gc_watermarks(&self) -> GcWatermarks {
        self.gc_lines
    }

    /// Current free-block fraction (the device's GC pressure signal).
    pub(crate) fn free_fraction(&self) -> f64 {
        self.allocator.free_fraction()
    }

    /// Whether GC has a block to collect: after the marked keys are
    /// re-read, one comparison at the victim index's root. The device
    /// front-end asks before it offers a migration to its arbiter.
    pub(crate) fn has_gc_candidate(&mut self) -> bool {
        self.refresh_gc_index();
        self.gc_index
            .any_below(self.config.geometry.pages_per_block)
    }

    /// A block's key in the victim index: its valid-page count if GC
    /// may pick it — closed, programmed, and not the translation log's
    /// (a log block counts zero valid *data* pages, so greedy would
    /// erase a live checkpoint; the log reclaims its own blocks).
    pub(super) fn victim_key(&self, block: BlockId) -> u32 {
        if self.allocator.is_open(block)
            || self.device.block(block).is_erased()
            || self.translog.owns(block)
        {
            NOT_A_CANDIDATE
        } else {
            self.validity.valid_count(block)
        }
    }

    /// Brings the victim index up to date: re-reads the key of every
    /// block marked since the last selection.
    pub(super) fn refresh_gc_index(&mut self) {
        while let Some(block) = self.gc_index.pop_dirty() {
            let key = self.victim_key(block);
            self.gc_index.refresh(block, key);
        }
    }

    /// Recomputes every block's key in the victim index.
    pub(super) fn rebuild_gc_index(&mut self) {
        let blocks = self.config.geometry.blocks as usize;
        self.gc_index = VictimIndex::from_keys(blocks, |block| self.victim_key(block));
    }

    /// Victim selection (§3.6), once per pass when it runs, for a
    /// collection dispatched at `now_ns` whose passes took
    /// `die_victims[d]` victims from die `d` so far (a missing die,
    /// none). Greedy: the closed block with the fewest valid pages
    /// (min-BVC), lowest block id among equals — except that within a
    /// collection it balances the dies, a declared deviation from §3.6:
    /// with v the fewest valid pages any candidate holds, the candidates
    /// holding at most v + Δ qualify, Δ = ⌈(v·t_read + t_erase) /
    /// t_program⌉ ([`victim_slack`]; 25 at v = 168 under the paper's
    /// timing), and the pick is the one whose die gave the fewest
    /// victims, then the fewest valid pages, then the lowest block id.
    /// A victim costs its own die v reads and an erase, and a collection
    /// ends when its busiest die is done: a victim on a die that gave
    /// fewer is worth up to that much in extra programs, which the GC
    /// stream spreads over the dies. With no victim counted (outside a
    /// collection, on its first pass, and throughout on a device whose
    /// GC lines sit at the cap) the pick is plain greedy's.
    /// Cost-benefit: the best age × (1 − u) / (1 + u) score, aged to
    /// `now_ns`, lowest block id among equals. Fully valid blocks are
    /// never picked.
    ///
    /// Answered from the victim index: blocks are marked where their key
    /// changes (`Ssd::invalidate`, `Ssd::mark_valid`, `Ssd::clear_block`,
    /// `Ssd::allocate`, `Ssd::erase_block`, the log taking or forgetting
    /// a block) and only the marked keys are re-read here. Debug and
    /// test builds re-run the block scan beside every selection and
    /// assert it agrees.
    pub(super) fn select_gc_victim(&mut self, now_ns: u64, die_victims: &[u32]) -> Option<BlockId> {
        self.refresh_gc_index();
        let limit = self.config.geometry.pages_per_block;
        let picked = match self.config.gc_policy {
            GcPolicy::Greedy => self.gc_index.first_below(limit).map(|(fewest, first)| {
                let mut best = (self.collection_rank(first, fewest, die_victims), first);
                if best.0 .0 > 0 {
                    let within = self.greedy_bound(fewest);
                    self.gc_index.for_each_below(within, &mut |block, valid| {
                        let rank = self.collection_rank(block, valid, die_victims);
                        if rank < best.0 {
                            best = (rank, block);
                        }
                    });
                }
                best.1
            }),
            GcPolicy::CostBenefit => {
                let mut best: Option<(f64, BlockId)> = None;
                let mut consider = |block: BlockId, valid: u32| {
                    let score = self.cost_benefit_score(block, valid, now_ns);
                    if best
                        .is_none_or(|(top, leader)| score > top || (score == top && block < leader))
                    {
                        best = Some((score, block));
                    }
                };
                self.gc_index.for_each_below(limit, &mut consider);
                best.map(|(_, block)| block)
            }
        };
        #[cfg(any(test, debug_assertions))]
        assert_eq!(
            picked,
            self.scan_gc_victim(now_ns, die_victims),
            "victim index disagrees with the block scan"
        );
        picked
    }

    /// Greedy's rank of a candidate holding `valid` live pages within
    /// the collection being run: the victims its die has given the
    /// collection, then its valid count. The lowest rank wins, the
    /// lowest block id among equals.
    fn collection_rank(&self, block: BlockId, valid: u32, die_victims: &[u32]) -> (u32, u32) {
        let die = self.config.geometry.die_of_block(block).raw() as usize;
        (die_victims.get(die).copied().unwrap_or(0), valid)
    }

    /// The valid counts greedy may pick when the fewest any candidate
    /// holds is `fewest`: those below the returned bound — at most
    /// `fewest` + [`victim_slack`], and never a fully valid block.
    fn greedy_bound(&self, fewest: u32) -> u32 {
        let slack = victim_slack(&self.config.timing, fewest);
        fewest
            .saturating_add(slack)
            .saturating_add(1)
            .min(self.config.geometry.pages_per_block)
    }

    /// The cost-benefit policy's score at `now_ns` of a block holding
    /// `valid` live pages: age × (1 − u) / (1 + u).
    fn cost_benefit_score(&self, block: BlockId, valid: u32, now_ns: u64) -> f64 {
        let u = valid as f64 / self.config.geometry.pages_per_block as f64;
        let last_write = self.block_last_write_ns[block.raw() as usize];
        let age = now_ns.saturating_sub(last_write) as f64 + 1.0;
        age * (1.0 - u) / (1.0 + u)
    }

    /// Every block GC may pick, with its valid count, by a scan of all
    /// blocks in id order: the reference the index is checked against
    /// (by selection in debug and test builds, and by
    /// [`Ssd::check_invariants`]).
    pub(super) fn scan_gc_candidates(&self) -> impl Iterator<Item = (BlockId, u32)> + '_ {
        let limit = self.config.geometry.pages_per_block;
        (0..self.config.geometry.blocks)
            .map(BlockId::new)
            .filter(move |&block| {
                !(self.allocator.is_open(block)
                    || self.translog.owns(block)
                    || self.device.block(block).is_erased())
            })
            .map(|block| (block, self.validity.valid_count(block)))
            .filter(move |&(_, valid)| valid < limit)
    }

    /// The scan's pick: the first candidate in block order that no
    /// other beats — under greedy, among those within Δ of the fewest
    /// valid pages, by [`Ssd::collection_rank`].
    #[cfg(any(test, debug_assertions))]
    fn scan_gc_victim(&self, now_ns: u64, die_victims: &[u32]) -> Option<BlockId> {
        match self.config.gc_policy {
            GcPolicy::Greedy => {
                let candidates: Vec<(BlockId, u32)> = self.scan_gc_candidates().collect();
                let fewest = candidates.iter().map(|&(_, valid)| valid).min()?;
                let within = self.greedy_bound(fewest);
                let mut best: Option<((u32, u32), BlockId)> = None;
                for (block, valid) in candidates {
                    let rank = self.collection_rank(block, valid, die_victims);
                    if valid < within && best.is_none_or(|(top, _)| rank < top) {
                        best = Some((rank, block));
                    }
                }
                best.map(|(_, block)| block)
            }
            GcPolicy::CostBenefit => {
                let mut best_cb: Option<(f64, BlockId)> = None;
                for (block, valid) in self.scan_gc_candidates() {
                    let score = self.cost_benefit_score(block, valid, now_ns);
                    match best_cb {
                        Some((best, _)) if best >= score => {}
                        _ => best_cb = Some((score, block)),
                    }
                }
                best_cb.map(|(_, block)| block)
            }
        }
    }

    /// Records that `ppa`'s block was programmed at `now_ns`, for the
    /// cost-benefit policy's age term.
    pub(super) fn note_block_write(&mut self, ppa: Ppa, now_ns: u64) {
        let block = self.config.geometry.block_of(ppa).raw() as usize;
        self.block_last_write_ns[block] = now_ns;
    }

    /// Sorts migrated pages by LPA, keeping only the freshest copy
    /// (highest program sequence) of each. A victim never holds two
    /// valid copies of one LPA ([`Ssd::check_invariants`] reports it),
    /// but the sorted learning path requires strictly increasing LPAs:
    /// a stale duplicate is dropped, and invalidated with the victim.
    fn dedup_migration_items(mut items: Vec<(Lpa, u64, u64)>) -> Vec<(Lpa, u64)> {
        // (LPA, sequence) keys are unique: an unstable sort gives the
        // stable order, each LPA's freshest copy first.
        items.sort_unstable_by_key(|&(lpa, _, seq)| (lpa, std::cmp::Reverse(seq)));
        items.dedup_by_key(|&mut (lpa, _, _)| lpa);
        items
            .into_iter()
            .map(|(lpa, content, _)| (lpa, content))
            .collect()
    }

    /// The relocation kernel GC and wear levelling share (§3.6), as a
    /// state change only: reads `victim`'s live pages off the device,
    /// sorts/dedups them, programs them at `now_ns` — to the GC stream,
    /// or onto `onto`, a block a wear swap took from the pool —
    /// re-learns the mappings, invalidates the old locations, recycles
    /// the victim and journals the move. Returns what that needs on
    /// flash, for its plan.
    pub(super) fn migrate_block(
        &mut self,
        victim: BlockId,
        onto: Option<BlockId>,
        now_ns: u64,
    ) -> Result<Relocation, SimError> {
        let mut valid = std::mem::take(&mut self.live_scratch);
        self.validity.valid_pages(victim, &mut valid);
        let mut relocation = Relocation {
            victim,
            reads: valid.len() as u32,
            runs: Vec::new(),
            program: if onto.is_some() {
                FlashOp::WearProgram
            } else {
                FlashOp::GcProgram
            },
            map_costs: Vec::new(),
        };
        let mut batches: Vec<Batch> = Vec::new();
        if !valid.is_empty() {
            let mut items: Vec<(Lpa, u64, u64)> = Vec::with_capacity(valid.len());
            for &ppa in &valid {
                let view = self.device.read(ppa)?;
                let lpa = view.lpa.ok_or(SimError::MissingReverseMapping { ppa })?;
                items.push((lpa, view.content, view.seq));
            }
            let items = Self::dedup_migration_items(items);

            let len = items.len() as u32;
            relocation.runs = match onto {
                Some(block) => {
                    let first = self.config.geometry.first_ppa(block);
                    vec![PageRun { block, first, len }]
                }
                None => self.allocate(Stream::Gc, len).ok_or(SimError::DeviceFull)?,
            };
            batches = self.program_runs(&relocation.runs, &items, now_ns)?;
            for &(lpa, ppa) in batches.iter().flatten() {
                self.pool.moved(lpa, ppa);
            }

            // Old locations are known exactly — no lookup needed.
            for &ppa in &valid {
                self.invalidate(ppa);
            }
            for batch in &batches {
                let cost = self.learn_and_mark(batch, true);
                if cost != MapCost::FREE {
                    relocation.map_costs.push((batch[0].0, cost));
                }
            }
        }
        self.live_scratch = valid;

        self.recycle(victim)?;
        // Journal the re-installed mappings — stamped *after* the
        // programs, so the delta covers them. (A fully stale victim
        // installs nothing and journals nothing; recovery finds its
        // erase on the block itself — erased, or refilled with pages
        // newer than the stamp — whichever entry it restores from.)
        if !batches.is_empty() {
            self.translog_append_delta(batches.into_iter().flatten());
        }
        Ok(relocation)
    }

    /// Erases `block` on the device, keeping the erase-count histogram
    /// and the victim index (an erased block is no candidate) current.
    fn erase_block(&mut self, block: BlockId) -> Result<(), SimError> {
        let erases = self.device.erase(block)?;
        self.erase_histogram.note_erase(erases - 1);
        self.gc_index.touch(block);
        Ok(())
    }

    /// Recycles `block`: erases it on the device, drops whatever
    /// validity it held and returns it to the free pool. The only way
    /// a block gets back there — for GC victims, wear swaps and the
    /// translation log's superseded blocks alike. The erase's die time
    /// is the caller's to schedule.
    pub(super) fn recycle(&mut self, block: BlockId) -> Result<(), SimError> {
        self.erase_block(block)?;
        self.clear_block(block);
        self.allocator.release(block);
        Ok(())
    }

    /// Plans one cold/hot swap dispatched at `now_ns`, or `None` when
    /// none is due.
    ///
    /// A swap needs a cold block more than `wear_gap_threshold` erases
    /// behind the most worn one, and no block is further behind than
    /// the least worn: while the erase histogram's spread is within the
    /// threshold — every flush of a workload that wears evenly — the
    /// answer is "no" without looking at a block. Past that, the walk
    /// below finds the cold data block and the worn free block, and
    /// [`Ssd::migrate_block`] moves the one onto the other.
    pub(super) fn plan_wear_swap(&mut self, now_ns: u64) -> Result<Option<GcPlan>, SimError> {
        if self.erase_histogram.spread() <= self.config.wear_gap_threshold {
            return Ok(None);
        }
        crate::gc_index::note_wear_walk();
        let mut min: Option<(u32, BlockId)> = None;
        let mut max_erase = 0u32;
        let mut hot_free: Option<(u32, BlockId)> = None;
        for (block, erases) in self.device.erase_counts() {
            max_erase = max_erase.max(erases);
            let is_erased = self.device.block(block).is_erased();
            if is_erased {
                // Candidate hot free block.
                if hot_free.is_none_or(|(worst, _)| erases > worst) {
                    hot_free = Some((erases, block));
                }
            } else if !self.allocator.is_open(block)
                && self.validity.valid_count(block) > 0
                && min.is_none_or(|(best, _)| erases < best)
            {
                // Fully stale blocks are GC's job, not a wear swap's:
                // "moving" them would program nothing and strand the
                // worn free block outside every pool.
                min = Some((erases, block));
            }
        }
        let (Some((cold_erases, cold)), Some((hot_erases, hot))) = (min, hot_free) else {
            return Ok(None);
        };
        if max_erase.saturating_sub(cold_erases) <= self.config.wear_gap_threshold {
            return Ok(None);
        }
        // Parking cold data on a young block would not slow its wear;
        // require a meaningfully worn target.
        if hot_erases <= cold_erases {
            return Ok(None);
        }
        // Swap: move the cold (static) data onto the worn free block so
        // the young cold block re-enters circulation.
        if !self.allocator.take_block(hot) {
            return Ok(None);
        }
        let passes = vec![self.migrate_block(cold, Some(hot), now_ns)?];
        let dispatch_ns = now_ns;
        Ok(Some(GcPlan {
            dispatch_ns,
            passes,
            points: Vec::new(),
        }))
    }

    /// A persistence point's state change at `now_ns`
    /// ([`Ssd::take_snapshot`] has what it writes and costs). Returns a
    /// [`CheckpointMode::DramSnapshot`] point's pages; a `FlashLog`
    /// generation is queued as `MapLog` traffic instead.
    pub(super) fn persist(&mut self, now_ns: u64) -> Option<PointPages> {
        let geometry = self.config.geometry;
        let mut point = None;
        let (mode, groups, blocks, pages) = match self.config.checkpoint_mode {
            CheckpointMode::Disabled => return None,
            CheckpointMode::DramSnapshot => {
                let groups = self.unpersisted.listed.len();
                let blocks = self.validity.touched_blocks();
                let table_bytes = (self.scheme.snapshot_bytes() * groups)
                    .div_ceil(self.unpersisted.mapped.max(1));
                let pages =
                    (table_bytes + BVC_ENTRY_BYTES * blocks).div_ceil(geometry.page_size as usize);
                self.unpersisted.forget();
                let first_die = self.point_die;
                let dies = geometry.total_dies() as usize;
                self.point_die = ((first_die as usize + pages) % dies) as u32;
                point = Some(PointPages { first_die, pages });
                ("dram_snapshot", groups, blocks, pages)
            }
            CheckpointMode::FlashLog if self.translog.checkpoint_in_flight() => return None,
            CheckpointMode::FlashLog => {
                let (groups, blocks) = (self.unpersisted.mapped, geometry.blocks as usize);
                (
                    "flash_log",
                    groups,
                    blocks,
                    self.flashlog_generation_pages(),
                )
            }
        };
        // What the point writes — mapping groups, BVC entries, and the
        // pages they come to — on the control track, with the journal
        // tail it truncates (the delta pages that earned a `FlashLog`
        // generation; no other mode journals).
        let tail = self.translog.tail_pages();
        self.tracer.control_instant("persist", now_ns, || {
            vec![
                ("mode", ArgValue::Str(mode)),
                ("groups", ArgValue::U64(groups as u64)),
                ("blocks", ArgValue::U64(blocks as u64)),
                ("pages", ArgValue::U64(pages as u64)),
                ("tail", ArgValue::U64(u64::from(tail))),
            ]
        });
        let log_pages = if point.is_some() { 0 } else { pages as u32 };
        // The next generation is the previous one brought up to date,
        // not a new copy: moved out of the log when this one supersedes
        // it on arrival, cloned when it has to stay recoverable while
        // this one is written out. Either way it is what the live state
        // was when its change lists were last drained — as is the state
        // recovery restores from it.
        let kept = if log_pages == 0 {
            self.translog.take_durable_baseline()
        } else {
            self.translog.durable_baseline().cloned()
        };
        let mut baseline = kept.unwrap_or_else(|| self.pristine_baseline());
        self.scheme.sync_checkpoint(&mut baseline.scheme);
        self.validity.sync_checkpoint(&mut baseline.validity);
        baseline.stamp = self.device.program_seq();
        self.translog.push_checkpoint(baseline, log_pages);
        point
    }

    /// Whether the GC pass that just ended should run a persistence
    /// point. §3.8's answer is "always", and the modes whose point
    /// costs what changed keep it. Under [`CheckpointMode::FlashLog`]
    /// the pass is journalled as a delta already, so a checkpoint
    /// generation only truncates the journal — and is due once the
    /// journal has earned it: when the delta pages appended since the
    /// newest generation was requested are at least the pages a
    /// generation takes. That is the break-even where replaying the
    /// tail costs recovery what writing the generation costs the
    /// device, so generations are at most half the log's pages and the
    /// tail recovery replays stays within one generation's length plus
    /// what accrues while one is written out ([`Ssd::persist`] holds
    /// the other half of the rule: one in flight at a time).
    pub(super) fn persistence_point_due(&self) -> bool {
        self.config.checkpoint_mode != CheckpointMode::FlashLog
            || self.translog.tail_pages() as usize >= self.flashlog_generation_pages()
    }

    /// Log pages one [`CheckpointMode::FlashLog`] checkpoint generation
    /// spans: the scheme's [`MappingScheme::checkpoint_footprint`] plus
    /// the whole BVC.
    pub(super) fn flashlog_generation_pages(&self) -> usize {
        let geometry = self.config.geometry;
        let (segment_bytes, crb_bytes) = self.scheme.checkpoint_footprint();
        (segment_bytes + crb_bytes + BVC_ENTRY_BYTES * geometry.blocks as usize)
            .div_ceil(geometry.page_size as usize)
            .max(1)
    }

    /// What the device recovers from when nothing was ever persisted:
    /// the scheme as handed to [`Ssd::new`] and no valid page.
    pub(super) fn pristine_baseline(&self) -> Baseline<S> {
        Baseline {
            scheme: self.pristine_scheme.clone(),
            validity: Validity::new(self.config.geometry),
            stamp: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A migrated victim's pages go out sorted by LPA, one copy each:
    /// the freshest.
    #[test]
    fn dedup_keeps_the_freshest_copy_of_each_lpa_in_lpa_order() {
        type Any = Ssd<crate::ExactPageMap>;
        let items = [(7, 70, 3), (2, 20, 1), (7, 71, 9), (2, 21, 4), (5, 50, 2)];
        let items = items.map(|(lpa, content, seq)| (Lpa::new(lpa), content, seq));
        let pages = Any::dedup_migration_items(items.to_vec());
        assert_eq!(
            pages,
            [2, 5, 7]
                .map(Lpa::new)
                .into_iter()
                .zip([21, 50, 71])
                .collect::<Vec<_>>()
        );
    }

    /// A group is listed once however often it is remapped, counted as
    /// mapped once ever, and forgotten by the next point.
    #[test]
    fn unpersisted_groups_list_each_group_once() {
        let group = Lpa::GROUP_SIZE;
        let mut groups = UnpersistedGroups::new(4 * group);
        let pairs = |lpas: &[u64]| {
            lpas.iter()
                .map(|&lpa| (Lpa::new(lpa), Ppa::new(lpa)))
                .collect::<Vec<_>>()
        };
        groups.note(&pairs(&[0, 1, group, 0]));
        groups.note(&pairs(&[group + 1, 3 * group]));
        assert_eq!(
            (groups.listed.as_slice(), groups.mapped),
            ([0, 1, 3].as_slice(), 3)
        );
        groups.forget();
        groups.note(&pairs(&[1]));
        assert_eq!(
            (groups.listed.as_slice(), groups.mapped),
            ([0].as_slice(), 3)
        );
    }
}
