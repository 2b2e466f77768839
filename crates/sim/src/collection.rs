//! One GC collection, placed on the dies phase by phase.
//!
//! A collection is the victim passes one collector runs from one
//! dispatch point: a synchronous collection inside a flush, or one
//! background GC dispatch of a [`crate::Device`]. Every pass changes
//! the SSD's state at once (`gc.rs`) and leaves a [`Relocation`] on the
//! collection's plan; a wear swap is a plan of one. `Ssd::place_gc`
//! places a plan, and [`CollectionPlan::order`] decides the order in
//! which its steps go onto the FIFO die timelines: every pass's reads
//! first, then every program, then every erase, so no pass's reads
//! queue behind another pass's programs or erase on the same die (§3.6
//! relocates a victim; LFTL runs GC across flash units in parallel).
//! Placed in that order from the dispatch point, a pass's programs start
//! no earlier than its own last read and its erase no earlier than its
//! own last program.
//!
//! One rule overrides the phases: a step on a block never starts
//! before the previous step on that block in the same collection ends.
//! Every step on a block lands on the block's die, whose timeline is
//! FIFO, so the rule is kept by placing a block's steps in the order
//! its state changed: a step whose block still waits for an earlier
//! step of a later phase has that step placed first, in the current
//! phase, with whatever it waits for in turn. A victim that an earlier
//! pass filled thus has those programs moved into the read phase ahead
//! of its reads, and a block that one pass erased and the GC stream
//! then took for a later pass has that erase moved into the program
//! phase ahead of the programs into it.
//!
//! The order is found in one walk over the steps per phase, in state
//! order, placing each step after what it waits for (its pass's earlier
//! steps and its block's previous step, every one earlier in state
//! order): linear in the steps and the runs. A per-block array of step
//! indices, all zero between collections, stands in for a hash map. A
//! collection of one pass places its reads, its programs, its
//! translation I/O and its erase in that order.

use crate::allocator::PageRun;
use crate::ssd::FlashOp;
use leaftl_core::MapCost;
use leaftl_flash::{BlockId, FlashGeometry, Lpa, NandTiming};

/// What one relocation needs on flash, as the SSD's state change left
/// it: the victim's reads (all on its die), the runs its live pages
/// were programmed to, the translation I/O its re-learned batches
/// charge, and the victim's erase.
#[derive(Debug, Clone)]
pub(crate) struct Relocation {
    /// The block relocated and then erased.
    pub(crate) victim: BlockId,
    /// Live pages read off the victim.
    pub(crate) reads: u32,
    /// Where the live pages went, in program order.
    pub(crate) runs: Vec<PageRun>,
    /// [`FlashOp::GcProgram`], or [`FlashOp::WearProgram`] for a wear
    /// swap.
    pub(crate) program: FlashOp,
    /// The re-learned batches' translation I/O, each with the batch's
    /// first LPA; only batches that cost flash I/O are listed.
    pub(crate) map_costs: Vec<(Lpa, MapCost)>,
}

/// Greedy's slack within a collection: Δ = ⌈(v·t_read + t_erase) /
/// t_program⌉ valid pages over the fewest any candidate holds, v =
/// `fewest` — as many page programs as one victim's own reads and
/// erase cost its die.
pub(crate) fn victim_slack(timing: &NandTiming, fewest: u32) -> u32 {
    let victim_ns = u64::from(fewest) * timing.read_ns + timing.erase_ns;
    u32::try_from(victim_ns.div_ceil(timing.program_ns.max(1))).unwrap_or(u32::MAX)
}

/// A step of one pass, as [`CollectionPlan::order`] lists it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Step {
    /// Every live page read off the victim.
    Reads,
    /// One program run: an index into the pass's runs.
    Run(usize),
    /// The translation I/O of the pass's batches, from the dispatch
    /// point, once the pass's programs are placed.
    MapCosts,
    /// The victim's erase.
    Erase,
}

/// The collection scheduler's working memory, kept by the SSD from
/// collection to collection and empty between them.
#[derive(Debug, Clone, Default)]
pub(crate) struct CollectionPlan {
    /// Per block: 1 + the index of the latest step on it in the
    /// collection being ordered, 0 for none. All zero between
    /// collections.
    block_last: Vec<u32>,
    /// Every step as `(pass, step)`, in state order: a pass's reads,
    /// runs, translation I/O and erase are contiguous.
    steps: Vec<(usize, Step)>,
    /// Per step: 1 + the index of the previous step on its block, 0 for
    /// none.
    block_prev: Vec<u32>,
    /// Per step: whether it is placed.
    placed: Vec<bool>,
    /// Per step: how many of the steps it waits for are known to be
    /// placed ([`CollectionPlan::waited_for`] lists them).
    checked: Vec<u32>,
    /// Per pass: the index of its first step.
    first: Vec<u32>,
    /// Steps being placed, each after what it waits for.
    stack: Vec<u32>,
    /// The placement order: `(pass, step)`.
    order: Vec<(usize, Step)>,
}

/// The phase a step belongs to.
fn phase(step: Step) -> usize {
    match step {
        Step::Reads => 0,
        Step::Run(_) | Step::MapCosts => 1,
        Step::Erase => 2,
    }
}

impl CollectionPlan {
    /// Working memory for a device of `blocks` blocks.
    pub(crate) fn new(blocks: usize) -> Self {
        CollectionPlan {
            block_last: vec![0; blocks],
            ..CollectionPlan::default()
        }
    }

    /// The order to place the steps of `passes` (in state order) in:
    /// `(pass index, step)` pairs, phase by phase under the per-block
    /// rule (see the module doc). Linear in the steps.
    pub(crate) fn order(&mut self, passes: &[Relocation]) -> &[(usize, Step)] {
        self.steps.clear();
        self.block_prev.clear();
        self.first.clear();
        for (index, pass) in passes.iter().enumerate() {
            self.first.push(self.steps.len() as u32);
            if pass.reads > 0 {
                self.push(index, Step::Reads, Some(pass.victim));
            }
            for (run, page_run) in pass.runs.iter().enumerate() {
                self.push(index, Step::Run(run), Some(page_run.block));
            }
            if !pass.map_costs.is_empty() {
                self.push(index, Step::MapCosts, None);
            }
            self.push(index, Step::Erase, Some(pass.victim));
        }
        for pass in passes {
            self.block_last[pass.victim.raw() as usize] = 0;
            for run in &pass.runs {
                self.block_last[run.block.raw() as usize] = 0;
            }
        }
        self.placed.clear();
        self.placed.resize(self.steps.len(), false);
        self.checked.clear();
        self.checked.resize(self.steps.len(), 0);
        self.order.clear();
        for phase_now in 0..3 {
            for at in 0..self.steps.len() {
                if phase(self.steps[at].1) == phase_now {
                    self.place(at, passes);
                }
            }
        }
        &self.order
    }

    /// Appends a step of pass `pass` touching `block` (if any).
    fn push(&mut self, pass: usize, step: Step, block: Option<BlockId>) {
        let at = self.steps.len() as u32;
        self.steps.push((pass, step));
        let previous = block.map_or(0, |block| {
            std::mem::replace(&mut self.block_last[block.raw() as usize], at + 1)
        });
        self.block_prev.push(previous);
    }

    /// The `nth` step that step `at` waits for, `None` past the last:
    /// the previous step on its block, then its own pass's — a run
    /// waits for the reads, the translation I/O and the erase for every
    /// run (an erase with no run, for the reads).
    fn waited_for(&self, at: usize, nth: usize, passes: &[Relocation]) -> Option<usize> {
        let (pass, step) = self.steps[at];
        let nth = match ((self.block_prev[at] as usize).checked_sub(1), nth) {
            (Some(previous), 0) => return Some(previous),
            (Some(_), nth) => nth - 1,
            (None, nth) => nth,
        };
        let first = self.first[pass] as usize;
        let reads = usize::from(passes[pass].reads > 0);
        let runs = passes[pass].runs.len();
        let (start, len) = match step {
            Step::Reads => (first, 0),
            Step::Run(_) => (first, reads),
            Step::MapCosts => (first + reads, runs),
            Step::Erase if runs > 0 => (first + reads, runs),
            Step::Erase => (first, reads),
        };
        (nth < len).then_some(start + nth)
    }

    /// Places step `at` unless it is placed, first placing whatever it
    /// waits for — in whichever phase that belongs to.
    fn place(&mut self, at: usize, passes: &[Relocation]) {
        if self.placed[at] {
            return;
        }
        self.stack.push(at as u32);
        while let Some(&top) = self.stack.last() {
            let top = top as usize;
            match self.waited_for(top, self.checked[top] as usize, passes) {
                Some(wait) if !self.placed[wait] => self.stack.push(wait as u32),
                Some(_) => self.checked[top] += 1,
                None => {
                    self.placed[top] = true;
                    self.order.push(self.steps[top]);
                    self.stack.pop();
                }
            }
        }
    }
}

/// The busiest die's GC read, program and erase time in `passes`: no
/// collection of them finishes sooner, however it is ordered. Linear in
/// the passes' runs and the dies.
pub(crate) fn busiest_die_ns(
    passes: &[Relocation],
    geometry: &FlashGeometry,
    timing: &NandTiming,
) -> u64 {
    let mut die_ns = vec![0; geometry.total_dies() as usize];
    let mut add = |block, ns| die_ns[geometry.die_of_block(block).raw() as usize] += ns;
    for pass in passes {
        add(
            pass.victim,
            u64::from(pass.reads) * timing.read_ns + timing.erase_ns,
        );
        for run in &pass.runs {
            add(run.block, u64::from(run.len) * timing.program_ns);
        }
    }
    die_ns.into_iter().max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use leaftl_flash::Ppa;

    fn pass(victim: u64, reads: u32, runs: &[(u64, u32)]) -> Relocation {
        Relocation {
            victim: BlockId::new(victim),
            reads,
            runs: runs
                .iter()
                .map(|&(block, len)| PageRun {
                    block: BlockId::new(block),
                    first: Ppa::new(block * 64),
                    len,
                })
                .collect(),
            program: FlashOp::GcProgram,
            map_costs: Vec::new(),
        }
    }

    /// Without a shared block, every read comes first, then every
    /// program, then every erase, each phase in pass order.
    #[test]
    fn independent_passes_go_phase_by_phase() {
        let mut plan = CollectionPlan::new(16);
        let passes = [
            pass(1, 2, &[(8, 2)]),
            pass(2, 3, &[(8, 1), (9, 2)]),
            pass(3, 0, &[]),
        ];
        let order = plan.order(&passes).to_vec();
        use Step::{Erase, Reads, Run};
        assert_eq!(
            order,
            [
                (0, Reads),
                (1, Reads),
                (0, Run(0)),
                (1, Run(0)),
                (1, Run(1)),
                (0, Erase),
                (1, Erase),
                (2, Erase),
            ]
        );
        assert!(plan.block_last.iter().all(|&step| step == 0));
    }

    /// A victim an earlier pass filled is read after those programs,
    /// which move into the read phase to precede it, and a block an
    /// earlier pass erased is programmed after that erase, which moves
    /// into the program phase.
    #[test]
    fn a_block_keeps_its_state_order() {
        let mut plan = CollectionPlan::new(16);
        // Pass 0 fills block 5, which pass 1 then collects; pass 2
        // programs into block 1, which pass 0 erased.
        let passes = [
            pass(1, 2, &[(5, 2)]),
            pass(5, 2, &[(6, 2)]),
            pass(2, 1, &[(1, 1)]),
        ];
        let order = plan.order(&passes).to_vec();
        use Step::{Erase, Reads, Run};
        assert_eq!(
            order,
            [
                (0, Reads),
                (0, Run(0)),
                (1, Reads),
                (2, Reads),
                (1, Run(0)),
                (0, Erase),
                (2, Run(0)),
                (1, Erase),
                (2, Erase),
            ]
        );
        assert!(plan.block_last.iter().all(|&step| step == 0));
    }

    /// Δ is one victim's reads and erase in page programs, rounded up:
    /// 8 at v = 0 (7.5 programs), 25 at v = 168 (24.3) under the
    /// paper's timing.
    #[test]
    fn the_slack_is_a_victims_reads_and_erase_in_programs() {
        let timing = NandTiming::paper_default();
        let slacks = [0, 168, 255].map(|fewest| victim_slack(&timing, fewest));
        assert_eq!(slacks, [8, 25, 33]);
    }

    #[test]
    fn the_busiest_die_sums_its_reads_programs_and_erases() {
        let geometry = FlashGeometry::small_test();
        let timing = NandTiming::paper_default();
        let dies = geometry.total_dies() as u64;
        // Victims 0 and `dies` share die 0; the runs land on die 1.
        let passes = [pass(0, 3, &[(1, 3)]), pass(dies, 1, &[(1, 1)])];
        let busiest = busiest_die_ns(&passes, &geometry, &timing);
        let die0 = 4 * timing.read_ns + 2 * timing.erase_ns;
        assert_eq!(busiest, die0.max(4 * timing.program_ns));
    }
}
