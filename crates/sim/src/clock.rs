//! Virtual time and die-parallelism accounting.

use leaftl_flash::{Die, Ppa};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Reads one flush program may be suspended for; past that it runs to
/// completion before the next read, so a stream of reads cannot starve
/// it. Real controllers suspend a running program for a read and bound
/// how often (the device-level SSD survey in PAPERS.md covers both);
/// the value is this model's. At seed 7, `read_qd32`'s p999 reads the
/// same at 32, +5 % at 8 and +46 % at 4.
pub const SUSPEND_LIMIT: u32 = 16;

/// Die time a suspended program spends resuming, on top of what it had
/// left to run. At 20 µs, `read_qd32`'s p999 rises 9 % (seed 7) and its
/// IOPS gain over reserving programs up front falls from 16.5 % to 10 %.
pub const RESUME_NS: u64 = 5_000;

/// Nanosecond-resolution virtual clock with per-die busy tracking.
///
/// `now_ns` is the host/controller's notion of "now" — the dispatch
/// point of the request currently being processed. Flash operations are
/// serialised per die but run in parallel across dies: each die carries
/// its own busy-until timeline, so operations scheduled by different
/// in-flight requests overlap whenever they land on different dies
/// (Table 1: 16 channels × 4 dies).
///
/// An operation starts no earlier than an explicit floor — "now" for
/// background work issued at the dispatch point, or the completion of
/// the operation it depends on (translation read → data read →
/// misprediction retry), which chains a request's operations without
/// advancing the global clock. The queued I/O engine relies on this:
/// each request carries its own ready time while `now_ns` only moves at
/// dispatch/completion boundaries.
///
/// Beside its busy-until, each die keeps a FIFO of **unstarted flush
/// programs** (`SimClock::queue_program`). There are three ways onto a
/// die, and one placement rule behind them:
///
/// - [`SimClock::schedule_after`] (every op but a host read or a flush
///   program) places the die's whole queue, then itself: with nothing
///   queued, a plain FIFO.
/// - `SimClock::schedule_read` (a host read) first lets queued
///   programs use the die's idle time before its floor. A program still
///   running at the floor is suspended — what it had left, plus
///   [`RESUME_NS`], goes back to the front of the queue — unless it was
///   suspended [`SUSPEND_LIMIT`] times already. The read is then placed
///   after whatever the die holds, ahead of whatever is still queued. A
///   read of a page whose program is still queued first places the
///   queue up to that program.
/// - `SimClock::place_programs` places every queue (a flush's
///   double-buffer wait, an explicit flush).
///
/// Each placed stretch of a program (a whole one, or the parts a
/// suspension cut it into) is handed to the caller for its trace
/// (`SimClock::take_placed`).
///
/// Dies are the only contended resource. A lookup's CPU cost is not a
/// timeline: it runs from the request's map-ready time on the request's
/// own dependency chain, so no lookup waits for another.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimClock {
    now_ns: u64,
    dies: Vec<DieLine>,
    /// Latest end of any placed flush program.
    programs_end_ns: u64,
    /// Placed program stretches not yet taken by the caller.
    placed: Vec<Segment>,
}

/// One die's timeline: when it frees up, and the flush programs
/// waiting to start.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct DieLine {
    busy_until_ns: u64,
    queue: VecDeque<Program>,
}

/// A flush program waiting for its die, or what a suspension left of
/// one.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct Program {
    page: Ppa,
    floor_ns: u64,
    /// Die time still owed.
    latency_ns: u64,
    suspensions: u32,
}

/// A placed stretch of a flush program on its die: the whole program,
/// or the part before or after a suspension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Segment {
    pub(crate) die: u32,
    pub(crate) page: Ppa,
    pub(crate) start_ns: u64,
    pub(crate) end_ns: u64,
}

/// Where a host read landed, and what it did to the programs queued on
/// its die.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ReadPlacement {
    pub(crate) end_ns: u64,
    /// It suspended the program running at its floor.
    pub(crate) suspended: bool,
    /// It was placed ahead of at least one queued program.
    pub(crate) overtook: bool,
}

impl DieLine {
    /// Places the queue's head after whatever the die holds.
    fn place_head(&mut self) -> Option<(Program, u64)> {
        let program = self.queue.pop_front()?;
        let start_ns = self.busy_until_ns.max(program.floor_ns);
        self.busy_until_ns = start_ns + program.latency_ns;
        Some((program, start_ns))
    }

    /// Places an op of `latency_ns` no earlier than `floor_ns` after
    /// whatever the die holds.
    fn place(&mut self, floor_ns: u64, latency_ns: u64) -> u64 {
        let end_ns = self.busy_until_ns.max(floor_ns) + latency_ns;
        self.busy_until_ns = end_ns;
        end_ns
    }
}

impl SimClock {
    /// A clock at time zero for `dies` flash dies.
    pub fn new(dies: u32) -> Self {
        SimClock {
            now_ns: 0,
            dies: vec![DieLine::default(); dies as usize],
            programs_end_ns: 0,
            placed: Vec::new(),
        }
    }

    /// Current virtual time in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.now_ns
    }

    /// Advances time by a CPU/controller cost that occupies no die.
    pub fn advance(&mut self, ns: u64) {
        self.now_ns += ns;
    }

    /// Schedules an operation of `latency_ns` on `die` behind every
    /// program queued there, starting no earlier than `earliest_ns` (a
    /// per-request dependency floor) nor before the die frees up, and
    /// returns its completion time. The die's timeline advances; the
    /// global clock does not — use [`SimClock::wait_until`] when the
    /// host blocks on the result.
    pub fn schedule_after(&mut self, die: Die, earliest_ns: u64, latency_ns: u64) -> u64 {
        let at = die.raw() as usize;
        self.place_queue(at, self.dies[at].queue.len());
        self.dies[at].place(earliest_ns, latency_ns)
    }

    /// Queues a flush program of `latency_ns` for `page` on `die`, to start no earlier than `floor_ns`. It is placed when an
    /// op behind it needs the die, when a read leaves the die idle ahead
    /// of it, or at [`SimClock::place_programs`].
    pub(crate) fn queue_program(&mut self, die: Die, floor_ns: u64, latency_ns: u64, page: Ppa) {
        self.dies[die.raw() as usize].queue.push_back(Program {
            page,
            floor_ns,
            latency_ns,
            suspensions: 0,
        });
    }

    /// Schedules a host read of `latency_ns` on `die` from `floor_ns`,
    /// ahead of the programs queued there (see [`SimClock`] for the
    /// rule). `page` (`None` for a translation page) is what it reads: a read of a page whose program is still queued waits
    /// for that program.
    pub(crate) fn schedule_read(
        &mut self,
        die: Die,
        floor_ns: u64,
        latency_ns: u64,
        page: Option<Ppa>,
    ) -> ReadPlacement {
        let at = die.raw() as usize;
        let queue = &self.dies[at].queue;
        let mut suspended = false;
        if let Some(own) = page.and_then(|page| queue.iter().position(|queued| queued.page == page))
        {
            self.place_queue(at, own + 1);
        } else {
            // The idle time before the floor goes to queued programs; a
            // program that runs across the floor is suspended there.
            while let Some(head) = self.dies[at].queue.front() {
                if self.dies[at].busy_until_ns.max(head.floor_ns) >= floor_ns {
                    break;
                }
                let Some((program, start_ns)) = self.dies[at].place_head() else {
                    break;
                };
                let end_ns = start_ns + program.latency_ns;
                if floor_ns < end_ns && program.suspensions < SUSPEND_LIMIT {
                    // Its first stretch is final; the rest, plus the
                    // resume, heads the queue.
                    self.placed.push(Segment {
                        die: at as u32,
                        page: program.page,
                        start_ns,
                        end_ns: floor_ns,
                    });
                    let line = &mut self.dies[at];
                    line.queue.push_front(Program {
                        floor_ns,
                        latency_ns: end_ns.saturating_sub(floor_ns) + RESUME_NS,
                        suspensions: program.suspensions + 1,
                        ..program
                    });
                    line.busy_until_ns = floor_ns;
                    suspended = true;
                    break;
                }
                self.note_placed(at, program, start_ns);
            }
        }
        let line = &mut self.dies[at];
        let overtook = !line.queue.is_empty();
        ReadPlacement {
            end_ns: line.place(floor_ns, latency_ns),
            suspended,
            overtook,
        }
    }

    /// Places every die's queued programs; returns when the last flush
    /// program placed so far ends.
    pub(crate) fn place_programs(&mut self) -> u64 {
        for at in 0..self.dies.len() {
            self.place_queue(at, self.dies[at].queue.len());
        }
        self.programs_end_ns
    }

    /// Places the first `count` programs queued on die `at`, in order.
    fn place_queue(&mut self, at: usize, count: usize) {
        for _ in 0..count {
            if let Some((program, start_ns)) = self.dies[at].place_head() {
                self.note_placed(at, program, start_ns);
            }
        }
    }

    /// Records a program placed whole from `start_ns` on die `at`.
    fn note_placed(&mut self, at: usize, program: Program, start_ns: u64) {
        let end_ns = start_ns + program.latency_ns;
        self.programs_end_ns = self.programs_end_ns.max(end_ns);
        self.placed.push(Segment {
            die: at as u32,
            page: program.page,
            start_ns,
            end_ns,
        });
    }

    /// The program stretches placed since the last call, in the order
    /// they were placed.
    pub(crate) fn take_placed(&mut self) -> std::vec::Drain<'_, Segment> {
        self.placed.drain(..)
    }

    /// Blocks the host until `deadline_ns` (no-op if already past).
    pub fn wait_until(&mut self, deadline_ns: u64) {
        self.now_ns = self.now_ns.max(deadline_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const READ_NS: u64 = 20_000;
    const PROGRAM_NS: u64 = 200_000;

    /// Schedules from "now" and blocks the host on the result.
    fn blocking_op(clock: &mut SimClock, die: Die, latency_ns: u64) -> u64 {
        let started = clock.now_ns();
        let end = clock.schedule_after(die, started, latency_ns);
        clock.wait_until(end);
        clock.now_ns() - started
    }

    /// Queues `count` programs of pages `first..` on die 0 from `floor`.
    fn queue(clock: &mut SimClock, first: u64, count: u64, floor: u64) {
        for page in first..first + count {
            clock.queue_program(Die::new(0), floor, PROGRAM_NS, Ppa::new(page));
        }
    }

    /// Every program stretch placed so far, by start.
    fn segments(clock: &mut SimClock) -> Vec<Segment> {
        let mut all: Vec<Segment> = clock.take_placed().collect();
        all.sort_by_key(|segment| segment.start_ns);
        all
    }

    #[test]
    fn blocking_ops_serialize_on_one_die() {
        let mut clock = SimClock::new(2);
        blocking_op(&mut clock, Die::new(0), 100);
        blocking_op(&mut clock, Die::new(0), 100);
        assert_eq!(clock.now_ns(), 200);
    }

    #[test]
    fn dies_run_in_parallel() {
        let mut clock = SimClock::new(2);
        let end0 = clock.schedule_after(Die::new(0), 0, 100);
        let end1 = clock.schedule_after(Die::new(1), 0, 100);
        assert_eq!(end0, 100);
        assert_eq!(end1, 100);
        clock.wait_until(end0.max(end1));
        assert_eq!(clock.now_ns(), 100);
    }

    #[test]
    fn same_die_queues() {
        let mut clock = SimClock::new(1);
        let first = clock.schedule_after(Die::new(0), 0, 100);
        let second = clock.schedule_after(Die::new(0), 0, 50);
        assert_eq!(first, 100);
        assert_eq!(second, 150);
    }

    #[test]
    fn cpu_advance_moves_past_idle_dies() {
        let mut clock = SimClock::new(1);
        clock.advance(500);
        let end = clock.schedule_after(Die::new(0), clock.now_ns(), 100);
        assert_eq!(end, 600);
    }

    #[test]
    fn blocking_latency_includes_queueing() {
        let mut clock = SimClock::new(1);
        clock.schedule_after(Die::new(0), 0, 300); // fills the die
        let latency = blocking_op(&mut clock, Die::new(0), 100);
        assert_eq!(latency, 400);
    }

    #[test]
    fn schedule_after_chains_dependencies_across_dies() {
        let mut clock = SimClock::new(2);
        // A request's second op depends on its first even on another,
        // idle die.
        let first = clock.schedule_after(Die::new(0), 0, 100);
        let second = clock.schedule_after(Die::new(1), first, 50);
        assert_eq!(second, 150);
        // The global clock never moved — other requests may overlap.
        assert_eq!(clock.now_ns(), 0);
        // An independent request dispatched now would start at 0 on a
        // free die... but die 1 is busy until 150.
        let third = clock.schedule_after(Die::new(1), 0, 25);
        assert_eq!(third, 175);
    }

    #[test]
    fn a_read_mid_program_suspends_it_and_the_program_ends_later_by_read_plus_resume() {
        let mut clock = SimClock::new(1);
        queue(&mut clock, 0, 2, 0);
        // The first program runs from 0; the read at 50 µs cuts it.
        let read = clock.schedule_read(Die::new(0), 50_000, READ_NS, None);
        assert_eq!(
            read,
            ReadPlacement {
                end_ns: 50_000 + READ_NS,
                suspended: true,
                overtook: true,
            }
        );
        let end = clock.place_programs();
        assert_eq!(end, 2 * PROGRAM_NS + READ_NS + RESUME_NS);
        let first: Vec<(u64, u64)> = segments(&mut clock)
            .iter()
            .filter(|segment| segment.page == Ppa::new(0))
            .map(|segment| (segment.start_ns, segment.end_ns))
            .collect();
        assert_eq!(
            first,
            [
                (0, 50_000),
                (50_000 + READ_NS, PROGRAM_NS + READ_NS + RESUME_NS)
            ]
        );
    }

    #[test]
    fn past_the_limit_the_read_waits_for_the_program() {
        let mut clock = SimClock::new(1);
        queue(&mut clock, 0, 1, 0);
        let mut floor = 1_000;
        for _ in 0..SUSPEND_LIMIT {
            let read = clock.schedule_read(Die::new(0), floor, READ_NS, None);
            assert!(read.suspended, "{read:?}");
            assert_eq!(read.end_ns, floor + READ_NS);
            // The remainder resumes in the idle time before the next read.
            floor = read.end_ns + 1_000;
        }
        // Each suspension let the program run 1 µs, then cost a resume.
        let program_end = PROGRAM_NS + SUSPEND_LIMIT as u64 * (READ_NS + RESUME_NS);
        let read = clock.schedule_read(Die::new(0), floor, READ_NS, None);
        assert!(!read.suspended);
        assert!(!read.overtook);
        assert_eq!(read.end_ns, program_end + READ_NS);
        assert_eq!(clock.place_programs(), program_end);
    }

    #[test]
    fn an_eager_op_queues_behind_every_queued_program() {
        let mut clock = SimClock::new(2);
        queue(&mut clock, 0, 3, 100);
        let end = clock.schedule_after(Die::new(0), 0, READ_NS);
        assert_eq!(end, 100 + 3 * PROGRAM_NS + READ_NS);
        // Nothing is left queued, and the programs were final at once.
        assert_eq!(clock.place_programs(), 100 + 3 * PROGRAM_NS);
        assert_eq!(clock.take_placed().count(), 3);
        // The other die never held a program.
        assert_eq!(clock.schedule_after(Die::new(1), 0, READ_NS), READ_NS);
    }

    #[test]
    fn a_read_of_a_queued_page_waits_for_that_pages_program() {
        let mut clock = SimClock::new(1);
        queue(&mut clock, 10, 4, 0);
        // Page 12 is the third program: the read follows it, and the
        // fourth stays queued behind the read.
        let read = clock.schedule_read(Die::new(0), 0, READ_NS, Some(Ppa::new(12)));
        assert_eq!(
            read,
            ReadPlacement {
                end_ns: 3 * PROGRAM_NS + READ_NS,
                suspended: false,
                overtook: true,
            }
        );
    }

    #[test]
    fn die_busy_time_is_conserved() {
        let mut clock = SimClock::new(1);
        queue(&mut clock, 0, 8, 0);
        // Every stretch the die is busy for: reads and program stretches.
        let mut busy: Vec<(u64, u64)> = Vec::new();
        let mut suspensions = 0;
        for floor in (0..40).map(|i| i * 37_000) {
            let read = clock.schedule_read(Die::new(0), floor, READ_NS, None);
            suspensions += u64::from(read.suspended);
            busy.push((read.end_ns - READ_NS, read.end_ns));
        }
        let last = clock.place_programs();
        assert!(suspensions > 0);
        busy.extend(
            segments(&mut clock)
                .iter()
                .map(|segment| (segment.start_ns, segment.end_ns)),
        );
        busy.sort_unstable();
        // No two stretches overlap, and they add up to every op's
        // latency plus one resume per suspension.
        for pair in busy.windows(2) {
            assert!(pair[0].1 <= pair[1].0, "{pair:?}");
        }
        let total: u64 = busy.iter().map(|&(start, end)| end - start).sum();
        assert_eq!(
            total,
            8 * PROGRAM_NS + 40 * READ_NS + suspensions * RESUME_NS
        );
        assert_eq!(busy.iter().map(|&(_, end)| end).max(), Some(last));
    }
}
