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
/// programs** (`SimClock::queue_program`), each tagged with the caller's
/// name for it. There are three ways onto a die, and one placement rule
/// behind them:
///
/// - [`SimClock::schedule_after`] places the die's whole queue, then
///   itself: with nothing queued, a plain FIFO. Every op but a host read
///   goes this way unless its caller places it `Placement::Ahead`.
/// - `SimClock::schedule_ahead` (what the host waits on: a host read,
///   never of a page whose program is still queued, for that page is in
///   DRAM, and what its caller places `Placement::Ahead` — GC work goes
///   where `Ssd::place_gc`'s placement argument says) lets queued programs
///   use the die's idle time before its floor, and is then placed after
///   whatever the die holds, ahead of whatever is still queued. A host
///   read suspends the program still running at its floor — what it had
///   left, plus [`RESUME_NS`], goes back to the front of the queue —
///   unless it was suspended [`SUSPEND_LIMIT`] times already; any other
///   op waits for that program to end, so it never splits one.
/// - `SimClock::place_programs` places every queue (an explicit flush,
///   a power cut).
///
/// The caller takes the tags back one at a time, earliest end first
/// (`SimClock::take_earliest_program`, which keeps one entry per die
/// that holds an untaken program): a write that finds every DRAM slot
/// held takes the slot of the page whose program ended first, waiting
/// for that end if it is still ahead. A program still queued when its
/// tag is taken is placed then, where any later op would place it:
/// every op from then on starts no earlier than the program's end, and
/// an op placed ahead of the queue lets a program that starts before
/// its floor run in the idle time first. So taking a tag changes no
/// placement.
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
    /// (when the die's earliest program whose tag is not taken ends;
    /// die) for every die that holds one, sorted
    /// ([`DieLine::next_end_ns`]). A key may be early, never late: that
    /// end only moves later until the tag is taken, and an entry is
    /// brought up to date when it reaches the front. A die's new key is
    /// most often the latest, so an insert scans from the back.
    untaken: VecDeque<(u64, u32)>,
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
    /// (end, tag) of each placed program whose tag is not taken, in
    /// the order placed — which is end order, as a die runs one thing
    /// at a time.
    programmed: VecDeque<(u64, u64)>,
    /// Whether [`SimClock::untaken`] holds an entry for the die.
    listed: bool,
}

/// A flush program waiting for its die, or what a suspension left of
/// one.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct Program {
    page: Ppa,
    /// The caller's name for the program, handed back once it is placed
    /// ([`SimClock::take_earliest_program`]).
    tag: u64,
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

/// Where an op placed ahead of the queued programs landed, and what it
/// did to them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Placement {
    pub(crate) end_ns: u64,
    /// It suspended the program running at its floor.
    pub(crate) suspended: bool,
    /// It was placed ahead of at least one queued program.
    pub(crate) overtook: bool,
}

impl DieLine {
    /// When the queue's head would end, were it placed now.
    fn head_end_ns(&self) -> Option<u64> {
        let head = self.queue.front()?;
        Some(self.busy_until_ns.max(head.floor_ns) + head.latency_ns)
    }

    /// When the earliest program whose tag is not taken ends: a placed
    /// one, else the queue's head were it placed now.
    fn next_end_ns(&self) -> Option<u64> {
        match self.programmed.front() {
            Some(&(end_ns, _)) => Some(end_ns),
            None => self.head_end_ns(),
        }
    }

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
            untaken: VecDeque::new(),
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
        self.place_queue_of(die);
        self.dies[die.raw() as usize].place(earliest_ns, latency_ns)
    }

    /// Queues a flush program of `latency_ns` for `page` on `die`, to
    /// start no earlier than `floor_ns`; `tag` names it to the caller
    /// ([`SimClock::take_earliest_program`]). It is placed when an op
    /// behind it needs the die, when a read leaves the die idle ahead of
    /// it, when its tag is taken, or at [`SimClock::place_programs`].
    pub(crate) fn queue_program(
        &mut self,
        die: Die,
        floor_ns: u64,
        latency_ns: u64,
        page: Ppa,
        tag: u64,
    ) {
        let line = &mut self.dies[die.raw() as usize];
        line.queue.push_back(Program {
            page,
            tag,
            floor_ns,
            latency_ns,
            suspensions: 0,
        });
        if !line.listed {
            line.listed = true;
            let end_ns = line.busy_until_ns.max(floor_ns) + latency_ns;
            self.insert_untaken((end_ns, die.raw()));
        }
    }

    /// Schedules an op of `latency_ns` on `die` from `floor_ns`, ahead
    /// of the programs queued there (see [`SimClock`] for the rule):
    /// queued programs run in the idle time before the floor, and one
    /// still running at the floor is suspended there if `suspend` (a
    /// host read) and it may still be, else placed whole ahead of the op.
    pub(crate) fn schedule_ahead(
        &mut self,
        die: Die,
        floor_ns: u64,
        latency_ns: u64,
        suspend: bool,
    ) -> Placement {
        let at = die.raw() as usize;
        let mut suspended = false;
        while let Some(head) = self.dies[at].queue.front() {
            if self.dies[at].busy_until_ns.max(head.floor_ns) >= floor_ns {
                break;
            }
            let Some((program, start_ns)) = self.dies[at].place_head() else {
                break;
            };
            let end_ns = start_ns + program.latency_ns;
            if suspend && floor_ns < end_ns && program.suspensions < SUSPEND_LIMIT {
                // Its first stretch is final; the rest, plus the resume,
                // heads the queue.
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
        let line = &mut self.dies[at];
        let overtook = !line.queue.is_empty();
        Placement {
            end_ns: line.place(floor_ns, latency_ns),
            suspended,
            overtook,
        }
    }

    /// Whether the program of `page`, on `die`, is still queued.
    pub(crate) fn is_queued(&self, die: Die, page: Ppa) -> bool {
        self.queues_any(die, page, 1)
    }

    /// Whether a program of one of the `pages` pages from `first`, on
    /// `die`, is still queued.
    pub(crate) fn queues_any(&self, die: Die, first: Ppa, pages: u64) -> bool {
        let pages = first.raw()..first.raw() + pages;
        self.dies[die.raw() as usize]
            .queue
            .iter()
            .any(|queued| pages.contains(&queued.page.raw()))
    }

    /// Places `die`'s queued programs, in order.
    pub(crate) fn place_queue_of(&mut self, die: Die) {
        let at = die.raw() as usize;
        while let Some((program, start_ns)) = self.dies[at].place_head() {
            self.note_placed(at, program, start_ns);
        }
    }

    /// When `die` frees up from what is placed on it (its queued
    /// programs reserve nothing).
    pub(crate) fn reserved_until(&self, die: Die) -> u64 {
        self.dies[die.raw() as usize].busy_until_ns
    }

    /// Places every die's queued programs; returns when the last flush
    /// program placed so far ends.
    pub(crate) fn place_programs(&mut self) -> u64 {
        for at in 0..self.dies.len() {
            self.place_queue_of(Die::new(at as u32));
        }
        self.programs_end_ns
    }

    /// Files `entry` in [`SimClock::untaken`], in order.
    fn insert_untaken(&mut self, entry: (u64, u32)) {
        if self.untaken.back().is_none_or(|&last| last <= entry) {
            self.untaken.push_back(entry);
            return;
        }
        let at = self
            .untaken
            .iter()
            .rposition(|&filed| filed <= entry)
            .map_or(0, |before| before + 1);
        self.untaken.insert(at, entry);
    }

    /// The die holding the earliest-ending program whose tag is not
    /// taken, and when that program ends: the front of
    /// [`SimClock::untaken`] once its key is up to date (the entry of a
    /// die that holds none goes).
    pub(crate) fn earliest_untaken(&mut self) -> Option<(u64, usize)> {
        while let Some(&(key_ns, die)) = self.untaken.front() {
            let line = &mut self.dies[die as usize];
            let next_ns = line.next_end_ns();
            debug_assert!(next_ns.is_none_or(|end_ns| end_ns >= key_ns), "a late key");
            if next_ns == Some(key_ns) {
                return Some((key_ns, die as usize));
            }
            self.untaken.pop_front();
            match next_ns {
                Some(end_ns) => self.insert_untaken((end_ns, die)),
                None => line.listed = false,
            }
        }
        None
    }

    /// Takes the tag of the earliest-ending flush program whose tag is
    /// not taken, with when that program ends; each tag comes back
    /// once. A program still queued is placed first, where it would be
    /// placed anyway: the caller places nothing that starts before the
    /// returned end (the host waits for it), and any op that starts no
    /// earlier places the program the same way (a read lets it run in
    /// the idle time before its floor).
    pub(crate) fn take_earliest_program(&mut self) -> Option<(u64, u64)> {
        let (end_ns, at) = self.earliest_untaken()?;
        let tag = match self.dies[at].programmed.pop_front() {
            Some((_, tag)) => tag,
            None => {
                let (program, start_ns) = self.dies[at].place_head()?;
                self.record_placed(at, program, start_ns);
                program.tag
            }
        };
        self.untaken.pop_front();
        match self.dies[at].next_end_ns() {
            Some(next_ns) => self.insert_untaken((next_ns, at as u32)),
            None => self.dies[at].listed = false,
        }
        Some((end_ns, tag))
    }

    /// Flush programs whose tags are not taken, and how many of them
    /// have not ended by `now_ns` (still queued, or placed to end
    /// later).
    pub(crate) fn untaken_programs(&self, now_ns: u64) -> (usize, usize) {
        let mut untaken = 0;
        let mut unended = 0;
        for line in &self.dies {
            let running = line
                .programmed
                .iter()
                .filter(|&&(end_ns, _)| end_ns > now_ns);
            untaken += line.queue.len() + line.programmed.len();
            unended += line.queue.len() + running.count();
        }
        (untaken, unended)
    }

    /// Drops every placed program's tag (the caller forgot what they
    /// name, as at a power cut).
    pub(crate) fn forget_programmed(&mut self) {
        for line in &mut self.dies {
            line.programmed.clear();
        }
    }

    /// Records a program placed whole from `start_ns` on die `at`, its
    /// tag to be taken.
    fn note_placed(&mut self, at: usize, program: Program, start_ns: u64) {
        let end_ns = self.record_placed(at, program, start_ns);
        self.dies[at].programmed.push_back((end_ns, program.tag));
    }

    /// Records a program placed whole from `start_ns` on die `at`;
    /// returns when it ends.
    fn record_placed(&mut self, at: usize, program: Program, start_ns: u64) -> u64 {
        let end_ns = start_ns + program.latency_ns;
        self.programs_end_ns = self.programs_end_ns.max(end_ns);
        self.placed.push(Segment {
            die: at as u32,
            page: program.page,
            start_ns,
            end_ns,
        });
        end_ns
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
            clock.queue_program(Die::new(0), floor, PROGRAM_NS, Ppa::new(page), page);
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
        let read = clock.schedule_ahead(Die::new(0), 50_000, READ_NS, true);
        assert_eq!(
            read,
            Placement {
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
            let read = clock.schedule_ahead(Die::new(0), floor, READ_NS, true);
            assert!(read.suspended, "{read:?}");
            assert_eq!(read.end_ns, floor + READ_NS);
            // The remainder resumes in the idle time before the next read.
            floor = read.end_ns + 1_000;
        }
        // Each suspension let the program run 1 µs, then cost a resume.
        let program_end = PROGRAM_NS + SUSPEND_LIMIT as u64 * (READ_NS + RESUME_NS);
        let read = clock.schedule_ahead(Die::new(0), floor, READ_NS, true);
        assert!(!read.suspended);
        assert!(!read.overtook);
        assert_eq!(read.end_ns, program_end + READ_NS);
        assert_eq!(clock.place_programs(), program_end);
    }

    /// An op placed ahead of the queue without suspending lets queued
    /// programs run in the idle time before its floor and waits for the
    /// one running across it, whole, however often it cuts in: each
    /// program is one stretch, and the op starts at its floor or at the
    /// end of the program it found running there.
    #[test]
    fn an_op_ahead_of_the_queue_that_may_not_suspend_never_splits_a_program() {
        let mut clock = SimClock::new(1);
        queue(&mut clock, 0, 4, 0);
        // At 50 µs the first program runs: the op follows it whole,
        // ahead of the other three.
        let ahead = clock.schedule_ahead(Die::new(0), 50_000, READ_NS, false);
        assert_eq!(
            ahead,
            Placement {
                end_ns: PROGRAM_NS + READ_NS,
                suspended: false,
                overtook: true,
            }
        );
        // With the die idle at its floor it starts there, still ahead.
        let floor = PROGRAM_NS + READ_NS;
        let ahead = clock.schedule_ahead(Die::new(0), floor, READ_NS, false);
        assert_eq!(ahead.end_ns, floor + READ_NS);
        assert!(ahead.overtook);
        // Ops every 30 µs: each finds a program running, and waits.
        let mut floor = ahead.end_ns + 30_000;
        for _ in 0..3 {
            let ahead = clock.schedule_ahead(Die::new(0), floor, READ_NS, false);
            assert!(!ahead.suspended);
            floor = ahead.end_ns + 30_000;
        }
        let placed = segments(&mut clock);
        assert_eq!(placed.len(), 4, "{placed:?}");
        assert!(placed
            .iter()
            .all(|segment| segment.end_ns - segment.start_ns == PROGRAM_NS));
        assert_eq!(clock.place_programs(), placed[3].end_ns);
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
    fn die_busy_time_is_conserved() {
        let mut clock = SimClock::new(1);
        queue(&mut clock, 0, 8, 0);
        // Every stretch the die is busy for: reads and program stretches.
        let mut busy: Vec<(u64, u64)> = Vec::new();
        let mut suspensions = 0;
        for floor in (0..40).map(|i| i * 37_000) {
            let read = clock.schedule_ahead(Die::new(0), floor, READ_NS, true);
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

    /// A splitmix64 step: the tests' deterministic randomness.
    fn draw(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Every placed stretch as (die, start, end, page), sorted.
    fn stretches(clock: &mut SimClock) -> Vec<(u32, u64, u64, u64)> {
        let mut all: Vec<_> = clock
            .take_placed()
            .map(|segment| {
                let Segment {
                    die,
                    page,
                    start_ns,
                    end_ns,
                } = segment;
                (die, start_ns, end_ns, page.raw())
            })
            .collect();
        all.sort_unstable();
        all
    }

    /// Over random flush programs, host reads, other ops placed ahead
    /// of the queue and ops placed behind it on two dies, each op's
    /// floor no earlier than a "now" that only grows: a clock whose
    /// caller takes the tags of programs that end by any time up to
    /// "now" before each op — placing them early — places
    /// every op and every program stretch exactly where a clock whose
    /// caller takes none does. The tags come back in end order, and
    /// each once.
    #[test]
    fn settling_no_later_than_the_next_floor_changes_no_placement() {
        let mut early = 0;
        for seed in 0..300 {
            let mut rng = seed;
            let mut plain = SimClock::new(2);
            let mut settled = SimClock::new(2);
            let mut now = 0;
            let mut next_page = 0;
            let mut taken = Vec::new();
            for _ in 0..80 {
                now += draw(&mut rng) % 120_000;
                let until = now.saturating_sub(draw(&mut rng) % 300_000);
                for _ in 0..draw(&mut rng) % 6 {
                    if settled
                        .earliest_untaken()
                        .is_none_or(|(end_ns, _)| end_ns > until)
                    {
                        break;
                    }
                    let queued: usize = settled.dies.iter().map(|line| line.queue.len()).sum();
                    let Some((_, tag)) = settled.take_earliest_program() else {
                        break;
                    };
                    let left: usize = settled.dies.iter().map(|line| line.queue.len()).sum();
                    early += queued - left;
                    taken.push(tag);
                }
                let die = (draw(&mut rng) % 2) as usize;
                let floor = now + [0, 0, 7_000, 90_000][(draw(&mut rng) % 4) as usize];
                match draw(&mut rng) % 4 {
                    0 => {
                        for _ in 0..1 + draw(&mut rng) % 4 {
                            for clock in [&mut plain, &mut settled] {
                                let page = Ppa::new(next_page);
                                clock.queue_program(
                                    Die::new(die as u32),
                                    now,
                                    PROGRAM_NS,
                                    page,
                                    next_page,
                                );
                            }
                            next_page += 1;
                        }
                    }
                    kind @ (1 | 2) => {
                        let suspend = kind == 1;
                        let die = Die::new(die as u32);
                        let want = plain.schedule_ahead(die, floor, READ_NS, suspend);
                        let got = settled.schedule_ahead(die, floor, READ_NS, suspend);
                        assert_eq!(got, want, "seed {seed}: {kind} on {die:?} at {floor}");
                    }
                    _ => {
                        let want = plain.schedule_after(Die::new(die as u32), floor, READ_NS);
                        let got = settled.schedule_after(Die::new(die as u32), floor, READ_NS);
                        assert_eq!(got, want, "seed {seed}: op on die {die} at {floor}");
                    }
                }
            }
            assert_eq!(
                settled.place_programs(),
                plain.place_programs(),
                "seed {seed}"
            );
            let placed = stretches(&mut plain);
            assert_eq!(stretches(&mut settled), placed, "seed {seed}");
            // Every tag once: the taken ones in end order, then the rest.
            let end_of = |tag: u64| {
                let last = placed.iter().rev().find(|stretch| stretch.3 == tag);
                last.map(|stretch| stretch.2)
            };
            assert!(
                taken
                    .windows(2)
                    .all(|pair| end_of(pair[0]) <= end_of(pair[1])),
                "seed {seed}"
            );
            taken
                .extend(std::iter::from_fn(|| settled.take_earliest_program()).map(|(_, tag)| tag));
            taken.sort_unstable();
            assert_eq!(taken, (0..next_page).collect::<Vec<_>>(), "seed {seed}");
        }
        assert!(early > 300, "{early} programs placed early");
    }

    #[test]
    fn a_program_tag_comes_back_once_by_end_time() {
        let mut clock = SimClock::new(2);
        // Die 0 holds two programs from 0, die 1 one from 50 µs.
        queue(&mut clock, 0, 2, 0);
        clock.queue_program(Die::new(1), 50_000, PROGRAM_NS, Ppa::new(9), 9);
        assert_eq!(clock.untaken_programs(0), (3, 3));
        assert_eq!(clock.take_earliest_program(), Some((PROGRAM_NS, 0)));
        assert_eq!(clock.untaken_programs(PROGRAM_NS), (2, 2));
        // A read on die 0 at 250 µs suspends its second program there.
        let read = clock.schedule_ahead(Die::new(0), 250_000, READ_NS, true);
        assert!(read.suspended);
        // Die 1's program ends before die 0's second, which the read
        // and the resume pushed back.
        assert_eq!(
            clock.take_earliest_program(),
            Some((50_000 + PROGRAM_NS, 9))
        );
        let resumed = 2 * PROGRAM_NS + READ_NS + RESUME_NS;
        assert_eq!(clock.untaken_programs(resumed - 1), (1, 1));
        assert_eq!(clock.take_earliest_program(), Some((resumed, 1)));
        assert_eq!(clock.take_earliest_program(), None);
        assert_eq!(clock.untaken_programs(0), (0, 0));
        // Taking the tags placed every program and emptied the index.
        assert!(clock.untaken.is_empty());
        assert_eq!(clock.take_placed().count(), 4);
    }
}
