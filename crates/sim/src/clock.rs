//! Virtual time and die-parallelism accounting.

use leaftl_flash::Die;
use serde::{Deserialize, Serialize};

/// Nanosecond-resolution virtual clock with per-die busy tracking.
///
/// `now_ns` is the host/controller's notion of "now" — the dispatch
/// point of the request currently being processed. Flash operations are
/// serialised per die but run in parallel across dies: each die carries
/// its own busy-until timeline, so operations scheduled by different
/// in-flight requests overlap whenever they land on different dies
/// (Table 1: 16 channels × 4 dies).
///
/// There is one way onto a die, [`SimClock::schedule_after`]: the
/// operation starts no earlier than an explicit floor — "now" for
/// background work issued at the dispatch point (flush programs, GC,
/// write-backs), or the completion of the operation it depends on
/// (translation read → data read → misprediction retry), which chains a
/// request's operations without advancing the global clock. The queued
/// I/O engine relies on this: each request carries its own ready time
/// while `now_ns` only moves at dispatch/completion boundaries.
///
/// Beside the dies, the clock also tracks *translation CPUs* — one per
/// mapping shard ([`SimClock::cpu_reserve`]). They are scheduled exactly
/// like dies (busy-until timelines that never move `now_ns`) and are
/// what makes translation a pipeline *stage*: a lookup occupies its
/// shard's CPU for the lookup cost, and the pipelined read path grants
/// the CPU to requests in map-ready order rather than arrival order.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimClock {
    now_ns: u64,
    die_busy_until: Vec<u64>,
    /// Per-translation-shard CPU availability. Defaults to one CPU so
    /// pre-sharding callers keep the single-timeline semantics.
    cpu_busy_until: Vec<u64>,
}

impl SimClock {
    /// A clock at time zero for `dies` flash dies and one translation
    /// CPU.
    pub fn new(dies: u32) -> Self {
        Self::with_cpus(dies, 1)
    }

    /// A clock at time zero for `dies` flash dies and `cpus`
    /// translation CPUs (one per mapping shard).
    pub fn with_cpus(dies: u32, cpus: usize) -> Self {
        SimClock {
            now_ns: 0,
            die_busy_until: vec![0; dies as usize],
            cpu_busy_until: vec![0; cpus.max(1)],
        }
    }

    /// Number of translation CPUs (mapping shards) this clock tracks.
    pub fn cpus(&self) -> usize {
        self.cpu_busy_until.len()
    }

    /// Occupies translation CPU `cpu` for `cost_ns`, starting no
    /// earlier than `earliest_ns` (the request's map-ready time) nor
    /// before the CPU frees up, and returns the `(start, end)` pair of
    /// the reservation. Like [`SimClock::schedule_after`] the global
    /// clock does not move — grant order is the caller's scheduling
    /// policy, which is exactly where the pipelined read path reorders
    /// lookups.
    pub fn cpu_reserve(&mut self, cpu: usize, earliest_ns: u64, cost_ns: u64) -> (u64, u64) {
        let busy = &mut self.cpu_busy_until[cpu];
        let start = (*busy).max(earliest_ns);
        let end = start + cost_ns;
        *busy = end;
        (start, end)
    }

    /// Current virtual time in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.now_ns
    }

    /// Advances time by a CPU/controller cost that occupies no die.
    pub fn advance(&mut self, ns: u64) {
        self.now_ns += ns;
    }

    /// Schedules an operation of `latency_ns` on `die`, starting no
    /// earlier than `earliest_ns` (a per-request dependency floor) nor
    /// before the die frees up, and returns its completion time. The
    /// die's timeline advances; the global clock does not — use
    /// [`SimClock::wait_until`] when the host blocks on the result.
    pub fn schedule_after(&mut self, die: Die, earliest_ns: u64, latency_ns: u64) -> u64 {
        let busy = &mut self.die_busy_until[die.raw() as usize];
        let end = (*busy).max(earliest_ns) + latency_ns;
        *busy = end;
        end
    }

    /// Blocks the host until `deadline_ns` (no-op if already past).
    pub fn wait_until(&mut self, deadline_ns: u64) {
        self.now_ns = self.now_ns.max(deadline_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Schedules from "now" and blocks the host on the result.
    fn blocking_op(clock: &mut SimClock, die: Die, latency_ns: u64) -> u64 {
        let started = clock.now_ns();
        let end = clock.schedule_after(die, started, latency_ns);
        clock.wait_until(end);
        clock.now_ns() - started
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
    fn cpu_timelines_serialize_per_cpu_and_parallel_across() {
        let mut clock = SimClock::with_cpus(1, 2);
        assert_eq!(clock.cpus(), 2);
        // Two grants on CPU 0 queue behind each other...
        assert_eq!(clock.cpu_reserve(0, 0, 100), (0, 100));
        assert_eq!(clock.cpu_reserve(0, 0, 50), (100, 150));
        // ...while CPU 1 is independent, and a later map-ready floor
        // delays the start (the request waits on its translation read,
        // not on the CPU).
        assert_eq!(clock.cpu_reserve(1, 400, 50), (400, 450));
        // The global clock never moved.
        assert_eq!(clock.now_ns(), 0);
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
}
