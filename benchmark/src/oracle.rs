//! The correctness oracle behind `attempted` / `failed`.
//!
//! Every page the benchmark writes carries `(sequence << 24) | lpa`,
//! so any read can be checked for mistranslation (wrong page returned)
//! from the content alone, and — where submission order defines the
//! answer — for staleness against the exact last writer.

use leaftl_repro::flash::Lpa;
use leaftl_repro::sim::SimError;
use std::collections::HashMap;

const LPA_BITS: u32 = 24;
const LPA_MASK: u64 = (1 << LPA_BITS) - 1;

/// At most this many failure descriptions are kept for the report.
const KEPT_MESSAGES: usize = 8;

#[derive(Debug)]
pub struct Oracle {
    /// Content of the last write *submitted* per LPA (0 = never
    /// written; real contents are never 0 because sequences start
    /// at 1).
    last: Vec<u64>,
    /// Per LPA written through more than one queue in flight, the last
    /// content each queue submitted: across queues the arbiter decides
    /// which write lands last, so any of these may be the survivor.
    racing: HashMap<u64, Vec<(u32, u64)>>,
    sequence: u64,
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

impl Oracle {
    pub fn new(logical_pages: u64) -> Self {
        assert!(logical_pages <= LPA_MASK, "device too large for the tag");
        Oracle {
            last: vec![0; logical_pages as usize],
            racing: HashMap::new(),
            sequence: 0,
            attempted: 0,
            failed: 0,
            messages: Vec::new(),
        }
    }

    pub fn fail(&mut self, message: impl FnOnce() -> String) {
        self.failed += 1;
        if self.messages.len() < KEPT_MESSAGES {
            self.messages.push(message());
        }
    }

    /// Content for the next write to `lpa`, recorded as its expected
    /// value. Counts one attempted op.
    pub fn next_write(&mut self, lpa: Lpa) -> u64 {
        self.attempted += 1;
        self.sequence += 1;
        let content = (self.sequence << LPA_BITS) | lpa.raw();
        self.last[lpa.raw() as usize] = content;
        content
    }

    /// Like [`Oracle::next_write`] for a write racing writes of other
    /// queues: remembered as one of the contents `lpa` may end up with.
    pub fn next_racing_write(&mut self, lpa: Lpa, queue: u32) -> u64 {
        let content = self.next_write(lpa);
        let candidates = self.racing.entry(lpa.raw()).or_default();
        match candidates.iter_mut().find(|(q, _)| *q == queue) {
            Some(slot) => slot.1 = content,
            None => candidates.push((queue, content)),
        }
        content
    }

    /// What a read of `lpa` submitted now must return.
    pub fn expected(&self, lpa: Lpa) -> Option<u64> {
        match self.last[lpa.raw() as usize] {
            0 => None,
            content => Some(content),
        }
    }

    /// Counts one attempted read (checked later, on completion).
    pub fn note_read(&mut self) {
        self.attempted += 1;
    }

    /// A completed write; only an error is a failure.
    pub fn check_write(&mut self, lpa: Lpa, result: Result<(), SimError>) {
        if let Err(e) = result {
            self.fail(|| format!("write {lpa}: {e}"));
        }
    }

    /// A read whose answer submission order defines exactly.
    pub fn check_exact(&mut self, lpa: Lpa, got: Option<u64>, want: Option<u64>) {
        if got != want {
            self.fail(|| format!("read {lpa}: got {got:x?}, last writer wrote {want:x?}"));
        }
    }

    /// A read racing writes of other queues: the content must at least
    /// belong to `lpa` and to a write already issued.
    pub fn check_tag(&mut self, lpa: Lpa, got: Option<u64>) {
        if let Some(content) = got {
            if content & LPA_MASK != lpa.raw() || content >> LPA_BITS > self.sequence {
                self.fail(|| format!("read {lpa}: got {content:x}, another page's content"));
            }
        }
    }

    /// A read-back of `lpa` after everything drained: the exact last
    /// writer, or — if queues raced on it — one of their last writes.
    pub fn check_final(&mut self, lpa: Lpa, got: Option<u64>) {
        self.attempted += 1;
        let settled = match (self.racing.get(&lpa.raw()), got) {
            (Some(candidates), Some(content)) => candidates.iter().any(|&(_, c)| c == content),
            _ => got == self.expected(lpa),
        };
        if !settled {
            let want = self.expected(lpa);
            self.fail(|| format!("read-back {lpa}: got {got:x?}, expected {want:x?}"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_and_tag_checks() {
        let mut oracle = Oracle::new(100);
        let lpa = Lpa::new(7);
        assert_eq!(oracle.expected(lpa), None);
        let first = oracle.next_write(lpa);
        let second = oracle.next_write(lpa);
        assert_ne!(first, second);
        assert_eq!(oracle.expected(lpa), Some(second));
        oracle.check_exact(lpa, Some(second), oracle.expected(lpa));
        oracle.check_tag(lpa, Some(first));
        assert_eq!(oracle.failed, 0);
        // Stale content fails the exact check; another page's content
        // fails even the tag check.
        oracle.check_exact(lpa, Some(first), oracle.expected(lpa));
        oracle.check_tag(Lpa::new(8), Some(second));
        assert_eq!(oracle.failed, 2);
        assert_eq!(oracle.messages.len(), 2);
    }

    #[test]
    fn racing_writes_accept_either_queue_last_write() {
        let mut oracle = Oracle::new(100);
        let lpa = Lpa::new(3);
        let before = oracle.next_write(lpa);
        let a1 = oracle.next_racing_write(lpa, 0);
        let a2 = oracle.next_racing_write(lpa, 0);
        let b = oracle.next_racing_write(lpa, 5);
        oracle.check_final(lpa, Some(a2));
        oracle.check_final(lpa, Some(b));
        assert_eq!(oracle.failed, 0);
        // Queue 0 is FIFO, so its earlier write cannot survive; nor can
        // the content the racing writes replaced.
        oracle.check_final(lpa, Some(a1));
        oracle.check_final(lpa, Some(before));
        oracle.check_final(lpa, None);
        assert_eq!(oracle.failed, 3);
    }
}
