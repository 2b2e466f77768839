//! Commands, host requests and completions for the multi-queue device.
//!
//! [`Command`] is the unified op vocabulary of the device front-end:
//! host reads and writes, host/internal buffer flushes, and background
//! GC page migrations all flow through the same per-die scheduler, so
//! a single enum names them all. An [`IoRequest`] wraps a host-issuable
//! command with *when* it arrives (open-loop replay supplies trace
//! timestamps; closed-loop submission leaves the arrival at "now") and
//! *who* issued it (a stream id, so multi-tenant experiments can
//! attribute latency per tenant). The device answers with an
//! [`IoCompletion`] carrying the full submit→dispatch→complete
//! timeline plus GC-interference attribution.

use leaftl_flash::{BlockId, Lpa};
use serde::{Deserialize, Serialize};

/// One device command — the unified vocabulary host queues and the
/// internal GC queue share on their way to the per-die scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Command {
    /// Read one logical page.
    Read {
        /// Target logical page.
        lpa: Lpa,
    },
    /// Write one logical page.
    Write {
        /// Target logical page.
        lpa: Lpa,
        /// Payload tag.
        content: u64,
    },
    /// Force the write buffer to flash (fsync semantics); completes
    /// when the programs drain.
    Flush,
    /// Migrate a GC victim's live pages and erase it: one pass of a
    /// background GC collection, which retires one per pass — internal
    /// background traffic, never host-submittable.
    GcMigrate {
        /// The victim block.
        victim: BlockId,
    },
    /// One translation-log operation (a checkpoint page program, a
    /// flush-delta append, or a log-block reclaim) — internal
    /// background traffic emitted under
    /// [`crate::CheckpointMode::FlashLog`], never host-submittable.
    MapLog {
        /// Translation-log entry sequence number the op belongs to.
        seq: u64,
    },
}

/// Coarse command classification (reporting and dispatch decisions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum IoKind {
    /// A host page read.
    Read,
    /// A host page write.
    Write,
    /// A host flush barrier.
    Flush,
    /// A background GC migration.
    GcMigrate,
    /// A background translation-log operation.
    MapLog,
}

impl Command {
    /// The command's kind.
    pub fn kind(&self) -> IoKind {
        match self {
            Command::Read { .. } => IoKind::Read,
            Command::Write { .. } => IoKind::Write,
            Command::Flush => IoKind::Flush,
            Command::GcMigrate { .. } => IoKind::GcMigrate,
            Command::MapLog { .. } => IoKind::MapLog,
        }
    }

    /// The logical page the command targets, if any.
    pub fn lpa(&self) -> Option<Lpa> {
        match *self {
            Command::Read { lpa } | Command::Write { lpa, .. } => Some(lpa),
            Command::Flush | Command::GcMigrate { .. } | Command::MapLog { .. } => None,
        }
    }

    /// Whether dispatching this command may consume free blocks (the
    /// hard-floor back-pressure rule applies only to these).
    pub fn consumes_blocks(&self) -> bool {
        matches!(self, Command::Write { .. } | Command::Flush)
    }
}

/// One host request, as handed to [`crate::Device::submit_to`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoRequest {
    /// The host command ([`Command::GcMigrate`] is rejected at submit).
    pub command: Command,
    /// Arrival time in virtual nanoseconds. `0` means "as soon as
    /// possible"; open-loop replay sets trace timestamps. Submit
    /// requests to one queue in non-decreasing arrival order — each
    /// queue is FIFO, and the device clamps an out-of-order (earlier)
    /// timestamp up to the newest arrival that queue accepted so far.
    pub arrival_ns: u64,
    /// Issuing stream/tenant (latency attribution in reports).
    pub stream: u32,
}

impl IoRequest {
    /// An as-soon-as-possible read on stream 0.
    pub fn read(lpa: Lpa) -> Self {
        IoRequest {
            command: Command::Read { lpa },
            arrival_ns: 0,
            stream: 0,
        }
    }

    /// An as-soon-as-possible write on stream 0.
    pub fn write(lpa: Lpa, content: u64) -> Self {
        IoRequest {
            command: Command::Write { lpa, content },
            arrival_ns: 0,
            stream: 0,
        }
    }

    /// An as-soon-as-possible flush barrier on stream 0.
    pub fn flush() -> Self {
        IoRequest {
            command: Command::Flush,
            arrival_ns: 0,
            stream: 0,
        }
    }

    /// Sets the arrival timestamp (open-loop traces).
    pub fn at(mut self, arrival_ns: u64) -> Self {
        self.arrival_ns = arrival_ns;
        self
    }

    /// Sets the issuing stream.
    pub fn on_stream(mut self, stream: u32) -> Self {
        self.stream = stream;
        self
    }

    /// The request's kind.
    pub fn kind(&self) -> IoKind {
        self.command.kind()
    }
}

/// Outcome of one host command: its data (for reads), its timeline,
/// and whether it contended with in-flight background GC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct IoCompletion {
    /// Device-assigned id, monotonically increasing in submission
    /// order across all queues — completions may retire out of this
    /// order.
    pub id: u64,
    /// Submission queue the command came from.
    pub queue: u32,
    /// Issuing stream.
    pub stream: u32,
    /// The executed command.
    pub command: Command,
    /// Read payload (`None` for never-written pages and non-reads).
    pub data: Option<u64>,
    /// When the request arrived at the device queue.
    pub arrival_ns: u64,
    /// When the device dispatched it (arrival + queueing delay).
    pub dispatch_ns: u64,
    /// When it completed.
    pub complete_ns: u64,
    /// Whether a background GC migration was still in flight at
    /// dispatch — the per-queue GC-interference attribution bit.
    pub gc_overlap: bool,
}

impl IoCompletion {
    /// The completed command's kind.
    pub fn kind(&self) -> IoKind {
        self.command.kind()
    }

    /// The logical page the command targeted, if any.
    pub fn lpa(&self) -> Option<Lpa> {
        self.command.lpa()
    }

    /// Submit→complete latency: queueing delay plus service time. This
    /// is the latency a host with a deep queue observes (the p99 metric
    /// of the scalability experiments).
    pub fn latency_ns(&self) -> u64 {
        self.complete_ns - self.arrival_ns
    }

    /// Dispatch→complete service time, excluding queueing.
    pub fn service_ns(&self) -> u64 {
        self.complete_ns - self.dispatch_ns
    }

    /// Arrival→dispatch queueing delay — time spent waiting in the
    /// submission queue before the device picked the request up. The
    /// pipelined translation stage shrinks the *service* side; this is
    /// the complementary head-of-line metric the sharding experiment
    /// reports alongside it.
    pub fn wait_ns(&self) -> u64 {
        self.dispatch_ns - self.arrival_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_set_fields() {
        let r = IoRequest::read(Lpa::new(7)).at(1000).on_stream(3);
        assert_eq!(r.kind(), IoKind::Read);
        assert_eq!(r.command.lpa(), Some(Lpa::new(7)));
        assert_eq!(r.arrival_ns, 1000);
        assert_eq!(r.stream, 3);
        let w = IoRequest::write(Lpa::new(9), 42);
        assert_eq!(w.kind(), IoKind::Write);
        assert_eq!(
            w.command,
            Command::Write {
                lpa: Lpa::new(9),
                content: 42
            }
        );
        assert_eq!(w.arrival_ns, 0);
        assert_eq!(IoRequest::flush().kind(), IoKind::Flush);
    }

    #[test]
    fn command_classification() {
        assert!(Command::Flush.consumes_blocks());
        assert!(Command::Write {
            lpa: Lpa::new(0),
            content: 1
        }
        .consumes_blocks());
        assert!(!Command::Read { lpa: Lpa::new(0) }.consumes_blocks());
        let gc = Command::GcMigrate {
            victim: BlockId::new(3),
        };
        assert!(!gc.consumes_blocks());
        assert_eq!(gc.kind(), IoKind::GcMigrate);
        assert_eq!(gc.lpa(), None);
        assert_eq!(Command::Flush.lpa(), None);
        let maplog = Command::MapLog { seq: 9 };
        assert!(!maplog.consumes_blocks());
        assert_eq!(maplog.kind(), IoKind::MapLog);
        assert_eq!(maplog.lpa(), None);
    }

    #[test]
    fn completion_latencies() {
        let c = IoCompletion {
            id: 0,
            queue: 1,
            stream: 0,
            command: Command::Read { lpa: Lpa::new(0) },
            data: Some(1),
            arrival_ns: 100,
            dispatch_ns: 250,
            complete_ns: 400,
            gc_overlap: false,
        };
        assert_eq!(c.latency_ns(), 300);
        assert_eq!(c.service_ns(), 150);
        assert_eq!(c.wait_ns(), 150);
        assert_eq!(c.kind(), IoKind::Read);
        assert_eq!(c.lpa(), Some(Lpa::new(0)));
    }
}
