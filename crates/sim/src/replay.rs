//! Trace replay: drives an [`Ssd`] with a stream of host operations and
//! summarises the outcome.
//!
//! Three replay modes exist:
//!
//! * [`replay`] — the legacy closed-loop mode: one request in flight,
//!   each completes before the next is issued (queue depth 1).
//! * [`replay_queued`] — closed-loop through queue 0 of a
//!   [`crate::Device`]: the host keeps the config's queue depth of
//!   requests outstanding, so requests overlap across flash dies.
//! * [`replay_open_loop`] — open-loop: [`TimedOp`]s carry arrival
//!   timestamps and stream ids (multi-tenant traces); each stream
//!   targets its own named submission queue, requests are admitted at
//!   their trace time regardless of completions, and the device's
//!   arbiter decides whose turn it is — how real multi-queue devices
//!   experience bursty, overlapping tenants.
//!
//! Both take a full [`DeviceConfig`], which is how experiments select
//! queue depth, arbitration policy, GC mode and a QoS controller;
//! `DeviceConfig::single(n)` is the plain depth-`n` device.

use crate::device::{Device, DeviceConfig};
use crate::error::SimError;
use crate::qos::QosTick;
use crate::request::{IoKind, IoRequest};
use crate::ssd::Ssd;
use crate::stats::{LatencyHistogram, SimStats};
use crate::trace::UtilizationReport;
use leaftl_core::MappingScheme;
use leaftl_flash::Lpa;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// One host request, page-granular.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum HostOp {
    /// Read `pages` pages starting at `lpa`.
    Read {
        /// First logical page.
        lpa: Lpa,
        /// Number of pages.
        pages: u32,
    },
    /// Write `pages` pages starting at `lpa`.
    Write {
        /// First logical page.
        lpa: Lpa,
        /// Number of pages.
        pages: u32,
    },
}

impl HostOp {
    /// Convenience single-page read.
    pub fn read(lpa: u64) -> Self {
        HostOp::Read {
            lpa: Lpa::new(lpa),
            pages: 1,
        }
    }

    /// Convenience single-page write.
    pub fn write(lpa: u64) -> Self {
        HostOp::Write {
            lpa: Lpa::new(lpa),
            pages: 1,
        }
    }

    /// Number of pages the op touches.
    pub fn page_count(&self) -> u32 {
        match *self {
            HostOp::Read { pages, .. } | HostOp::Write { pages, .. } => pages,
        }
    }

    /// Whether the op is a read.
    pub fn is_read(&self) -> bool {
        matches!(self, HostOp::Read { .. })
    }
}

/// Summary of one replay run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReplayReport {
    /// Host ops executed.
    pub ops: u64,
    /// Pages read.
    pub pages_read: u64,
    /// Pages written.
    pub pages_written: u64,
    /// Virtual time consumed by the replay, in nanoseconds.
    pub elapsed_ns: u64,
    /// Statistics snapshot at the end of the replay.
    pub stats: SimStats,
}

impl ReplayReport {
    /// Mean host read latency in microseconds.
    pub fn mean_read_latency_us(&self) -> f64 {
        self.stats.read_latency.mean_ns() / 1000.0
    }

    /// Mean latency over all host page operations, the paper's
    /// normalised-performance metric (lower is better).
    pub fn mean_latency_us(&self) -> f64 {
        let reads = self.stats.read_latency.count() as f64;
        let writes = self.stats.write_latency.count() as f64;
        if reads + writes == 0.0 {
            return 0.0;
        }
        (self.stats.read_latency.mean_ns() * reads + self.stats.write_latency.mean_ns() * writes)
            / (reads + writes)
            / 1000.0
    }
}

/// Replays `ops` against `ssd` closed-loop. Write contents are derived
/// deterministically from a sequence counter so integrity can be
/// checked externally. Out-of-range addresses are clamped into the
/// logical space (trace generators target the logical capacity, but
/// scaled-down replays stay safe).
///
/// # Errors
///
/// Propagates any [`SimError`] other than address range issues (which
/// are avoided by clamping).
pub fn replay<S, I>(ssd: &mut Ssd<S>, ops: I) -> Result<ReplayReport, SimError>
where
    S: MappingScheme + Clone,
    I: IntoIterator<Item = HostOp>,
{
    let logical = ssd.config().logical_pages();
    let start_ns = ssd.now_ns();
    let mut report_ops = 0u64;
    let mut pages_read = 0u64;
    let mut pages_written = 0u64;
    let mut write_seq = 0x5eed_0000_0000_0000u64;

    for op in ops {
        report_ops += 1;
        match op {
            HostOp::Read { lpa, pages } => {
                for i in 0..pages as u64 {
                    let addr = Lpa::new((lpa.raw() + i) % logical);
                    ssd.read(addr)?;
                    pages_read += 1;
                }
            }
            HostOp::Write { lpa, pages } => {
                for i in 0..pages as u64 {
                    let addr = Lpa::new((lpa.raw() + i) % logical);
                    write_seq = write_seq.wrapping_add(1);
                    ssd.write(addr, write_seq)?;
                    pages_written += 1;
                }
            }
        }
    }

    Ok(ReplayReport {
        ops: report_ops,
        pages_read,
        pages_written,
        elapsed_ns: ssd.now_ns() - start_ns,
        stats: ssd.stats().clone(),
    })
}

/// One timestamped host request of an open-loop, multi-stream trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimedOp {
    /// Arrival time in virtual nanoseconds from trace start.
    pub at_ns: u64,
    /// Issuing stream/tenant.
    pub stream: u32,
    /// The operation.
    pub op: HostOp,
}

/// Per-stream (= per-submission-queue) latency attribution of a
/// queued replay, including how much of the stream's traffic contended
/// with in-flight background GC.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StreamLatency {
    /// Stream/tenant id (the submission queue it targeted).
    pub stream: u32,
    /// Submit→complete latency distribution of this stream's page
    /// requests.
    pub latency: LatencyHistogram,
    /// Latency distribution of just the requests dispatched while a
    /// background GC migration was still in flight — the per-queue
    /// GC-interference attribution (empty under synchronous GC).
    pub gc_overlap_latency: LatencyHistogram,
    /// Virtual nanoseconds this stream's queue head spent deferred by
    /// QoS admission throttling (0 without a QoS controller).
    pub admission_wait_ns: u64,
}

impl StreamLatency {
    /// Requests of this stream that contended with background GC.
    pub fn gc_overlap_requests(&self) -> u64 {
        self.gc_overlap_latency.count()
    }

    /// Fraction of the stream's requests that contended with
    /// background GC.
    pub fn gc_overlap_fraction(&self) -> f64 {
        if self.latency.count() == 0 {
            return 0.0;
        }
        self.gc_overlap_latency.count() as f64 / self.latency.count() as f64
    }
}

/// Summary of one queued (closed- or open-loop) replay.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QueuedReplayReport {
    /// Host ops executed.
    pub ops: u64,
    /// Pages read.
    pub pages_read: u64,
    /// Pages written.
    pub pages_written: u64,
    /// Queue depth the engine ran at.
    pub queue_depth: usize,
    /// Virtual time from first submission to last completion.
    pub elapsed_ns: u64,
    /// Per-page-request latency distribution. Open-loop replays record
    /// arrival→complete (queueing delay included — what a tenant
    /// observes); closed-loop replays record dispatch→complete service
    /// time (arrivals are synthetic there).
    pub request_latency: LatencyHistogram,
    /// Arrival→dispatch queueing-delay distribution of page requests —
    /// head-of-line time spent in the submission queue before the
    /// device picked the request up. The pipelined translation stage
    /// shortens per-request *service* time, which in turn drains this
    /// wait under load; experiments report the two side by side.
    ///
    /// Open-loop replays only: a closed-loop replay leaves it empty,
    /// because its requests all carry arrival 0 and their "wait" would
    /// be the absolute dispatch clock.
    pub wait_latency: LatencyHistogram,
    /// Latency broken down per stream (one entry per distinct stream).
    pub per_stream: Vec<StreamLatency>,
    /// Background GC migrations the device dispatched during the
    /// replay (0 under synchronous GC).
    pub gc_dispatched: u64,
    /// Virtual time host writes spent blocked at the hard floor
    /// waiting for forced migrations (0 under synchronous GC).
    pub gc_stall_ns: u64,
    /// Total virtual time queue heads spent deferred by QoS admission
    /// throttling, across all queues (0 without a QoS controller).
    pub admission_wait_ns: u64,
    /// The QoS controller's control-tick log (empty without a
    /// controller) — per-tick weights, p99-vs-budget errors and
    /// interference attribution.
    pub qos_ticks: Vec<QosTick>,
    /// Statistics snapshot at the end of the replay.
    pub stats: SimStats,
    /// Per-die busy-time attribution (host/GC/compaction/maplog) over
    /// the replay — the device-timeline accounting behind the Perfetto
    /// exporter, always on.
    pub utilization: UtilizationReport,
}

impl QueuedReplayReport {
    /// Page requests completed per second of virtual time.
    pub fn iops(&self) -> f64 {
        if self.elapsed_ns == 0 {
            return 0.0;
        }
        (self.pages_read + self.pages_written) as f64 / (self.elapsed_ns as f64 / 1e9)
    }

    /// Mean submit→complete latency in microseconds.
    pub fn mean_latency_us(&self) -> f64 {
        self.request_latency.mean_ns() / 1000.0
    }

    /// Median submit→complete latency in microseconds.
    pub fn p50_latency_us(&self) -> f64 {
        self.request_latency.percentile_ns(50.0) as f64 / 1000.0
    }

    /// 99th-percentile submit→complete latency in microseconds.
    pub fn p99_latency_us(&self) -> f64 {
        self.request_latency.percentile_ns(99.0) as f64 / 1000.0
    }

    /// 99.9th-percentile submit→complete latency in microseconds.
    pub fn p999_latency_us(&self) -> f64 {
        self.request_latency.percentile_ns(99.9) as f64 / 1000.0
    }

    /// Mean arrival→dispatch queueing delay in microseconds.
    pub fn mean_wait_us(&self) -> f64 {
        self.wait_latency.mean_ns() / 1000.0
    }

    /// 99th-percentile arrival→dispatch queueing delay in microseconds.
    pub fn p99_wait_us(&self) -> f64 {
        self.wait_latency.percentile_ns(99.0) as f64 / 1000.0
    }
}

/// Expands a [`HostOp`] into page-granular engine requests, clamping
/// addresses like [`replay`] and deriving write contents from the same
/// deterministic sequence counter.
fn expand_op(
    op: HostOp,
    at_ns: u64,
    stream: u32,
    logical: u64,
    write_seq: &mut u64,
    requests: &mut Vec<IoRequest>,
) {
    match op {
        HostOp::Read { lpa, pages } => {
            for i in 0..pages as u64 {
                let addr = Lpa::new((lpa.raw() + i) % logical);
                requests.push(IoRequest::read(addr).at(at_ns).on_stream(stream));
            }
        }
        HostOp::Write { lpa, pages } => {
            for i in 0..pages as u64 {
                let addr = Lpa::new((lpa.raw() + i) % logical);
                *write_seq = write_seq.wrapping_add(1);
                requests.push(
                    IoRequest::write(addr, *write_seq)
                        .at(at_ns)
                        .on_stream(stream),
                );
            }
        }
    }
}

fn run_device<S>(
    ssd: &mut Ssd<S>,
    requests: Vec<IoRequest>,
    ops: u64,
    config: DeviceConfig,
    open_loop: bool,
    queue_of: impl Fn(u32) -> usize,
) -> Result<QueuedReplayReport, SimError>
where
    S: MappingScheme + Clone,
{
    let start_ns = ssd.now_ns();
    let queue_depth = config.queue_depth;
    let mut pages_read = 0u64;
    let mut pages_written = 0u64;
    let mut request_latency = LatencyHistogram::new();
    let mut wait_latency = LatencyHistogram::new();
    let mut per_stream: BTreeMap<u32, (LatencyHistogram, LatencyHistogram)> = BTreeMap::new();
    let mut last_complete = start_ns;

    let mut stream_queue: BTreeMap<u32, usize> = BTreeMap::new();
    let (completions, gc_dispatched, gc_stall_ns, admission_waits, qos_ticks) = {
        let mut device = Device::new(ssd, config);
        for request in requests {
            let queue = queue_of(request.stream);
            if open_loop {
                // Open loop: the whole timestamped trace is visible to
                // the scheduler before the clock moves — a closed-loop
                // submit here would let one slow-waking head advance
                // the clock past arrivals the device was never shown.
                device.enqueue_to(queue, request)?;
            } else {
                device.submit_to(queue, request)?;
            }
        }
        // Every replay runs the backlog to completion — a device must
        // never be dropped with host commands still pending.
        let completions = device.drain()?;
        (
            completions,
            device.gc_dispatched(),
            device.gc_stall_ns(),
            device.admission_wait_per_queue().to_vec(),
            device.qos_ticks().to_vec(),
        )
    };
    for completion in completions {
        match completion.kind() {
            IoKind::Read => pages_read += 1,
            IoKind::Write => pages_written += 1,
            IoKind::Flush | IoKind::GcMigrate | IoKind::MapLog => continue,
        }
        // Open-loop requests have real arrival times, so their latency
        // includes queueing delay and their wait is measured; closed-loop
        // requests are "issued" at dispatch, so only the service time is
        // meaningful.
        let latency = if open_loop {
            wait_latency.record(completion.wait_ns());
            completion.latency_ns()
        } else {
            completion.service_ns()
        };
        stream_queue
            .entry(completion.stream)
            .or_insert(completion.queue as usize);
        let (all, overlapped) = per_stream.entry(completion.stream).or_default();
        request_latency.record(latency);
        all.record(latency);
        if completion.gc_overlap {
            overlapped.record(latency);
        }
        last_complete = last_complete.max(completion.complete_ns);
    }

    Ok(QueuedReplayReport {
        ops,
        pages_read,
        pages_written,
        queue_depth,
        elapsed_ns: last_complete - start_ns,
        request_latency,
        wait_latency,
        per_stream: per_stream
            .into_iter()
            .map(|(stream, (latency, gc_overlap_latency))| StreamLatency {
                stream,
                latency,
                gc_overlap_latency,
                // With the dense one-queue-per-stream mapping this is
                // exact; if a caller shares a queue across streams the
                // queue's wait is attributed to each sharer.
                admission_wait_ns: stream_queue
                    .get(&stream)
                    .and_then(|&q| admission_waits.get(q))
                    .copied()
                    .unwrap_or(0),
            })
            .collect(),
        gc_dispatched,
        gc_stall_ns,
        admission_wait_ns: admission_waits.iter().sum(),
        qos_ticks,
        stats: ssd.stats().clone(),
        utilization: ssd.utilization().clone(),
    })
}

/// Replays `ops` closed-loop through a device built from `config`:
/// the host keeps up to `config.queue_depth` page requests outstanding,
/// refilling as completions retire. Closed-loop ops carry no stream
/// ids, so they all target queue 0; the config matters for its depth,
/// GC mode and (with background work) arbitration
/// against the internal queues. `DeviceConfig::single(1)` reproduces
/// [`replay`]'s blocking behaviour, and with synchronous GC its device
/// state is identical at *any* depth — only timing changes.
///
/// # Errors
///
/// Propagates any [`SimError`] other than address range issues (which
/// are avoided by clamping).
pub fn replay_queued<S, I>(
    ssd: &mut Ssd<S>,
    ops: I,
    config: DeviceConfig,
) -> Result<QueuedReplayReport, SimError>
where
    S: MappingScheme + Clone,
    I: IntoIterator<Item = HostOp>,
{
    let logical = ssd.config().logical_pages();
    let mut write_seq = 0x5eed_0000_0000_0000u64;
    let mut requests = Vec::new();
    let mut op_count = 0u64;
    for op in ops {
        op_count += 1;
        expand_op(op, 0, 0, logical, &mut write_seq, &mut requests);
    }
    let queues = config.queues;
    run_device(ssd, requests, op_count, config, false, move |stream| {
        stream as usize % queues
    })
}

/// Replays a timestamped multi-stream trace open-loop through a device
/// built from `config`: every distinct stream gets its own submission
/// queue (dense remap in ascending stream-id order), each request is
/// admitted at its trace arrival time (relative to the device clock at
/// call time) regardless of how many are already outstanding, and at
/// most `config.queue_depth` commands are dispatched concurrently — a
/// saturated device pushes queueing delay into the per-request latency
/// rather than stalling the trace. The config's arbiter decides whose
/// turn it is; this is how the arbitration and QoS experiments select
/// weighted or host-priority policies, background GC and a QoS
/// controller. Queue assignment is explicit per tenant, so per-queue
/// attribution (SLOs, `admission_wait_ns`, arbiter weights) is never
/// silently shared. Ops should be sorted by `at_ns` within each stream
/// (each queue is FIFO; the device clamps an out-of-order timestamp up
/// to that queue's newest arrival).
///
/// # Errors
///
/// * [`SimError::StreamsExceedQueues`] — the trace names more distinct
///   streams than `config.queues`; the old `stream % queues` fallback
///   aliased tenants onto shared queues and corrupted per-tenant
///   attribution, so the replay now refuses instead.
/// * Otherwise propagates any [`SimError`] except address range issues
///   (avoided by clamping).
pub fn replay_open_loop<S, I>(
    ssd: &mut Ssd<S>,
    ops: I,
    config: DeviceConfig,
) -> Result<QueuedReplayReport, SimError>
where
    S: MappingScheme + Clone,
    I: IntoIterator<Item = TimedOp>,
{
    let ops: Vec<TimedOp> = ops.into_iter().collect();
    // Dense stream→queue remap, in ascending stream-id order.
    let queue_map: BTreeMap<u32, usize> = ops
        .iter()
        .map(|t| t.stream)
        .collect::<BTreeSet<u32>>()
        .into_iter()
        .enumerate()
        .map(|(queue, stream)| (stream, queue))
        .collect();
    if queue_map.len() > config.queues {
        return Err(SimError::StreamsExceedQueues {
            streams: queue_map.len(),
            queues: config.queues,
        });
    }
    let logical = ssd.config().logical_pages();
    let base_ns = ssd.now_ns();
    let mut write_seq = 0x5eed_0000_0000_0000u64;
    let mut requests = Vec::new();
    let mut op_count = 0u64;
    for timed in ops {
        op_count += 1;
        expand_op(
            timed.op,
            base_ns + timed.at_ns,
            timed.stream,
            logical,
            &mut write_seq,
            &mut requests,
        );
    }
    run_device(ssd, requests, op_count, config, true, move |stream| {
        queue_map.get(&stream).copied().unwrap_or(0)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SsdConfig;
    use leaftl_core::ExactPageMap;

    #[test]
    fn replay_mixed_ops() {
        let mut ssd = Ssd::new(SsdConfig::small_test(), ExactPageMap::new());
        let ops = vec![
            HostOp::Write {
                lpa: Lpa::new(0),
                pages: 64,
            },
            HostOp::Read {
                lpa: Lpa::new(0),
                pages: 64,
            },
            HostOp::read(3),
        ];
        let report = replay(&mut ssd, ops).unwrap();
        assert_eq!(report.ops, 3);
        assert_eq!(report.pages_written, 64);
        assert_eq!(report.pages_read, 65);
        assert!(report.elapsed_ns > 0);
        assert!(report.mean_latency_us() > 0.0);
    }

    #[test]
    fn replay_clamps_out_of_range() {
        let mut ssd = Ssd::new(SsdConfig::small_test(), ExactPageMap::new());
        let logical = ssd.config().logical_pages();
        let ops = vec![HostOp::write(logical + 5), HostOp::read(logical + 5)];
        let report = replay(&mut ssd, ops).unwrap();
        assert_eq!(report.pages_written, 1);
    }

    #[test]
    fn replay_queued_depth1_matches_blocking_state() {
        let ops = vec![
            HostOp::Write {
                lpa: Lpa::new(0),
                pages: 96,
            },
            HostOp::Read {
                lpa: Lpa::new(0),
                pages: 96,
            },
        ];
        let mut blocking = Ssd::new(SsdConfig::small_test(), ExactPageMap::new());
        let legacy = replay(&mut blocking, ops.clone()).unwrap();
        let mut queued = Ssd::new(SsdConfig::small_test(), ExactPageMap::new());
        let report = replay_queued(&mut queued, ops, DeviceConfig::single(1)).unwrap();
        assert_eq!(report.ops, 2);
        assert_eq!(report.pages_read, 96);
        assert_eq!(report.pages_written, 96);
        assert_eq!(report.elapsed_ns, legacy.elapsed_ns);
        assert_eq!(report.stats.flash, legacy.stats.flash);
        assert!(report.iops() > 0.0);
    }

    #[test]
    fn replay_queued_deeper_is_faster() {
        let mut config = SsdConfig::small_test();
        config.dram_bytes = 64 * 1024; // tiny cache: reads hit flash
        let ops: Vec<HostOp> = std::iter::once(HostOp::Write {
            lpa: Lpa::new(0),
            pages: 512,
        })
        .chain((0..256u64).map(|i| HostOp::read(i * 2)))
        .collect();
        let mut qd1 = Ssd::new(config.clone(), ExactPageMap::new());
        let r1 = replay_queued(&mut qd1, ops.clone(), DeviceConfig::single(1)).unwrap();
        let mut qd16 = Ssd::new(config, ExactPageMap::new());
        let r16 = replay_queued(&mut qd16, ops, DeviceConfig::single(16)).unwrap();
        assert!(
            r16.elapsed_ns < r1.elapsed_ns,
            "QD=16 ({}) must beat QD=1 ({})",
            r16.elapsed_ns,
            r1.elapsed_ns
        );
        assert!(r16.iops() > r1.iops());
        assert_eq!(r16.stats.flash, r1.stats.flash, "same work either way");
    }

    #[test]
    fn open_loop_attributes_streams_and_queueing() {
        let mut ssd = Ssd::new(SsdConfig::small_test(), ExactPageMap::new());
        // Two tenants: stream 0 writes early, stream 1 reads later.
        let mut trace: Vec<TimedOp> = (0..64u64)
            .map(|i| TimedOp {
                at_ns: i * 100,
                stream: 0,
                op: HostOp::write(i),
            })
            .collect();
        trace.extend((0..32u64).map(|i| TimedOp {
            at_ns: 200_000 + i * 100,
            stream: 1,
            op: HostOp::read(i),
        }));
        trace.sort_by_key(|t| t.at_ns);
        let report = replay_open_loop(&mut ssd, trace, DeviceConfig::new(2, 8)).unwrap();
        assert_eq!(report.pages_written, 64);
        assert_eq!(report.pages_read, 32);
        assert_eq!(report.per_stream.len(), 2);
        assert_eq!(report.per_stream[0].stream, 0);
        assert_eq!(report.per_stream[0].latency.count(), 64);
        assert_eq!(report.per_stream[1].latency.count(), 32);
        // The trace spans at least to the last arrival.
        assert!(report.elapsed_ns >= 200_000 + 31 * 100);
    }

    /// A closed-loop request "arrives" at 0, so its wait would be the
    /// dispatch clock: only an open-loop replay records waits.
    #[test]
    fn only_open_loop_records_wait_latency() {
        let ops: Vec<HostOp> = (0..48u64).map(HostOp::write).collect();
        let mut closed = Ssd::new(SsdConfig::small_test(), ExactPageMap::new());
        let report = replay_queued(&mut closed, ops.clone(), DeviceConfig::single(8)).unwrap();
        assert_eq!(report.pages_written, 48);
        assert_eq!(report.wait_latency.count(), 0);

        let timed = ops.into_iter().enumerate().map(|(i, op)| TimedOp {
            at_ns: i as u64 * 100,
            stream: 0,
            op,
        });
        let mut open = Ssd::new(SsdConfig::small_test(), ExactPageMap::new());
        let report = replay_open_loop(&mut open, timed, DeviceConfig::single(8)).unwrap();
        assert_eq!(report.wait_latency.count(), 48);
    }

    #[test]
    fn open_loop_refuses_stream_queue_collisions() {
        let mut ssd = Ssd::new(SsdConfig::small_test(), ExactPageMap::new());
        // Three distinct streams, two queues: the old `stream % queues`
        // map would silently fold stream 2 onto stream 0's queue.
        let trace: Vec<TimedOp> = (0..3u32)
            .map(|s| TimedOp {
                at_ns: s as u64 * 100,
                stream: s,
                op: HostOp::write(s as u64),
            })
            .collect();
        assert_eq!(
            replay_open_loop(&mut ssd, trace.clone(), DeviceConfig::new(2, 4)).unwrap_err(),
            SimError::StreamsExceedQueues {
                streams: 3,
                queues: 2
            }
        );
        // Enough queues: the dense remap gives each stream its own.
        let report = replay_open_loop(&mut ssd, trace, DeviceConfig::new(3, 4)).unwrap();
        assert_eq!(report.per_stream.len(), 3);
        assert_eq!(report.admission_wait_ns, 0, "no QoS controller attached");
        assert!(report.qos_ticks.is_empty());
    }

    #[test]
    fn open_loop_remaps_sparse_streams_densely() {
        let mut ssd = Ssd::new(SsdConfig::small_test(), ExactPageMap::new());
        // Sparse ids 7 and 300 fit two queues — id values don't matter,
        // distinct-stream count does.
        let trace = vec![
            TimedOp {
                at_ns: 0,
                stream: 300,
                op: HostOp::write(0),
            },
            TimedOp {
                at_ns: 50,
                stream: 7,
                op: HostOp::write(1),
            },
        ];
        let report = replay_open_loop(&mut ssd, trace, DeviceConfig::new(2, 4)).unwrap();
        assert_eq!(report.per_stream.len(), 2);
        assert_eq!(report.per_stream[0].stream, 7);
        assert_eq!(report.per_stream[1].stream, 300);
    }

    #[test]
    fn host_op_helpers() {
        assert!(HostOp::read(1).is_read());
        assert!(!HostOp::write(1).is_read());
        assert_eq!(
            HostOp::Write {
                lpa: Lpa::new(0),
                pages: 7
            }
            .page_count(),
            7
        );
    }
}
