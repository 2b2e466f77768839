//! The four workloads: what each feeds the simulator, how the device
//! is aged before statistics start, the measured phase, and the
//! verification that follows it.
//!
//! Every profile and device parameter is a literal here, so a later
//! edit to `leaftl_workloads::suites` or the experiment harness cannot
//! move the benchmark's input; only the *generators* are shared, and
//! `input_digest` makes drift in those visible.

use crate::alloc_count;
use crate::calibrate::{Lap, Pace, PacedArbiter};
use crate::oracle::Oracle;
use crate::probe::Probe;
use crate::spans::{timed, Level, Span, SpanTable, Timed, TimedArbiter};
use crate::summary::{mean, percentile, ratio, Fnv};
use leaftl_repro::baselines::{Dftl, Sftl};
use leaftl_repro::core::{LeaFtlConfig, ShardedMapping};
use leaftl_repro::flash::Lpa;
use leaftl_repro::sim::{
    Arbiter, CheckpointMode, Device, DeviceConfig, DramPolicy, FlashOpKind, HostOp, IoCompletion,
    IoKind, IoRequest, LatencyHistogram, LeaFtlScheme, QosControllerConfig, QosSpec,
    RecoveryReport, RoundRobin, SimStats, Slo, Ssd, SsdConfig, TrafficClass, UtilizationReport,
    Weighted,
};
use leaftl_repro::workloads::{multi_tenant_trace, qos_fleet, ProfileParams, QosFleetSpec};
use serde_json::{json, Value};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    BlockingMix,
    ReadQd32,
    WriteGc,
    Fleet1012,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::BlockingMix,
        Workload::ReadQd32,
        Workload::WriteGc,
        Workload::Fleet1012,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BlockingMix => "blocking_mix",
            Workload::ReadQd32 => "read_qd32",
            Workload::WriteGc => "write_gc",
            Workload::Fleet1012 => "fleet_1012",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// LeaFTL's error bound on every workload (the paper's default γ).
const GAMMA: u32 = 4;
const MIB: u64 = 1 << 20;
const QUEUE_DEPTH: usize = 32;
/// Translation shards of the two sharded workloads.
const SHARDS: usize = 4;
/// Closed-loop workloads collect completions this often, so the
/// device's completion list — and with it peak RSS — stays bounded.
const TAKE_EVERY: usize = 4096;
/// Guaranteed readers of the fleet and their p99 budget.
const FLEET_READERS: usize = 8;
const FLEET_BUDGET_US: f64 = 15_000.0;

/// One page-granular host operation: bit 31 set for a write, the LPA
/// below it. Four bytes per op keeps multi-million-op inputs small
/// next to the simulator's own footprint.
#[derive(Debug, Clone, Copy)]
struct PageOp(u32);

impl PageOp {
    const WRITE: u32 = 1 << 31;

    fn new(lpa: u64, write: bool) -> Self {
        PageOp(lpa as u32 | if write { Self::WRITE } else { 0 })
    }

    fn lpa(self) -> Lpa {
        Lpa::new((self.0 & !Self::WRITE) as u64)
    }

    fn is_write(self) -> bool {
        self.0 & Self::WRITE != 0
    }
}

/// A page op of the open-loop fleet: arrival offset and tenant.
#[derive(Debug, Clone, Copy)]
struct ArrivingOp {
    at_ns: u64,
    stream: u32,
    op: PageOp,
}

/// Splits host ops into page ops (wrapping at the logical capacity,
/// like the simulator's own replay helpers) until `limit` page ops.
fn expand(ops: impl IntoIterator<Item = HostOp>, logical: u64, limit: usize) -> Vec<PageOp> {
    let mut out = Vec::with_capacity(limit.min(1 << 22));
    for op in ops {
        let (lpa, pages, write) = match op {
            HostOp::Read { lpa, pages } => (lpa, pages, false),
            HostOp::Write { lpa, pages } => (lpa, pages, true),
        };
        for i in 0..pages as u64 {
            if out.len() == limit {
                return out;
            }
            out.push(PageOp::new((lpa.raw() + i) % logical, write));
        }
    }
    out
}

fn profile(
    name: &str,
    read_ratio: f64,
    seq_fraction: f64,
    stride_fraction: f64,
    mean_run_pages: u32,
    zipf_theta: f64,
    working_set: f64,
) -> ProfileParams {
    ProfileParams {
        name: name.to_string(),
        read_ratio,
        seq_fraction,
        stride_fraction,
        mean_run_pages,
        zipf_theta,
        working_set,
    }
}

/// Op counts and device size of one workload. `--smoke` shrinks them
/// to a plumbing check; the numbers it prints mean nothing.
struct Sizing {
    capacity: u64,
    /// Page ops replayed (blocking) to age the device after prefill.
    age_ops: usize,
    /// Page ops of the measured phase (the fleet's count follows from
    /// its tenant mix instead).
    ops: usize,
}

impl Workload {
    fn sizing(self, smoke: bool) -> Sizing {
        let (capacity_mib, age_ops, ops) = match (self, smoke) {
            (Workload::BlockingMix, false) => (2048, 300_000, 500_000),
            (Workload::ReadQd32, false) => (2048, 300_000, 1_800_000),
            // Aged by one full logical capacity of the measured mix.
            (Workload::WriteGc, false) => (1024, 209_715, 100_000),
            (Workload::Fleet1012, false) => (512, 0, 0),
            (Workload::BlockingMix, true) => (128, 8_000, 12_000),
            (Workload::ReadQd32, true) => (128, 8_000, 20_000),
            (Workload::WriteGc, true) => (128, 26_214, 6_000),
            (Workload::Fleet1012, true) => (128, 0, 0),
        };
        Sizing {
            capacity: capacity_mib * MIB,
            age_ops,
            ops,
        }
    }

    fn config(self, smoke: bool) -> SsdConfig {
        let mut config = SsdConfig::scaled(self.sizing(smoke).capacity);
        config.stripe_pages = 32;
        match self {
            // Table larger than its cache: demand paging is live.
            Workload::BlockingMix => {
                config.dram_bytes = 320 << 10;
                config.write_buffer_pages = 256;
                config.compaction_interval_writes = 15_000;
            }
            // Table resident, data cache under 1 % of the working set.
            Workload::ReadQd32 | Workload::WriteGc => {
                config.dram_bytes = 4 << 20;
                config.write_buffer_pages = 256;
                config.compaction_interval_writes = 15_000;
            }
            // The `qos` experiment's GC-pressured image.
            Workload::Fleet1012 => {
                config.dram_bytes = 96 << 10;
                config.dram_policy = DramPolicy::DataFloor(0.2);
                config.write_buffer_pages = 128;
                config.compaction_interval_writes = 2_000;
            }
        }
        config.checkpoint_mode = match self {
            Workload::BlockingMix => CheckpointMode::DramSnapshot,
            // The default snapshot clones scheme and validity map on
            // every GC pass; with it, that clone was two thirds of this
            // workload's measured host time and buried the read path
            // the workload exists to load. `blocking_mix` keeps it.
            Workload::ReadQd32 => CheckpointMode::Disabled,
            Workload::WriteGc | Workload::Fleet1012 => CheckpointMode::FlashLog,
        };
        config
    }

    /// The access pattern of the measured phase (and of the ageing
    /// that precedes it, under another seed).
    fn profile(self) -> ProfileParams {
        match self {
            // MSR-hm-shaped: write-heavy, short runs, some strides.
            Workload::BlockingMix => profile("perf-blocking-mix", 0.35, 0.45, 0.15, 12, 0.90, 0.20),
            Workload::ReadQd32 => profile("perf-read-qd32", 0.95, 0.0, 0.0, 1, 0.90, 0.80),
            // gc-heavy-writer-shaped, without its reads.
            Workload::WriteGc => profile("perf-write-gc", 0.0, 0.10, 0.0, 8, 0.90, 0.60),
            Workload::Fleet1012 => unreachable!("the fleet's tenants carry their own profiles"),
        }
    }

    /// What ages the table before the measured phase.
    fn ageing_profile(self) -> ProfileParams {
        match self {
            // Skewed single-page overwrites of the region the reads
            // will hit: stacks levels and approximate segments.
            Workload::ReadQd32 => profile("perf-read-qd32-age", 0.0, 0.05, 0.05, 4, 0.90, 0.80),
            other => other.profile(),
        }
    }
}

/// Everything one child needs to know besides the workload.
pub struct RunSpec {
    pub seed: u64,
    pub smoke: bool,
    /// Span table of a traced run; `None` measures bare.
    pub spans: Option<Arc<SpanTable>>,
    /// Corrupts one oracle expectation / digest word on purpose, to
    /// show the checks fire (`one --inject …`).
    pub inject: Option<Inject>,
    /// Started with the process: set-up time counts from there, and
    /// every host-clock time is scaled by what it samples.
    pub pace: Rc<RefCell<Pace>>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inject {
    /// Expect different content for one page at read-back.
    Readback,
    /// Fold one extra word into the simulation digest.
    Digest,
}

/// Runs `workload` once: set-up, measured phase, verification. Returns
/// the child's record.
pub fn run(workload: Workload, spec: &RunSpec) -> Value {
    let smoke = spec.smoke;
    let lea = || {
        LeaFtlScheme::new(
            LeaFtlConfig::default()
                .with_gamma(GAMMA)
                .with_compaction_interval(workload.config(smoke).compaction_interval_writes),
        )
    };
    let logical = workload.config(smoke).logical_pages();
    let sharded = matches!(workload, Workload::ReadQd32 | Workload::WriteGc);
    match (&spec.spans, sharded) {
        (None, false) => run_scheme(workload, spec, lea()),
        (None, true) => run_scheme(
            workload,
            spec,
            ShardedMapping::new(SHARDS, logical, |_| lea()),
        ),
        (Some(spans), false) => run_scheme(workload, spec, Timed::new(lea(), spans, Level::Scheme)),
        (Some(spans), true) => run_scheme(
            workload,
            spec,
            Timed::new(
                ShardedMapping::new(SHARDS, logical, |_| Timed::new(lea(), spans, Level::Shard)),
                spans,
                Level::Scheme,
            ),
        ),
    }
}

/// `blocking_mix`'s set-up and op stream on the two table-based
/// baselines, untraced — the reference the LeaFTL numbers are read
/// against (`baselines.*`).
pub fn run_baselines(spec: &RunSpec) -> (Value, Value) {
    let bare = RunSpec {
        seed: spec.seed,
        smoke: spec.smoke,
        spans: None,
        inject: None,
        pace: Rc::clone(&spec.pace),
    };
    // Each run's set-up lap starts where the previous run's measured
    // lap ended, so verification time leaks into the baselines'
    // set-up times; nothing reports those.
    let sftl = run_scheme(Workload::BlockingMix, &bare, Sftl::new());
    let dftl = run_scheme(Workload::BlockingMix, &bare, Dftl::new());
    (sftl, dftl)
}

/// The two observers every driver loop reports to.
#[derive(Clone, Copy)]
struct Watch<'a> {
    /// Span table of a traced run.
    spans: Option<&'a SpanTable>,
    /// Polled once per op: cuts host time into calibrated slices.
    pace: &'a RefCell<Pace>,
}

/// What the measured phase hands to verification and reporting.
struct Measured {
    sink: Sink,
    sim_elapsed_ns: u64,
    wall: Lap,
    alloc_calls: u64,
    alloc_bytes: u64,
    device: DeviceCounters,
}

#[derive(Debug, Default)]
struct DeviceCounters {
    dispatches: u64,
    gc_dispatched: u64,
    compact_dispatched: u64,
    maplog_dispatched: u64,
    gc_stall_ns: u64,
    admission_wait_ns: u64,
    qos_ticks: u64,
}

/// Brackets the measured phase: host clock, simulated clock and the
/// allocation counters all start and stop together.
struct Bracket<'a> {
    pace: &'a RefCell<Pace>,
    sim_start_ns: u64,
    alloc: (u64, u64),
}

impl<'a> Bracket<'a> {
    /// The caller has just closed the set-up lap.
    fn open(pace: &'a RefCell<Pace>, sim_now_ns: u64) -> Self {
        Bracket {
            pace,
            alloc: alloc_count::snapshot(),
            sim_start_ns: sim_now_ns,
        }
    }

    fn close(self, sim_now_ns: u64, sink: Sink, device: DeviceCounters) -> Measured {
        let wall = self.pace.borrow_mut().lap();
        let (calls, bytes) = alloc_count::snapshot();
        Measured {
            sink,
            sim_elapsed_ns: sim_now_ns - self.sim_start_ns,
            wall,
            alloc_calls: calls - self.alloc.0 - wall.own_allocations.0,
            alloc_bytes: bytes - self.alloc.1 - wall.own_allocations.1,
            device,
        }
    }
}

/// How ops reach the simulator, which decides what a latency is and
/// how a read is checked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Front {
    /// `Ssd::read`/`write` one at a time: no completions; the driver
    /// loop checks each read and clocks each call itself.
    Blocking,
    /// One queue: dispatch order is submission order, so each read has
    /// one right answer, remembered at submission. Latency is service
    /// time (arrivals are synthetic).
    Closed,
    /// Many queues: the arbiter orders racing commands, so a read is
    /// only checked for returning its own page. Latency counts from
    /// the scheduled arrival.
    Open,
}

/// Slots remembering what each in-flight closed-loop read must return,
/// keyed by completion id. Ids are shared with background commands, so
/// the window between two `take_completions` spans more ids than host
/// submits; a slot whose id does not match is reported, never trusted.
const RING: usize = 1 << 16;

/// Collects what the measured phase produces per op: latencies, and
/// from completions the digest and the read checks.
struct Sink {
    front: Front,
    /// Simulated latency of every host page op, in submission
    /// (blocking) or completion (queued) order.
    latencies: Vec<u64>,
    /// Arrival→dispatch wait of every open-loop host page op.
    waits: Vec<u64>,
    /// Latencies of each guaranteed tenant (fleet only).
    guaranteed: Vec<Vec<u64>>,
    /// id/dispatch/complete of every completion, folded in order.
    completions: Fnv,
    ring: Vec<(u64, u64)>,
}

impl Sink {
    /// Room for `ops` latencies up front, so the measured loop itself
    /// never allocates; `guaranteed` tenants get their own lists.
    fn new(front: Front, ops: usize, guaranteed: usize) -> Self {
        Sink {
            front,
            latencies: Vec::with_capacity(ops),
            waits: Vec::with_capacity(if front == Front::Open { ops } else { 0 }),
            guaranteed: vec![Vec::new(); guaranteed],
            completions: Fnv::new(),
            ring: if front == Front::Closed {
                vec![(u64::MAX, 0); RING]
            } else {
                Vec::new()
            },
        }
    }

    fn expect(&mut self, id: u64, content: Option<u64>) {
        self.ring[id as usize % RING] = (id, content.unwrap_or(0));
    }

    fn absorb(&mut self, done: Vec<IoCompletion>, oracle: &mut Oracle) {
        for c in done {
            self.completions.word(c.id);
            self.completions.word(c.dispatch_ns);
            self.completions.word(c.complete_ns);
            let kind = c.kind();
            if !matches!(kind, IoKind::Read | IoKind::Write) {
                continue;
            }
            let open_loop = self.front == Front::Open;
            let latency = if open_loop {
                c.latency_ns()
            } else {
                c.service_ns()
            };
            self.latencies.push(latency);
            if open_loop {
                // Closed-loop arrivals are synthetic (all 0), so a
                // "wait" there is only a queue position.
                self.waits.push(c.wait_ns());
            }
            if let Some(own) = self.guaranteed.get_mut(c.queue as usize) {
                own.push(latency);
            }
            if kind == IoKind::Read {
                let lpa = c.lpa().expect("a read names its page");
                if open_loop {
                    oracle.check_tag(lpa, c.data);
                } else {
                    let (id, content) = self.ring[c.id as usize % RING];
                    if id == c.id {
                        oracle.check_exact(lpa, c.data, (content != 0).then_some(content));
                    } else {
                        oracle.fail(|| format!("read {lpa}: expectation slot overwritten"));
                    }
                }
            }
        }
    }
}

fn run_scheme<S: Probe>(workload: Workload, spec: &RunSpec, scheme: S) -> Value {
    let smoke = spec.smoke;
    let spans = spec.spans.as_deref();
    let watch = Watch {
        spans,
        pace: &spec.pace,
    };
    let sizing = workload.sizing(smoke);
    let mut config = workload.config(smoke);
    // The device verifies predictions within the scheme's own error
    // bound: 0 for the table-based baselines, which predict nothing.
    config.gamma = scheme.gamma();
    let logical = config.logical_pages();

    // ---- inputs -------------------------------------------------------
    let generating = Instant::now();
    let mut input = Fnv::new();
    let (age_ops, ops, fleet) = if workload == Workload::Fleet1012 {
        let (fleet, slos) = fleet_trace(logical, spec.seed, smoke);
        for op in &fleet {
            input.word(op.at_ns);
            input.word((op.stream as u64) << 32 | op.op.0 as u64);
        }
        (Vec::new(), Vec::new(), Some((fleet, slos)))
    } else {
        let age_ops = expand(
            workload
                .ageing_profile()
                .generator(logical, spec.seed ^ 0xa6e),
            logical,
            sizing.age_ops,
        );
        let ops = expand(
            workload.profile().generator(logical, spec.seed),
            logical,
            sizing.ops,
        );
        for op in age_ops.iter().chain(&ops) {
            input.word(op.0 as u64);
        }
        (age_ops, ops, None)
    };
    let generate = generating.elapsed();

    // ---- set-up: prefill, age, flush, zero the statistics ------------
    let mut oracle = Oracle::new(logical);
    let mut ssd = Ssd::new(config, scheme);
    let prefill_passes = if workload == Workload::Fleet1012 {
        2
    } else {
        1
    };
    for _ in 0..prefill_passes {
        for lpa in (0..logical).map(Lpa::new) {
            spec.pace.borrow_mut().poll();
            let content = oracle.next_write(lpa);
            let result = ssd.write(lpa, content);
            oracle.check_write(lpa, result);
        }
    }
    blocking_pass(&mut ssd, &age_ops, &mut oracle, None, watch);
    if let Err(e) = ssd.flush() {
        oracle.fail(|| format!("set-up flush: {e}"));
    }
    ssd.reset_stats();
    // Set-up ops are checked like any other, but only what follows is
    // counted as attempted.
    oracle.attempted = oracle.failed;
    let maplog_before = ssd.maplog_bytes_written();
    if let Some(table) = spans {
        table.reset();
    }
    let setup = spec.pace.borrow_mut().lap();

    // ---- measured phase ----------------------------------------------
    let arbiter = |inner: Box<dyn Arbiter>| -> Box<dyn Arbiter> {
        match &spec.spans {
            Some(table) => Box::new(TimedArbiter::new(inner, table)),
            None => inner,
        }
    };
    let measured = match workload {
        Workload::BlockingMix => {
            let mut sink = Sink::new(Front::Blocking, ops.len(), 0);
            let bracket = Bracket::open(&spec.pace, ssd.now_ns());
            blocking_pass(
                &mut ssd,
                &ops,
                &mut oracle,
                Some(&mut sink.latencies),
                watch,
            );
            bracket.close(ssd.now_ns(), sink, DeviceCounters::default())
        }
        Workload::ReadQd32 => closed_loop(
            &mut ssd,
            &ops,
            DeviceConfig::single(QUEUE_DEPTH).with_arbiter(arbiter(Box::new(RoundRobin::new()))),
            &mut oracle,
            watch,
        ),
        Workload::WriteGc => closed_loop(
            &mut ssd,
            &ops,
            DeviceConfig::single(QUEUE_DEPTH)
                .background_gc()
                .background_compaction()
                .with_arbiter(arbiter(Box::new(RoundRobin::new()))),
            &mut oracle,
            watch,
        ),
        Workload::Fleet1012 => {
            let (fleet, slos) = fleet.as_ref().expect("generated above");
            let controller = QosControllerConfig {
                control_interval_ns: 20_000_000,
                admission_margin: 0.12,
                gc_pacing_limit: 1,
                ..QosControllerConfig::default()
            };
            let tenants = slos.len();
            // `drain` runs the whole trace in one call; the arbiter is
            // where the pace gets polled inside it (outside the pick
            // span, inside the drain span: calibration inflates a
            // traced `device.self_ns_per_op` here by its 2 %).
            let weighted = arbiter(Box::new(Weighted::new(vec![1; tenants], 1)));
            let device = DeviceConfig::new(tenants, QUEUE_DEPTH)
                .background_gc()
                .with_arbiter(Box::new(PacedArbiter::new(weighted, &spec.pace)))
                .with_qos(QosSpec::new(slos.clone()).with_controller(controller));
            open_loop(&mut ssd, fleet, device, &mut oracle, watch)
        }
    };
    let span_record = spans.map(SpanTable::to_json);

    // ---- what the simulator says happened -----------------------------
    let stats = ssd.stats().clone();
    let utilization = ssd.utilization().clone();
    if let Err(e) = ssd.check_utilization_conservation() {
        oracle.fail(|| format!("utilization conservation after the measured phase: {e}"));
    }
    let translog_bytes = ssd.maplog_bytes_written() - maplog_before;
    let shape = ssd.scheme().shape();
    let map_full_bytes = ssd.scheme().full_bytes();
    let resident_bytes = ssd.mapping_bytes();
    let mut digest = Fnv::new();
    digest.bytes(format!("{stats:?}").as_bytes());
    digest.word(ssd.now_ns());
    digest.word(measured.sink.completions.finish());

    // ---- verification ---------------------------------------------------
    read_back(&mut ssd, logical, &mut oracle, &mut digest, spec.inject);
    if let Err(e) = ssd.check_utilization_conservation() {
        oracle.fail(|| format!("utilization conservation after the read-back: {e}"));
    }
    let mut recovery = None;
    let mut unattributed_after_recovery = 0;
    if workload == Workload::WriteGc {
        // Every flushed write must survive the power cut.
        if let Err(e) = ssd.flush() {
            oracle.fail(|| format!("flush before the power cut: {e}"));
        }
        let recovering = Instant::now();
        match ssd.crash_and_recover() {
            Ok(report) => recovery = Some((report, recovering.elapsed())),
            Err(e) => oracle.fail(|| format!("crash recovery: {e}")),
        }
        // Recovery's lenient invalidation counts probe reads it then
        // never schedules, so conservation does not hold across it at
        // this commit; the gap is reported as a number, not a failure.
        unattributed_after_recovery = unattributed_flash_ops(&ssd);
        read_back(&mut ssd, logical, &mut oracle, &mut digest, None);
    }
    for (_, erases) in ssd.device().erase_counts() {
        digest.word(erases as u64);
    }
    if spec.inject == Some(Inject::Digest) {
        digest.word(1);
    }

    // `LatencyHistogram::record` in isolation, on the measured values.
    let mut histogram = LatencyHistogram::new();
    let recording = Instant::now();
    for &ns in &measured.sink.latencies {
        histogram.record(ns);
    }
    let hist_record_ns = recording.elapsed().as_nanos() as f64;
    std::hint::black_box(&histogram);

    record(Outcome {
        workload,
        spec,
        scheme: ssd.scheme().name(),
        input_digest: input.hex(),
        sim_digest: digest.hex(),
        oracle: &oracle,
        measured,
        stats: &stats,
        utilization: &utilization,
        setup,
        generate,
        translog_bytes,
        shape,
        map_full_bytes,
        resident_bytes,
        recovery,
        unattributed_after_recovery,
        hist_record_ns,
        span_record,
    })
}

/// Builds the fleet's fixed arrival schedule: the `qos` experiment's
/// mix at twice its quick-mode op counts.
fn fleet_trace(logical: u64, seed: u64, smoke: bool) -> (Vec<ArrivingOp>, Vec<Slo>) {
    let (reader_ops, best_effort_ops, bully_ops) =
        if smoke { (60, 1, 40) } else { (1_000, 16, 600) };
    let tenants = qos_fleet(&QosFleetSpec {
        guaranteed_readers: FLEET_READERS,
        reader_budget_us: FLEET_BUDGET_US,
        reader_mean_interarrival_ns: 2_000_000,
        reader_ops,
        best_effort_tenants: 1_000,
        best_effort_mean_interarrival_ns: 125_000_000,
        best_effort_ops,
        gc_bullies: 4,
        bully_mean_interarrival_ns: 4_000_000,
        bully_ops,
    });
    let slos = tenants.iter().map(|t| t.slo).collect();
    let mut ops = Vec::new();
    for timed_op in multi_tenant_trace(&tenants, logical, seed) {
        for op in expand([timed_op.op], logical, usize::MAX) {
            ops.push(ArrivingOp {
                at_ns: timed_op.at_ns,
                stream: timed_op.stream,
                op,
            });
        }
    }
    (ops, slos)
}

/// Blocking `Ssd::read`/`Ssd::write`, one op at a time. With
/// `latencies`, the simulated clock is read around every call.
fn blocking_pass<S: Probe>(
    ssd: &mut Ssd<S>,
    ops: &[PageOp],
    oracle: &mut Oracle,
    mut latencies: Option<&mut Vec<u64>>,
    watch: Watch<'_>,
) {
    let spans = watch.spans;
    for &op in ops {
        watch.pace.borrow_mut().poll();
        let lpa = op.lpa();
        let before_ns = ssd.now_ns();
        if op.is_write() {
            let content = oracle.next_write(lpa);
            let result = timed(spans, Span::SsdCall, || ssd.write(lpa, content));
            oracle.check_write(lpa, result);
        } else {
            oracle.note_read();
            let want = oracle.expected(lpa);
            match timed(spans, Span::SsdCall, || ssd.read(lpa)) {
                Ok(got) => oracle.check_exact(lpa, got, want),
                Err(e) => oracle.fail(|| format!("read {lpa}: {e}")),
            }
        }
        if let Some(latencies) = latencies.as_deref_mut() {
            latencies.push(ssd.now_ns() - before_ns);
        }
    }
}

fn device_counters<S: Probe>(device: &Device<'_, S>) -> DeviceCounters {
    DeviceCounters {
        dispatches: device.dispatches(),
        gc_dispatched: device.gc_dispatched(),
        compact_dispatched: device.compact_dispatched(),
        maplog_dispatched: device.maplog_dispatched(),
        gc_stall_ns: device.gc_stall_ns(),
        admission_wait_ns: device.admission_wait_ns(),
        qos_ticks: device.qos_ticks().len() as u64,
    }
}

/// One queue, `submit_to` at queue depth 32: the device pumps whenever
/// a depth's worth of commands is pending.
fn closed_loop<S: Probe>(
    ssd: &mut Ssd<S>,
    ops: &[PageOp],
    config: DeviceConfig,
    oracle: &mut Oracle,
    watch: Watch<'_>,
) -> Measured {
    let spans = watch.spans;
    let mut sink = Sink::new(Front::Closed, ops.len(), 0);
    let bracket = Bracket::open(watch.pace, ssd.now_ns());
    let mut device = Device::new(ssd, config);
    for (index, &op) in ops.iter().enumerate() {
        watch.pace.borrow_mut().poll();
        let lpa = op.lpa();
        let (request, want) = if op.is_write() {
            (IoRequest::write(lpa, oracle.next_write(lpa)), None)
        } else {
            oracle.note_read();
            (IoRequest::read(lpa), Some(oracle.expected(lpa)))
        };
        match timed(spans, Span::DeviceSubmit, || device.submit_to(0, request)) {
            Ok(id) => {
                if let Some(content) = want {
                    sink.expect(id, content);
                }
            }
            Err(e) => oracle.fail(|| format!("submit {lpa}: {e}")),
        }
        if (index + 1) % TAKE_EVERY == 0 {
            let done = timed(spans, Span::DeviceTake, || device.take_completions());
            sink.absorb(done, oracle);
        }
    }
    match timed(spans, Span::DeviceDrain, || device.drain()) {
        Ok(done) => sink.absorb(done, oracle),
        Err(e) => oracle.fail(|| format!("drain: {e}")),
    }
    let counters = device_counters(&device);
    drop(device);
    bracket.close(ssd.now_ns(), sink, counters)
}

/// One queue per tenant, the whole arrival schedule enqueued up front
/// and drained: arrivals are virtual time, so the generator is never
/// late — lateness is 0 by construction.
fn open_loop<S: Probe>(
    ssd: &mut Ssd<S>,
    ops: &[ArrivingOp],
    config: DeviceConfig,
    oracle: &mut Oracle,
    watch: Watch<'_>,
) -> Measured {
    let spans = watch.spans;
    let mut sink = Sink::new(Front::Open, ops.len(), FLEET_READERS);
    let bracket = Bracket::open(watch.pace, ssd.now_ns());
    let base_ns = ssd.now_ns();
    let mut device = Device::new(ssd, config);
    for arriving in ops {
        watch.pace.borrow_mut().poll();
        let lpa = arriving.op.lpa();
        let request = if arriving.op.is_write() {
            IoRequest::write(lpa, oracle.next_racing_write(lpa, arriving.stream))
        } else {
            oracle.note_read();
            IoRequest::read(lpa)
        };
        let request = request
            .at(base_ns + arriving.at_ns)
            .on_stream(arriving.stream);
        // Streams are dense from 0, so stream i is queue i.
        let queue = arriving.stream as usize;
        if let Err(e) = timed(spans, Span::DeviceSubmit, || {
            device.enqueue_to(queue, request)
        }) {
            oracle.fail(|| format!("enqueue {lpa}: {e}"));
        }
    }
    match timed(spans, Span::DeviceDrain, || device.drain()) {
        Ok(done) => sink.absorb(done, oracle),
        Err(e) => oracle.fail(|| format!("drain: {e}")),
    }
    let counters = device_counters(&device);
    drop(device);
    bracket.close(ssd.now_ns(), sink, counters)
}

/// Flash operations `SimStats` counted that the per-die utilization
/// report attributes to no traffic class (0 while the conservation
/// invariant holds).
fn unattributed_flash_ops<S: Probe>(ssd: &Ssd<S>) -> u64 {
    let flash = &ssd.stats().flash;
    let attributed = |kind: FlashOpKind| -> u64 {
        TrafficClass::ALL
            .iter()
            .map(|&class| ssd.utilization().class_ops(class, kind))
            .sum()
    };
    let reads =
        flash.data_reads + flash.misprediction_reads + flash.translation_reads + flash.gc_reads;
    reads.abs_diff(attributed(FlashOpKind::Read))
        + flash
            .total_programs()
            .abs_diff(attributed(FlashOpKind::Program))
        + flash.erases.abs_diff(attributed(FlashOpKind::Erase))
}

/// Reads every logical page through the blocking path and checks it
/// against the oracle; the contents go into the simulation digest.
fn read_back<S: Probe>(
    ssd: &mut Ssd<S>,
    logical: u64,
    oracle: &mut Oracle,
    digest: &mut Fnv,
    inject: Option<Inject>,
) {
    for lpa in (0..logical).map(Lpa::new) {
        match ssd.read(lpa) {
            Ok(got) => {
                digest.word(got.unwrap_or(0));
                let corrupt = inject == Some(Inject::Readback) && lpa.raw() == logical / 2;
                oracle.check_final(lpa, if corrupt { got.map(|c| c ^ 1) } else { got });
            }
            Err(e) => {
                oracle.attempted += 1;
                oracle.fail(|| format!("read-back {lpa}: {e}"));
            }
        }
    }
}

struct Outcome<'a> {
    workload: Workload,
    spec: &'a RunSpec,
    scheme: &'static str,
    input_digest: String,
    sim_digest: String,
    oracle: &'a Oracle,
    measured: Measured,
    stats: &'a SimStats,
    utilization: &'a UtilizationReport,
    setup: Lap,
    generate: Duration,
    translog_bytes: u64,
    shape: crate::probe::TableShape,
    map_full_bytes: usize,
    resident_bytes: usize,
    recovery: Option<(RecoveryReport, Duration)>,
    unattributed_after_recovery: u64,
    hist_record_ns: f64,
    span_record: Option<Value>,
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The child's record: `sim` and `counters` must repeat exactly from
/// run to run of one seed; `host` is wall-clock and does not.
fn record(mut o: Outcome<'_>) -> Value {
    // Sorted in place: a copy of a multi-million-sample vector would
    // show up in the peak-RSS metric.
    let sink = &mut o.measured.sink;
    sink.latencies.sort_unstable();
    sink.waits.sort_unstable();
    for own in &mut sink.guaranteed {
        own.sort_unstable();
    }
    let m = &o.measured;
    let (sorted, waits) = (&m.sink.latencies, &m.sink.waits);
    let page_ops = sorted.len() as u64;
    let us = |ns: u64| ns as f64 / 1e3;
    let sim_ms = |ns: u64| ns as f64 / 1e6;
    let sim_s = m.sim_elapsed_ns as f64 / 1e9;
    let wall_s = m.wall.normalised.as_secs_f64();
    let raw_wall_s = m.wall.raw.as_secs_f64();

    let sim = json!({
        "sim_iops": ratio(page_ops as f64, sim_s),
        "sim_mean_lat_us": mean(sorted) / 1e3,
        "sim_tail1pct_lat_us": mean(&sorted[sorted.len() - sorted.len().div_ceil(100)..]) / 1e3,
        "sim_p999_lat_us": us(percentile(sorted, 99.9)),
        "sim_waf": o.stats.waf(),
        "map_full_bytes": o.map_full_bytes,
    });

    let guaranteed_p99: Vec<f64> = m
        .sink
        .guaranteed
        .iter()
        .filter(|own| !own.is_empty())
        .map(|own| us(percentile(own, 99.0)))
        .collect();
    let die_util: Vec<f64> = o
        .utilization
        .dies
        .iter()
        .map(|die| ratio(die.total_busy_ns() as f64, m.sim_elapsed_ns as f64))
        .collect();
    let flash = &o.stats.flash;
    let shape = &o.shape;
    let (recovery, recovery_wall) = match &o.recovery {
        Some((report, wall)) => (Some(report), wall.as_secs_f64() * 1e3),
        None => (None, 0.0),
    };
    let counters = json!({
        "workloads.page_ops": page_ops,
        "lat.p50_us": us(percentile(sorted, 50.0)),
        "lat.p99_us": us(percentile(sorted, 99.0)),
        "table.segments": shape.segments,
        "table.approx_share": ratio(shape.approximate_segments as f64, shape.segments as f64),
        "table.groups": shape.groups,
        "table.avg_levels": ratio(shape.levels_sum as f64, shape.groups as f64),
        "table.max_levels": shape.max_levels,
        "table.crb_bytes": shape.crb_bytes,
        "table.resident_bytes": o.resident_bytes,
        "table.avg_members_per_segment": ratio(shape.members_sum as f64, shape.segments as f64),
        "ssd.lookups": o.stats.lookups,
        "ssd.mispredict_ratio": o.stats.misprediction_ratio(),
        "ssd.avg_lookup_levels": o.stats.avg_lookup_levels(),
        "ssd.cache_hit_ratio": o.stats.cache_hit_ratio(),
        "ssd.lookup_cpu_sim_ms": sim_ms(o.stats.lookup_cpu_ns),
        "ssd.translation_stall_sim_ms": sim_ms(o.stats.translation_stall_ns),
        "ssd.learn_cpu_sim_ms": sim_ms(o.stats.learn_cpu_ns),
        "ssd.gc_runs": o.stats.gc_runs,
        "ssd.wear_swaps": o.stats.wear_swaps,
        "ssd.compactions": o.stats.compactions,
        "flash.data_reads": flash.data_reads,
        "flash.translation_reads": flash.translation_reads,
        "flash.misprediction_reads": flash.misprediction_reads,
        "flash.gc_reads": flash.gc_reads,
        "flash.data_programs": flash.data_programs,
        "flash.gc_programs": flash.gc_programs,
        "flash.translation_programs": flash.translation_programs,
        "flash.wear_programs": flash.wear_programs,
        "flash.erases": flash.erases,
        "flash.busy_share_host": o.utilization.class_share(TrafficClass::Host),
        "flash.busy_share_gc": o.utilization.class_share(TrafficClass::Gc),
        "flash.busy_share_compact": o.utilization.class_share(TrafficClass::Compact),
        "flash.busy_share_maplog": o.utilization.class_share(TrafficClass::MapLog),
        "flash.die_util_mean": ratio(die_util.iter().sum(), die_util.len() as f64),
        "flash.die_util_max": die_util.iter().copied().fold(0.0, f64::max),
        "device.dispatches": m.device.dispatches,
        "device.gc_dispatched": m.device.gc_dispatched,
        "device.compact_dispatched": m.device.compact_dispatched,
        "device.maplog_dispatched": m.device.maplog_dispatched,
        "device.gc_stall_sim_ms": sim_ms(m.device.gc_stall_ns),
        "device.admission_wait_sim_ms": sim_ms(m.device.admission_wait_ns),
        "device.wait_p99_us": if waits.is_empty() { 0.0 } else { us(percentile(waits, 99.0)) },
        "qos.ticks": m.device.qos_ticks,
        "qos.guaranteed_worst_p99_us": guaranteed_p99.iter().copied().fold(0.0, f64::max),
        "qos.slo_violations": guaranteed_p99.iter().filter(|&&p| p > FLEET_BUDGET_US).count(),
        "translog.bytes_written": o.translog_bytes,
        "recovery.sim_ms": recovery.map_or(0.0, |r| sim_ms(r.scan_time_ns)),
        "recovery.scanned_blocks": recovery.map_or(0, |r| r.scanned_blocks()),
        "recovery.replayed_entries": recovery.map_or(0, |r| r.replayed_log_entries),
        "recovery.unattributed_flash_ops": o.unattributed_after_recovery,
    });

    let host = json!({
        "setup_s": o.setup.normalised.as_secs_f64(),
        "measured_wall_s": wall_s,
        "host_kops_per_s": ratio(page_ops as f64 / 1e3, wall_s),
        "raw_setup_s": o.setup.raw.as_secs_f64(),
        "raw_measured_wall_s": raw_wall_s,
        "raw_kops_per_s": ratio(page_ops as f64 / 1e3, raw_wall_s),
        "speed_factor": m.wall.speed_factor(),
        "calibration_s": m.wall.calibration.as_secs_f64(),
        "host_peak_rss_mib": peak_rss_mib(),
        "generate_ms": o.generate.as_secs_f64() * 1e3,
        "recovery_wall_ms": recovery_wall,
        "hist_record_ns_per_op": ratio(o.hist_record_ns, page_ops as f64),
        "alloc_calls_per_op": ratio(m.alloc_calls as f64, page_ops as f64),
        "alloc_bytes_per_op": ratio(m.alloc_bytes as f64, page_ops as f64),
    });

    json!({
        "workload": o.workload.name(),
        "scheme": o.scheme,
        "seed": o.spec.seed,
        "smoke": o.spec.smoke,
        "traced": o.spec.spans.is_some(),
        "input_digest": o.input_digest,
        "sim_digest": o.sim_digest,
        "attempted": o.oracle.attempted,
        "failed": o.oracle.failed,
        "failures": o.oracle.messages,
        "latency_samples": page_ops,
        "sim": sim,
        "counters": counters,
        "host": host,
        "spans": o.span_record,
    })
}
