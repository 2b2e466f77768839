//! The NVMe-style multi-queue device front-end.
//!
//! [`Device`] replaces the single-FIFO engine of earlier revisions: it
//! owns N host submission queues (one per tenant/stream) plus an
//! internal source of background work (GC migrations and
//! translation-log ops), and an [`Arbiter`] decides, command by
//! command, which queue the controller serves next. Every operation —
//! host reads and writes, buffer flushes, GC page migrations — is a
//! [`Command`] flowing through the same per-die scheduler, so
//! background work competes with host traffic for dies instead of
//! stalling it.
//!
//! # Simulation model
//!
//! Commands are processed **in dispatch order**: state changes —
//! buffer/caches, mapping table, flash programs, GC — happen at
//! dispatch time, atomically per command. With a single queue and
//! [`GcMode::Synchronous`], dispatch order is submission order and the
//! device's final state is *identical at every queue depth* to the
//! blocking [`Ssd::read`]/[`Ssd::write`] interface — every read result,
//! flash contents, wear, mapping bytes, programs, erases and GC — while
//! where a read was served (DRAM, read cache or flash) may differ,
//! because which flushed pages are still in DRAM depends on time (the
//! `engine_equivalence` proptests pin this for every scheme; depth 1
//! is additionally cycle-exact). What queue depth, queue count, arbitration policy and
//! GC mode change is *which command dispatches next* and *time*: flash
//! work is chained on per-die timelines from each command's dispatch
//! point, the global clock only advances when the host must wait, and
//! completions retire out of order.
//!
//! Inside the SSD each command is two halves: a state change that
//! reads no clock and returns a plan — a flush's (`flush.rs`), a
//! collection's (`gc.rs`) — and the one function that places that plan
//! on the dies (`Ssd::place_flush`, `Ssd::place_gc`). A flush's
//! programs do not reserve their dies: they wait in a per-die queue of
//! unstarted programs ([`crate::clock::SimClock`]). A host-class read
//! (data, misprediction, translation, a flush's own resolution reads)
//! goes ahead of them, suspending the one running at its floor, so it
//! waits at most for the program it cuts; what else the host waits on
//! (a synchronous collection, a wear swap) goes ahead without
//! suspending one; every other operation places the queue first. A
//! flush's pages are read from DRAM until a write takes their slot
//! (`2 × write_buffer_pages` slots, shared with the write buffer): a
//! write that finds every one held waits for the earliest program to
//! end. A flush command places every queued program and completes when
//! the last one ends.
//!
//! # Pipelined translation
//!
//! Within one read burst, translation is a pipeline stage:
//! [`crate::Ssd::service_read_batch`] applies every state change in
//! submission order, then places each request's probes in map-ready
//! order, so a resident lookup never waits behind another request's
//! demand-paged translation read. A burst of one — queue depth 1, and
//! the blocking [`Ssd::read`] — chains serially: depth 1 is cycle-exact.
//!
//! # Background GC
//!
//! The device, not the SSD, owns its GC mode: it passes it to every
//! write and flush it dispatches, and the SSD's own [`Ssd::write`] and
//! [`Ssd::flush`] always collect inline. Learned-table compaction has
//! no mode: every flush, blocking or dispatched, runs it inline
//! (§3.7). Both GC modes run one kind of collection: victim passes
//! selected and applied at one dispatch point, then placed on the die
//! timelines phase by phase — every read, then every program, then
//! every erase, a block's steps in the order its state changed. The
//! modes differ in who dispatches a collection and whether a host
//! command waits for it: a synchronous one holds the flush once, until
//! the latest erase. In [`GcMode::Background`] the flushes the device
//! dispatches stop collecting at the watermark. Instead the device
//! collects by the synchronous collector's rule — it starts when the
//! free fraction falls below the low watermark and stops once it is
//! back at the high one (3 % and 5 % of all blocks on a full-size
//! device of at least 1 GiB, a free reserve one flush needs plus a
//! flush of lead) — as traffic that the arbiter schedules like any
//! other queue: one GC dispatch runs a collection to the high line
//! (with a QoS controller pacing GC, to its pacing limit minus the
//! erases in flight) and retires one [`Command::GcMigrate`] per pass,
//! each completing at its own erase. Each pass takes the block the
//! synchronous collector would pick when it runs; nothing is selected
//! ahead. Host writes
//! are back-pressured only at the hard floor, 2 % of all blocks: a
//! write or flush about to dispatch while the *settled* free fraction —
//! reclaimed blocks whose erase has actually landed — sits below the
//! floor stalls until enough in-flight erases complete, which is the
//! only point where background GC blocks the host. The three lines are
//! one rule in the crate, evaluated once per SSD and shared with the
//! synchronous collector.
//!
//! # Dispatch index
//!
//! The pump decides, every iteration, which host heads are
//! dispatchable, whether any is held back by admission control, when
//! the next head arrives and whether anything is pending at all. None
//! of that is recomputed by walking the queues; it is kept
//! incrementally, so an iteration costs the heads that arrived or left
//! since the previous one, however many tenants the device has. Three
//! invariants carry it:
//!
//! 1. **Every non-empty queue's head is in exactly one place**: the
//!    min-heap of future arrivals, or the arrived set of its readiness
//!    class (guaranteed; best-effort; best-effort block-consuming). A
//!    head enters the heap when it becomes the head (submission to an
//!    empty queue, or the command before it was dispatched), moves to
//!    its class set at the first observing iteration at or after its
//!    arrival, and leaves the set when it is popped. The arbiter sees
//!    the three class sets themselves, each with its gate flag: a head
//!    is ready when its class's gate is open.
//! 2. **Gates are sampled only at observing iterations** — those with a
//!    free depth slot, the only ones that look at host queues at all. A
//!    class's admission gate (the best-effort slot cap; the slot cap or
//!    the GC-floor margin) opens and closes for all its members at
//!    once, so the wait is accounted per gate, not per queue: the gate
//!    accumulates its closed time, a head joining the set records the
//!    accumulated value, and the difference at pop time is that head's
//!    deferral.
//! 3. **Windows are settled at pop**: a head can only be dispatched
//!    while its gate is open, so by then every closed window it sat
//!    through has ended and [`Device::admission_wait_per_queue`] is
//!    exact once the device is drained.
//!
//! Debug builds recompute all of it from the queues every iteration
//! and assert equality, so every `Device` test checks the index.
//!
//! # Example
//!
//! ```
//! use leaftl_flash::Lpa;
//! use leaftl_sim::{Device, DeviceConfig, ExactPageMap, IoRequest, Ssd, SsdConfig};
//!
//! # fn main() -> Result<(), leaftl_sim::SimError> {
//! let mut ssd = Ssd::new(SsdConfig::small_test(), ExactPageMap::new());
//! // Two tenant queues, eight outstanding commands, background GC.
//! let mut device = Device::new(&mut ssd, DeviceConfig::new(2, 8).background_gc());
//! for i in 0..64 {
//!     device.submit_to(0, IoRequest::write(Lpa::new(i), i * 3))?;
//!     device.submit_to(1, IoRequest::read(Lpa::new(i / 2)))?;
//! }
//! let completions = device.drain()?;
//! assert_eq!(completions.len(), 128);
//! # Ok(())
//! # }
//! ```

use crate::arbiter::{AdmissionClass, Arbiter, ArbiterView, ReadySet, RoundRobin, Source};
use crate::config::GcMode;
use crate::error::SimError;
use crate::qos::{QosController, QosSpec, QosTick, SloClass};
use crate::request::{Command, IoCompletion, IoRequest};
use crate::ssd::{Placement, Ssd};
use crate::trace::ArgValue;
use leaftl_core::MappingScheme;
use leaftl_flash::{BlockId, Lpa};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Queue/stream id stamped on background-GC completions — migrations
/// come from the device's internal queue, not any host submission
/// queue.
pub const GC_QUEUE: u32 = u32::MAX;

/// Queue/stream id stamped on background translation-log completions
/// ([`Command::MapLog`]) — checkpoint/delta page programs and log-block
/// reclaims are internal device traffic like GC, served after it
/// (reclamation first, durability second).
pub const MAPLOG_QUEUE: u32 = u32::MAX - 2;

/// Construction-time shape of a [`Device`]: queue count, outstanding
/// host-command budget, GC scheduling mode, arbitration policy, and the
/// optional QoS spec (per-queue SLOs plus controller).
#[derive(Debug)]
pub struct DeviceConfig {
    /// Host submission queues (≥ 1).
    pub queues: usize,
    /// Outstanding host commands across all queues (≥ 1; depth 1 with
    /// one queue reproduces the blocking path cycle-exactly).
    pub queue_depth: usize,
    /// Whether GC runs synchronously in the flush path or as
    /// arbitrated background traffic.
    pub gc_mode: GcMode,
    /// The arbitration policy.
    pub arbiter: Box<dyn Arbiter>,
    /// Optional QoS control plane: per-queue SLOs plus the controller
    /// that sets the base weight, throttles best-effort admission and
    /// paces GC ([`crate::QosSpec`]). `None` (the default) leaves the
    /// device byte-identical to pre-QoS behaviour.
    pub qos: Option<QosSpec>,
}

impl DeviceConfig {
    /// `queues` submission queues at `queue_depth`, synchronous GC,
    /// round-robin arbitration.
    pub fn new(queues: usize, queue_depth: usize) -> Self {
        DeviceConfig {
            queues: queues.max(1),
            queue_depth: queue_depth.max(1),
            gc_mode: GcMode::Synchronous,
            arbiter: Box::new(RoundRobin::new()),
            qos: None,
        }
    }

    /// The legacy-compatible shape: one queue, synchronous GC.
    pub fn single(queue_depth: usize) -> Self {
        DeviceConfig::new(1, queue_depth)
    }

    /// Switches GC to arbitrated background traffic.
    pub fn background_gc(mut self) -> Self {
        self.gc_mode = GcMode::Background;
        self
    }

    /// Has no effect: every device compacts the learned table inline,
    /// at the flush. Kept so configurations that name it still build.
    pub fn background_compaction(self) -> Self {
        self
    }

    /// Has no effect: there is no background compaction to trigger.
    /// Kept so configurations that name it still build.
    pub fn with_compaction_thresholds(self, _levels: u32, _segments: usize) -> Self {
        self
    }

    /// Replaces the arbitration policy.
    pub fn with_arbiter(mut self, arbiter: Box<dyn Arbiter>) -> Self {
        self.arbiter = arbiter;
        self
    }

    /// Attaches the QoS control plane: per-queue SLOs plus controller
    /// tuning. The device sets every host queue's arbiter weight once
    /// to [`QosController::BASE_WEIGHT`] ([`Arbiter::set_weight`]),
    /// caps best-effort in-flight slots, defers best-effort
    /// block-consuming commands near the GC hard floor and paces
    /// background migrations. Pair it with a [`crate::Weighted`]
    /// arbiter — weightless policies ignore the base weight (admission
    /// throttling and pacing still apply).
    pub fn with_qos(mut self, qos: QosSpec) -> Self {
        self.qos = Some(qos);
        self
    }
}

/// One host submission queue: FIFO pending commands plus the arrival
/// clamp floor.
#[derive(Debug, Default)]
struct HostQueue {
    pending: VecDeque<(u64, IoRequest)>,
    /// Largest arrival accepted so far: per-queue submissions are FIFO,
    /// so a later submission with an earlier timestamp is clamped up.
    arrival_floor_ns: u64,
}

/// What decides whether a host queue's arrived head is dispatchable:
/// the queue's service class and whether the head consumes blocks.
/// Admission throttling holds a best-effort head back while its class
/// has used up its slot share (the guaranteed reserve keeps depth slots
/// turning over for SLO tenants even when a burst of best-effort writes
/// is stacked behind a long migrate+erase round), or — near the GC hard
/// floor — when it would consume blocks the settled headroom should
/// keep for guaranteed tenants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum HeadClass {
    /// A guaranteed queue, or any queue of a device without a QoS
    /// controller: never deferred.
    Guaranteed,
    /// Best-effort, head consumes no blocks: gated by the best-effort
    /// slot cap.
    BestEffort,
    /// Best-effort, block-consuming head: gated by the slot cap and by
    /// the admission margin above the GC hard floor.
    BestEffortConsuming,
}

impl HeadClass {
    const ALL: [HeadClass; 3] = [
        HeadClass::Guaranteed,
        HeadClass::BestEffort,
        HeadClass::BestEffortConsuming,
    ];

    /// Trace label of the class's admission gate.
    fn gate_name(self) -> &'static str {
        match self {
            HeadClass::Guaranteed => "none",
            HeadClass::BestEffort => "slot",
            HeadClass::BestEffortConsuming => "floor",
        }
    }
}

/// One readiness class's part of the dispatch index: the queues whose
/// head has arrived, and the closed-time account of the gate they all
/// sit behind.
#[derive(Debug)]
struct ClassIndex {
    arrived: ReadySet,
    /// When the gate's current closed window opened, as sampled at an
    /// observing iteration (`None` while open).
    closed_since: Option<u64>,
    /// Closed time of all ended windows.
    closed_total_ns: u64,
}

impl ClassIndex {
    fn new(queues: usize) -> Self {
        ClassIndex {
            arrived: ReadySet::new(queues),
            closed_since: None,
            closed_total_ns: 0,
        }
    }

    /// Whether the gate was open at the last observing iteration.
    fn is_open(&self) -> bool {
        self.closed_since.is_none()
    }

    /// Virtual time the gate has been closed up to `now`. A member's
    /// deferral is the difference between its leaving and joining
    /// values.
    fn closed_ns(&self, now: u64) -> u64 {
        self.closed_total_ns
            + self
                .closed_since
                .map_or(0, |since| now.saturating_sub(since))
    }

    /// Records the gate's state at an observing iteration; returns
    /// whether it changed.
    fn sample_gate(&mut self, closed: bool, now: u64) -> bool {
        match (closed, self.closed_since) {
            (true, None) => self.closed_since = Some(now),
            (false, Some(since)) => {
                self.closed_total_ns += now.saturating_sub(since);
                self.closed_since = None;
            }
            (true, Some(_)) | (false, None) => return false,
        }
        true
    }
}

/// The multi-queue device front-end over a borrowed [`Ssd`].
///
/// Run the backlog down with [`Device::drain`] before letting the
/// device go: dropping it with host commands still pending silently
/// discards them, which debug builds treat as a caller bug
/// (`debug_assert`). The device never changes how the SSD's own
/// [`Ssd::write`] and [`Ssd::flush`] behave: it passes its GC mode to
/// each write and flush it dispatches.
#[derive(Debug)]
pub struct Device<'a, S: MappingScheme + Clone> {
    ssd: &'a mut Ssd<S>,
    /// Whether the flushes this device dispatches collect inline: the
    /// config's GC mode.
    gc_mode: GcMode,
    queues: Vec<HostQueue>,
    queue_depth: usize,
    arbiter: Box<dyn Arbiter>,
    next_id: u64,
    /// Whether background GC is collecting: set when the free fraction
    /// falls below the low watermark, cleared once it is back at the
    /// high one ([`Device::gc_ready`]).
    gc_collecting: bool,
    /// Host commands pending across all queues.
    host_pending: usize,
    /// Queue heads that had not arrived by the last observing
    /// iteration, as a min-heap of `(arrival_ns, queue)`.
    future_heads: BinaryHeap<Reverse<(u64, usize)>>,
    /// Arrived heads and gate accounts, indexed by `HeadClass as usize`:
    /// with the gate flags, what the arbiter sees of the host queues.
    classes: [ClassIndex; 3],
    /// Reusable buffers for one read burst's commands, addresses and
    /// `(value, completion time)` outcomes.
    batch_scratch: Vec<(u64, IoRequest)>,
    lpa_scratch: Vec<Lpa>,
    outcome_scratch: Vec<(Option<u64>, u64)>,
    /// Completion times of dispatched host commands (min-heap); its
    /// size is the outstanding host-command count.
    inflight: BinaryHeap<Reverse<u64>>,
    /// Completion times of dispatched GC migrations (timing only — GC
    /// never counts against the host queue depth).
    gc_inflight: BinaryHeap<Reverse<u64>>,
    completed: Vec<IoCompletion>,
    /// Latest completion deadline of any dispatched migration; host
    /// commands dispatched before it carry the `gc_overlap` bit.
    gc_busy_until: u64,
    /// Migrations dispatched so far: one per pass of each collection.
    gc_dispatched: u64,
    /// The passes of the collection being retired: each victim and
    /// when its erase completes.
    gc_done: Vec<(BlockId, u64)>,
    /// Virtual time host writes spent blocked at the hard floor.
    gc_stall_ns: u64,
    /// Translation-log ops dispatched so far.
    maplog_dispatched: u64,
    /// Device commands dispatched so far — host commands (each read in
    /// a burst counts), migrations, and translation-log ops. The
    /// coordinate crash-point injection cuts at.
    dispatches: u64,
    /// Remaining dispatch budget once crash injection is armed; at
    /// zero the device freezes (pump returns with work still queued).
    dispatch_budget: Option<u64>,
    /// Set when a dispatch error surfaced through `submit_to`/`drain`;
    /// the drop-time "undrained device" assert stands down, since the
    /// caller is already unwinding a failed run.
    poisoned: bool,
    /// The QoS controller (absent on non-QoS devices —
    /// which then behave byte-identically to pre-QoS builds).
    qos: Option<QosController>,
    /// Per-queue virtual time dispatched heads spent deferred by QoS
    /// admission throttling.
    admission_wait_ns: Vec<u64>,
    /// The class gate's closed time when the queue's head joined its
    /// arrived set.
    admission_mark: Vec<u64>,
    /// Completion times of in-flight best-effort host commands (subset
    /// of `inflight`) — sized against `be_slot_cap` so best-effort
    /// traffic can never hold every depth slot.
    be_inflight: BinaryHeap<Reverse<u64>>,
    /// Maximum in-flight best-effort commands (`queue_depth` minus the
    /// controller's guaranteed slot reserve, floored at one; the full
    /// depth without a QoS controller).
    be_slot_cap: usize,
}

impl<'a, S: MappingScheme + Clone> Device<'a, S> {
    /// Wraps an SSD in a multi-queue front-end.
    pub fn new(ssd: &'a mut Ssd<S>, config: DeviceConfig) -> Self {
        let mut queues = Vec::with_capacity(config.queues);
        queues.resize_with(config.queues, HostQueue::default);
        let mut arbiter = config.arbiter;
        let qos = config.qos.map(|spec| {
            let controller = QosController::new(spec, config.queues);
            // The base weight, once: the very first dispatches already
            // run under it, and nothing retunes it later.
            for queue in 0..config.queues {
                arbiter.set_weight(queue, QosController::BASE_WEIGHT);
            }
            controller
        });
        let be_slot_cap = match &qos {
            Some(controller) => config
                .queue_depth
                .saturating_sub(controller.guaranteed_slot_reserve() as usize)
                .max(1),
            None => config.queue_depth,
        };
        Device {
            ssd,
            gc_mode: config.gc_mode,
            queues,
            queue_depth: config.queue_depth,
            arbiter,
            next_id: 0,
            gc_collecting: false,
            host_pending: 0,
            future_heads: BinaryHeap::new(),
            classes: HeadClass::ALL.map(|_| ClassIndex::new(config.queues)),
            batch_scratch: Vec::new(),
            lpa_scratch: Vec::new(),
            outcome_scratch: Vec::new(),
            inflight: BinaryHeap::new(),
            gc_inflight: BinaryHeap::new(),
            completed: Vec::new(),
            gc_busy_until: 0,
            gc_dispatched: 0,
            gc_done: Vec::new(),
            gc_stall_ns: 0,
            maplog_dispatched: 0,
            dispatches: 0,
            dispatch_budget: None,
            poisoned: false,
            admission_wait_ns: vec![0; config.queues],
            admission_mark: vec![0; config.queues],
            be_inflight: BinaryHeap::new(),
            be_slot_cap,
            qos,
        }
    }

    /// The outstanding host-command budget.
    pub fn queue_depth(&self) -> usize {
        self.queue_depth
    }

    /// Read access to the underlying SSD.
    pub fn ssd(&self) -> &Ssd<S> {
        self.ssd
    }

    /// Host commands currently dispatched and not yet retired.
    pub fn in_flight(&self) -> usize {
        self.inflight.len()
    }

    /// Background migrations dispatched so far.
    pub fn gc_dispatched(&self) -> u64 {
        self.gc_dispatched
    }

    /// Virtual nanoseconds host writes spent blocked at the hard floor
    /// waiting for a forced migration.
    pub fn gc_stall_ns(&self) -> u64 {
        self.gc_stall_ns
    }

    /// Always 0: every device compacts the learned table inline, at
    /// the flush ([`crate::SimStats::compactions`] counts the sweeps).
    /// Kept so callers that report it still build.
    pub fn compact_dispatched(&self) -> u64 {
        0
    }

    /// Total virtual nanoseconds host queue heads spent deferred by
    /// QoS admission throttling (always 0 without a controller). A
    /// head's deferral is added when it is dispatched, so the value is
    /// exact once the device is drained; on a halted or failed device
    /// the heads still queued have not been counted.
    pub fn admission_wait_ns(&self) -> u64 {
        self.admission_wait_ns.iter().sum()
    }

    /// Per-queue virtual nanoseconds the queue's heads spent deferred
    /// by QoS admission throttling; exact once the device is drained
    /// (see [`Device::admission_wait_ns`]).
    pub fn admission_wait_per_queue(&self) -> &[u64] {
        &self.admission_wait_ns
    }

    /// The QoS controller's control-tick log (empty without a
    /// controller).
    pub fn qos_ticks(&self) -> &[QosTick] {
        self.qos.as_ref().map_or(&[], |qos| qos.ticks())
    }

    /// Background translation-log ops dispatched so far (checkpoint or
    /// delta page programs, and log-block reclaims).
    pub fn maplog_dispatched(&self) -> u64 {
        self.maplog_dispatched
    }

    /// Device commands dispatched so far across all traffic classes —
    /// each read in a burst counts one, as do migrations and
    /// translation-log ops. This is the coordinate crash-point
    /// injection cuts at: run a workload once, read this off, then
    /// sweep [`Device::halt_after_dispatches`] over `0..=dispatches`.
    pub fn dispatches(&self) -> u64 {
        self.dispatches
    }

    /// Arms deterministic crash-point injection: after `n` more
    /// dispatched commands the device halts — nothing further applies
    /// state or advances time — and [`Device::halted`] turns true. A
    /// background GC collection counts one dispatch per pass (one per
    /// [`Command::GcMigrate`] it retires) and runs whole, so a budget
    /// that runs out inside one halts the device after it.
    /// Follow with [`Device::power_cut`] and
    /// [`Ssd::crash_and_recover`] to simulate a power failure mid-run
    /// (including mid-checkpoint and mid-log-reclaim, since every log
    /// page program is its own dispatch).
    pub fn halt_after_dispatches(&mut self, n: u64) {
        self.dispatch_budget = Some(n);
    }

    /// Whether an armed dispatch budget has run out (the device is
    /// frozen at the cut point).
    pub fn halted(&self) -> bool {
        self.dispatch_budget == Some(0)
    }

    /// Simulates the power failing at the cut point: consumes the
    /// device, discarding everything still queued in its DRAM (pending
    /// host commands and log ops) without the
    /// drop-time undrained assert. Flash state survives on the
    /// borrowed SSD — follow with [`Ssd::crash_and_recover`].
    pub fn power_cut(mut self) {
        self.poisoned = true;
    }

    /// Counts `n` dispatched commands against the crash-injection
    /// budget (if armed) and the lifetime dispatch counter.
    fn consume_budget(&mut self, n: u64) {
        self.dispatches += n;
        if let Some(budget) = &mut self.dispatch_budget {
            *budget = budget.saturating_sub(n);
        }
    }

    /// Enqueues a host command on submission queue `queue`, returning
    /// its device-assigned id. Dispatch happens once a full
    /// queue-depth batch is pending across all queues (or on
    /// [`Device::drain`]); deferring dispatch lets reads that are
    /// pending together be dispatched as one burst, which is what the
    /// pipelined read timeline reorders ([`Ssd`]'s read path places
    /// data probes in map-ready order within a burst).
    ///
    /// # Errors
    ///
    /// * [`SimError::UnknownQueue`] — no such submission queue.
    /// * [`SimError::LpaOutOfRange`] — rejected at submission.
    /// * Flush/GC-path errors (e.g. [`SimError::DeviceFull`]) surface
    ///   when the batch is processed.
    ///
    /// # Panics
    ///
    /// Panics if the request carries a [`Command::GcMigrate`] or
    /// [`Command::MapLog`] — background migrations and translation-log
    /// writes are internal device traffic, not host-submittable.
    pub fn submit_to(&mut self, queue: usize, request: IoRequest) -> Result<u64, SimError> {
        let id = self.enqueue_to(queue, request)?;
        if self.host_pending >= self.queue_depth {
            if let Err(e) = self.pump() {
                self.poisoned = true;
                return Err(e);
            }
        }
        Ok(id)
    }

    /// Enqueues a host command on `queue` *without* running the pump —
    /// open-loop submission. [`Device::submit_to`] models a closed-loop
    /// submitter (it blocks — pumps — once a queue-depth's worth of
    /// commands is pending), which is wrong for timestamped open-loop
    /// traces: the pump would only ever see the next queue-depth
    /// commands of the timeline, so one head deferred on a slow wake
    /// (a GC-round erase, a best-effort slot) advances the clock past
    /// arrivals the device was never shown, charging them phantom
    /// queueing delay. Open-loop callers enqueue the whole trace, then
    /// [`Device::drain`]; arrival timestamps keep future commands from
    /// dispatching early.
    pub fn enqueue_to(&mut self, queue: usize, request: IoRequest) -> Result<u64, SimError> {
        assert!(
            !matches!(
                request.command,
                Command::GcMigrate { .. } | Command::MapLog { .. }
            ),
            "GC migrations and translation-log writes are internal device traffic"
        );
        if queue >= self.queues.len() {
            return Err(SimError::UnknownQueue(queue));
        }
        if let Some(lpa) = request.command.lpa() {
            if lpa.raw() >= self.ssd.config().logical_pages() {
                return Err(SimError::LpaOutOfRange(lpa));
            }
        }
        let mut request = request;
        let slot = &mut self.queues[queue];
        request.arrival_ns = request.arrival_ns.max(slot.arrival_floor_ns);
        slot.arrival_floor_ns = request.arrival_ns;
        let id = self.next_id;
        self.next_id += 1;
        slot.pending.push_back((id, request));
        self.host_pending += 1;
        if slot.pending.len() == 1 {
            self.future_heads.push(Reverse((request.arrival_ns, queue)));
        }
        Ok(id)
    }

    /// Convenience: submit an ASAP read on queue 0 / stream 0.
    pub fn submit_read(&mut self, lpa: Lpa) -> Result<u64, SimError> {
        self.submit_to(0, IoRequest::read(lpa))
    }

    /// Convenience: submit an ASAP write on queue 0 / stream 0.
    pub fn submit_write(&mut self, lpa: Lpa, content: u64) -> Result<u64, SimError> {
        self.submit_to(0, IoRequest::write(lpa, content))
    }

    /// Takes the completions retired so far, ordered by completion
    /// time (ties by submission id).
    pub fn take_completions(&mut self) -> Vec<IoCompletion> {
        let mut done = std::mem::take(&mut self.completed);
        // Sorts the 16-byte keys and then moves each completion, six
        // times that size, into place once. Ids are unique, so no two
        // keys compare equal: any sort gives this order.
        done.sort_by_cached_key(|c| (c.complete_ns, c.id));
        done
    }

    /// Dispatches everything still pending — host commands through the
    /// arbiter; then, while background GC is collecting, a collection
    /// as trailing background work, until the free fraction is back at
    /// the high watermark or nothing is left to collect — waits
    /// for every in-flight host command (advancing the clock to the
    /// last completion), and returns all unretired completions ordered
    /// by completion time. Background migrations appear as
    /// [`Command::GcMigrate`] completions on the [`GC_QUEUE`], one per
    /// pass of a collection; trailing migrations keep their die
    /// reservations but the host does not wait on them.
    pub fn drain(&mut self) -> Result<Vec<IoCompletion>, SimError> {
        if let Err(e) = self.pump() {
            self.poisoned = true;
            return Err(e);
        }
        while let Some(Reverse(complete_ns)) = self.inflight.pop() {
            self.ssd.advance_to(complete_ns);
        }
        // Trailing migrations stay in `gc_inflight` — their erases
        // have not landed, so post-drain submissions must still see
        // them in the settled-free accounting (retire_due pops them as
        // the clock catches up).
        self.retire_due();
        Ok(self.take_completions())
    }

    /// Retires dispatched entries whose completion time has passed.
    fn retire_due(&mut self) {
        let now = self.ssd.now_ns();
        while matches!(self.inflight.peek(), Some(&Reverse(c)) if c <= now) {
            self.inflight.pop();
        }
        while matches!(self.be_inflight.peek(), Some(&Reverse(c)) if c <= now) {
            self.be_inflight.pop();
        }
        while matches!(self.gc_inflight.peek(), Some(&Reverse(c)) if c <= now) {
            self.gc_inflight.pop();
        }
    }

    /// Background GC's start and stop rule, the synchronous
    /// collector's: collection starts when the free fraction falls
    /// below the low watermark and stops once it is back at the high
    /// one. Returns whether a migration may dispatch now: collection
    /// is on and the SSD's victim index holds a candidate (one
    /// comparison at its root), so a device sitting below the line
    /// with nothing collectible offers the arbiter nothing. Runs at
    /// every pump iteration; each migration picks its victim when it
    /// dispatches ([`Device::dispatch_gc`]).
    fn gc_ready(&mut self) -> bool {
        if self.gc_mode != GcMode::Background {
            return false;
        }
        let lines = self.ssd.gc_watermarks();
        let free = self.ssd.free_fraction();
        if free < lines.low {
            self.gc_collecting = true;
        } else if free >= lines.high {
            self.gc_collecting = false;
        }
        self.gc_collecting && self.ssd.has_gc_candidate()
    }

    /// Dispatches one background collection while GC is collecting:
    /// the synchronous collector's ([`Ssd::plan_collection`]), run to
    /// the high line from this dispatch point — each victim the block
    /// the synchronous rule picks when its pass runs — and placed phase
    /// by phase behind the queued flush programs ([`Ssd::place_gc`]).
    /// While a QoS controller
    /// paces GC, the collection takes at most the pacing limit minus
    /// the erases in flight. Each pass retires as its own
    /// [`Command::GcMigrate`] [`IoCompletion`] on the [`GC_QUEUE`],
    /// completing at its erase, which enters the settled-free
    /// accounting on its own. Returns the latest erase's deadline, or
    /// `None` when collection is off or nothing is collectible.
    fn dispatch_gc(&mut self) -> Result<Option<u64>, SimError> {
        if !self.gc_collecting {
            return Ok(None);
        }
        let high = self.ssd.gc_watermarks().high;
        let in_flight = self.gc_inflight.len();
        let max_passes = self
            .qos
            .as_ref()
            .map(QosController::gc_pacing_limit)
            .filter(|&limit| limit > 0)
            .map_or(usize::MAX, |limit| limit.saturating_sub(in_flight));
        let dispatch_ns = self.ssd.now_ns();
        let mut done = std::mem::take(&mut self.gc_done);
        done.clear();
        let wanted = |ssd: &Ssd<S>| ssd.free_fraction() < high;
        let (plan, collected) = self.ssd.plan_collection(wanted, max_passes, dispatch_ns);
        self.ssd.place_gc(&plan, Placement::Behind, None, &mut done);
        collected?;
        let mut latest = None;
        for &(victim, deadline) in &done {
            self.gc_inflight.push(Reverse(deadline));
            self.gc_busy_until = self.gc_busy_until.max(deadline);
            self.gc_dispatched += 1;
            self.retire_background(
                GC_QUEUE,
                Command::GcMigrate { victim },
                "gc_migrate",
                ("victim", victim.raw()),
                dispatch_ns,
                deadline,
            );
            latest = latest.max(Some(deadline));
        }
        self.gc_done = done;
        Ok(latest)
    }

    /// Dispatches the next queued translation-log op as a
    /// [`Command::MapLog`] on the [`MAPLOG_QUEUE`]: one checkpoint or
    /// delta page program, or one superseded log-block erase. State
    /// applies at dispatch like every other command. Only reclaims
    /// enter the settled-free deduction (their erase returns a block
    /// to the pool once it lands; page programs must not be deducted).
    fn dispatch_maplog(&mut self) -> Result<Option<u64>, SimError> {
        let Some(dispatch) = self.ssd.service_maplog()? else {
            return Ok(None);
        };
        let dispatch_ns = self.ssd.now_ns();
        let deadline = dispatch.complete_ns;
        let label = if dispatch.reclaimed_block {
            self.gc_inflight.push(Reverse(deadline));
            self.gc_busy_until = self.gc_busy_until.max(deadline);
            "maplog_reclaim"
        } else {
            "maplog_program"
        };
        self.maplog_dispatched += 1;
        self.retire_background(
            MAPLOG_QUEUE,
            Command::MapLog { seq: dispatch.seq },
            label,
            ("seq", dispatch.seq),
            dispatch_ns,
            deadline,
        );
        Ok(Some(deadline))
    }

    /// What every background dispatch ends with: the command counts
    /// against the crash-injection budget, gets its span (named
    /// `label`, carrying `arg`) on its queue's trace track, and retires
    /// as an [`IoCompletion`] on that queue — arrived when dispatched,
    /// carrying no data.
    fn retire_background(
        &mut self,
        queue: u32,
        command: Command,
        label: &'static str,
        arg: (&'static str, u64),
        dispatch_ns: u64,
        deadline: u64,
    ) {
        self.consume_budget(1);
        self.ssd
            .tracer_mut()
            .queue_span(queue, label, dispatch_ns, deadline, || {
                vec![(arg.0, ArgValue::U64(arg.1))]
            });
        let id = self.next_id;
        self.next_id += 1;
        self.completed.push(IoCompletion {
            id,
            queue,
            stream: queue,
            command,
            data: None,
            arrival_ns: dispatch_ns,
            dispatch_ns,
            complete_ns: deadline,
            gc_overlap: false,
        });
    }

    /// Free-block fraction counting only *settled* reclaims: a
    /// dispatched migration applies its state instantly (the
    /// simulation fiction), but physically its block is not writable
    /// until the erase lands — so in-flight migrations are deducted.
    fn settled_free_fraction(&self) -> f64 {
        let blocks = self.ssd.config().geometry.blocks as f64;
        self.ssd.free_fraction() - self.gc_inflight.len() as f64 / blocks
    }

    /// Hard-floor back-pressure: a block-consuming host command about
    /// to dispatch while the settled free fraction sits below the
    /// floor stalls until enough in-flight erases land (forcing more
    /// migrations if none are in flight) — the only point where
    /// background GC blocks the host.
    fn enforce_hard_floor(&mut self) -> Result<(), SimError> {
        while self.settled_free_fraction() < self.ssd.gc_watermarks().floor {
            if let Some(Reverse(erase_done)) = self.gc_inflight.pop() {
                // Wait for the earliest in-flight erase to land.
                let stall_from = self.ssd.now_ns();
                self.ssd.advance_to(erase_done);
                let stalled = self.ssd.now_ns().saturating_sub(stall_from);
                self.gc_stall_ns += stalled;
                if stalled > 0 {
                    self.ssd
                        .tracer_mut()
                        .control_instant("gc_stall", erase_done, || {
                            vec![("stall_ns", ArgValue::U64(stalled))]
                        });
                }
                continue;
            }
            if self.dispatch_gc()?.is_none() {
                // Nothing collectible: the flush path's emergency
                // synchronous fallback is the last line of defence.
                return Ok(());
            }
        }
        Ok(())
    }

    /// Whether QoS admission throttling is squeezing best-effort
    /// block-consuming commands right now: the settled free fraction
    /// sits within the controller's margin of the GC hard floor while
    /// reclaim erases are in flight. The in-flight requirement keeps
    /// the gate live-lock free — a deferred head always has a concrete
    /// erase completion to wake on — and below the floor with nothing
    /// in flight the hard-floor path (which can force migrations) is
    /// the right tool anyway.
    fn admission_pressured(&self) -> bool {
        let Some(qos) = &self.qos else { return false };
        if self.gc_mode != GcMode::Background || self.gc_inflight.is_empty() {
            return false;
        }
        self.settled_free_fraction() < self.ssd.gc_watermarks().floor + qos.admission_margin()
    }

    /// Runs a QoS control tick if one is due: feeds the controller the
    /// device's interference attribution for its tick log.
    fn qos_tick_if_due(&mut self) {
        let now = self.ssd.now_ns();
        if !self.qos.as_ref().is_some_and(|qos| qos.due(now)) {
            return;
        }
        // The tick's inputs are a few field reads, taken before the
        // controller borrows the device.
        let settled = self.settled_free_fraction();
        let gc_stall = self.gc_stall_ns;
        let Some(qos) = self.qos.as_mut() else {
            return;
        };
        qos.tick(now, gc_stall, settled);
        let tick = qos.last_tick();
        self.ssd.tracer_mut().control_instant("qos_tick", now, || {
            tick.map(|tick| {
                vec![
                    ("worst_error", ArgValue::F64(tick.worst_error)),
                    (
                        "settled_free_fraction",
                        ArgValue::F64(tick.settled_free_fraction),
                    ),
                    ("gc_stall_delta_ns", ArgValue::U64(tick.gc_stall_delta_ns)),
                ]
            })
            .unwrap_or_default()
        });
    }

    /// The readiness class of `queue`'s current head.
    fn head_class(&self, queue: usize) -> HeadClass {
        let best_effort = self
            .qos
            .as_ref()
            .is_some_and(|qos| qos.class(queue) == SloClass::BestEffort);
        let consumes = self.queues[queue]
            .pending
            .front()
            .is_some_and(|&(_, r)| r.command.consumes_blocks());
        match (best_effort, consumes) {
            (false, _) => HeadClass::Guaranteed,
            (true, false) => HeadClass::BestEffort,
            (true, true) => HeadClass::BestEffortConsuming,
        }
    }

    /// The host half of an *observing* iteration (one with a free depth
    /// slot): moves heads that have arrived by `now` from the heap into
    /// their class sets and samples the admission gates. Returns
    /// whether any arrived head is deferred behind a closed gate.
    fn observe_hosts(&mut self, now: u64) -> bool {
        while let Some(&Reverse((arrival_ns, queue))) = self.future_heads.peek() {
            if arrival_ns > now {
                break;
            }
            self.future_heads.pop();
            let class = &mut self.classes[self.head_class(queue) as usize];
            class.arrived.insert(queue);
            self.admission_mark[queue] = class.closed_ns(now);
        }
        let slots_full = self.be_inflight.len() >= self.be_slot_cap;
        let gate_closed = [false, slots_full, slots_full || self.admission_pressured()];
        let mut deferred_any = false;
        for kind in HeadClass::ALL {
            let class = &mut self.classes[kind as usize];
            let closed = gate_closed[kind as usize];
            if class.sample_gate(closed, now) {
                let name = if closed {
                    "admission_gate_close"
                } else {
                    "admission_gate_open"
                };
                self.ssd.tracer_mut().control_instant(name, now, || {
                    vec![
                        ("gate", ArgValue::Str(kind.gate_name())),
                        ("members", ArgValue::U64(class.arrived.len() as u64)),
                    ]
                });
            }
            deferred_any |= closed && !class.arrived.is_empty();
        }
        deferred_any
    }

    /// Index maintenance for `popped` commands leaving the front of
    /// `queue`, whose head was of `class`: the queue leaves its arrived
    /// set, the closed gate time the head sat through is settled into
    /// `admission_wait_ns`, and the new head — if any — goes to the
    /// heap, to be classified by the next observing iteration.
    fn head_popped(&mut self, queue: usize, class: HeadClass, popped: usize, now: u64) {
        self.host_pending -= popped;
        let class = &mut self.classes[class as usize];
        class.arrived.remove(queue);
        self.admission_wait_ns[queue] += class
            .closed_ns(now)
            .saturating_sub(self.admission_mark[queue]);
        if let Some(&(_, next)) = self.queues[queue].pending.front() {
            self.future_heads.push(Reverse((next.arrival_ns, queue)));
        }
    }

    /// The per-queue scan the dispatch index replaced, kept as the
    /// reference debug builds hold the index to at every iteration.
    #[cfg(debug_assertions)]
    fn check_index_against_scan(
        &self,
        now: u64,
        view: &ArbiterView<'_>,
        host_blocked: bool,
        deferred_any: bool,
    ) {
        let pending: usize = self.queues.iter().map(|q| q.pending.len()).sum();
        assert_eq!(self.host_pending, pending, "pending counter");
        let mut indexed = vec![0u32; self.queues.len()];
        for &Reverse((arrival_ns, queue)) in &self.future_heads {
            indexed[queue] += 1;
            let head = self.queues[queue].pending.front();
            assert_eq!(head.map(|&(_, r)| r.arrival_ns), Some(arrival_ns));
        }
        for kind in HeadClass::ALL {
            for queue in self.classes[kind as usize].arrived.iter() {
                indexed[queue] += 1;
                assert_eq!(self.head_class(queue), kind, "queue {queue}'s class set");
            }
        }
        for (queue, slot) in self.queues.iter().enumerate() {
            let expected = u32::from(!slot.pending.is_empty());
            assert_eq!(
                indexed[queue], expected,
                "queue {queue}'s head is indexed once"
            );
        }
        if host_blocked {
            assert!(view.ready_queues() == 0 && !deferred_any);
            return;
        }
        let slots_full = self.be_inflight.len() >= self.be_slot_cap;
        let pressured = self.admission_pressured();
        let mut ready = ReadySet::new(self.queues.len());
        let mut deferred = false;
        let mut earliest_arrival = None;
        for (queue, slot) in self.queues.iter().enumerate() {
            let Some(&(_, head)) = slot.pending.front() else {
                continue;
            };
            if head.arrival_ns > now {
                earliest_arrival =
                    Some(earliest_arrival.map_or(head.arrival_ns, |t: u64| t.min(head.arrival_ns)));
                continue;
            }
            let best_effort = self
                .qos
                .as_ref()
                .is_some_and(|qos| qos.class(queue) == SloClass::BestEffort);
            if best_effort && (slots_full || (pressured && head.command.consumes_blocks())) {
                deferred = true;
            } else {
                ready.insert(queue);
            }
        }
        let indexed: ReadySet = (0..self.queues.len())
            .map(|queue| view.is_ready(Source::Host(queue)))
            .collect();
        assert_eq!(indexed, ready, "ready set");
        assert_eq!(view.ready_queues(), ready.len(), "ready count");
        assert_eq!(deferred_any, deferred, "deferred_any");
        let heap_top = self.future_heads.peek().map(|&Reverse((t, _))| t);
        assert_eq!(heap_top, earliest_arrival, "earliest future arrival");
    }

    /// Dispatches pending commands until every host queue is empty,
    /// respecting arrivals, the queue depth, and the arbiter.
    fn pump(&mut self) -> Result<(), SimError> {
        loop {
            if self.halted() {
                // Crash injection: the budget ran out — freeze with
                // whatever is still queued (power_cut discards it).
                return Ok(());
            }
            self.retire_due();
            let gc_ready = self.gc_ready();
            self.qos_tick_if_due();
            if self.host_pending == 0 && !gc_ready && self.ssd.maplog_pending() == 0 {
                return Ok(());
            }

            let now = self.ssd.now_ns();
            // Host commands are dispatchable when arrived, admitted and
            // a depth slot is free; a migration whenever GC is ready.
            let host_blocked = self.inflight.len() >= self.queue_depth;
            // GC pacing: with a controller active, migrations are
            // invisible to the arbiter while the concurrency limit is
            // reached — collection trickles out as erases land instead
            // of monopolising every die in one mega-round.
            let gc_throttled = gc_ready
                && self.qos.as_ref().is_some_and(|qos| {
                    qos.gc_pacing_limit() > 0 && self.gc_inflight.len() >= qos.gc_pacing_limit()
                });
            let deferred_any = !host_blocked && self.observe_hosts(now);
            let classes = self.classes.each_ref().map(|class| AdmissionClass {
                arrived: &class.arrived,
                open: !host_blocked && class.is_open(),
            });
            let view = ArbiterView {
                classes: &classes,
                background_pending: usize::from(gc_ready && !gc_throttled)
                    + self.ssd.maplog_pending(),
            };
            #[cfg(debug_assertions)]
            self.check_index_against_scan(now, &view, host_blocked, deferred_any);
            let ready_sources = view.ready_queues() + usize::from(view.background_ready());
            if ready_sources == 0 {
                let wake = if host_blocked {
                    // Queue full: the host blocks until the earliest
                    // in-flight command completes.
                    self.inflight.pop().map(|Reverse(complete_ns)| complete_ns)
                } else {
                    // Everything pending arrives in the future — except
                    // heads the admission control deferred, which wake
                    // when the earliest in-flight reclaim erase lands
                    // (the floor gate requires one) or when a
                    // best-effort slot frees (the slot cap requires a
                    // full best-effort in-flight set) — so a wake
                    // target always exists and past-arrival heads
                    // cannot spin.
                    let earliest_arrival = self
                        .future_heads
                        .peek()
                        .map(|&Reverse((arrival_ns, _))| arrival_ns);
                    let erase_wake = (deferred_any || gc_throttled)
                        .then(|| self.gc_inflight.peek().map(|&Reverse(t)| t))
                        .flatten();
                    let slot_wake = deferred_any
                        .then(|| self.be_inflight.peek().map(|&Reverse(t)| t))
                        .flatten();
                    [earliest_arrival, erase_wake, slot_wake]
                        .into_iter()
                        .flatten()
                        .min()
                };
                let Some(wake) = wake else {
                    return Err(self.stalled(now));
                };
                self.ssd.advance_to(wake);
                continue;
            }

            let mut source = self.arbiter.pick(&view);
            if !view.is_ready(source) {
                // A buggy policy degrades to FIFO, never wedges.
                let Some(first_ready) = view.ready_sources().next() else {
                    return Err(self.stalled(now));
                };
                source = first_ready;
            }
            // Read bursts are capped at the picked queue's fair share
            // of the free depth, so batching cannot turn per-command
            // arbitration into whole-queue-depth bursts while other
            // sources wait.
            match source {
                Source::Gc => {
                    // The internal background source: space reclamation
                    // first (it guards correctness, but respects the
                    // pacing limit, and runs only while collecting),
                    // then translation-log durability.
                    if gc_throttled || self.dispatch_gc()?.is_none() {
                        self.dispatch_maplog()?;
                    }
                }
                Source::Host(queue) => self.dispatch_host(queue, ready_sources)?,
            }
        }
    }

    /// The scheduler found work pending but nothing to dispatch and
    /// nothing to wait for.
    fn stalled(&self, now_ns: u64) -> SimError {
        SimError::DispatchStalled {
            now_ns,
            pending: self.host_pending,
        }
    }

    /// Dispatches the head command (or, for reads, the leading arrived
    /// read burst, capped at this queue's fair share of the free depth
    /// among `ready_sources` contenders) of host queue `queue`.
    fn dispatch_host(&mut self, queue: usize, ready_sources: usize) -> Result<(), SimError> {
        let Some(&(id, req)) = self.queues[queue].pending.front() else {
            // A ready bit for an empty queue: the index is broken.
            return Err(self.stalled(self.ssd.now_ns()));
        };
        let class = self.head_class(queue);
        if self.gc_mode == GcMode::Background && req.command.consumes_blocks() {
            self.enforce_hard_floor()?;
        }
        let now = self.ssd.now_ns();
        let free = self.queue_depth - self.inflight.len();
        let mut burst = (free / ready_sources.max(1)).max(1);
        // A best-effort read burst must not overshoot the class's slot
        // cap (the head itself was admitted, so at least one slot is
        // its to take).
        if class != HeadClass::Guaranteed {
            burst = burst
                .min(self.be_slot_cap.saturating_sub(self.be_inflight.len()))
                .max(1);
        }
        match req.command {
            Command::Read { .. } => {
                // Batch the queue's leading run of already-arrived
                // reads: a burst shares one dispatch point, so its
                // lookups and data reads overlap on the timelines.
                let mut batch = std::mem::take(&mut self.batch_scratch);
                let mut lpas = std::mem::take(&mut self.lpa_scratch);
                batch.clear();
                lpas.clear();
                while batch.len() < burst {
                    let Some(&(id, req)) = self.queues[queue].pending.front() else {
                        break;
                    };
                    let Command::Read { lpa } = req.command else {
                        break;
                    };
                    if req.arrival_ns > now {
                        break;
                    }
                    self.queues[queue].pending.pop_front();
                    batch.push((id, req));
                    lpas.push(lpa);
                }
                self.head_popped(queue, class, batch.len(), now);
                self.consume_budget(batch.len() as u64);
                let mut outcomes = std::mem::take(&mut self.outcome_scratch);
                outcomes.clear();
                outcomes.resize(batch.len(), (None, 0));
                self.ssd.service_read_batch(&lpas, &mut outcomes)?;
                for (&(id, req), &(data, complete_ns)) in batch.iter().zip(&outcomes) {
                    self.finish(id, queue, req, data, now, complete_ns);
                }
                self.batch_scratch = batch;
                self.lpa_scratch = lpas;
                self.outcome_scratch = outcomes;
            }
            Command::Write { lpa, content } => {
                self.queues[queue].pending.pop_front();
                self.head_popped(queue, class, 1, now);
                self.consume_budget(1);
                let complete_ns = self.ssd.service_write(lpa, content, self.gc_mode)?;
                self.finish(id, queue, req, None, now, complete_ns);
            }
            Command::Flush => {
                self.queues[queue].pending.pop_front();
                self.head_popped(queue, class, 1, now);
                self.consume_budget(1);
                let complete_ns = self.ssd.service_flush(self.gc_mode)?;
                self.finish(id, queue, req, None, now, complete_ns);
            }
            Command::GcMigrate { .. } | Command::MapLog { .. } => {
                // Submission rejects these, so one here means the
                // device put it there itself.
                return Err(SimError::BackgroundCommandInHostQueue { queue });
            }
        }
        Ok(())
    }

    fn finish(
        &mut self,
        id: u64,
        queue: usize,
        req: IoRequest,
        data: Option<u64>,
        dispatch_ns: u64,
        complete_ns: u64,
    ) {
        self.inflight.push(Reverse(complete_ns));
        // Dispatch happens at max(arrival, scheduler turn), so
        // dispatch_ns >= arrival_ns always holds here.
        debug_assert!(dispatch_ns >= req.arrival_ns);
        let gc_overlap = dispatch_ns < self.gc_busy_until;
        if let Some(qos) = self.qos.as_mut() {
            // The controller sees what the tenant sees: arrival to
            // completion, including queueing and admission deferral.
            qos.observe(
                queue,
                complete_ns.saturating_sub(req.arrival_ns),
                gc_overlap,
            );
            if qos.class(queue) == SloClass::BestEffort {
                self.be_inflight.push(Reverse(complete_ns));
            }
        }
        let name = match req.command {
            Command::Read { .. } => "read",
            Command::Write { .. } => "write",
            Command::Flush => "flush",
            // Background commands never reach a host queue (rejected
            // at submit), but a track name keeps the span valid if
            // that ever changes.
            Command::GcMigrate { .. } | Command::MapLog { .. } => "host",
        };
        let tracer = self.ssd.tracer_mut();
        if dispatch_ns > req.arrival_ns {
            tracer.queue_span(queue as u32, "wait", req.arrival_ns, dispatch_ns, Vec::new);
        }
        tracer.queue_span(queue as u32, name, dispatch_ns, complete_ns, || {
            vec![
                ("stream", ArgValue::U64(req.stream as u64)),
                ("gc_overlap", ArgValue::U64(gc_overlap as u64)),
            ]
        });
        self.completed.push(IoCompletion {
            id,
            queue: queue as u32,
            stream: req.stream,
            command: req.command,
            data,
            arrival_ns: req.arrival_ns,
            dispatch_ns,
            complete_ns,
            gc_overlap,
        });
    }
}

impl<S: MappingScheme + Clone> Drop for Device<'_, S> {
    fn drop(&mut self) {
        // Dropping undrained host commands silently discards work the
        // caller submitted — a bug in the caller. Internal GC/log
        // backlog is regenerable and exempt; so are devices whose last
        // dispatch already surfaced an error, and drops during a panic
        // unwind.
        debug_assert!(
            self.poisoned || std::thread::panicking() || self.host_pending == 0,
            "Device dropped with {} pending host commands — call drain() first",
            self.host_pending
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arbiter::{HostPriority, Weighted};
    use crate::config::{CheckpointMode, SsdConfig};
    use crate::request::IoKind;
    use leaftl_core::ExactPageMap;
    use leaftl_flash::{BlockId, Lpa};

    fn ssd() -> Ssd<ExactPageMap> {
        Ssd::new(SsdConfig::small_test(), ExactPageMap::new())
    }

    /// A config whose data cache is tiny, so reads actually hit flash.
    fn flashy_ssd() -> Ssd<ExactPageMap> {
        let mut config = SsdConfig::small_test();
        config.dram_bytes = 64 * 1024;
        Ssd::new(config, ExactPageMap::new())
    }

    #[test]
    fn deeper_queues_overlap_reads() {
        // Prefill flash-resident pages spread over many dies; the tiny
        // data cache cannot hold them, so the spread below misses DRAM.
        let mut shallow = flashy_ssd();
        for i in 0..256u64 {
            shallow.write(Lpa::new(i), i).unwrap();
        }
        shallow.flush().unwrap();
        let mut deep = shallow.clone();
        let spread: Vec<u64> = (0..64u64).map(|i| i * 4).collect();

        let t0 = shallow.now_ns();
        {
            let mut device = Device::new(&mut shallow, DeviceConfig::single(1));
            for &i in &spread {
                device.submit_read(Lpa::new(i)).unwrap();
            }
            device.drain().unwrap();
        }
        let serial_ns = shallow.now_ns() - t0;

        let t0 = deep.now_ns();
        {
            let mut device = Device::new(&mut deep, DeviceConfig::single(16));
            for &i in &spread {
                device.submit_read(Lpa::new(i)).unwrap();
            }
            device.drain().unwrap();
        }
        let overlapped_ns = deep.now_ns() - t0;
        assert!(
            overlapped_ns * 2 < serial_ns,
            "QD=16 ({overlapped_ns} ns) must beat QD=1 ({serial_ns} ns) by 2x+"
        );
        // Same work happened either way.
        assert_eq!(deep.stats().flash, shallow.stats().flash);
    }

    #[test]
    fn completions_can_retire_out_of_order() {
        let mut device_ssd = flashy_ssd();
        for i in 0..256u64 {
            device_ssd.write(Lpa::new(i), i).unwrap();
        }
        device_ssd.flush().unwrap();
        // Park a few pages in the write buffer: DRAM-fast reads.
        for i in 0..7u64 {
            device_ssd.write(Lpa::new(200 + i), 999).unwrap();
        }
        let mut device = Device::new(&mut device_ssd, DeviceConfig::single(8));
        // A flash miss (slow) submitted before the buffer hits (fast).
        device.submit_read(Lpa::new(132)).unwrap();
        for i in 0..7u64 {
            device.submit_read(Lpa::new(200 + i)).unwrap();
        }
        let completions = device.drain().unwrap();
        assert_eq!(completions.len(), 8);
        assert!(
            completions
                .windows(2)
                .all(|w| w[0].complete_ns <= w[1].complete_ns),
            "completions sorted by completion time"
        );
        // The first-submitted request (flash read) retires last.
        assert_eq!(completions.last().unwrap().id, 0);
        assert!(completions[0].id > 0);
    }

    #[test]
    fn arrival_timestamps_gate_dispatch() {
        let mut device_ssd = ssd();
        let mut device = Device::new(&mut device_ssd, DeviceConfig::single(4));
        device
            .submit_to(0, IoRequest::write(Lpa::new(1), 10).at(5_000_000))
            .unwrap();
        let completions = device.drain().unwrap();
        assert_eq!(completions[0].dispatch_ns, 5_000_000);
        assert!(completions[0].complete_ns >= 5_000_000);
    }

    #[test]
    fn out_of_order_arrivals_clamp_up_per_queue() {
        let mut device_ssd = ssd();
        let mut device = Device::new(&mut device_ssd, DeviceConfig::single(4));
        device
            .submit_to(0, IoRequest::write(Lpa::new(1), 10).at(5_000_000))
            .unwrap();
        // Submitted later but stamped earlier: FIFO order wins and the
        // timestamp is clamped up to the preceding arrival.
        device
            .submit_to(0, IoRequest::write(Lpa::new(2), 20).at(1_000_000))
            .unwrap();
        let mut completions = device.drain().unwrap();
        completions.sort_by_key(|c| c.id);
        assert_eq!(completions[0].arrival_ns, 5_000_000);
        assert_eq!(completions[1].arrival_ns, 5_000_000);
        assert!(completions[1].dispatch_ns >= completions[1].arrival_ns);
    }

    #[test]
    fn out_of_range_and_unknown_queue_rejected_at_submit() {
        let mut device_ssd = ssd();
        let beyond = Lpa::new(device_ssd.config().logical_pages());
        let mut device = Device::new(&mut device_ssd, DeviceConfig::new(2, 4));
        assert_eq!(
            device.submit_read(beyond),
            Err(SimError::LpaOutOfRange(beyond))
        );
        assert_eq!(
            device.submit_to(2, IoRequest::read(Lpa::new(0))),
            Err(SimError::UnknownQueue(2))
        );
        assert!(device.drain().unwrap().is_empty());
    }

    #[test]
    fn a_background_command_in_a_host_queue_is_an_error_not_a_panic() {
        let mut device_ssd = ssd();
        let mut device = Device::new(&mut device_ssd, DeviceConfig::new(2, 4));
        device.submit_write(Lpa::new(1), 1).unwrap();
        // What submission refuses, planted behind it.
        let mut stray = IoRequest::flush();
        stray.command = Command::MapLog { seq: 0 };
        device.queues[1].pending.push_back((99, stray));
        device.host_pending += 1;
        device.future_heads.push(Reverse((0, 1)));
        assert_eq!(
            device.drain(),
            Err(SimError::BackgroundCommandInHostQueue { queue: 1 })
        );
    }

    #[test]
    fn flush_command_drains_the_buffer() {
        let mut device_ssd = ssd();
        let mut device = Device::new(&mut device_ssd, DeviceConfig::single(4));
        for i in 0..5u64 {
            device.submit_write(Lpa::new(i), i + 1).unwrap();
        }
        device.submit_to(0, IoRequest::flush()).unwrap();
        let completions = device.drain().unwrap();
        assert_eq!(completions.len(), 6);
        drop(device);
        // The buffer was forced out: programs hit flash despite the
        // buffer holding fewer pages than a full flush batch.
        assert_eq!(device_ssd.stats().flash.data_programs, 5);
    }

    #[test]
    fn round_robin_interleaves_two_tenant_queues() {
        let mut device_ssd = flashy_ssd();
        for i in 0..512u64 {
            device_ssd.write(Lpa::new(i), i).unwrap();
        }
        device_ssd.flush().unwrap();
        let mut device = Device::new(&mut device_ssd, DeviceConfig::new(2, 2));
        for i in 0..8u64 {
            device
                .submit_to(0, IoRequest::read(Lpa::new(i * 4)).on_stream(0))
                .unwrap();
            device
                .submit_to(1, IoRequest::read(Lpa::new(256 + i * 4)).on_stream(1))
                .unwrap();
        }
        let completions = device.drain().unwrap();
        assert_eq!(completions.len(), 16);
        // Round-robin alternates queues: dispatch order (id order is
        // submission order; dispatch_ns is nondecreasing per queue)
        // serves both tenants rather than finishing one first.
        let first_half: Vec<u32> = {
            let mut by_dispatch = completions.clone();
            by_dispatch.sort_by_key(|c| (c.dispatch_ns, c.id));
            by_dispatch.iter().take(8).map(|c| c.queue).collect()
        };
        assert!(first_half.contains(&0) && first_half.contains(&1));
    }

    /// A small, heavily over-written device that forces GC.
    fn gc_pressured() -> Ssd<ExactPageMap> {
        let mut config = SsdConfig::small_test();
        config.op_ratio = 0.5;
        Ssd::new(config, ExactPageMap::new())
    }

    #[test]
    fn background_gc_collects_and_preserves_data() {
        let mut device_ssd = gc_pressured();
        let logical = device_ssd.config().logical_pages();
        {
            let mut device = Device::new(
                &mut device_ssd,
                DeviceConfig::single(8)
                    .background_gc()
                    .with_arbiter(Box::new(HostPriority::new())),
            );
            for round in 0..6u64 {
                for i in 0..logical {
                    device
                        .submit_write(Lpa::new(i), round * 10_000 + i)
                        .unwrap();
                }
            }
            let completions = device.drain().unwrap();
            assert!(device.gc_dispatched() > 0, "background GC must have run");
            // Migrations surface as GcMigrate completions on the
            // internal queue, one per dispatch.
            let migrations = completions
                .iter()
                .filter(|c| c.kind() == crate::request::IoKind::GcMigrate)
                .collect::<Vec<_>>();
            assert_eq!(migrations.len() as u64, device.gc_dispatched());
            assert!(migrations.iter().all(|c| c.queue == GC_QUEUE));
        }
        assert!(device_ssd.stats().gc_runs > 0);
        for i in (0..logical).step_by(13) {
            assert_eq!(
                device_ssd.read(Lpa::new(i)).unwrap(),
                Some(5 * 10_000 + i),
                "lpa {i}"
            );
        }
    }

    #[test]
    fn background_gc_mode_skips_watermark_gc_in_flush_path() {
        // Same workload, synchronous vs background: the synchronous run
        // collects inside the flush, the background run only when the
        // device dispatches migrations — both end with the same live
        // data.
        let mut sync_ssd = gc_pressured();
        let logical = sync_ssd.config().logical_pages();
        for round in 0..6u64 {
            for i in 0..logical {
                sync_ssd.write(Lpa::new(i), round * 10_000 + i).unwrap();
            }
        }
        assert!(sync_ssd.stats().gc_runs > 0);

        let mut bg_ssd = gc_pressured();
        {
            let mut device = Device::new(&mut bg_ssd, DeviceConfig::single(1).background_gc());
            for round in 0..6u64 {
                for i in 0..logical {
                    device
                        .submit_write(Lpa::new(i), round * 10_000 + i)
                        .unwrap();
                }
            }
            device.drain().unwrap();
        }
        for i in 0..logical {
            assert_eq!(
                bg_ssd.read(Lpa::new(i)).unwrap(),
                sync_ssd.read(Lpa::new(i)).unwrap(),
                "lpa {i}"
            );
        }
    }

    #[test]
    fn hard_floor_back_pressure_stalls_writes() {
        // A queue deep enough that one write backlog fills sixteen of
        // the 64 blocks: host-priority starves GC through it, so the
        // settled free fraction (erases actually landed) falls from the
        // low watermark (8 % of all blocks) to the floor (2 %) and
        // writes must stall on in-flight erases. At depth 128 a backlog
        // fills four blocks and GC keeps up.
        let mut config = SsdConfig::small_test();
        config.op_ratio = 0.5;
        let mut device_ssd = Ssd::new(config, ExactPageMap::new());
        let logical = device_ssd.config().logical_pages();
        let mut device = Device::new(
            &mut device_ssd,
            DeviceConfig::single(512)
                .background_gc()
                .with_arbiter(Box::new(HostPriority::new())),
        );
        for round in 0..8u64 {
            for i in 0..logical {
                device.submit_write(Lpa::new(i), round * 7 + i).unwrap();
            }
        }
        device.drain().unwrap();
        assert!(
            device.gc_stall_ns() > 0,
            "a write-saturated device must eventually hit the floor"
        );
    }

    /// A small-test device (64 blocks of 32 pages, one block per flush;
    /// GC starts below 3 free blocks and stops at 5) filled once in LPA
    /// order, then with its even LPAs overwritten from 0 up until one
    /// more flush crosses the low line: 18 blocks hold 16 valid pages,
    /// every other closed data block all 32 (under `FlashLog` the log
    /// holds blocks of its own), and no block was ever erased.
    fn aged_to_the_low_line(mode: CheckpointMode) -> Ssd<ExactPageMap> {
        let mut config = SsdConfig::small_test();
        config.checkpoint_mode = mode;
        let mut ssd = Ssd::new(config, ExactPageMap::new());
        let logical = ssd.config().logical_pages();
        for lpa in 0..logical {
            ssd.write(Lpa::new(lpa), lpa).unwrap();
        }
        ssd.flush().unwrap();
        let block = 1.0 / ssd.config().geometry.blocks as f64;
        let mut even = (0..logical).step_by(2);
        while ssd.free_fraction() - block >= ssd.gc_watermarks().low {
            for lpa in even.by_ref().take(32) {
                ssd.write(Lpa::new(lpa), lpa + 1).unwrap();
            }
        }
        assert!(ssd.free_fraction() >= ssd.gc_watermarks().low);
        assert_eq!(ssd.stats().flash.erases, 0);
        ssd
    }

    /// Dispatches one command and returns what it retired — one
    /// completion, or one [`Command::GcMigrate`] per pass of a
    /// background collection, all dispatched together — or nothing
    /// once nothing is pending. A collection counts one dispatch per
    /// pass and runs whole, so a budget of one halts the device after
    /// it.
    fn step<S: MappingScheme + Clone>(device: &mut Device<'_, S>) -> Vec<IoCompletion> {
        device.halt_after_dispatches(1);
        let completions = device.drain().unwrap();
        let one_collection = completions.iter().all(|completion| {
            completion.kind() == IoKind::GcMigrate
                && completion.dispatch_ns == completions[0].dispatch_ns
        });
        assert!(completions.len() <= 1 || one_collection, "{completions:?}");
        completions
    }

    /// Steps `device` until nothing is pending, checking every dispatch
    /// against the collector's rule: collection starts when the free
    /// fraction falls below the low line and stops once it is back at
    /// the high one, a collection dispatches only while collecting and
    /// runs to the high line, and the background source serves a log
    /// op only while not collecting (the devices
    /// here always hold a collectable block and pace no migration).
    /// Returns the retired kinds in order, one per pass of a
    /// collection.
    fn run_checking_the_rule<S: MappingScheme + Clone>(device: &mut Device<'_, S>) -> Vec<IoKind> {
        let lines = device.ssd().gc_watermarks();
        let mut collecting = false;
        let mut kinds = Vec::new();
        loop {
            let free = device.ssd().free_fraction();
            if free < lines.low {
                collecting = true;
            } else if free >= lines.high {
                collecting = false;
            }
            let completions = step(device);
            if completions.is_empty() {
                break;
            }
            for completion in completions {
                let kind = completion.kind();
                match kind {
                    IoKind::GcMigrate => assert!(
                        collecting,
                        "migration {} dispatched at free fraction {free} after collection stopped",
                        kinds.len()
                    ),
                    IoKind::MapLog => assert!(
                        !collecting,
                        "{kind:?} {} took the background turn at free fraction {free} while collecting",
                        kinds.len()
                    ),
                    IoKind::Read | IoKind::Write | IoKind::Flush => {}
                }
                kinds.push(kind);
            }
            if kinds.last() == Some(&IoKind::GcMigrate) {
                let after = device.ssd().free_fraction();
                assert!(
                    after >= lines.high,
                    "a collection from free fraction {free} stopped at {after}, below {}",
                    lines.high
                );
            }
        }
        device.halt_after_dispatches(u64::MAX);
        kinds
    }

    /// Each migration takes the block that is emptiest when it
    /// dispatches: a block that was fully valid when the device crossed
    /// the low line, and was overwritten whole before the first
    /// migration ran, is that migration's victim.
    #[test]
    fn a_migration_takes_the_block_that_is_emptiest_when_it_dispatches() {
        let mut ssd = aged_to_the_low_line(CheckpointMode::DramSnapshot);
        let blocks = ssd.config().geometry.blocks;
        let holds = |ssd: &Ssd<ExactPageMap>, lpa: u64| {
            (0..blocks).map(BlockId::new).find(|&block| {
                ssd.device()
                    .scan_block(block)
                    .any(|(_, owner, _)| owner == Some(Lpa::new(lpa)))
            })
        };
        // LPA 1000 was written once: its block is closed and fully valid.
        let emptied = holds(&ssd, 1000).unwrap();
        let lpas: Vec<u64> = ssd
            .device()
            .scan_block(emptied)
            .map(|(_, owner, _)| owner.unwrap().raw())
            .collect();
        assert_eq!(lpas.len(), 32);
        {
            // Host commands first: the flush that crosses the low line,
            // 32 odd LPAs of the blocks after the overwritten ones, and
            // then the whole of `emptied`, before any migration.
            let mut device = Device::new(
                &mut ssd,
                DeviceConfig::single(256)
                    .background_gc()
                    .with_arbiter(Box::new(HostPriority::new())),
            );
            for lpa in (577..).step_by(2).take(32).chain(lpas.iter().copied()) {
                device
                    .enqueue_to(0, IoRequest::write(Lpa::new(lpa), 7))
                    .unwrap();
            }
            let first = device
                .drain()
                .unwrap()
                .into_iter()
                .filter(|completion| completion.kind() == IoKind::GcMigrate)
                .min_by_key(|completion| completion.id)
                .unwrap();
            assert_eq!(first.command, Command::GcMigrate { victim: emptied });
        }
        assert_eq!(ssd.check_invariants(), Vec::<String>::new());
    }

    /// Migrations dispatch only after the free fraction drops below the
    /// low line, and run until it is back at the high one: a device
    /// sitting on the low line with collectable blocks migrates
    /// nothing, and one flush below it collects to the high line.
    #[test]
    fn background_gc_starts_below_the_low_line_and_stops_at_the_high_one() {
        let mut ssd = aged_to_the_low_line(CheckpointMode::DramSnapshot);
        let lines = ssd.gc_watermarks();
        let mut device = Device::new(&mut ssd, DeviceConfig::single(8).background_gc());
        // 31 writes fill the buffer short of a flush: on the line, not
        // below it.
        for lpa in (577..).step_by(2).take(31) {
            device
                .enqueue_to(0, IoRequest::write(Lpa::new(lpa), 7))
                .unwrap();
        }
        let kinds = run_checking_the_rule(&mut device);
        assert_eq!(kinds, [IoKind::Write; 31]);
        assert!(device.ssd().free_fraction() < lines.high);
        // The 32nd flushes one block and crosses the line.
        device
            .enqueue_to(0, IoRequest::write(Lpa::new(639), 7))
            .unwrap();
        let kinds = run_checking_the_rule(&mut device);
        let migrations = kinds
            .iter()
            .filter(|&&kind| kind == IoKind::GcMigrate)
            .count();
        assert!(migrations >= 2, "{kinds:?}");
        assert_eq!(migrations as u64, device.gc_dispatched());
        let free = device.ssd().free_fraction();
        assert!(
            free >= lines.high,
            "collection stopped at {free}, below {}",
            lines.high
        );
    }

    /// With collection off, the background source's turns go to the
    /// translation log and no migration rides along: under `FlashLog`
    /// every migration journals a delta, so log ops are pending when
    /// collection stops, and the log's own programs may take the free
    /// fraction back under the high line (but not the low one) while
    /// collectable blocks remain.
    #[test]
    fn log_ops_with_collection_off_dispatch_no_migration() {
        let mut ssd = aged_to_the_low_line(CheckpointMode::FlashLog);
        let mut device = Device::new(&mut ssd, DeviceConfig::single(8).background_gc());
        for lpa in (577..).step_by(2).take(96) {
            device
                .enqueue_to(0, IoRequest::write(Lpa::new(lpa), 7))
                .unwrap();
        }
        let kinds = run_checking_the_rule(&mut device);
        let last_migration = kinds.iter().rposition(|&kind| kind == IoKind::GcMigrate);
        let log_ops_after = kinds[last_migration.unwrap()..]
            .iter()
            .filter(|&&kind| kind == IoKind::MapLog)
            .count();
        assert!(log_ops_after >= 1, "{kinds:?}");
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "pending host commands")]
    fn dropping_undrained_device_asserts_in_debug() {
        let mut device_ssd = ssd();
        let mut device = Device::new(&mut device_ssd, DeviceConfig::single(8));
        device.submit_write(Lpa::new(0), 1).unwrap();
        drop(device);
    }

    #[test]
    fn qos_admission_defers_best_effort_near_the_floor() {
        use crate::qos::{QosSpec, Slo};
        // A device filled to the least over-provisioning the GC
        // watermarks allow and a deep queue, with a QoS controller: the
        // settled free fraction comes within the admission margin of
        // the floor, and the best-effort flood gets deferred at the
        // admission gate while the guaranteed tenant's queue never is.
        let mut config = SsdConfig::small_test();
        config.op_ratio = 0.13;
        let mut device_ssd = Ssd::new(config, ExactPageMap::new());
        let logical = device_ssd.config().logical_pages();
        let mut device = Device::new(
            &mut device_ssd,
            DeviceConfig::new(2, 128)
                .background_gc()
                .with_arbiter(Box::new(Weighted::new(vec![8, 8], 1)))
                .with_qos(QosSpec::new(vec![
                    Slo::guaranteed(1e9), // generous: class is what matters here
                    Slo::best_effort(),
                ])),
        );
        for round in 0..8u64 {
            for i in 0..logical {
                device
                    .submit_to(1, IoRequest::write(Lpa::new(i), round * 7 + i).on_stream(1))
                    .unwrap();
                if i % 64 == 0 {
                    device
                        .submit_to(0, IoRequest::write(Lpa::new(i), round).on_stream(0))
                        .unwrap();
                }
            }
        }
        device.drain().unwrap();
        assert!(
            device.admission_wait_ns() > 0,
            "a write-saturated best-effort tenant must hit the admission gate"
        );
        assert_eq!(
            device.admission_wait_per_queue()[0],
            0,
            "guaranteed tenants are never admission-deferred"
        );
        assert_eq!(
            device.admission_wait_per_queue()[1],
            device.admission_wait_ns()
        );
        assert!(!device.qos_ticks().is_empty(), "control ticks must run");
    }

    #[test]
    fn qos_slot_reserve_caps_best_effort_inflight() {
        use crate::qos::{QosControllerConfig, QosSpec, Slo};
        // Depth 8 with the whole depth reserved for guaranteed slots:
        // the best-effort cap floors at one, so a best-effort flood is
        // serialised — observable through the public in-flight count,
        // since nothing else is dispatching. The flood must be *reads*:
        // buffered writes complete synchronously (the clock advances
        // inside the service call), so their deferral windows open and
        // close at the same instant and accrue no wait.
        let mut device_ssd = Ssd::new(SsdConfig::small_test(), ExactPageMap::new());
        let logical = device_ssd.config().logical_pages();
        let mut device = Device::new(
            &mut device_ssd,
            DeviceConfig::new(1, 8).background_gc().with_qos(
                QosSpec::new(vec![Slo::best_effort()]).with_controller(QosControllerConfig {
                    guaranteed_slot_reserve: 8,
                    ..QosControllerConfig::default()
                }),
            ),
        );
        for i in 0..logical {
            device.submit_write(Lpa::new(i), i).unwrap();
        }
        device.drain().unwrap();
        // First read of each page is a flash miss with a completion
        // deadline in the future, so the second head of every pumped
        // batch waits for the lone best-effort slot to free.
        for i in 0..logical {
            device.submit_read(Lpa::new(i)).unwrap();
            assert!(
                device.in_flight() <= 1,
                "best-effort in-flight must stay at the one-slot cap"
            );
        }
        device.drain().unwrap();
        assert!(
            device.admission_wait_ns() > 0,
            "a capped best-effort read flood accrues admission wait"
        );
    }

    #[test]
    fn qos_disabled_device_reports_no_admission_wait_or_ticks() {
        let mut device_ssd = gc_pressured();
        let logical = device_ssd.config().logical_pages();
        let mut device = Device::new(&mut device_ssd, DeviceConfig::new(2, 16).background_gc());
        for round in 0..4u64 {
            for i in 0..logical {
                device.submit_write(Lpa::new(i), round + i).unwrap();
            }
        }
        device.drain().unwrap();
        assert_eq!(device.admission_wait_ns(), 0);
        assert!(device.qos_ticks().is_empty());
    }

    /// A [`Weighted`] arbiter that logs every `set_weight` call with
    /// the number of picks made before it.
    #[derive(Debug)]
    struct Counting {
        inner: Weighted,
        picks: u64,
        set_weights: std::rc::Rc<std::cell::RefCell<Vec<(usize, u32, u64)>>>,
    }

    impl Arbiter for Counting {
        fn pick(&mut self, view: &ArbiterView<'_>) -> Source {
            self.picks += 1;
            self.inner.pick(view)
        }

        fn name(&self) -> &'static str {
            "counting"
        }

        fn set_weight(&mut self, queue: usize, weight: u32) {
            self.set_weights
                .borrow_mut()
                .push((queue, weight, self.picks));
            self.inner.set_weight(queue, weight);
        }
    }

    #[test]
    fn qos_sets_the_base_weight_once_per_queue_before_the_first_pick() {
        use crate::qos::{QosControllerConfig, QosSpec, Slo};
        let queues = 3;
        let set_weights = std::rc::Rc::default();
        let arbiter = Counting {
            inner: Weighted::new(vec![1; queues], 1),
            picks: 0,
            set_weights: std::rc::Rc::clone(&set_weights),
        };
        let mut device_ssd = gc_pressured();
        let logical = device_ssd.config().logical_pages();
        let mut device = Device::new(
            &mut device_ssd,
            DeviceConfig::new(queues, 16)
                .background_gc()
                .with_arbiter(Box::new(arbiter))
                .with_qos(
                    QosSpec::new(vec![Slo::guaranteed(100.0), Slo::best_effort()]).with_controller(
                        QosControllerConfig {
                            control_interval_ns: 200_000,
                            ..QosControllerConfig::default()
                        },
                    ),
                ),
        );
        for i in 0..logical {
            let queue = (i % queues as u64) as usize;
            let request = if queue == 0 {
                IoRequest::read(Lpa::new(i))
            } else {
                IoRequest::write(Lpa::new(i), i)
            };
            device
                .enqueue_to(queue, request.at(i * 20_000).on_stream(queue as u32))
                .unwrap();
        }
        device.drain().unwrap();
        assert!(device.qos_ticks().len() > 1, "control ticks must run");
        // One call per host queue, all before the first pick, and none
        // from a control tick.
        let expected: Vec<(usize, u32, u64)> = (0..queues)
            .map(|queue| (queue, QosController::BASE_WEIGHT, 0))
            .collect();
        assert_eq!(*set_weights.borrow(), expected);
    }

    /// An arbiter that always names a source without dispatchable work.
    #[derive(Debug)]
    struct Stubborn;

    impl Arbiter for Stubborn {
        fn pick(&mut self, view: &ArbiterView<'_>) -> Source {
            Source::Host(view.queues())
        }

        fn name(&self) -> &'static str {
            "stubborn"
        }
    }

    #[test]
    fn non_ready_pick_degrades_to_the_first_ready_source() {
        let mut device_ssd = ssd();
        let mut device = Device::new(
            &mut device_ssd,
            DeviceConfig::new(3, 1).with_arbiter(Box::new(Stubborn)),
        );
        for queue in [2, 1, 2, 1] {
            device
                .enqueue_to(queue, IoRequest::write(Lpa::new(queue as u64), 7))
                .unwrap();
        }
        let mut completions = device.drain().unwrap();
        completions.sort_by_key(|c| (c.dispatch_ns, c.id));
        // FIFO over sources: the lowest ready queue drains first.
        let order: Vec<u32> = completions.iter().map(|c| c.queue).collect();
        assert_eq!(order, vec![1, 1, 2, 2]);
    }

    #[test]
    fn wedged_scheduler_is_an_error_not_a_panic() {
        let mut device_ssd = ssd();
        let mut device = Device::new(&mut device_ssd, DeviceConfig::single(4));
        device
            .enqueue_to(0, IoRequest::write(Lpa::new(0), 1))
            .unwrap();
        // Break a scheduling assumption from inside the module: a
        // zero depth blocks the host with nothing in flight to wait
        // for.
        device.queue_depth = 0;
        assert!(matches!(
            device.drain(),
            Err(SimError::DispatchStalled { pending: 1, .. })
        ));
        // The failed run poisoned the device: dropping it with the
        // command still queued does not trip the undrained assert.
        assert!(device.poisoned);
    }

    #[test]
    fn weighted_arbitration_biases_queue_service() {
        let mut device_ssd = flashy_ssd();
        for i in 0..512u64 {
            device_ssd.write(Lpa::new(i), i).unwrap();
        }
        device_ssd.flush().unwrap();
        let mut device = Device::new(
            &mut device_ssd,
            // Submission-side depth high enough that both queues fill
            // before any dispatch happens.
            DeviceConfig::new(2, 64).with_arbiter(Box::new(Weighted::new(vec![3, 1], 1))),
        );
        for i in 0..12u64 {
            device
                .submit_to(0, IoRequest::read(Lpa::new(i * 8)).on_stream(0))
                .unwrap();
            device
                .submit_to(1, IoRequest::read(Lpa::new(256 + i * 8)).on_stream(1))
                .unwrap();
        }
        // Serve one command at a time so dispatch times expose the
        // arbiter's pick order (in-module test: tighten the depth).
        device.queue_depth = 1;
        let completions = device.drain().unwrap();
        let mut by_dispatch = completions;
        by_dispatch.sort_by_key(|c| (c.dispatch_ns, c.id));
        // In the first 8 dispatches the 3:1 queue gets ~3x the turns.
        let head_q0 = by_dispatch.iter().take(8).filter(|c| c.queue == 0).count();
        assert!(
            head_q0 >= 5,
            "weighted queue got only {head_q0}/8 early turns"
        );
    }
}
