//! QoS control plane: SLO classes, admission control and GC pacing
//! for 1000+-tenant devices.
//!
//! Each host submission queue carries an [`Slo`] — a p99 latency
//! budget plus a service class — and a [`QosController`] owned by the
//! [`crate::Device`] turns the classes into three mechanisms:
//!
//! * **base weight**: when the device is built, every host queue's
//!   arbiter weight is set once to [`QosController::BASE_WEIGHT`], so
//!   a [`crate::Weighted`] arbiter built with unit weights gives
//!   background GC (weight 1) a small share of the picks;
//! * **admission control**: [`SloClass::BestEffort`] commands may hold
//!   at most `queue_depth - guaranteed_slot_reserve` in-flight slots
//!   ([`QosControllerConfig::guaranteed_slot_reserve`]), and while the
//!   settled free fraction is within
//!   [`QosControllerConfig::admission_margin`] of the GC hard floor
//!   (2 % of all blocks free, see [`crate::GcMode`]) their
//!   block-consuming commands are deferred instead of letting the
//!   floor's forced stalls block guaranteed tenants; the deferred time
//!   is surfaced per queue as `admission_wait_ns` (see
//!   [`crate::Device::admission_wait_ns`]);
//! * **GC pacing**: at most [`QosControllerConfig::gc_pacing_limit`]
//!   background migrations are in flight at once: a background
//!   collection stops at the limit minus the erases in flight.
//!
//! At every control interval (on the device timeline) the controller
//! logs a [`QosTick`]: each guaranteed queue's window p99 against its
//! budget, the best-effort window, and the device's `gc_overlap`,
//! `gc_stall_ns` and `translation_stall_ns` interference attribution.
//! The log is observation only; nothing is retuned from it.
//!
//! Everything here is opt-in: a device without a [`QosSpec`] behaves
//! exactly as before (the QD=1 cycle-exactness proptests pin this).

use crate::stats::LatencyHistogram;
use serde::{Deserialize, Serialize};

/// Service class of a tenant/queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SloClass {
    /// Never admission-deferred, and the only class that may use the
    /// reserved in-flight slots; its window p99 is logged against its
    /// budget at every control tick.
    Guaranteed,
    /// Served from the residual bandwidth: held to the best-effort
    /// slot cap, and block-consuming commands are deferred near the GC
    /// hard floor.
    BestEffort,
}

/// A per-tenant service-level objective attached to a submission
/// queue.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Slo {
    /// 99th-percentile arrival→complete latency budget in
    /// microseconds. Best-effort tenants conventionally carry
    /// `f64::INFINITY`.
    pub p99_budget_us: f64,
    /// Service class.
    pub class: SloClass,
}

impl Slo {
    /// A guaranteed-class SLO with the given p99 budget.
    pub fn guaranteed(p99_budget_us: f64) -> Self {
        Slo {
            p99_budget_us,
            class: SloClass::Guaranteed,
        }
    }

    /// A best-effort tenant (no latency budget).
    pub fn best_effort() -> Self {
        Slo {
            p99_budget_us: f64::INFINITY,
            class: SloClass::BestEffort,
        }
    }

    /// The budget in nanoseconds (saturating; infinite for
    /// best-effort).
    pub fn budget_ns(&self) -> f64 {
        self.p99_budget_us * 1000.0
    }
}

impl Default for Slo {
    fn default() -> Self {
        Slo::best_effort()
    }
}

/// Tuning of the control plane. The base weight is fixed
/// ([`QosController::BASE_WEIGHT`]); what is set here is how often a
/// tick is logged, and how hard best-effort work and GC are held back.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QosControllerConfig {
    /// Virtual time between control ticks.
    pub control_interval_ns: u64,
    /// Admission-throttling margin above the GC hard floor: while the
    /// settled free fraction is below the hard floor (2 % of all
    /// blocks) plus `admission_margin` (and migrations are in flight),
    /// best-effort block-consuming commands are deferred.
    pub admission_margin: f64,
    /// In-flight slots reserved for guaranteed-class commands:
    /// best-effort commands may hold at most `queue_depth -
    /// guaranteed_slot_reserve` slots (floored at one, so best-effort
    /// is throttled, never starved). Without the reservation a burst
    /// of best-effort writes stacked behind a long migrate+erase round
    /// can occupy every slot with far-future completions, freezing
    /// *all* dispatch — including guaranteed reads no pick order could
    /// otherwise rescue — until the round ends.
    pub guaranteed_slot_reserve: u32,
    /// GC pacing: maximum concurrent in-flight background migrations
    /// while the controller is active (`0` disables pacing): a
    /// background GC dispatch runs a collection of at most this many
    /// passes minus the erases in flight, and none dispatches while
    /// that is zero. Without it, one dispatch collects from the low
    /// line to the high one, occupying every die for the better part
    /// of a second — a "mega-round" during which any guaranteed read
    /// lands behind the round on its die and inherits hundreds of
    /// milliseconds of service time no arbitration weight can remove.
    /// Pacing trickles the same reclaim through a few dies at a time;
    /// the hard floor (plus admission throttling at the margin) still
    /// backstops space safety if reclaim falls behind.
    pub gc_pacing_limit: usize,
}

impl Default for QosControllerConfig {
    fn default() -> Self {
        QosControllerConfig {
            control_interval_ns: 10_000_000, // 10 ms
            admission_margin: 0.04,
            guaranteed_slot_reserve: 8,
            gc_pacing_limit: 2,
        }
    }
}

/// The complete QoS configuration handed to
/// [`crate::DeviceConfig::with_qos`]: one [`Slo`] per host queue plus
/// the controller tuning.
#[derive(Debug, Clone)]
pub struct QosSpec {
    /// Per-queue SLOs, indexed by submission queue. Queues beyond the
    /// vector default to best-effort.
    pub slos: Vec<Slo>,
    /// Control-loop tuning.
    pub controller: QosControllerConfig,
}

impl QosSpec {
    /// A spec with the default controller tuning.
    pub fn new(slos: Vec<Slo>) -> Self {
        QosSpec {
            slos,
            controller: QosControllerConfig::default(),
        }
    }

    /// Replaces the controller tuning.
    pub fn with_controller(mut self, controller: QosControllerConfig) -> Self {
        self.controller = controller;
        self
    }
}

/// One guaranteed queue's state at a control tick (observability for
/// experiments and tests).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QueueTick {
    /// Submission queue index.
    pub queue: usize,
    /// Window completions.
    pub samples: u64,
    /// Window p99 in microseconds (0 for an empty window).
    pub p99_us: f64,
    /// Relative p99-vs-budget error (positive = over budget; 0 for an
    /// empty window).
    pub error: f64,
}

/// Snapshot of one control tick.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QosTick {
    /// Device time of the tick.
    pub at_ns: u64,
    /// Worst relative error across measurable guaranteed queues this
    /// window (negative when everyone is under budget; 0.0 when no
    /// guaranteed queue completed anything).
    pub worst_error: f64,
    /// `gc_stall_ns` accumulated since the previous tick.
    pub gc_stall_delta_ns: u64,
    /// `translation_stall_ns` accumulated since the previous tick.
    pub translation_stall_delta_ns: u64,
    /// Settled free fraction at the tick.
    pub settled_free_fraction: f64,
    /// Guaranteed-class completions whose dispatch overlapped an
    /// in-flight GC migration, this window.
    pub guaranteed_gc_overlap: u64,
    /// Best-effort-class completions that overlapped GC, this window.
    pub best_effort_gc_overlap: u64,
    /// Best-effort completions this window.
    pub best_effort_samples: u64,
    /// Per-guaranteed-queue detail.
    pub guaranteed: Vec<QueueTick>,
}

/// The control plane's state. Owned by a [`crate::Device`] when its
/// config carries a [`QosSpec`]: it answers the device's class, slot
/// and pacing questions and keeps the control-tick log.
#[derive(Debug)]
pub struct QosController {
    cfg: QosControllerConfig,
    /// Per-queue SLO (padded to the device's queue count).
    slos: Vec<Slo>,
    /// Guaranteed queues in index order; position = window index.
    guaranteed: Vec<usize>,
    /// `queue → position in self.guaranteed` (usize::MAX for
    /// best-effort).
    guaranteed_idx: Vec<usize>,
    /// Per-guaranteed-queue completion window since the last tick.
    windows: Vec<LatencyHistogram>,
    /// Per-guaranteed-queue gc-overlapped completions in the window.
    window_gc_overlap: Vec<u64>,
    /// Aggregate best-effort completion window.
    be_window: LatencyHistogram,
    /// Best-effort completions in the window that overlapped GC.
    be_window_gc_overlap: u64,
    next_tick_ns: u64,
    last_gc_stall_ns: u64,
    last_translation_stall_ns: u64,
    ticks: Vec<QosTick>,
}

impl QosController {
    /// The arbiter weight the device gives every host queue once, at
    /// construction (background GC keeps the arbiter's own weight).
    pub const BASE_WEIGHT: u32 = 8;

    /// Builds a controller for a device with `queues` host queues.
    pub fn new(spec: QosSpec, queues: usize) -> Self {
        let mut slos = spec.slos;
        slos.resize(queues, Slo::best_effort());
        slos.truncate(queues);
        let guaranteed: Vec<usize> = (0..queues)
            .filter(|&q| slos[q].class == SloClass::Guaranteed)
            .collect();
        let mut guaranteed_idx = vec![usize::MAX; queues];
        for (i, &q) in guaranteed.iter().enumerate() {
            guaranteed_idx[q] = i;
        }
        let cfg = spec.controller;
        QosController {
            windows: vec![LatencyHistogram::new(); guaranteed.len()],
            window_gc_overlap: vec![0; guaranteed.len()],
            be_window: LatencyHistogram::new(),
            be_window_gc_overlap: 0,
            next_tick_ns: 0,
            last_gc_stall_ns: 0,
            last_translation_stall_ns: 0,
            ticks: Vec::new(),
            slos,
            guaranteed,
            guaranteed_idx,
            cfg,
        }
    }

    /// The service class of queue `queue`.
    pub fn class(&self, queue: usize) -> SloClass {
        self.slos
            .get(queue)
            .map_or(SloClass::BestEffort, |slo| slo.class)
    }

    /// The configured admission-throttling margin above the hard
    /// floor.
    pub fn admission_margin(&self) -> f64 {
        self.cfg.admission_margin
    }

    /// In-flight slots reserved for guaranteed-class commands.
    pub fn guaranteed_slot_reserve(&self) -> u32 {
        self.cfg.guaranteed_slot_reserve
    }

    /// Maximum concurrent in-flight background migrations (`0` =
    /// unpaced).
    pub fn gc_pacing_limit(&self) -> usize {
        self.cfg.gc_pacing_limit
    }

    /// The control interval.
    pub fn control_interval_ns(&self) -> u64 {
        self.cfg.control_interval_ns
    }

    /// Whether a control tick is due at device time `now`.
    pub fn due(&self, now_ns: u64) -> bool {
        now_ns >= self.next_tick_ns
    }

    /// Records one host completion into the current window.
    pub fn observe(&mut self, queue: usize, latency_ns: u64, gc_overlap: bool) {
        match self.guaranteed_idx.get(queue).copied() {
            Some(idx) if idx != usize::MAX => {
                self.windows[idx].record(latency_ns);
                if gc_overlap {
                    self.window_gc_overlap[idx] += 1;
                }
            }
            _ => {
                self.be_window.record(latency_ns);
                if gc_overlap {
                    self.be_window_gc_overlap += 1;
                }
            }
        }
    }

    /// Runs one control tick at device time `now_ns`: logs every
    /// guaranteed queue's window p99 against its budget, the
    /// best-effort window and the stall deltas since the previous
    /// tick, then resets the windows.
    pub fn tick(
        &mut self,
        now_ns: u64,
        gc_stall_ns: u64,
        translation_stall_ns: u64,
        settled_free_fraction: f64,
    ) {
        let gc_stall_delta = gc_stall_ns.saturating_sub(self.last_gc_stall_ns);
        let translation_stall_delta =
            translation_stall_ns.saturating_sub(self.last_translation_stall_ns);
        self.last_gc_stall_ns = gc_stall_ns;
        self.last_translation_stall_ns = translation_stall_ns;

        let mut worst_error: Option<f64> = None;
        let mut guaranteed_overlap = 0u64;
        let mut detail = Vec::with_capacity(self.guaranteed.len());
        for (idx, &queue) in self.guaranteed.iter().enumerate() {
            let samples = self.windows[idx].count();
            guaranteed_overlap += self.window_gc_overlap[idx];
            let budget_ns = self.slos[queue].budget_ns();
            let mut error = 0.0;
            let mut p99_us = 0.0;
            if samples > 0 && budget_ns.is_finite() && budget_ns > 0.0 {
                let p99 = self.windows[idx].percentile_ns(99.0) as f64;
                p99_us = p99 / 1000.0;
                error = (p99 - budget_ns) / budget_ns;
                worst_error = Some(worst_error.map_or(error, |worst| worst.max(error)));
            }
            detail.push(QueueTick {
                queue,
                samples,
                p99_us,
                error,
            });
        }

        self.ticks.push(QosTick {
            at_ns: now_ns,
            worst_error: worst_error.unwrap_or(0.0),
            gc_stall_delta_ns: gc_stall_delta,
            translation_stall_delta_ns: translation_stall_delta,
            settled_free_fraction,
            guaranteed_gc_overlap: guaranteed_overlap,
            best_effort_gc_overlap: self.be_window_gc_overlap,
            best_effort_samples: self.be_window.count(),
            guaranteed: detail,
        });

        for window in &mut self.windows {
            *window = LatencyHistogram::new();
        }
        self.window_gc_overlap.iter_mut().for_each(|c| *c = 0);
        self.be_window = LatencyHistogram::new();
        self.be_window_gc_overlap = 0;
        self.next_tick_ns = now_ns + self.cfg.control_interval_ns.max(1);
    }

    /// The control-tick log (observability for experiments and tests).
    pub fn ticks(&self) -> &[QosTick] {
        &self.ticks
    }

    /// The most recent control tick, if any (the device's trace layer
    /// stamps its `qos_tick` instant events from this).
    pub fn last_tick(&self) -> Option<&QosTick> {
        self.ticks.last()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(slos: Vec<Slo>) -> QosSpec {
        QosSpec::new(slos).with_controller(QosControllerConfig {
            control_interval_ns: 1_000_000,
            admission_margin: 0.04,
            guaranteed_slot_reserve: 8,
            gc_pacing_limit: 2,
        })
    }

    #[test]
    fn windows_reset_and_ticks_log() {
        let mut c = QosController::new(spec(vec![Slo::guaranteed(100.0), Slo::best_effort()]), 2);
        for _ in 0..8 {
            c.observe(0, 1_000, true);
            c.observe(1, 2_000, true);
        }
        assert!(c.due(0));
        c.tick(1_000_000, 0, 0, 0.5);
        assert!(!c.due(1_500_000));
        assert!(c.due(2_000_000));
        let tick = &c.ticks()[0];
        assert_eq!(tick.guaranteed[0].samples, 8);
        assert_eq!(tick.guaranteed_gc_overlap, 8);
        assert_eq!(tick.best_effort_samples, 8);
        assert_eq!(tick.best_effort_gc_overlap, 8);
        // Window cleared: an immediate second tick sees zero samples,
        // reports no error, and carries the stall accrued since the
        // first.
        c.tick(2_000_000, 500_000, 0, 0.05);
        let tick = &c.ticks()[1];
        assert_eq!(tick.guaranteed[0].samples, 0);
        assert_eq!(tick.gc_stall_delta_ns, 500_000);
        assert_eq!(tick.worst_error, 0.0);
        // Two completions are a window: a 400 µs p99 against the
        // 100 µs budget is three budgets over.
        c.observe(0, 400_000, false);
        c.observe(0, 400_000, false);
        c.tick(3_000_000, 500_000, 0, 0.5);
        let tick = &c.ticks()[2];
        assert_eq!(tick.guaranteed[0].samples, 2);
        assert_eq!(tick.guaranteed[0].p99_us, 400.0);
        assert_eq!(tick.guaranteed[0].error, 3.0);
        assert_eq!(tick.worst_error, 3.0);
        assert_eq!(tick.gc_stall_delta_ns, 0);
    }

    #[test]
    fn slos_pad_to_queue_count() {
        let c = QosController::new(QosSpec::new(vec![Slo::guaranteed(50.0)]), 3);
        assert_eq!(c.class(0), SloClass::Guaranteed);
        assert_eq!(c.class(1), SloClass::BestEffort);
        assert_eq!(c.class(2), SloClass::BestEffort);
        // Out-of-range queues read as best-effort rather than panicking.
        assert_eq!(c.class(99), SloClass::BestEffort);
    }
}
