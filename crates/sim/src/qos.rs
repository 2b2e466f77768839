//! Closed-loop QoS control plane: SLO-driven arbitration for
//! 1000+-tenant devices.
//!
//! Static arbiter weights (the [`crate::Weighted`] policy) answer *who
//! goes next* but not *how much is enough*: a tenant's p99 depends on
//! every other tenant's load, on background GC, and on translation
//! traffic, none of which a construction-time weight vector can see.
//! This module closes the loop. Each host submission queue carries an
//! [`Slo`] — a p99 latency budget plus a service class — and a
//! [`QosController`] runs *on the device timeline* at a configurable
//! control interval:
//!
//! * it ingests per-queue completion histograms (arrival→complete,
//!   the open-loop tenant view) plus the device's `gc_overlap`,
//!   `gc_stall_ns` and `translation_stall_ns` interference attribution,
//! * for every [`SloClass::Guaranteed`] queue it turns the relative
//!   p99-vs-budget error into a **bounded multiplicative step** on that
//!   queue's smooth-WRR weight (at most doubling or halving per tick)
//!   with **conditional-integration anti-windup** (the integral term
//!   freezes while the weight is pinned at a bound, so a long SLO
//!   violation cannot wind up a correction that overshoots for many
//!   ticks after the pressure clears),
//! * [`SloClass::BestEffort`] queues share one AIMD weight: halved
//!   while any guaranteed queue is over budget (or the device is
//!   stalling at the GC hard floor with no guaranteed completions to
//!   measure), recovered additively once every budget is met — and
//!   never below the **floor weight**, so best-effort
//!   tenants are squeezed, not starved.
//!
//! The controller also drives *admission throttling*: when the settled
//! free fraction approaches the GC hard floor
//! ([`crate::SsdConfig::gc_hard_floor`]), the device defers
//! block-consuming best-effort commands ([`QosControllerConfig::admission_margin`])
//! instead of letting the floor's forced stalls block guaranteed
//! tenants; the deferred time is surfaced per queue as
//! `admission_wait_ns` (see [`crate::Device::admission_wait_ns`]).
//!
//! Everything here is opt-in: a device without a [`QosSpec`] behaves
//! exactly as before (the QD=1 cycle-exactness proptests pin this).

use crate::stats::LatencyHistogram;
use serde::{Deserialize, Serialize};

/// Service class of a tenant/queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SloClass {
    /// The controller actively steers arbiter weight to hold this
    /// queue's measured p99 within its budget.
    Guaranteed,
    /// Served from the residual bandwidth: weight is reduced (never
    /// below the floor) while guaranteed queues miss their budgets,
    /// and block-consuming commands are deferred near the GC hard
    /// floor.
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

/// Tuning of the closed control loop. The loop's weights and gains
/// are fixed ([`QosController::BASE_WEIGHT`] and the constants beside
/// it); what is set here is how often it runs, what it trusts, and how
/// hard it holds back best-effort work and GC.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QosControllerConfig {
    /// Virtual time between control ticks.
    pub control_interval_ns: u64,
    /// Minimum completions in a queue's window before its p99 is
    /// trusted for a weight step.
    pub min_window_samples: u64,
    /// Admission-throttling margin above the GC hard floor: while the
    /// settled free fraction is below `gc_hard_floor +
    /// admission_margin` (and migrations are in flight), best-effort
    /// block-consuming commands are deferred.
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
    /// while the controller is active (`0` disables pacing). Without
    /// it, a watermark refill dispatches its whole victim backlog
    /// back-to-back, occupying every die for the better part of a
    /// second — a "mega-round" during which any guaranteed read lands
    /// behind the round on its die and inherits hundreds of
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
            min_window_samples: 8,
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
    /// Window p99 in microseconds (0 when below `min_window_samples`).
    pub p99_us: f64,
    /// Relative p99-vs-budget error used for the step (positive =
    /// over budget).
    pub error: f64,
    /// Weight after the step.
    pub weight: u32,
}

/// Snapshot of one control tick.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QosTick {
    /// Device time of the tick.
    pub at_ns: u64,
    /// Worst relative error across measurable guaranteed queues this
    /// window (negative when everyone is under budget; 0.0 when no
    /// queue had enough samples).
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
    /// The shared best-effort weight after the step.
    pub best_effort_weight: u32,
    /// Per-guaranteed-queue detail.
    pub guaranteed: Vec<QueueTick>,
}

/// The closed-loop controller. Owned by a [`crate::Device`] when its
/// config carries a [`QosSpec`]; drives
/// [`crate::Arbiter::set_weight`] at every control tick.
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
    /// Per-guaranteed-queue weight (continuous; exposed rounded).
    weights: Vec<f64>,
    /// Per-guaranteed-queue integral error term.
    integral: Vec<f64>,
    /// Shared best-effort weight (continuous).
    be_weight: f64,
    next_tick_ns: u64,
    last_gc_stall_ns: u64,
    last_translation_stall_ns: u64,
    ticks: Vec<QosTick>,
}

impl QosController {
    /// Initial weight of every queue (also the ceiling best-effort
    /// queues recover back to).
    pub const BASE_WEIGHT: u32 = 8;
    /// Best-effort weight floor — best-effort tenants are squeezed to
    /// this, never starved below it.
    const FLOOR_WEIGHT: f64 = 1.0;
    /// Upper bound on any guaranteed queue's weight.
    const MAX_WEIGHT: f64 = 1024.0;
    /// Proportional gain on the relative p99 error.
    const GAIN: f64 = 1.0;
    /// Integral gain on the accumulated relative error.
    const INTEGRAL_GAIN: f64 = 0.25;
    /// Anti-windup clamp on the integral term (conditional
    /// integration additionally freezes it at the weight bounds).
    const INTEGRAL_CAP: f64 = 4.0;

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
            weights: vec![Self::BASE_WEIGHT as f64; guaranteed.len()],
            integral: vec![0.0; guaranteed.len()],
            be_weight: Self::BASE_WEIGHT as f64,
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

    /// Current weight of queue `queue` (what the device programs into
    /// the arbiter).
    pub fn weight(&self, queue: usize) -> u32 {
        let idx = self
            .guaranteed_idx
            .get(queue)
            .copied()
            .unwrap_or(usize::MAX);
        let w = if idx == usize::MAX {
            self.be_weight
        } else {
            self.weights[idx]
        };
        (w.round() as u32).max(1)
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

    /// Runs one control tick at device time `now_ns`: steps every
    /// measurable guaranteed queue's weight from its window p99 error
    /// (bounded step, anti-windup), AIMDs the shared best-effort
    /// weight, logs the tick, and resets the windows. The caller
    /// re-programs the arbiter from [`QosController::weight`]
    /// afterwards.
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

        let mut worst_error = f64::NEG_INFINITY;
        let mut measured_any = false;
        let mut guaranteed_samples = 0u64;
        let mut guaranteed_overlap = 0u64;
        let mut detail = Vec::with_capacity(self.guaranteed.len());
        for idx in 0..self.guaranteed.len() {
            let queue = self.guaranteed[idx];
            let samples = self.windows[idx].count();
            guaranteed_samples += samples;
            guaranteed_overlap += self.window_gc_overlap[idx];
            let budget_ns = self.slos[queue].budget_ns();
            let mut error = 0.0;
            let mut p99_us = 0.0;
            if samples >= self.cfg.min_window_samples && budget_ns.is_finite() && budget_ns > 0.0 {
                let p99 = self.windows[idx].percentile_ns(99.0) as f64;
                p99_us = p99 / 1000.0;
                error = (p99 - budget_ns) / budget_ns;
                measured_any = true;
                worst_error = worst_error.max(error);

                let w = self.weights[idx];
                // Conditional integration: stop accumulating while the
                // weight is already pinned at the bound the error
                // pushes towards (classic anti-windup).
                let saturated = (w >= Self::MAX_WEIGHT && error > 0.0) || (w <= 1.0 && error < 0.0);
                if !saturated {
                    self.integral[idx] =
                        (self.integral[idx] + error).clamp(-Self::INTEGRAL_CAP, Self::INTEGRAL_CAP);
                }
                let control = Self::GAIN * error + Self::INTEGRAL_GAIN * self.integral[idx];
                // Bounded step: at most double or halve per tick.
                let factor = control.clamp(-1.0, 1.0).exp2();
                self.weights[idx] = (w * factor).clamp(1.0, Self::MAX_WEIGHT);
            }
            detail.push(QueueTick {
                queue,
                samples,
                p99_us,
                error,
                weight: (self.weights[idx].round() as u32).max(1),
            });
        }

        // Best-effort AIMD: squeeze while any guaranteed queue is over
        // budget — or while the device is stalling at the GC hard
        // floor with no guaranteed completions to measure (the stall
        // attribution stands in for the missing histogram) — recover
        // additively once the budgets are met.
        let pressure = (measured_any && worst_error > 0.0)
            || (guaranteed_samples == 0 && gc_stall_delta > 0 && !self.guaranteed.is_empty());
        if pressure {
            self.be_weight = (self.be_weight / 2.0).max(Self::FLOOR_WEIGHT);
        } else if measured_any || guaranteed_samples == 0 {
            self.be_weight = (self.be_weight + 1.0).min(Self::BASE_WEIGHT as f64);
        }

        self.ticks.push(QosTick {
            at_ns: now_ns,
            worst_error: if measured_any { worst_error } else { 0.0 },
            gc_stall_delta_ns: gc_stall_delta,
            translation_stall_delta_ns: translation_stall_delta,
            settled_free_fraction,
            guaranteed_gc_overlap: guaranteed_overlap,
            best_effort_gc_overlap: self.be_window_gc_overlap,
            best_effort_samples: self.be_window.count(),
            best_effort_weight: (self.be_weight.round() as u32).max(1),
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
            min_window_samples: 4,
            admission_margin: 0.04,
            guaranteed_slot_reserve: 8,
            gc_pacing_limit: 2,
        })
    }

    #[test]
    fn over_budget_queue_gains_weight_under_budget_decays() {
        let mut c = QosController::new(spec(vec![Slo::guaranteed(100.0), Slo::best_effort()]), 2);
        assert_eq!(c.weight(0), 8);
        // p99 ~400µs against a 100µs budget: weight must rise.
        for _ in 0..16 {
            c.observe(0, 400_000, false);
        }
        c.tick(1_000_000, 0, 0, 0.5);
        let raised = c.weight(0);
        assert!(raised > 8, "over-budget weight stayed at {raised}");
        // Bounded step: at most doubled in one tick.
        assert!(raised <= 16, "step unbounded: {raised}");
        // Now comfortably under budget: weight must come back down.
        for _ in 0..16 {
            c.observe(0, 10_000, false);
        }
        c.tick(2_000_000, 0, 0, 0.5);
        assert!(c.weight(0) < raised);
    }

    #[test]
    fn weight_saturates_at_max_and_integral_does_not_wind_up() {
        let mut c = QosController::new(spec(vec![Slo::guaranteed(10.0)]), 1);
        // Persistently, hopelessly over budget: weight rails at max.
        for t in 1..=20u64 {
            for _ in 0..8 {
                c.observe(0, 50_000_000, false);
            }
            c.tick(t * 1_000_000, 0, 0, 0.5);
        }
        assert_eq!(c.weight(0), 1024);
        // One healthy window must start pulling the weight down
        // immediately — a wound-up integral would hold it at max.
        let before = c.weight(0);
        for _ in 0..8 {
            c.observe(0, 100, false);
        }
        c.tick(21_000_000, 0, 0, 0.5);
        let after_first_healthy = c.weight(0);
        for _ in 0..8 {
            c.observe(0, 100, false);
        }
        c.tick(22_000_000, 0, 0, 0.5);
        assert!(
            c.weight(0) < before && c.weight(0) <= after_first_healthy,
            "anti-windup failed: {} -> {} -> {}",
            before,
            after_first_healthy,
            c.weight(0)
        );
    }

    #[test]
    fn best_effort_squeezed_to_floor_and_recovers() {
        let mut c = QosController::new(spec(vec![Slo::guaranteed(100.0), Slo::best_effort()]), 2);
        assert_eq!(c.class(1), SloClass::BestEffort);
        // Guaranteed misses its budget for several ticks: best-effort
        // halves down to the floor, never below.
        for t in 1..=6u64 {
            for _ in 0..8 {
                c.observe(0, 1_000_000, false);
            }
            c.observe(1, 1_000, true);
            c.tick(t * 1_000_000, 0, 0, 0.5);
        }
        assert_eq!(c.weight(1), 1, "best-effort must stop at the floor");
        // Guaranteed healthy again: additive recovery back to base.
        for t in 7..=14u64 {
            for _ in 0..8 {
                c.observe(0, 1_000, false);
            }
            c.tick(t * 1_000_000, 0, 0, 0.5);
        }
        assert_eq!(c.weight(1), 8);
    }

    #[test]
    fn stall_attribution_stands_in_when_no_guaranteed_samples() {
        let mut c = QosController::new(spec(vec![Slo::guaranteed(100.0), Slo::best_effort()]), 2);
        // No guaranteed completions this window, but the device spent
        // time stalled at the hard floor: squeeze best-effort anyway.
        c.tick(1_000_000, 500_000, 0, 0.05);
        assert!(c.weight(1) < 8);
        let tick = c.ticks().last().unwrap();
        assert_eq!(tick.gc_stall_delta_ns, 500_000);
        assert_eq!(tick.worst_error, 0.0);
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
        // Window cleared: an immediate second tick sees zero samples.
        c.tick(2_000_000, 0, 0, 0.5);
        assert_eq!(c.ticks()[1].guaranteed[0].samples, 0);
    }

    #[test]
    fn slos_pad_to_queue_count() {
        let c = QosController::new(QosSpec::new(vec![Slo::guaranteed(50.0)]), 3);
        assert_eq!(c.class(0), SloClass::Guaranteed);
        assert_eq!(c.class(1), SloClass::BestEffort);
        assert_eq!(c.class(2), SloClass::BestEffort);
        // Out-of-range queues read as best-effort rather than panicking.
        assert_eq!(c.class(99), SloClass::BestEffort);
        assert_eq!(c.weight(99), 8);
    }
}
