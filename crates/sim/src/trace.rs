//! Device-timeline tracing and per-die utilization attribution.
//!
//! Two observability layers share this module:
//!
//! * **Utilization accounting** — always on. Every flash operation the
//!   simulator schedules (host reads, GC migrations, compaction
//!   translation I/O, translation-log programs) increments a per-die
//!   counter bucketed by [`TrafficClass`] and [`FlashOpKind`], and adds
//!   its NAND latency to that die's attributed busy time. The
//!   [`UtilizationReport`] is the Dayan-&-Bonnet-style "every device
//!   nanosecond belongs to a traffic class" decomposition, and it is
//!   *conserved*: summed over classes, the op counts equal the
//!   [`crate::FlashOpBreakdown`] counters exactly
//!   ([`UtilizationReport::check_conservation`]).
//! * **Event tracing** — off by default, zero allocation until a
//!   [`TraceSink`] is attached ([`crate::Ssd::attach_trace`], before
//!   the SSD is wrapped in a [`crate::Device`]). With a sink attached, every
//!   die reservation becomes a span on that die's track (a flush program
//!   when it is placed, one span per stretch a suspension leaves), host commands
//!   become wait/service spans on per-queue tracks, and control-plane
//!   decisions (QoS ticks, admission deferrals, GC victim selection,
//!   hard-floor stalls) become instant events.
//!   [`TraceSink::export_chrome_json`] renders the whole timeline as
//!   Chrome trace-event JSON that loads directly in Perfetto or
//!   `chrome://tracing`; [`TraceSink::check`] counts the same events
//!   per track from the sink itself (the file is read back only by CI,
//!   with Python's `json`).
//!
//! Tracing is observational: attaching a sink changes no scheduling
//! decision, so replay digests and virtual-time results are
//! bit-identical with and without it (pinned by the
//! `trace_attribution` integration tests).

use leaftl_flash::{BlockId, NandTiming};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt::Write as _;

use crate::stats::FlashOpBreakdown;

/// Who a flash operation (or span of device time) belongs to — the
/// attribution axis of Figs. 18/23-style latency decompositions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TrafficClass {
    /// Host-issued I/O: data reads/programs, demand-paged translation
    /// reads and write-backs on the host's dependency chain, and
    /// flush-path invalidation probes.
    Host,
    /// Garbage collection and wear levelling: migration reads,
    /// re-programs, erases, and the re-learning translation I/O they
    /// trigger.
    Gc,
    /// Learned-table compaction: the translation I/O of the sweep the
    /// flush path runs.
    Compact,
    /// Translation-log/checkpoint traffic: snapshot page programs,
    /// log-page programs, log-block reclaims, and recovery scans.
    MapLog,
}

impl TrafficClass {
    /// All classes, in attribution-report order.
    pub const ALL: [TrafficClass; 4] = [
        TrafficClass::Host,
        TrafficClass::Gc,
        TrafficClass::Compact,
        TrafficClass::MapLog,
    ];

    /// Stable lowercase label (trace args, report columns).
    pub fn label(self) -> &'static str {
        match self {
            TrafficClass::Host => "host",
            TrafficClass::Gc => "gc",
            TrafficClass::Compact => "compact",
            TrafficClass::MapLog => "maplog",
        }
    }

    fn idx(self) -> usize {
        match self {
            TrafficClass::Host => 0,
            TrafficClass::Gc => 1,
            TrafficClass::Compact => 2,
            TrafficClass::MapLog => 3,
        }
    }
}

/// The three NAND operation kinds a die timeline is made of.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FlashOpKind {
    /// Page read.
    Read,
    /// Page program.
    Program,
    /// Block erase.
    Erase,
}

impl FlashOpKind {
    /// All kinds, in report order.
    pub const ALL: [FlashOpKind; 3] = [FlashOpKind::Read, FlashOpKind::Program, FlashOpKind::Erase];

    /// Stable lowercase label (trace span names, report columns).
    pub fn label(self) -> &'static str {
        match self {
            FlashOpKind::Read => "read",
            FlashOpKind::Program => "program",
            FlashOpKind::Erase => "erase",
        }
    }

    /// The kind's NAND latency under `timing`.
    pub fn latency_ns(self, timing: &NandTiming) -> u64 {
        match self {
            FlashOpKind::Read => timing.read_ns,
            FlashOpKind::Program => timing.program_ns,
            FlashOpKind::Erase => timing.erase_ns,
        }
    }

    fn idx(self) -> usize {
        match self {
            FlashOpKind::Read => 0,
            FlashOpKind::Program => 1,
            FlashOpKind::Erase => 2,
        }
    }
}

/// One die's attributed operation counts and busy time, indexed
/// `[class][kind]` in [`TrafficClass::ALL`] / [`FlashOpKind::ALL`]
/// order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct DieUtilization {
    /// Operation counts per `[class][kind]`.
    pub ops: [[u64; 3]; 4],
    /// Attributed busy nanoseconds per class (Σ ops × NAND latency).
    pub busy_ns: [u64; 4],
}

impl DieUtilization {
    /// Total attributed busy nanoseconds on this die.
    pub fn total_busy_ns(&self) -> u64 {
        self.busy_ns.iter().sum()
    }

    /// Busy nanoseconds attributed to one class.
    pub fn class_busy_ns(&self, class: TrafficClass) -> u64 {
        self.busy_ns[class.idx()]
    }

    /// Operation count for one (class, kind) cell.
    pub fn ops_of(&self, class: TrafficClass, kind: FlashOpKind) -> u64 {
        self.ops[class.idx()][kind.idx()]
    }
}

/// Per-die utilization attribution: how much of each flash die's busy
/// time each [`TrafficClass`] consumed, with the underlying operation
/// counts. Cumulative since construction or the last
/// [`crate::Ssd::reset_stats`] (counters reset together with
/// [`crate::SimStats`], so the two always describe the same
/// measurement window).
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct UtilizationReport {
    /// One entry per flash die, in die-index order.
    pub dies: Vec<DieUtilization>,
}

impl UtilizationReport {
    pub(crate) fn new(dies: usize) -> Self {
        UtilizationReport {
            dies: vec![DieUtilization::default(); dies],
        }
    }

    pub(crate) fn reset(&mut self) {
        for die in &mut self.dies {
            *die = DieUtilization::default();
        }
    }

    /// Busy nanoseconds attributed to `class`, summed over all dies.
    pub fn class_busy_ns(&self, class: TrafficClass) -> u64 {
        self.dies.iter().map(|d| d.class_busy_ns(class)).sum()
    }

    /// Operation count for one (class, kind) cell, summed over dies.
    pub fn class_ops(&self, class: TrafficClass, kind: FlashOpKind) -> u64 {
        self.dies.iter().map(|d| d.ops_of(class, kind)).sum()
    }

    /// Total attributed busy nanoseconds across every die and class.
    pub fn total_busy_ns(&self) -> u64 {
        self.dies.iter().map(|d| d.total_busy_ns()).sum()
    }

    /// Fraction of the total attributed busy time `class` consumed
    /// (0 when the device did no flash work).
    pub fn class_share(&self, class: TrafficClass) -> f64 {
        let total = self.total_busy_ns();
        if total == 0 {
            return 0.0;
        }
        self.class_busy_ns(class) as f64 / total as f64
    }

    /// The conservation invariant: summed over classes, the attributed
    /// operation counts must equal the [`FlashOpBreakdown`] counters
    /// exactly, and every die's attributed busy time must equal its op
    /// counts times the NAND latencies. Returns a description of the
    /// first violated equation.
    ///
    /// # Errors
    ///
    /// An explanatory string naming the mismatched counter.
    pub fn check_conservation(
        &self,
        flash: &FlashOpBreakdown,
        timing: &NandTiming,
    ) -> Result<(), String> {
        let sum_kind = |kind: FlashOpKind| -> u64 {
            TrafficClass::ALL
                .iter()
                .map(|&c| self.class_ops(c, kind))
                .sum()
        };
        let reads = sum_kind(FlashOpKind::Read);
        let expected_reads =
            flash.data_reads + flash.misprediction_reads + flash.translation_reads + flash.gc_reads;
        if reads != expected_reads {
            return Err(format!(
                "attributed reads {reads} != SimStats reads {expected_reads} \
                 (data {} + mispredict {} + translation {} + gc {})",
                flash.data_reads,
                flash.misprediction_reads,
                flash.translation_reads,
                flash.gc_reads
            ));
        }
        let programs = sum_kind(FlashOpKind::Program);
        if programs != flash.total_programs() {
            return Err(format!(
                "attributed programs {programs} != SimStats programs {}",
                flash.total_programs()
            ));
        }
        let erases = sum_kind(FlashOpKind::Erase);
        if erases != flash.erases {
            return Err(format!(
                "attributed erases {erases} != SimStats erases {}",
                flash.erases
            ));
        }
        for (idx, die) in self.dies.iter().enumerate() {
            for class in TrafficClass::ALL {
                let expected: u64 = FlashOpKind::ALL
                    .iter()
                    .map(|&k| die.ops_of(class, k) * k.latency_ns(timing))
                    .sum();
                if die.class_busy_ns(class) != expected {
                    return Err(format!(
                        "die {idx} class {} busy_ns {} != ops × latency {expected}",
                        class.label(),
                        die.class_busy_ns(class)
                    ));
                }
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Event sink
// ---------------------------------------------------------------------

/// Which timeline an event lands on. Dies and queues each render as
/// their own Perfetto process with one thread per unit; control-plane
/// instants share a single track.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Track {
    /// A flash die's timeline.
    Die(u32),
    /// A submission queue's timeline (host queue index, or the
    /// [`crate::GC_QUEUE`]/[`crate::MAPLOG_QUEUE`] pseudo-queues).
    Queue(u32),
    /// The control-plane instant track (QoS ticks, admission windows,
    /// scheduling decisions).
    Control,
}

/// A trace argument value.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ArgValue {
    /// Unsigned integer.
    U64(u64),
    /// Float (emitted with fixed 6-decimal precision for determinism;
    /// NaN and infinities as `null`).
    F64(f64),
    /// Static label.
    Str(&'static str),
}

/// One recorded event: a span (`dur_ns` set) or an instant.
#[derive(Debug, Clone)]
struct TraceEvent {
    track: Track,
    name: &'static str,
    start_ns: u64,
    dur_ns: Option<u64>,
    args: Vec<(&'static str, ArgValue)>,
}

/// Chrome trace-event pids: one "process" per track family.
const PID_DIES: u32 = 1;
const PID_QUEUES: u32 = 3;
const PID_CONTROL: u32 = 4;

/// Pseudo-queue tids (the raw ids are `u32::MAX`-adjacent, which
/// renders as noise in trace viewers; remap to small named tids after
/// a gap above any plausible host queue count).
const TID_GC: u32 = 1_000_000;
const TID_MAPLOG: u32 = 1_000_002;

/// An attached event recorder. Obtain one filled in via
/// [`crate::Ssd::take_trace`] after a traced run, render it with
/// [`TraceSink::export_chrome_json`] and count it with
/// [`TraceSink::check`].
#[derive(Debug, Clone)]
pub struct TraceSink {
    dies: u32,
    events: Vec<TraceEvent>,
}

impl TraceSink {
    pub(crate) fn new(dies: u32) -> Self {
        TraceSink {
            dies,
            events: Vec::new(),
        }
    }

    pub(crate) fn span(
        &mut self,
        track: Track,
        name: &'static str,
        start_ns: u64,
        dur_ns: u64,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        self.events.push(TraceEvent {
            track,
            name,
            start_ns,
            dur_ns: Some(dur_ns),
            args,
        });
    }

    pub(crate) fn instant(
        &mut self,
        track: Track,
        name: &'static str,
        at_ns: u64,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        self.events.push(TraceEvent {
            track,
            name,
            start_ns: at_ns,
            dur_ns: None,
            args,
        });
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The flash-op spans of die tracks in record order: die, op kind
    /// label, traffic class label, the block named (if any), start and
    /// end.
    #[cfg(test)]
    pub(crate) fn die_spans(
        &self,
    ) -> impl Iterator<Item = (u32, &'static str, &'static str, Option<u64>, u64, u64)> + '_ {
        self.events.iter().filter_map(|event| {
            let (Track::Die(die), Some(dur_ns)) = (event.track, event.dur_ns) else {
                return None;
            };
            let arg = |wanted: &str| {
                let found = event.args.iter().find(|&&(name, _)| name == wanted);
                found.map(|(_, value)| value)
            };
            let class = if let Some(&ArgValue::Str(label)) = arg("class") {
                label
            } else {
                ""
            };
            let block = if let Some(&ArgValue::U64(raw)) = arg("block") {
                Some(raw)
            } else {
                None
            };
            Some((
                die,
                event.name,
                class,
                block,
                event.start_ns,
                event.start_ns + dur_ns,
            ))
        })
    }

    /// Counts the recorded events by track: what
    /// [`TraceSink::export_chrome_json`] renders, read from the sink
    /// instead of parsed back out of its text.
    pub fn check(&self) -> TraceCheck {
        let mut check = TraceCheck {
            events: self.events.len(),
            die_tracks: self.dies as usize,
            die_events: vec![0; self.dies as usize],
            queue_events: 0,
            control_events: 0,
        };
        for event in &self.events {
            match (event.track, event.dur_ns) {
                (Track::Die(die), Some(_)) => check.die_events[die as usize] += 1,
                (Track::Queue(_), Some(_)) => check.queue_events += 1,
                (Track::Control, None) => check.control_events += 1,
                (Track::Die(_) | Track::Queue(_), None) | (Track::Control, Some(_)) => {}
            }
        }
        check
    }

    fn queue_tid(queue: u32) -> u32 {
        match queue {
            crate::device::GC_QUEUE => TID_GC,
            crate::device::MAPLOG_QUEUE => TID_MAPLOG,
            host => host,
        }
    }

    fn pid_tid(track: Track) -> (u32, u32) {
        match track {
            Track::Die(die) => (PID_DIES, die),
            Track::Queue(queue) => (PID_QUEUES, Self::queue_tid(queue)),
            Track::Control => (PID_CONTROL, 0),
        }
    }

    /// Renders the recorded timeline as Chrome trace-event JSON
    /// (`{"traceEvents": [...]}`) that loads in Perfetto or
    /// `chrome://tracing`: one thread per die under a "flash dies"
    /// process, one per submission queue (plus the gc/maplog
    /// pseudo-queues), and a control-plane instant track. Timestamps are microseconds with
    /// nanosecond precision; output is byte-deterministic for a given
    /// recording (events render in record order with fixed number
    /// formatting).
    pub fn export_chrome_json(&self) -> String {
        let mut out = String::with_capacity(128 + self.events.len() * 96);
        out.push_str("{\"traceEvents\":[\n");
        let mut first = true;
        let mut emit = |line: &str, out: &mut String| {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(line);
        };

        // Metadata: name every process and thread up front so empty
        // tracks still appear (and a reader can enumerate dies).
        let process = |pid: u32, name: &str| {
            format!("{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"args\":{{\"name\":\"{name}\"}}}}")
        };
        let thread = |pid: u32, tid: u32, name: &str| {
            format!("{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"args\":{{\"name\":\"{name}\"}}}}")
        };
        emit(&process(PID_DIES, "flash dies"), &mut out);
        for die in 0..self.dies {
            emit(&thread(PID_DIES, die, &format!("die {die}")), &mut out);
        }
        emit(&process(PID_QUEUES, "submission queues"), &mut out);
        let queue_tids: BTreeSet<u32> = self
            .events
            .iter()
            .filter_map(|e| match e.track {
                Track::Queue(queue) => Some(Self::queue_tid(queue)),
                Track::Die(_) | Track::Control => None,
            })
            .collect();
        for &tid in &queue_tids {
            let name = match tid {
                TID_GC => "gc".to_string(),
                TID_MAPLOG => "maplog".to_string(),
                host => format!("queue {host}"),
            };
            emit(&thread(PID_QUEUES, tid, &name), &mut out);
        }
        emit(&process(PID_CONTROL, "control plane"), &mut out);
        emit(&thread(PID_CONTROL, 0, "events"), &mut out);

        // Timeline events, in record order.
        let mut line = String::new();
        for event in &self.events {
            line.clear();
            let (pid, tid) = Self::pid_tid(event.track);
            let _ = write!(
                line,
                "{{\"name\":\"{}\",\"ph\":\"{}\",\"pid\":{pid},\"tid\":{tid},\"ts\":{}",
                event.name,
                if event.dur_ns.is_some() { "X" } else { "i" },
                ts_us(event.start_ns),
            );
            if let Some(dur) = event.dur_ns {
                let _ = write!(line, ",\"dur\":{}", ts_us(dur));
            } else {
                line.push_str(",\"s\":\"t\"");
            }
            if !event.args.is_empty() {
                line.push_str(",\"args\":{");
                for (idx, (key, value)) in event.args.iter().enumerate() {
                    if idx > 0 {
                        line.push(',');
                    }
                    let _ = write!(line, "\"{key}\":");
                    match value {
                        ArgValue::U64(v) => {
                            let _ = write!(line, "{v}");
                        }
                        // JSON has no NaN or infinity; `null` is what
                        // serde_json writes for them.
                        ArgValue::F64(v) if !v.is_finite() => line.push_str("null"),
                        ArgValue::F64(v) => {
                            let _ = write!(line, "{v:.6}");
                        }
                        ArgValue::Str(s) => {
                            let _ = write!(line, "\"{s}\"");
                        }
                    }
                }
                line.push('}');
            }
            line.push('}');
            emit(&line.clone(), &mut out);
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Per-track event counts of a [`TraceSink`] ([`TraceSink::check`]),
/// in the terms of its Chrome export.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceCheck {
    /// Timeline events ("X" spans + "i" instants, metadata excluded).
    pub events: usize,
    /// Die tracks the export names (pid 1 threads).
    pub die_tracks: usize,
    /// Spans per die track, indexed by die.
    pub die_events: Vec<u64>,
    /// Spans on queue tracks (pid 3).
    pub queue_events: u64,
    /// Instants on the control track (pid 4).
    pub control_events: u64,
}

impl TraceCheck {
    /// Whether every die track carries at least one span — the CI
    /// smoke criterion.
    pub fn all_die_tracks_active(&self) -> bool {
        self.die_tracks > 0 && self.active_die_tracks() == self.die_tracks
    }

    /// Die tracks that carry at least one span.
    pub fn active_die_tracks(&self) -> usize {
        self.die_events.iter().filter(|&&n| n > 0).count()
    }
}

/// Nanoseconds as a decimal-microsecond JSON number (`12.345`).
fn ts_us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

// ---------------------------------------------------------------------
// The tracer embedded in every Ssd
// ---------------------------------------------------------------------

/// The [`crate::Ssd`]'s observability state: always-on utilization
/// counters plus the optional event sink.
#[derive(Debug, Clone)]
pub(crate) struct Tracer {
    pub(crate) util: UtilizationReport,
    pub(crate) sink: Option<TraceSink>,
}

impl Tracer {
    pub(crate) fn new(dies: u32) -> Self {
        Tracer {
            util: UtilizationReport::new(dies as usize),
            sink: None,
        }
    }

    /// Accounts one flash operation on `die`: bumps the utilization
    /// counters of its (`class`, `kind`) cell.
    #[inline]
    pub(crate) fn count(
        &mut self,
        class: TrafficClass,
        kind: FlashOpKind,
        die: u32,
        latency_ns: u64,
    ) {
        let cell = &mut self.util.dies[die as usize];
        cell.ops[class.idx()][kind.idx()] += 1;
        cell.busy_ns[class.idx()] += latency_ns;
    }

    /// With a sink attached, records a stretch of die time an operation
    /// holds as a span on the die's track, naming the block it touches
    /// when there is one.
    #[inline]
    pub(crate) fn die_span(
        &mut self,
        class: TrafficClass,
        kind: FlashOpKind,
        die: u32,
        block: Option<BlockId>,
        start_ns: u64,
        dur_ns: u64,
    ) {
        if let Some(sink) = &mut self.sink {
            let mut args = vec![("class", ArgValue::Str(class.label()))];
            args.extend(block.map(|block| ("block", ArgValue::U64(block.raw()))));
            sink.span(Track::Die(die), kind.label(), start_ns, dur_ns, args);
        }
    }

    /// Records a command-lifecycle span on a queue track. `args` builds
    /// the span's arguments and runs only with a sink attached, so the
    /// disabled path allocates nothing whatever the call site does.
    #[inline]
    pub(crate) fn queue_span(
        &mut self,
        queue: u32,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        args: impl FnOnce() -> Vec<(&'static str, ArgValue)>,
    ) {
        if let Some(sink) = &mut self.sink {
            sink.span(
                Track::Queue(queue),
                name,
                start_ns,
                end_ns.saturating_sub(start_ns),
                args(),
            );
        }
    }

    /// Records a control-plane instant; `args` as for
    /// [`Tracer::queue_span`].
    #[inline]
    pub(crate) fn control_instant(
        &mut self,
        name: &'static str,
        at_ns: u64,
        args: impl FnOnce() -> Vec<(&'static str, ArgValue)>,
    ) {
        if let Some(sink) = &mut self.sink {
            sink.instant(Track::Control, name, at_ns, args());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_conservation_holds_by_construction() {
        let mut tracer = Tracer::new(2);
        let timing = NandTiming::paper_default();
        tracer.count(TrafficClass::Host, FlashOpKind::Read, 0, timing.read_ns);
        tracer.count(TrafficClass::Gc, FlashOpKind::Program, 1, timing.program_ns);
        tracer.count(TrafficClass::MapLog, FlashOpKind::Erase, 1, timing.erase_ns);
        let mut flash = FlashOpBreakdown {
            data_reads: 1,
            gc_programs: 1,
            erases: 1,
            ..FlashOpBreakdown::default()
        };
        tracer.util.check_conservation(&flash, &timing).unwrap();
        assert_eq!(
            tracer.util.class_busy_ns(TrafficClass::Gc),
            timing.program_ns
        );
        assert_eq!(
            tracer.util.total_busy_ns(),
            timing.read_ns + timing.program_ns + timing.erase_ns
        );
        // A deliberately wrong breakdown is rejected.
        flash.data_reads = 2;
        assert!(tracer.util.check_conservation(&flash, &timing).is_err());
    }

    #[test]
    fn check_counts_tracks_and_the_export_agrees() {
        let mut sink = TraceSink::new(2);
        sink.span(
            Track::Die(0),
            "read",
            100,
            20_000,
            vec![("class", ArgValue::Str("host"))],
        );
        sink.span(Track::Die(1), "program", 0, 200_000, Vec::new());
        sink.span(
            Track::Queue(crate::device::GC_QUEUE),
            "gc_migrate",
            5,
            10,
            vec![("victim", ArgValue::U64(3))],
        );
        sink.instant(
            Track::Control,
            "qos_tick",
            42,
            vec![("worst_error", ArgValue::F64(-0.25))],
        );
        let check = sink.check();
        assert_eq!(check.die_tracks, 2);
        assert_eq!(check.die_events, vec![1, 1]);
        assert_eq!(check.queue_events, 1);
        assert_eq!(check.control_events, 1);
        assert_eq!(check.events, 4);
        assert!(check.all_die_tracks_active());
        let json = sink.export_chrome_json();
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 3);
        assert_eq!(json.matches("\"ph\":\"i\"").count(), 1);
        // The exporter is deterministic.
        assert_eq!(json, sink.export_chrome_json());
    }

    #[test]
    fn non_finite_float_arguments_render_as_null() {
        let mut sink = TraceSink::new(1);
        sink.instant(
            Track::Control,
            "qos_tick",
            0,
            vec![
                ("nan", ArgValue::F64(f64::NAN)),
                ("inf", ArgValue::F64(f64::NEG_INFINITY)),
                ("one", ArgValue::F64(1.0)),
            ],
        );
        let json = sink.export_chrome_json();
        assert!(
            json.contains("\"args\":{\"nan\":null,\"inf\":null,\"one\":1.000000}"),
            "{json}"
        );
    }

    #[test]
    fn empty_die_track_fails_the_smoke_criterion() {
        let mut sink = TraceSink::new(2);
        sink.span(Track::Die(0), "read", 0, 10, Vec::new());
        let check = sink.check();
        assert_eq!(check.die_events, vec![1, 0]);
        assert!(!check.all_die_tracks_active());
    }
}
