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
//!   [`TraceSink`] is attached ([`crate::Ssd::attach_trace`] or
//!   [`crate::DeviceConfig::with_trace`]). With a sink attached, every
//!   die reservation becomes a span on that die's track, translation
//!   lookups and compaction sweeps become spans on per-shard-CPU
//!   tracks, host commands become wait/service spans on per-queue
//!   tracks, and control-plane decisions (QoS ticks, admission
//!   deferrals, GC victim selection, hard-floor stalls) become instant
//!   events. [`TraceSink::export_chrome_json`] renders the whole
//!   timeline as Chrome trace-event JSON that loads directly in
//!   Perfetto or `chrome://tracing`.
//!
//! Tracing is observational: attaching a sink changes no scheduling
//! decision, so replay digests and virtual-time results are
//! bit-identical with and without it (pinned by the
//! `trace_attribution` integration tests).

use leaftl_flash::NandTiming;
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
    /// Learned-table compaction: shard sweep translation I/O (inline
    /// or background).
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

/// Which timeline an event lands on. Dies, shard CPUs and queues each
/// render as their own Perfetto process with one thread per unit;
/// control-plane instants share a single track.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Track {
    /// A flash die's timeline.
    Die(u32),
    /// A translation-shard CPU's timeline.
    Cpu(u32),
    /// A submission queue's timeline (host queue index, or the
    /// [`crate::GC_QUEUE`]/[`crate::COMPACT_QUEUE`]/
    /// [`crate::MAPLOG_QUEUE`] pseudo-queues).
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
    /// Float (emitted with fixed 6-decimal precision for determinism).
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
const PID_CPUS: u32 = 2;
const PID_QUEUES: u32 = 3;
const PID_CONTROL: u32 = 4;

/// Pseudo-queue tids (the raw ids are `u32::MAX`-adjacent, which
/// renders as noise in trace viewers; remap to small named tids after
/// a gap above any plausible host queue count).
const TID_GC: u32 = 1_000_000;
const TID_COMPACT: u32 = 1_000_001;
const TID_MAPLOG: u32 = 1_000_002;

/// An attached event recorder. Obtain one filled in via
/// [`crate::Ssd::take_trace`] after a traced run and render it with
/// [`TraceSink::export_chrome_json`].
#[derive(Debug, Clone)]
pub struct TraceSink {
    dies: u32,
    cpus: u32,
    events: Vec<TraceEvent>,
}

impl TraceSink {
    pub(crate) fn new(dies: u32, cpus: u32) -> Self {
        TraceSink {
            dies,
            cpus,
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

    fn queue_tid(queue: u32) -> u32 {
        match queue {
            crate::device::GC_QUEUE => TID_GC,
            crate::device::COMPACT_QUEUE => TID_COMPACT,
            crate::device::MAPLOG_QUEUE => TID_MAPLOG,
            host => host,
        }
    }

    fn pid_tid(track: Track) -> (u32, u32) {
        match track {
            Track::Die(die) => (PID_DIES, die),
            Track::Cpu(cpu) => (PID_CPUS, cpu),
            Track::Queue(queue) => (PID_QUEUES, Self::queue_tid(queue)),
            Track::Control => (PID_CONTROL, 0),
        }
    }

    /// Renders the recorded timeline as Chrome trace-event JSON
    /// (`{"traceEvents": [...]}`) that loads in Perfetto or
    /// `chrome://tracing`: one thread per die under a "flash dies"
    /// process, one per translation-shard CPU, one per submission
    /// queue (plus the gc/compact/maplog pseudo-queues), and a
    /// control-plane instant track. Timestamps are microseconds with
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
        // tracks still appear (and the validator can enumerate dies).
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
        emit(&process(PID_CPUS, "translation shard CPUs"), &mut out);
        for cpu in 0..self.cpus {
            emit(&thread(PID_CPUS, cpu, &format!("shard {cpu}")), &mut out);
        }
        emit(&process(PID_QUEUES, "submission queues"), &mut out);
        let queue_tids: BTreeSet<u32> = self
            .events
            .iter()
            .filter_map(|e| match e.track {
                Track::Queue(queue) => Some(Self::queue_tid(queue)),
                Track::Die(_) | Track::Cpu(_) | Track::Control => None,
            })
            .collect();
        for &tid in &queue_tids {
            let name = match tid {
                TID_GC => "gc".to_string(),
                TID_COMPACT => "compact".to_string(),
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

    /// Accounts one scheduled flash operation ending at `end_ns` on
    /// `die`: bumps the utilization counters and, with a sink
    /// attached, records the reservation as a span on the die's track.
    #[inline]
    pub(crate) fn flash_op(
        &mut self,
        class: TrafficClass,
        kind: FlashOpKind,
        die: u32,
        end_ns: u64,
        latency_ns: u64,
    ) {
        let cell = &mut self.util.dies[die as usize];
        cell.ops[class.idx()][kind.idx()] += 1;
        cell.busy_ns[class.idx()] += latency_ns;
        if let Some(sink) = &mut self.sink {
            sink.span(
                Track::Die(die),
                kind.label(),
                end_ns - latency_ns,
                latency_ns,
                vec![("class", ArgValue::Str(class.label()))],
            );
        }
    }

    /// Records a translation-shard CPU occupation span (lookup or
    /// compaction sweep) ending at `end_ns`. Sink-only: CPU time is
    /// not die time and stays out of the utilization counters.
    #[inline]
    pub(crate) fn cpu_span(
        &mut self,
        cpu: usize,
        name: &'static str,
        end_ns: u64,
        dur_ns: u64,
        class: TrafficClass,
    ) {
        if let Some(sink) = &mut self.sink {
            sink.span(
                Track::Cpu(cpu as u32),
                name,
                end_ns - dur_ns,
                dur_ns,
                vec![("class", ArgValue::Str(class.label()))],
            );
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

// ---------------------------------------------------------------------
// Trace validation (the vendored serde_json is serialize-only, so the
// checker carries its own minimal JSON reader)
// ---------------------------------------------------------------------

/// Summary of a validated Chrome trace file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceCheck {
    /// Timeline events ("X" spans + "i" instants, metadata excluded).
    pub events: usize,
    /// Die tracks declared in metadata (pid 1 thread names).
    pub die_tracks: usize,
    /// Span events per die track, indexed by die tid.
    pub die_events: Vec<u64>,
    /// Span events on queue tracks (pid 3).
    pub queue_events: u64,
    /// Instants on the control track (pid 4).
    pub control_events: u64,
}

impl TraceCheck {
    /// Whether every declared die track carries at least one event —
    /// the CI smoke criterion.
    pub fn all_die_tracks_active(&self) -> bool {
        self.die_tracks > 0 && self.die_events.iter().all(|&n| n > 0)
    }
}

/// Parses `text` as JSON and checks the Chrome trace-event shape: a
/// top-level object with a `traceEvents` array whose entries carry
/// `ph`/`pid`/`tid`, spans carry `ts` and `dur`. Returns per-track
/// event counts.
///
/// # Errors
///
/// A description of the first malformed construct (JSON syntax or
/// trace-shape violation).
pub fn validate_chrome_trace(text: &str) -> Result<TraceCheck, String> {
    let value = JsonParser::parse(text)?;
    let Json::Obj(top) = &value else {
        return Err("top level is not an object".to_string());
    };
    let Some(Json::Arr(events)) = top.iter().find(|(k, _)| k == "traceEvents").map(|(_, v)| v)
    else {
        return Err("missing traceEvents array".to_string());
    };
    let mut check = TraceCheck {
        events: 0,
        die_tracks: 0,
        die_events: Vec::new(),
        queue_events: 0,
        control_events: 0,
    };
    for (idx, event) in events.iter().enumerate() {
        let Json::Obj(fields) = event else {
            return Err(format!("traceEvents[{idx}] is not an object"));
        };
        let field = |name: &str| fields.iter().find(|(k, _)| k == name).map(|(_, v)| v);
        let Some(Json::Str(ph)) = field("ph") else {
            return Err(format!("traceEvents[{idx}] missing ph"));
        };
        let Some(Json::Num(pid)) = field("pid") else {
            return Err(format!("traceEvents[{idx}] missing pid"));
        };
        let pid = *pid as u32;
        let tid = match field("tid") {
            Some(Json::Num(tid)) => *tid as u64,
            _ => return Err(format!("traceEvents[{idx}] missing tid")),
        };
        match ph.as_str() {
            "M" => {
                if field("args").is_none() {
                    return Err(format!("metadata traceEvents[{idx}] missing args"));
                }
                if pid == PID_DIES
                    && matches!(field("name"), Some(Json::Str(n)) if n == "thread_name")
                {
                    check.die_tracks = check.die_tracks.max(tid as usize + 1);
                }
            }
            "X" => {
                if !matches!(field("ts"), Some(Json::Num(_))) {
                    return Err(format!("span traceEvents[{idx}] missing ts"));
                }
                if !matches!(field("dur"), Some(Json::Num(_))) {
                    return Err(format!("span traceEvents[{idx}] missing dur"));
                }
                check.events += 1;
                if pid == PID_DIES {
                    let die = tid as usize;
                    if check.die_events.len() <= die {
                        check.die_events.resize(die + 1, 0);
                    }
                    check.die_events[die] += 1;
                } else if pid == PID_QUEUES {
                    check.queue_events += 1;
                }
            }
            "i" => {
                if !matches!(field("ts"), Some(Json::Num(_))) {
                    return Err(format!("instant traceEvents[{idx}] missing ts"));
                }
                check.events += 1;
                if pid == PID_CONTROL {
                    check.control_events += 1;
                }
            }
            other => return Err(format!("traceEvents[{idx}] has unknown ph {other:?}")),
        }
    }
    if check.die_events.len() < check.die_tracks {
        check.die_events.resize(check.die_tracks, 0);
    }
    Ok(check)
}

/// A parsed JSON value (just enough for trace validation).
enum Json {
    Null,
    Bool(#[expect(dead_code, reason = "parsed; no check reads a boolean")] bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

/// Minimal recursive-descent JSON reader.
struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> JsonParser<'a> {
    fn parse(text: &'a str) -> Result<Json, String> {
        let mut parser = JsonParser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let value = parser.value()?;
        parser.skip_ws();
        if parser.pos != parser.bytes.len() {
            return Err(format!("trailing content at byte {}", parser.pos));
        }
        Ok(value)
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| "unexpected end of input".to_string())
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek()? != byte {
            return Err(format!("expected {:?} at byte {}", byte as char, self.pos));
        }
        self.pos += 1;
        Ok(())
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek()? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Ok(Json::Str(self.string()?)),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'n' => self.literal("null", Json::Null),
            b'-' | b'0'..=b'9' => self.number(),
            other => Err(format!(
                "unexpected character {:?} at byte {}",
                other as char, self.pos
            )),
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, String> {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        self.skip_ws();
        let start = self.pos;
        while matches!(
            self.bytes.get(self.pos),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| format!("invalid number at byte {start}"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("invalid number {text:?} at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(&byte) => {
                    // Multi-byte UTF-8 sequences pass through verbatim.
                    let len = match byte {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    let chunk = self
                        .bytes
                        .get(self.pos..self.pos + len)
                        .ok_or("truncated UTF-8 sequence")?;
                    out.push_str(std::str::from_utf8(chunk).map_err(|_| "invalid UTF-8")?);
                    self.pos += len;
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                other => {
                    return Err(format!(
                        "expected ',' or ']' but found {:?} at byte {}",
                        other as char, self.pos
                    ))
                }
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            fields.push((key, self.value()?));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                other => {
                    return Err(format!(
                        "expected ',' or '}}' but found {:?} at byte {}",
                        other as char, self.pos
                    ))
                }
            }
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
        tracer.flash_op(
            TrafficClass::Host,
            FlashOpKind::Read,
            0,
            timing.read_ns,
            timing.read_ns,
        );
        tracer.flash_op(
            TrafficClass::Gc,
            FlashOpKind::Program,
            1,
            timing.program_ns,
            timing.program_ns,
        );
        tracer.flash_op(
            TrafficClass::MapLog,
            FlashOpKind::Erase,
            1,
            timing.erase_ns,
            timing.erase_ns,
        );
        let mut flash = FlashOpBreakdown::default();
        flash.data_reads = 1;
        flash.gc_programs = 1;
        flash.erases = 1;
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
    fn exported_trace_validates_and_counts_tracks() {
        let mut sink = TraceSink::new(2, 1);
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
        let json = sink.export_chrome_json();
        let check = validate_chrome_trace(&json).unwrap();
        assert_eq!(check.die_tracks, 2);
        assert_eq!(check.die_events, vec![1, 1]);
        assert_eq!(check.queue_events, 1);
        assert_eq!(check.control_events, 1);
        assert!(check.all_die_tracks_active());
        // The exporter is deterministic.
        assert_eq!(json, sink.export_chrome_json());
    }

    #[test]
    fn validator_rejects_malformed_json() {
        assert!(validate_chrome_trace("{\"traceEvents\":[").is_err());
        assert!(validate_chrome_trace("[]").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\":[{\"ph\":\"X\"}]}").is_err());
        assert!(validate_chrome_trace("{}").is_err());
    }

    #[test]
    fn empty_die_track_fails_the_smoke_criterion() {
        let mut sink = TraceSink::new(2, 1);
        sink.span(Track::Die(0), "read", 0, 10, Vec::new());
        let check = validate_chrome_trace(&sink.export_chrome_json()).unwrap();
        assert_eq!(check.die_events, vec![1, 0]);
        assert!(!check.all_die_tracks_active());
    }
}
