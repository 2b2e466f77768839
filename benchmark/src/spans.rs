//! Boundary spans recorded from outside the program: a transparent
//! [`MappingScheme`] wrapper, a transparent [`Arbiter`] wrapper, and
//! the table of per-span aggregates both write into.
//!
//! Nesting is static — driver → ssd | device → arbiter | scheme →
//! shard — so a layer's self time is its span total minus its
//! children's, and no per-event parent pointer is needed. Aggregates
//! (calls, items, total ns, log₂ duration histogram) stay in memory
//! and are written out once, when the child exits.

use leaftl_repro::core::{MapCost, MappingLookup, MappingScheme, ShardPressure};
use leaftl_repro::flash::{Lpa, Ppa};
use leaftl_repro::sim::{Arbiter, ArbiterView, Source};
use serde_json::{json, Value};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

/// Every span the benchmark records, outermost first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    /// One blocking `Ssd::read`/`Ssd::write` call.
    SsdCall,
    /// One `Device::submit_to`/`enqueue_to` call.
    DeviceSubmit,
    /// One `Device::take_completions` call.
    DeviceTake,
    /// The final `Device::drain` call.
    DeviceDrain,
    /// One `Arbiter::pick`.
    ArbiterPick,
    /// `MappingScheme::lookup` on the scheme the simulator owns.
    SchemeLookup,
    /// `MappingScheme::lookup_batch` on it (items = addresses).
    SchemeLookupBatch,
    /// `update_batch`/`update_batch_sorted` on it (items = pairs).
    SchemeUpdate,
    /// `maintain`/`maintain_shard` on it.
    SchemeMaintain,
    /// The same four on one inner shard of a `ShardedMapping`.
    ShardLookup,
    ShardLookupBatch,
    ShardUpdate,
    ShardMaintain,
}

impl Span {
    pub const ALL: [Span; 13] = [
        Span::SsdCall,
        Span::DeviceSubmit,
        Span::DeviceTake,
        Span::DeviceDrain,
        Span::ArbiterPick,
        Span::SchemeLookup,
        Span::SchemeLookupBatch,
        Span::SchemeUpdate,
        Span::SchemeMaintain,
        Span::ShardLookup,
        Span::ShardLookupBatch,
        Span::ShardUpdate,
        Span::ShardMaintain,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Span::SsdCall => "driver.ssd_call",
            Span::DeviceSubmit => "driver.device_submit",
            Span::DeviceTake => "driver.device_take",
            Span::DeviceDrain => "driver.device_drain",
            Span::ArbiterPick => "arbiter.pick",
            Span::SchemeLookup => "scheme.lookup",
            Span::SchemeLookupBatch => "scheme.lookup_batch",
            Span::SchemeUpdate => "scheme.update",
            Span::SchemeMaintain => "scheme.maintain",
            Span::ShardLookup => "shard.lookup",
            Span::ShardLookupBatch => "shard.lookup_batch",
            Span::ShardUpdate => "shard.update",
            Span::ShardMaintain => "shard.maintain",
        }
    }
}

/// Durations land in bucket `⌊log₂ ns⌋ + 1` (bucket 0 holds 0 ns);
/// 40 buckets reach past 9 minutes.
const LOG2_BUCKETS: usize = 40;

#[derive(Debug)]
struct SpanAgg {
    calls: AtomicU64,
    items: AtomicU64,
    total_ns: AtomicU64,
    log2_hist: [AtomicU64; LOG2_BUCKETS],
}

/// Per-span aggregates, shared by every wrapper of one traced run.
/// Atomics (relaxed: statistics only) because the inner shards of a
/// `ShardedMapping` must be `Send`, not because anything races — the
/// benchmark's bursts never reach the worker pool.
#[derive(Debug)]
pub struct SpanTable {
    aggs: [SpanAgg; Span::ALL.len()],
}

impl SpanTable {
    pub fn new() -> Arc<Self> {
        Arc::new(SpanTable {
            aggs: std::array::from_fn(|_| SpanAgg {
                calls: AtomicU64::new(0),
                items: AtomicU64::new(0),
                total_ns: AtomicU64::new(0),
                log2_hist: std::array::from_fn(|_| AtomicU64::new(0)),
            }),
        })
    }

    /// Zeroes every aggregate (set-up traffic must not count).
    pub fn reset(&self) {
        for agg in &self.aggs {
            agg.calls.store(0, Relaxed);
            agg.items.store(0, Relaxed);
            agg.total_ns.store(0, Relaxed);
            for bucket in &agg.log2_hist {
                bucket.store(0, Relaxed);
            }
        }
    }

    /// Runs `f` inside one `span` covering `items` units of work.
    #[inline]
    pub fn time<R>(&self, span: Span, items: u64, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let result = f();
        let ns = start.elapsed().as_nanos() as u64;
        let agg = &self.aggs[span as usize];
        agg.calls.fetch_add(1, Relaxed);
        agg.items.fetch_add(items, Relaxed);
        agg.total_ns.fetch_add(ns, Relaxed);
        let bucket = (u64::BITS - ns.leading_zeros()) as usize;
        agg.log2_hist[bucket.min(LOG2_BUCKETS - 1)].fetch_add(1, Relaxed);
        result
    }

    /// The aggregates as `{span name: {calls, items, total_ns,
    /// log2_hist}}`, histograms trimmed after their last non-empty
    /// bucket.
    pub fn to_json(&self) -> Value {
        crate::json::object(Span::ALL.iter().map(|&span| {
            let agg = &self.aggs[span as usize];
            let mut hist: Vec<u64> = agg.log2_hist.iter().map(|b| b.load(Relaxed)).collect();
            while hist.last() == Some(&0) {
                hist.pop();
            }
            (
                span.name(),
                json!({
                    "calls": agg.calls.load(Relaxed),
                    "items": agg.items.load(Relaxed),
                    "total_ns": agg.total_ns.load(Relaxed),
                    "log2_hist": hist,
                }),
            )
        }))
    }
}

/// Runs `f` inside `span` when tracing is on, bare when it is off —
/// the driver's call sites are the same code either way.
#[inline]
pub fn timed<R>(spans: Option<&SpanTable>, span: Span, f: impl FnOnce() -> R) -> R {
    match spans {
        Some(table) => table.time(span, 1, f),
        None => f(),
    }
}

/// Where in the static nesting a [`Timed`] scheme sits.
#[derive(Debug, Clone, Copy)]
pub enum Level {
    /// The scheme the simulator owns and calls.
    Scheme,
    /// One inner shard of a `ShardedMapping`.
    Shard,
}

/// A [`MappingScheme`] that times the four expensive entry points and
/// forwards *every* trait method — including the defaulted ones, since
/// a wrapper that fell back to a default (`lookup_is_pure`,
/// `update_batch_sorted`, `maintain_shard`, `checkpoint_footprint`, …)
/// would change what the simulator does. The traced == untraced
/// `sim_digest` check is what holds this to account.
#[derive(Debug, Clone)]
pub struct Timed<S> {
    inner: S,
    spans: Arc<SpanTable>,
    lookup: Span,
    lookup_batch: Span,
    update: Span,
    maintain: Span,
}

impl<S> Timed<S> {
    pub fn new(inner: S, spans: &Arc<SpanTable>, level: Level) -> Self {
        let (lookup, lookup_batch, update, maintain) = match level {
            Level::Scheme => (
                Span::SchemeLookup,
                Span::SchemeLookupBatch,
                Span::SchemeUpdate,
                Span::SchemeMaintain,
            ),
            Level::Shard => (
                Span::ShardLookup,
                Span::ShardLookupBatch,
                Span::ShardUpdate,
                Span::ShardMaintain,
            ),
        };
        Timed {
            inner,
            spans: Arc::clone(spans),
            lookup,
            lookup_batch,
            update,
            maintain,
        }
    }

    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S: MappingScheme> MappingScheme for Timed<S> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn update_batch(&mut self, pairs: &[(Lpa, Ppa)]) -> MapCost {
        self.spans.time(self.update, pairs.len() as u64, || {
            self.inner.update_batch(pairs)
        })
    }

    fn update_batch_sorted(&mut self, pairs: &[(Lpa, Ppa)]) -> MapCost {
        self.spans.time(self.update, pairs.len() as u64, || {
            self.inner.update_batch_sorted(pairs)
        })
    }

    fn lookup(&mut self, lpa: Lpa) -> (Option<MappingLookup>, MapCost) {
        self.spans.time(self.lookup, 1, || self.inner.lookup(lpa))
    }

    fn lookup_batch(&mut self, lpas: &[Lpa]) -> Vec<(Option<MappingLookup>, MapCost)> {
        self.spans.time(self.lookup_batch, lpas.len() as u64, || {
            self.inner.lookup_batch(lpas)
        })
    }

    fn lookup_is_pure(&self) -> bool {
        self.inner.lookup_is_pure()
    }

    fn memory_bytes(&self) -> usize {
        self.inner.memory_bytes()
    }

    fn set_memory_budget(&mut self, bytes: usize) {
        self.inner.set_memory_budget(bytes);
    }

    fn maintain(&mut self) -> (MapCost, bool) {
        self.spans.time(self.maintain, 1, || self.inner.maintain())
    }

    fn note_sibling_writes(&mut self, writes: u64) {
        self.inner.note_sibling_writes(writes);
    }

    fn learn_cost_ns(&self, batch_len: usize) -> u64 {
        self.inner.learn_cost_ns(batch_len)
    }

    fn snapshot_bytes(&self) -> usize {
        self.inner.snapshot_bytes()
    }

    fn checkpoint_footprint(&self) -> (usize, usize) {
        self.inner.checkpoint_footprint()
    }

    fn shard_count(&self) -> usize {
        self.inner.shard_count()
    }

    fn shard_of(&self, lpa: Lpa) -> usize {
        self.inner.shard_of(lpa)
    }

    fn shard_pressure(&self, shard: usize) -> ShardPressure {
        self.inner.shard_pressure(shard)
    }

    fn maintain_shard(&mut self, shard: usize) -> (MapCost, bool) {
        self.spans
            .time(self.maintain, 1, || self.inner.maintain_shard(shard))
    }

    fn compact_cost_ns(&self, shard: usize) -> u64 {
        self.inner.compact_cost_ns(shard)
    }
}

/// An [`Arbiter`] that times `pick` and forwards the rest — `set_weight`
/// included, or the QoS controller's retunes would silently vanish.
#[derive(Debug)]
pub struct TimedArbiter {
    inner: Box<dyn Arbiter>,
    spans: Arc<SpanTable>,
}

impl TimedArbiter {
    pub fn new(inner: Box<dyn Arbiter>, spans: &Arc<SpanTable>) -> Self {
        TimedArbiter {
            inner,
            spans: Arc::clone(spans),
        }
    }
}

impl Arbiter for TimedArbiter {
    fn pick(&mut self, view: &ArbiterView<'_>) -> Source {
        self.spans
            .time(Span::ArbiterPick, 1, || self.inner.pick(view))
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn set_weight(&mut self, queue: usize, weight: u32) {
        self.inner.set_weight(queue, weight);
    }
}
