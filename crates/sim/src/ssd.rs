//! The simulated SSD: ties the flash device, mapping scheme, caches,
//! GC, wear levelling, and crash recovery together.

#[path = "gc.rs"]
mod gc;

pub(crate) use gc::GcPlan;
use gc::UnpersistedGroups;

use crate::allocator::{BlockAllocator, PageRun, Stream};
use crate::buffer::{WritePool, POOL_FLUSHES};
use crate::clock::SimClock;
use crate::collection::{busiest_die_ns, CollectionPlan, Step};
use crate::config::{gc_watermarks, host_lanes, CheckpointMode, GcMode, GcWatermarks, SsdConfig};
use crate::error::SimError;
use crate::gc_index::{EraseHistogram, VictimIndex};
use crate::lru::LruCache;
use crate::stats::{LookupPaths, ReadPriority, SimStats, SyncGc};
use crate::trace::{FlashOpKind, TraceSink, Tracer, TrafficClass, UtilizationReport};
use crate::translog::{LogOp, MapLogTraffic, TransLog};
use crate::validity::Validity;
use leaftl_core::{MapCost, MappingLookup, MappingScheme};
use leaftl_flash::{BlockId, Die, FlashDevice, IntSet, Lpa, Ppa};
use std::collections::BTreeMap;
use std::ops::Range;

/// DRAM access latency charged for buffer/cache hits (page transfer
/// over the controller's internal bus).
const DRAM_HIT_NS: u64 = 1_000;

/// CPU cost charged per mapping-table lookup (Table 3 measures
/// 40.2–67.5 ns on a Cortex-A72).
pub const LOOKUP_BASE_NS: u64 = 40;

/// Additional lookup cost per extra level visited.
pub const LOOKUP_PER_LEVEL_NS: u64 = 10;

/// `(LPA, PPA)` pairs installed together: one learning batch.
type Batch = Vec<(Lpa, Ppa)>;

/// A flash operation by cause: one variant per counter of
/// [`crate::FlashOpBreakdown`], the ledger [`Ssd::flash_op`] keeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FlashOp {
    /// The predicted page of a host read or of a resolution (a flush's
    /// or recovery's).
    DataRead,
    /// Any further probe of a read or a resolution: the re-read after a
    /// misprediction, or the outward scan.
    MispredictionRead,
    /// A demand-paged translation page, or a page of a recovery scan.
    TranslationRead,
    /// A live page of a block being relocated.
    GcRead,
    /// A page of a host flush.
    DataProgram,
    /// A page a GC migration moved.
    GcProgram,
    /// A page a wear swap moved.
    WearProgram,
    /// A translation write-back, a snapshot page or a log page.
    TranslationProgram,
    /// A block erase.
    Erase,
}

impl FlashOp {
    /// What the operation does to the die.
    fn kind(self) -> FlashOpKind {
        match self {
            FlashOp::DataRead
            | FlashOp::MispredictionRead
            | FlashOp::TranslationRead
            | FlashOp::GcRead => FlashOpKind::Read,
            FlashOp::DataProgram
            | FlashOp::GcProgram
            | FlashOp::WearProgram
            | FlashOp::TranslationProgram => FlashOpKind::Program,
            FlashOp::Erase => FlashOpKind::Erase,
        }
    }
}

/// What a flash operation touches: a translation page (the model keeps
/// those off the block map, so only their die), a block, or one page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Target {
    Translation(Die),
    Block(BlockId),
    Page(Ppa),
}

/// Where an operation goes among the flush programs queued on its die
/// ([`Ssd::place_op`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Placement {
    /// Ahead of them, never splitting one: what the host waits on.
    Ahead,
    /// Behind them: the die's queue is placed first.
    Behind,
}

/// Where every physical page of the device stands
/// ([`Ssd::space_report`]): the six counts sum to the page count of the
/// geometry. What is not `valid` is the over-provisioning as it is
/// actually spent — only `closed_stale` is space a GC pass can win
/// back.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpaceReport {
    /// Pages of erased blocks in the free pool (the GC watermarks'
    /// reserve).
    pub free: u64,
    /// Unwritten pages at the end of the blocks open for writing.
    pub open_tail: u64,
    /// Programmed pages of open blocks that no longer hold a live copy
    /// (an open block is never a GC victim).
    pub open_stale: u64,
    /// Pages of closed data blocks that hold no live copy: what GC
    /// reclaims.
    pub closed_stale: u64,
    /// Pages of the blocks the translation log owns.
    pub log_owned: u64,
    /// Pages holding the live copy of a logical page.
    pub valid: u64,
}

/// Report of a simulated power-cut recovery (§3.8 / §5 of the paper).
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryReport {
    /// Data blocks whose OOB reverse mappings were scanned after
    /// restoring the newest durable checkpoint (DRAM snapshot or
    /// flash-log generation).
    pub scanned_data_blocks: usize,
    /// Translation-log blocks scanned to locate the newest durable
    /// checkpoint and the replayable log tail (always 0 outside
    /// [`CheckpointMode::FlashLog`]).
    pub scanned_log_blocks: usize,
    /// Durable translation-log delta entries replayed from the log
    /// tail (always 0 outside [`CheckpointMode::FlashLog`]).
    pub replayed_log_entries: usize,
    /// Pages whose mappings were re-learned from OOB reverse mappings.
    pub recovered_pages: u64,
    /// Buffered host writes lost with the DRAM (no battery backing).
    pub lost_buffered_writes: usize,
    /// Simulated wall time of the recovery scan.
    pub scan_time_ns: u64,
}

impl RecoveryReport {
    /// Total blocks touched by the recovery scan (data + log).
    pub fn scanned_blocks(&self) -> usize {
        self.scanned_data_blocks + self.scanned_log_blocks
    }
}

/// A simulated flash SSD, generic over its [`MappingScheme`].
///
/// Host I/O is page-granular. [`Ssd::read`] / [`Ssd::write`] are the
/// blocking queue-depth-1 interface: each request completes (advancing
/// the virtual clock) before the next is issued, with GC running
/// synchronously inside the flush path. Both are thin wrappers over
/// the non-blocking *service* paths, which schedule flash work on
/// per-die timelines and return a completion deadline — the
/// multi-queue [`crate::Device`] drives those same paths with many
/// commands in flight to model submission/completion queues,
/// arbitration and background GC, so a queue-depth-1 device is
/// cycle-exact with the blocking interface because it runs the same
/// code.
///
/// # Example
///
/// ```
/// use leaftl_sim::{ExactPageMap, Ssd, SsdConfig};
/// use leaftl_flash::Lpa;
///
/// # fn main() -> Result<(), leaftl_sim::SimError> {
/// let mut ssd = Ssd::new(SsdConfig::small_test(), ExactPageMap::new());
/// ssd.write(Lpa::new(1), 0xc0ffee)?;
/// assert_eq!(ssd.read(Lpa::new(1))?, Some(0xc0ffee));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Ssd<S: MappingScheme + Clone> {
    config: SsdConfig,
    device: FlashDevice,
    clock: SimClock,
    scheme: S,
    allocator: BlockAllocator,
    validity: Validity,
    /// The write buffer and the flushed pages still in DRAM, in
    /// `2 × write_buffer_pages` slots: a flushed page is read from DRAM
    /// until a write takes its slot, which it can once the page's
    /// program has ended ([`Ssd::take_slot`]). It knows where each
    /// flushed page is on flash, so an overwrite of one needs no read.
    pool: WritePool,
    read_cache: LruCache<Lpa, CachedPage>,
    stats: SimStats,
    /// The lookups of `stats` by path, and what resolutions cost.
    paths: LookupPaths,
    /// What synchronous collections held the host for.
    sync_gc: SyncGc,
    /// How host reads went ahead of flush programs.
    priority: ReadPriority,
    /// Where the recovery baseline is persisted: the flash-resident
    /// translation log ([`CheckpointMode::FlashLog`]'s durability
    /// mechanism), which also holds [`CheckpointMode::DramSnapshot`]'s
    /// snapshot as a generation of no log pages.
    translog: TransLog<S>,
    pristine_scheme: S,
    /// Virtual time of each block's most recent program, for the
    /// cost-benefit GC policy's age term.
    block_last_write_ns: Vec<u64>,
    /// Which block GC would pick, kept current by marking blocks at
    /// the places their candidacy or valid count changes (see
    /// [`Ssd::select_gc_victim`]). Derived from the device, allocator,
    /// translation log and [`Validity`]: rebuilt after a crash, never
    /// part of a [`crate::translog::Baseline`].
    gc_index: VictimIndex,
    /// Where GC starts and stops ([`gc_watermarks`] of `config`).
    gc_lines: GcWatermarks,
    /// Blocks per erase count — wear levelling's O(1) "no swap is due".
    erase_histogram: EraseHistogram,
    /// Per-die utilization attribution (always on) plus the optional
    /// timeline event sink (see [`crate::trace`]).
    tracer: Tracer,
    /// Working memory of the read path, kept from burst to burst.
    read_scratch: ReadScratch,
    /// The live pages of the block being relocated
    /// ([`Ssd::migrate_block`]), kept from pass to pass.
    live_scratch: Vec<Ppa>,
    /// The collection scheduler's working memory ([`Ssd::place_gc`]),
    /// kept from collection to collection.
    gc_plan: CollectionPlan,
    /// What the next [`CheckpointMode::DramSnapshot`] persistence point
    /// has to write of the mapping table, marked wherever pairs enter
    /// the scheme ([`Ssd::learn_and_mark`], recovery's replay).
    unpersisted: UnpersistedGroups,
    /// The die the next [`CheckpointMode::DramSnapshot`] point's first
    /// page goes on: each point continues where the previous one ended.
    point_die: u32,
}

/// The state half of a resolved read: which pages must be read (in
/// probe order), what the live page holds, and whether the prediction
/// missed. Produced by [`Ssd::plan_read_probes`]; the caller turns the
/// probe list into die time ([`Ssd::schedule_probes`]) whenever its
/// scheduling policy dictates.
#[derive(Debug, Clone)]
struct ReadPlan {
    exact: Ppa,
    content: u64,
    mispredicted: bool,
    /// Where the plan's probes sit in the probe list it was planned
    /// into: one list holds a whole burst's probes back to back, so a
    /// read owns no allocation however far its fallback scan went.
    probes: Range<usize>,
    /// Whether the first probe is the predicted page — the one probe
    /// that counts as a data read, for a host read and a resolution
    /// alike. Every other probe is a misprediction read.
    leads_with_data_read: bool,
}

/// Who runs a resolution pass ([`Ssd::invalidate_overwritten`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Overwriter {
    /// A host flush: its lookups' translation I/O is charged to the
    /// host, its resolutions are counted, and a prediction nothing
    /// resolves is mapping corruption.
    Flush,
    /// Recovery replaying a batch: charged to the map log, uncounted,
    /// and lenient — a prediction nothing resolves is skipped.
    Replay,
}

/// A translation hoisted ahead of its read's turn in the burst.
type Prefetched = Option<(Option<MappingLookup>, MapCost)>;

/// The read path's working memory: everything a burst builds on its
/// way from addresses to completion times. Owned by the [`Ssd`] and
/// reused, so a read that reaches flash allocates nothing.
#[derive(Debug, Clone, Default)]
struct ReadScratch {
    /// Hoisted translations by burst position (empty when nothing was
    /// hoisted).
    prefetched: Vec<Prefetched>,
    /// The burst positions and addresses whose translations are
    /// hoisted, and the addresses already claimed by an earlier one.
    slots: Vec<usize>,
    needs_lookup: Vec<Lpa>,
    seen: IntSet<Lpa>,
    /// The reads that missed DRAM, between the state pass and the
    /// timing pass.
    pending: Vec<PendingRead>,
    /// Every planned probe of the burst, plan after plan.
    probes: Vec<Ppa>,
    /// Data-cache hits on a page a read of the same burst brings in:
    /// (the hit's burst position, the filling read's).
    fill_waits: Vec<(usize, usize)>,
}

/// A data-cache entry: a page's content and when it is in DRAM — the
/// end of the flash read that brought it there.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct CachedPage {
    content: u64,
    ready_ns: u64,
}

/// A read that missed DRAM, after the state pass over its burst (see
/// [`Ssd::service_read_batch`]): what the timing pass still owes it,
/// with all state mutations already committed in batch order.
#[derive(Debug, Clone)]
struct PendingRead {
    /// The request's position in the burst.
    index: usize,
    lpa: Lpa,
    /// The translation charge the request pays from the dispatch
    /// point.
    cost: MapCost,
    /// The lookup and data probes that follow the charge; `None` for
    /// a never-written page, which completes once the charge is paid.
    translated: Option<Translated>,
}

/// A flash-backed read's lookup cost, and the data probes that follow
/// the lookup.
#[derive(Debug, Clone)]
struct Translated {
    cpu_ns: u64,
    plan: ReadPlan,
}

impl<S: MappingScheme + Clone> Ssd<S> {
    /// Builds an erased SSD around a mapping scheme. The scheme's DRAM
    /// budget is set from the config's [`crate::DramPolicy`].
    ///
    /// # Panics
    ///
    /// Panics when the configuration is inconsistent
    /// (see [`SsdConfig::validate`]).
    pub fn new(config: SsdConfig, mut scheme: S) -> Self {
        config.validate();
        scheme.set_memory_budget(config.mapping_budget());
        let pristine_scheme = scheme.clone();
        Ssd {
            device: FlashDevice::new(config.geometry),
            clock: SimClock::new(config.geometry.total_dies()),
            allocator: BlockAllocator::with_stripe(config.geometry, config.stripe_pages)
                .with_lanes(host_lanes(&config)),
            validity: Validity::new(config.geometry),
            pool: WritePool::new(POOL_FLUSHES * config.write_buffer_pages),
            read_cache: LruCache::new(),
            stats: SimStats::new(),
            paths: LookupPaths::default(),
            sync_gc: SyncGc::default(),
            priority: ReadPriority::default(),
            translog: TransLog::new(),
            pristine_scheme,
            scheme,
            block_last_write_ns: vec![0; config.geometry.blocks as usize],
            // A fresh device: every block erased, none a candidate.
            gc_index: VictimIndex::new(config.geometry.blocks as usize),
            gc_lines: gc_watermarks(&config),
            erase_histogram: EraseHistogram::new(std::iter::repeat_n(
                0,
                config.geometry.blocks as usize,
            )),
            tracer: Tracer::new(config.geometry.total_dies()),
            read_scratch: ReadScratch::default(),
            live_scratch: Vec::new(),
            gc_plan: CollectionPlan::new(config.geometry.blocks as usize),
            unpersisted: UnpersistedGroups::new(config.logical_pages()),
            point_die: 0,
            config,
        }
    }

    /// The device configuration.
    pub fn config(&self) -> &SsdConfig {
        &self.config
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// [`SimStats::lookups`] and [`SimStats::mispredictions`] by path —
    /// host reads, flush resolutions — and what the resolutions cost,
    /// over the same window as [`Ssd::stats`].
    pub fn lookup_paths(&self) -> &LookupPaths {
        &self.paths
    }

    /// What synchronous collections held the host for, over the same
    /// window as [`Ssd::stats`].
    pub fn sync_gc(&self) -> &SyncGc {
        &self.sync_gc
    }

    /// How host reads went ahead of flush programs and writes waited
    /// for DRAM slots — suspensions, overtaking reads, reads of flushed
    /// pages still in DRAM, writes that waited for a slot and their
    /// wait, cache hits that waited for their fill — over the same
    /// window as [`Ssd::stats`].
    pub fn read_priority(&self) -> &ReadPriority {
        &self.priority
    }

    /// Resets the statistics (e.g. after a warm-up phase) without
    /// touching device state. The per-die utilization counters reset
    /// together with [`SimStats`] so the two always describe the same
    /// measurement window; an attached [`TraceSink`] keeps recording.
    pub fn reset_stats(&mut self) {
        self.stats = SimStats::new();
        self.paths = LookupPaths::default();
        self.sync_gc = SyncGc::default();
        self.priority = ReadPriority::default();
        self.tracer.util.reset();
    }

    /// Per-die utilization attribution: busy nanoseconds and operation
    /// counts per traffic class, cumulative over the current
    /// measurement window (see [`Ssd::reset_stats`]). Conserved against
    /// [`SimStats`] — see [`UtilizationReport::check_conservation`].
    pub fn utilization(&self) -> &UtilizationReport {
        &self.tracer.util
    }

    /// Attaches a timeline event sink. From here on, every die
    /// reservation, command lifecycle span and control-plane decision
    /// is recorded until [`Ssd::take_trace`] detaches it. Tracing is
    /// observational only: scheduling decisions and virtual-time
    /// results are unchanged.
    pub fn attach_trace(&mut self) {
        self.tracer.sink = Some(TraceSink::new(self.config.geometry.total_dies()));
    }

    /// Detaches and returns the event sink, if one was attached.
    pub fn take_trace(&mut self) -> Option<TraceSink> {
        self.tracer.sink.take()
    }

    /// Verifies the utilization conservation invariant against the
    /// live stats counters: summed over traffic classes, the per-die
    /// attributed operation counts and busy nanoseconds must equal the
    /// [`crate::SimStats`] flash breakdown exactly.
    ///
    /// # Errors
    ///
    /// A description of the first violated equation.
    pub fn check_utilization_conservation(&self) -> Result<(), String> {
        self.tracer
            .util
            .check_conservation(&self.stats.flash, &self.config.timing)
    }

    /// The tracer, for the [`crate::Device`]'s queue/control events.
    pub(crate) fn tracer_mut(&mut self) -> &mut Tracer {
        &mut self.tracer
    }

    /// [`Ssd::place_op`] behind the queued flush programs (a host read
    /// goes ahead of them): every operation but GC's, which
    /// [`Ssd::place_gc`] places where its caller says.
    #[inline]
    fn flash_op(&mut self, op: FlashOp, class: TrafficClass, target: Target, floor_ns: u64) -> u64 {
        self.place_op(op, class, target, floor_ns, Placement::Behind)
    }

    /// Puts one flash operation on its die, starting no earlier than
    /// `floor_ns`, and returns when it completes; the host clock does
    /// not move. With [`Ssd::queue_program`], the only way onto a die:
    /// the operation is counted ([`Ssd::count_op`]), placed on its die
    /// and recorded as a die-track span when a sink is attached — so
    /// what is counted is what was scheduled is what was attributed
    /// ([`Ssd::check_utilization_conservation`] cross-checks it). What
    /// the host waits on goes ahead of the flush programs queued on its
    /// die ([`SimClock::schedule_ahead`]): a host read, which may suspend
    /// the program running at its floor, and whatever its caller places
    /// [`Placement::Ahead`] — a synchronous collection's operations —
    /// which never does. Every other operation goes behind them
    /// ([`SimClock::schedule_after`]).
    #[inline]
    fn place_op(
        &mut self,
        op: FlashOp,
        class: TrafficClass,
        target: Target,
        floor_ns: u64,
        placement: Placement,
    ) -> u64 {
        debug_assert_ne!(op, FlashOp::DataProgram, "a flush's programs are queued");
        let geometry = self.config.geometry;
        let (die, page) = match target {
            Target::Translation(die) => (die, None),
            Target::Block(block) => (geometry.die_of_block(block), None),
            Target::Page(ppa) => (geometry.die_of(ppa), Some(ppa)),
        };
        let kind = op.kind();
        let latency_ns = self.count_op(op, class, die);
        let end_ns = if class == TrafficClass::Host && kind == FlashOpKind::Read {
            debug_assert!(
                !page.is_some_and(|ppa| self.clock.is_queued(die, ppa)),
                "a host read of {page:?}, whose program is queued and so in DRAM"
            );
            let read = self.clock.schedule_ahead(die, floor_ns, latency_ns, true);
            self.priority.suspensions += u64::from(read.suspended);
            self.priority.overtaking_reads += u64::from(read.overtook);
            read.end_ns
        } else if placement == Placement::Ahead {
            self.clock
                .schedule_ahead(die, floor_ns, latency_ns, false)
                .end_ns
        } else {
            self.clock.schedule_after(die, floor_ns, latency_ns)
        };
        self.trace_programs();
        let start_ns = end_ns.saturating_sub(latency_ns);
        self.tracer.die_span(
            class,
            kind,
            die.raw(),
            start_ns,
            latency_ns,
            || match target {
                Target::Translation(_) => (None, None),
                Target::Block(block) => (Some(block), None),
                Target::Page(ppa) => (
                    Some(geometry.block_of(ppa)),
                    (kind == FlashOpKind::Program).then(|| geometry.page_in_block(ppa)),
                ),
            },
        );
        end_ns
    }

    /// Queues a flush's program of `ppa` on its die, to start no
    /// earlier than `floor_ns` ([`SimClock::queue_program`]); it is
    /// counted now and placed when its die needs it. `tag` names the
    /// page's DRAM slot.
    fn queue_program(&mut self, ppa: Ppa, floor_ns: u64, tag: u64) {
        let die = self.config.geometry.die_of(ppa);
        let latency_ns = self.count_op(FlashOp::DataProgram, TrafficClass::Host, die);
        self.clock
            .queue_program(die, floor_ns, latency_ns, ppa, tag);
    }

    /// Counts one operation on `die`: its [`SimStats`] counter and its
    /// (`class`, kind) utilization cell each move by one. The only place
    /// either moves. Returns the operation's NAND latency.
    fn count_op(&mut self, op: FlashOp, class: TrafficClass, die: Die) -> u64 {
        let kind = op.kind();
        let latency_ns = kind.latency_ns(&self.config.timing);
        match op {
            FlashOp::DataRead => self.stats.flash.data_reads += 1,
            FlashOp::MispredictionRead => self.stats.flash.misprediction_reads += 1,
            FlashOp::TranslationRead => self.stats.flash.translation_reads += 1,
            FlashOp::GcRead => self.stats.flash.gc_reads += 1,
            FlashOp::DataProgram => self.stats.flash.data_programs += 1,
            FlashOp::GcProgram => self.stats.flash.gc_programs += 1,
            FlashOp::WearProgram => self.stats.flash.wear_programs += 1,
            FlashOp::TranslationProgram => self.stats.flash.translation_programs += 1,
            FlashOp::Erase => self.stats.flash.erases += 1,
        }
        self.tracer.count(class, kind, die.raw(), latency_ns);
        latency_ns
    }

    /// Records the flush-program stretches the clock placed since the
    /// last call as die-track spans (one per stretch, so a suspended
    /// program shows as two or more).
    fn trace_programs(&mut self) {
        let geometry = self.config.geometry;
        for segment in self.clock.take_placed() {
            self.tracer.die_span(
                TrafficClass::Host,
                FlashOpKind::Program,
                segment.die,
                segment.start_ns,
                segment.end_ns.saturating_sub(segment.start_ns),
                || {
                    let page = segment.page;
                    (
                        Some(geometry.block_of(page)),
                        Some(geometry.page_in_block(page)),
                    )
                },
            );
        }
    }

    /// Places every queued flush program ([`SimClock::place_programs`])
    /// and returns when the last one ends.
    fn place_programs(&mut self) -> u64 {
        let end_ns = self.clock.place_programs();
        self.trace_programs();
        end_ns
    }

    /// Current virtual time in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    /// Advances the host clock to `ns` (no-op if already past) — the
    /// engine's dispatch/completion boundary hook.
    pub(crate) fn advance_to(&mut self, ns: u64) {
        self.clock.wait_until(ns);
    }

    /// Read access to the mapping scheme.
    pub fn scheme(&self) -> &S {
        &self.scheme
    }

    /// Read access to the flash device (tests and experiments).
    pub fn device(&self) -> &FlashDevice {
        &self.device
    }

    /// Read access to the page-validity map (tests and experiments).
    pub fn validity(&self) -> &Validity {
        &self.validity
    }

    /// The mapping scheme and validity map of the newest persistence
    /// point the translation log holds — durable, or under
    /// [`CheckpointMode::FlashLog`] possibly still being written out;
    /// `None` before the first. For tests that hold it against the
    /// live state it was made from.
    pub fn newest_checkpoint(&self) -> Option<(&S, &Validity)> {
        let baseline = self.translog.newest_checkpoint()?;
        Some((&baseline.scheme, &baseline.validity))
    }

    /// Translation-log blocks reclaimed by the log's retention policy
    /// so far (always 0 outside [`CheckpointMode::FlashLog`]).
    pub fn maplog_reclaimed_blocks(&self) -> u64 {
        self.translog.reclaimed_blocks()
    }

    /// Lifetime bytes of translation-log traffic programmed to flash —
    /// checkpoint and delta page programs, the map-log background
    /// traffic that competes with host I/O for dies (always 0 outside
    /// [`CheckpointMode::FlashLog`]).
    pub fn maplog_bytes_written(&self) -> u64 {
        let traffic = self.translog.traffic();
        (traffic.generation_pages + traffic.delta_pages) * self.config.geometry.page_size as u64
    }

    /// The same traffic in log pages, split into checkpoint generations
    /// and the delta journal between them — under
    /// [`CheckpointMode::FlashLog`] a generation is requested once the
    /// journal is as long as the generation, so generation pages stay
    /// within the delta pages plus the one generation being earned.
    pub fn maplog_traffic(&self) -> MapLogTraffic {
        self.translog.traffic()
    }

    /// Bytes of DRAM the mapping structures currently occupy.
    pub fn mapping_bytes(&self) -> usize {
        self.scheme.memory_bytes()
    }

    /// Bytes of DRAM currently available to the read data cache: total
    /// DRAM minus whatever the mapping side uses (the write buffer is
    /// dedicated controller memory, see [`SsdConfig`]). This leftover
    /// is the mechanism behind the paper's performance win — a smaller
    /// mapping table funds a larger data cache. Consulted on every
    /// cache insert, so `memory_bytes` must be O(1) (incremental
    /// counters, not a group walk).
    pub fn data_cache_capacity(&self) -> usize {
        self.config
            .dram_bytes
            .saturating_sub(self.scheme.memory_bytes())
    }

    fn check_lpa(&self, lpa: Lpa) -> Result<(), SimError> {
        if lpa.raw() >= self.config.logical_pages() {
            return Err(SimError::LpaOutOfRange(lpa));
        }
        Ok(())
    }

    /// Mapping entries per translation page, derived from the page
    /// size (8 B per entry: 4 B LPA + 4 B PPA). A 4 KB page holds 512
    /// entries; the Fig. 22b page-size sweep scales with it so
    /// translation I/O is charged consistently at every page size.
    fn translation_entries_per_page(&self) -> u64 {
        (self.config.geometry.page_size as u64 / 8).max(1)
    }

    fn translation_die(&self, lpa: Lpa) -> Die {
        let tpage = lpa.raw() / self.translation_entries_per_page();
        Die::new((tpage % self.config.geometry.total_dies() as u64) as u32)
    }

    /// Charges a mapping operation's translation I/O: reads chain on
    /// the translation die starting no earlier than `floor_ns`,
    /// write-backs follow them asynchronously. Returns when the reads
    /// are done — a caller that depends on them waits for (or chains
    /// from) that time, one that only occupies the die drops it. All of
    /// a call's ops land on one die, so its FIFO orders them the same
    /// whether they chain from each other or are each scheduled "now".
    /// `class` attributes the die time to whoever triggered the
    /// operation, and `placement` puts it among the queued flush
    /// programs. The global clock does not move.
    fn charge_map_cost(
        &mut self,
        lpa: Lpa,
        cost: MapCost,
        floor_ns: u64,
        class: TrafficClass,
        placement: Placement,
    ) -> u64 {
        let mut ready_ns = floor_ns;
        if cost.translation_reads == 0 && cost.translation_writes == 0 {
            return ready_ns;
        }
        let die = self.translation_die(lpa);
        for _ in 0..cost.translation_reads {
            ready_ns = self.place_op(
                FlashOp::TranslationRead,
                class,
                Target::Translation(die),
                ready_ns,
                placement,
            );
        }
        for _ in 0..cost.translation_writes {
            // Write-backs occupy the die but extend nothing.
            self.place_op(
                FlashOp::TranslationProgram,
                class,
                Target::Translation(die),
                ready_ns,
                placement,
            );
        }
        ready_ns
    }

    /// Reads one logical page. Returns `None` for never-written pages.
    ///
    /// The blocking queue-depth-1 interface: services a burst of one
    /// (`service_read_batch`) and advances the virtual clock to
    /// its completion before returning.
    ///
    /// # Errors
    ///
    /// * [`SimError::LpaOutOfRange`] — address beyond logical capacity.
    /// * [`SimError::MappingCorruption`] — internal consistency bug.
    pub fn read(&mut self, lpa: Lpa) -> Result<Option<u64>, SimError> {
        let mut outcome = [(None, 0)];
        self.service_read_batch(&[lpa], &mut outcome)?;
        let [(value, complete_ns)] = outcome;
        self.clock.wait_until(complete_ns);
        Ok(value)
    }

    /// Services a burst of reads dispatched together, without blocking
    /// the virtual clock: state (caches, stats, device) changes
    /// immediately, flash work is chained on the per-die timelines
    /// from the current dispatch time, and each request's value is
    /// returned with its completion time. This is the only read
    /// implementation — the blocking [`Ssd::read`] and a queue-depth-1
    /// device service bursts of one.
    ///
    /// The burst is a *pipeline*: state advances in strict batch order
    /// (so results, flash-op counts, cache/CMT mutations and scheme
    /// state are bit-identical to servicing the burst one request at a
    /// time), while on the timeline each request's map lookup proceeds
    /// *out of order* — a resident request's sub-µs lookup does not
    /// wait behind an earlier request's demand-paged translation-page
    /// read, and its data read overlaps that translation read on the
    /// die timelines ([`Ssd::service_read_pipelined`]).
    ///
    /// While the scheme's lookups are pure
    /// ([`MappingScheme::lookup_is_pure`], i.e. the table is resident)
    /// the burst's translations are taken ahead of servicing in one
    /// [`MappingScheme::lookup_batch`] call; under demand paging each
    /// request translates at its turn instead, so cache/CMT mutations
    /// keep submission order.
    ///
    /// Each request's `(value, completion time)` lands in `outcomes`,
    /// which must be as long as `lpas`.
    pub(crate) fn service_read_batch(
        &mut self,
        lpas: &[Lpa],
        outcomes: &mut [(Option<u64>, u64)],
    ) -> Result<(), SimError> {
        debug_assert_eq!(lpas.len(), outcomes.len());
        for &lpa in lpas {
            self.check_lpa(lpa)?;
        }
        let mut scratch = std::mem::take(&mut self.read_scratch);
        // Prefetch translations only for the *first* occurrence of each
        // address that misses DRAM right now. Later occurrences re-check
        // at their turn — they either hit the cache the first read
        // populated (no lookup) or fall back to a pointwise lookup at
        // their turn. (With a pure lookup this is an optimisation, not
        // a correctness condition.) Left empty when nothing is hoisted,
        // as for a burst of one.
        scratch.prefetched.clear();
        if lpas.len() > 1 && self.scheme.lookup_is_pure() {
            scratch.prefetched.resize(lpas.len(), None);
            scratch.seen.clear();
            scratch.slots.clear();
            scratch.needs_lookup.clear();
            for (index, &lpa) in lpas.iter().enumerate() {
                if self.pool.get(lpa).is_none()
                    && !self.read_cache.contains(&lpa)
                    && scratch.seen.insert(lpa)
                {
                    scratch.slots.push(index);
                    scratch.needs_lookup.push(lpa);
                }
            }
            let hits = self.scheme.lookup_batch(&scratch.needs_lookup);
            for (&slot, hit) in scratch.slots.iter().zip(hits) {
                scratch.prefetched[slot] = Some(hit);
            }
        }
        let serviced = self.service_read_pipelined(lpas, &mut scratch, outcomes);
        self.read_scratch = scratch;
        serviced
    }

    /// The two-pass pipelined burst: pass 1 commits every state change
    /// in batch order (exactly what servicing the requests one by one
    /// would do); pass 2 lays the work onto the timelines with
    /// out-of-order lookups — translation charges chain per request,
    /// then, in *map-ready* order rather than batch order, each
    /// request's lookup runs from its map-ready time and its data
    /// probes claim die time immediately, overlapping later-ready
    /// requests' translation reads. A burst of one degenerates to the
    /// serial chain translation reads → lookup → data probes.
    fn service_read_pipelined(
        &mut self,
        lpas: &[Lpa],
        scratch: &mut ReadScratch,
        results: &mut [(Option<u64>, u64)],
    ) -> Result<(), SimError> {
        let started = self.clock.now_ns();
        let page_bytes = self.config.geometry.page_size as usize;
        let ReadScratch {
            prefetched,
            pending,
            probes,
            fill_waits,
            ..
        } = scratch;
        pending.clear();
        probes.clear();
        fill_waits.clear();

        // Pass 1 — state, strict batch order. A DRAM hit's result is
        // final, unless its page is still on its way from flash; a miss
        // gets its value now and is queued for pass 2, which fills in
        // its completion time.
        for (index, &lpa) in lpas.iter().enumerate() {
            self.stats.host_reads += 1;
            let dram_hit = if let Some(content) = self.pool.buffer().get(lpa) {
                self.stats.buffer_hits += 1;
                Some((content, 0))
            } else if let Some(content) = self.pool.flushed(lpa) {
                self.stats.buffer_hits += 1;
                self.priority.in_flight_hits += 1;
                Some((content, 0))
            } else if let Some(&cached) = self.read_cache.get(&lpa) {
                self.stats.cache_hits += 1;
                // A page an earlier read of this burst brought in is
                // ready when that read ends, which pass 2 places.
                if let Some(filler) = pending.iter().rev().find(|read| read.lpa == lpa) {
                    debug_assert!(
                        filler.translated.is_some(),
                        "an unmapped read fills nothing"
                    );
                    fill_waits.push((index, filler.index));
                    results[index].0 = Some(cached.content);
                    continue;
                }
                Some((cached.content, cached.ready_ns))
            } else {
                None
            };
            if let Some((content, ready_ns)) = dram_hit {
                let complete_ns = self.dram_hit_done(started, ready_ns);
                results[index] = (Some(content), complete_ns);
                continue;
            }
            let (hit, cost) = match prefetched.get_mut(index).and_then(Option::take) {
                Some(looked) => looked,
                None => self.scheme.lookup(lpa),
            };
            let Some(hit) = hit else {
                self.stats.unmapped_reads += 1;
                results[index] = (None, started);
                pending.push(PendingRead {
                    index,
                    lpa,
                    cost,
                    translated: None,
                });
                continue;
            };
            // Mapping-table CPU cost, on the request's own chain.
            let cpu_ns =
                LOOKUP_BASE_NS + LOOKUP_PER_LEVEL_NS * hit.levels_visited.saturating_sub(1) as u64;
            self.stats.lookup_cpu_ns += cpu_ns;
            self.stats.lookups += 1;
            self.paths.read_lookups += 1;
            self.stats.record_lookup_levels(hit.levels_visited);
            let plan = self.plan_read_probes(lpa, &hit, true, probes)?;
            let block = self.config.geometry.block_of(plan.exact);
            let relocated = self.allocator.opened_by(block) == Some(Stream::Gc);
            self.paths.relocated_read_lookups += u64::from(relocated);
            if plan.mispredicted {
                self.stats.mispredictions += 1;
                self.paths.read_mispredictions += 1;
                self.paths.relocated_read_mispredictions += u64::from(relocated);
            }
            // In DRAM once the read ends, which pass 2 sets.
            let cached = CachedPage {
                content: plan.content,
                ready_ns: started,
            };
            // The cache holds what reads brought in (a written page is
            // in the write pool): no victim is ever dirty.
            self.read_cache.insert(lpa, cached, page_bytes, false);
            self.read_cache.evict_to(self.data_cache_capacity());
            results[index] = (Some(plan.content), started);
            pending.push(PendingRead {
                index,
                lpa,
                cost,
                translated: Some(Translated { cpu_ns, plan }),
            });
        }

        // Pass 2 — time. Translation charges chain per request from the
        // shared dispatch point, in batch order; each leaves the
        // request map-ready.
        for read in pending.iter() {
            let (class, placement) = (TrafficClass::Host, Placement::Behind);
            results[read.index].1 =
                self.charge_map_cost(read.lpa, read.cost, started, class, placement);
        }
        // Out-of-order stage: in map-ready order (ties broken by batch
        // index), each request's lookup runs from its map-ready time and
        // its data probes claim die time immediately — a resident lookup
        // and its data read overlap an earlier request's in-flight
        // translation-page read instead of queueing behind it.
        pending.sort_unstable_by_key(|read| (results[read.index].1, read.index));
        for read in pending.iter() {
            if let Some(translated) = &read.translated {
                let looked_up = results[read.index].1 + translated.cpu_ns;
                let read_ns =
                    self.schedule_probes(&translated.plan, probes, looked_up, TrafficClass::Host);
                results[read.index].1 = read_ns;
                if let Some(cached) = self.read_cache.peek_mut(&read.lpa) {
                    cached.ready_ns = cached.ready_ns.max(read_ns);
                }
            }
            let complete_ns = results[read.index].1;
            self.stats
                .read_latency
                .record(complete_ns.saturating_sub(started));
        }
        for &(index, filler) in fill_waits.iter() {
            results[index].1 = self.dram_hit_done(started, results[filler].1);
        }
        Ok(())
    }

    /// Completes a DRAM hit dispatched at `started` on a page that is in
    /// DRAM from `ready_ns`: records its latency and returns its
    /// completion time.
    fn dram_hit_done(&mut self, started: u64, ready_ns: u64) -> u64 {
        let hit_ns = started + DRAM_HIT_NS;
        if ready_ns > hit_ns {
            self.priority.fill_waits += 1;
            self.priority.fill_wait_ns += ready_ns.saturating_sub(hit_ns);
        }
        let complete_ns = hit_ns.max(ready_ns);
        self.stats
            .read_latency
            .record(complete_ns.saturating_sub(started));
        complete_ns
    }

    /// Chains a plan's probes (its range of `probes`, the list it was
    /// planned into) as flash reads on a request's dependency chain
    /// starting at `ready_ns`; returns the chain's completion time. The
    /// only place a probe is put on a die, so a plan that was never
    /// scheduled is never counted.
    fn schedule_probes(
        &mut self,
        plan: &ReadPlan,
        probes: &[Ppa],
        mut ready_ns: u64,
        class: TrafficClass,
    ) -> u64 {
        for (index, &ppa) in probes[plan.probes.clone()].iter().enumerate() {
            let op = if index == 0 && plan.leads_with_data_read {
                FlashOp::DataRead
            } else {
                FlashOp::MispredictionRead
            };
            ready_ns = self.flash_op(op, class, Target::Page(ppa), ready_ns);
        }
        ready_ns
    }

    /// Resolves a (possibly approximate) prediction to the live page
    /// without touching any timeline or counter (it takes `&self`, and
    /// a device read is a query): walks the probe sequence against the
    /// device and appends the pages that must be read, in order, to
    /// `probes` for the caller to schedule. Planning
    /// first and scheduling after is what lets a burst plan every
    /// request's probes in batch order (state) while scheduling them in
    /// map-ready order (time).
    ///
    /// Correct-page criterion: the OOB reverse mapping matches *and* the
    /// PVT says the page is live — stale copies of the same LPA within
    /// the error window are rejected by the validity check. A host read
    /// (`host_read`) needs the live page's content, so a page the
    /// predicted page's window names is read too; a resolution for
    /// invalidation needs only its address, which the window gives.
    /// Neither lists a page whose program is still queued: that page is
    /// in DRAM, OOB and all.
    fn plan_read_probes(
        &self,
        lpa: Lpa,
        hit: &MappingLookup,
        host_read: bool,
        probes: &mut Vec<Ppa>,
    ) -> Result<ReadPlan, SimError> {
        let gamma = hit.error_bound as u64;
        let predicted = hit.ppa;
        let first = probes.len();
        let geometry = self.config.geometry;
        // A page whose program is still queued holds its DRAM slot.
        let read_flash = |page: Ppa| !self.clock.is_queued(geometry.die_of(page), page);
        let plan = |exact: Ppa, content: u64, probes: &[Ppa]| ReadPlan {
            exact,
            content,
            mispredicted: exact != predicted,
            leads_with_data_read: probes.get(first) == Some(&predicted),
            probes: first..probes.len(),
        };

        // First attempt: the predicted page, when in range.
        if geometry.contains(predicted) {
            if read_flash(predicted) {
                probes.push(predicted);
            }
            if let Ok(view) = self.device.read(predicted) {
                if view.lpa == Some(lpa) && self.validity.is_valid(predicted) {
                    return Ok(plan(predicted, view.content, probes));
                }
                // Misprediction: consult the OOB reverse-mapping window
                // of the page we already read (§3.5) — one extra flash
                // access suffices when the window names the LPA, and
                // none when only its address is wanted.
                if let Some(candidate) = self.named_live(predicted, hit.error_bound, lpa) {
                    if host_read {
                        probes.push(candidate);
                    }
                    let view = self.device.read(candidate)?;
                    debug_assert_eq!(view.lpa, Some(lpa));
                    return Ok(plan(candidate, view.content, probes));
                }
            }
        }

        // Fallback: scan outward within the guaranteed bound. Reached
        // only when the predicted page was erased/out-of-range or the
        // window was clipped at a block boundary.
        for distance in 1..=gamma.max(1) {
            for candidate in [
                predicted.checked_sub(distance),
                Some(predicted.offset(distance)),
            ]
            .into_iter()
            .flatten()
            {
                if !geometry.contains(candidate) || !self.validity.is_valid(candidate) {
                    continue;
                }
                if read_flash(candidate) {
                    probes.push(candidate);
                }
                if let Ok(view) = self.device.read(candidate) {
                    if view.lpa == Some(lpa) {
                        return Ok(plan(candidate, view.content, probes));
                    }
                }
            }
        }
        Err(SimError::MappingCorruption { lpa, predicted })
    }

    /// The live page of `lpa` among those the OOB window of `page`
    /// names (§3.5). The window comes with a read of `page`, so asking
    /// it costs no flash access; a page the PVT marks live whose reverse
    /// mapping is `lpa` is that LPA's one live copy.
    fn named_live(&self, page: Ppa, gamma: u32, lpa: Lpa) -> Option<Ppa> {
        self.device
            .oob_window(page, gamma)?
            .find(lpa)
            .map(|delta| Ppa::new((page.raw() as i64 + delta) as u64))
            .find(|&candidate| self.validity.is_valid(candidate))
    }

    /// Invalidates the pages `lpas` overwrite, in one resolution pass.
    /// Each LPA's old mapping is looked up in order and an exact hit is
    /// invalidated directly. An approximate hit needs the old page's
    /// exact address (a *resolution*). A flush finds it without a read
    /// when the old copy is a flushed page still in DRAM (the pool
    /// knows where that page went, [`WritePool::overwritten`]) or when
    /// the OOB window of the page the pass read last names a live copy;
    /// otherwise the predicted page is read once and its window names
    /// the address — the named page is not read again, invalidation
    /// needs no content — and only a prediction the window cannot name
    /// scans outward. Every probe starts from the pass's one dispatch
    /// point, as a host-class read chained per LPA behind whatever the
    /// dies already hold. A flush does not wait for them: nothing the
    /// host sees depends on them, as nothing depends on its translation
    /// I/O. Recovery's replay waits for the last.
    fn invalidate_overwritten(
        &mut self,
        lpas: impl IntoIterator<Item = Lpa>,
        by: Overwriter,
    ) -> Result<(), SimError> {
        let class = match by {
            Overwriter::Flush => TrafficClass::Host,
            Overwriter::Replay => TrafficClass::MapLog,
        };
        let dispatch_ns = self.clock.now_ns();
        let mut done_ns = dispatch_ns;
        let mut probes = std::mem::take(&mut self.read_scratch.probes);
        // The page the pass read last, with the bound of the lookup
        // that read it: the window that came with it.
        let mut last_read: Option<(Ppa, u32)> = None;
        let mut outcome = Ok(());
        for lpa in lpas {
            let (hit, cost) = self.scheme.lookup(lpa);
            if by == Overwriter::Flush {
                // The translation I/O occupies its die (delaying future
                // reads) without blocking the host.
                self.charge_map_cost(lpa, cost, dispatch_ns, class, Placement::Behind);
            }
            let Some(hit) = hit else { continue };
            if !hit.approximate {
                // A replayed mapping may name a page erased since:
                // clearing an already-cleared bit is a no-op.
                debug_assert!(by == Overwriter::Replay || self.validity.is_valid(hit.ppa));
                self.invalidate(hit.ppa);
                continue;
            }
            // Recovery's replay finds the pool empty: a power cut
            // cleared it.
            let in_dram = self.pool.overwritten(lpa);
            debug_assert!(
                in_dram.is_none_or(|ppa| self.validity.is_valid(ppa)
                    && self
                        .device
                        .read(ppa)
                        .is_ok_and(|page| page.lpa == Some(lpa))),
                "the pool's copy of {lpa:?} at {in_dram:?} is not its live page"
            );
            let windowed = if in_dram.is_some() {
                None
            } else {
                last_read.and_then(|(page, gamma)| self.named_live(page, gamma, lpa))
            };
            let (exact, reads) = match in_dram.or(windowed) {
                Some(exact) => (exact, 0),
                None => {
                    probes.clear();
                    match self.plan_read_probes(lpa, &hit, false, &mut probes) {
                        Ok(plan) => {
                            let ready_ns = self.schedule_probes(&plan, &probes, dispatch_ns, class);
                            done_ns = done_ns.max(ready_ns);
                            last_read = probes.last().map(|&page| (page, hit.error_bound));
                            (plan.exact, probes.len() as u64)
                        }
                        // The old copy is gone (see `replay_mapping_batch`).
                        Err(_) if by == Overwriter::Replay => continue,
                        Err(error) => {
                            outcome = Err(error);
                            break;
                        }
                    }
                }
            };
            if by == Overwriter::Flush {
                self.stats.lookups += 1;
                self.paths.resolutions += 1;
                self.paths.resolution_reads += reads;
                if in_dram.is_some() {
                    self.paths.dram_resolutions += 1;
                }
                if windowed.is_some() {
                    self.paths.window_resolutions += 1;
                }
                if exact != hit.ppa {
                    self.stats.mispredictions += 1;
                    self.paths.resolution_mispredictions += 1;
                }
            }
            self.invalidate(exact);
        }
        self.read_scratch.probes = probes;
        if by == Overwriter::Replay {
            self.clock.wait_until(done_ns);
        }
        outcome
    }

    /// Writes one logical page. The page lands in the write buffer; a
    /// full buffer triggers a flush (allocation, programming, learning,
    /// and possibly GC / wear levelling).
    ///
    /// Queue-depth-1 wrapper over `service_write` — writes are
    /// absorbed by serial controller DRAM, so the service path itself
    /// advances the clock and the wrapper adds nothing.
    ///
    /// # Errors
    ///
    /// * [`SimError::LpaOutOfRange`] — address beyond logical capacity.
    /// * [`SimError::DeviceFull`] — no reclaimable space left.
    pub fn write(&mut self, lpa: Lpa, content: u64) -> Result<(), SimError> {
        self.service_write(lpa, content, GcMode::Synchronous)
            .map(|_| ())
    }

    /// Services one write, returning its completion time. The buffer
    /// insert is a serial DRAM access (the clock advances); a wait for a
    /// DRAM slot ([`Ssd::take_slot`]) and, when the insert fills the
    /// buffer, the flush are part of this request's latency, exactly as
    /// in the blocking path. `gc` says whether that flush collects
    /// inline.
    pub(crate) fn service_write(
        &mut self,
        lpa: Lpa,
        content: u64,
        gc: GcMode,
    ) -> Result<u64, SimError> {
        self.check_lpa(lpa)?;
        let started = self.clock.now_ns();
        self.stats.host_writes += 1;
        self.read_cache.remove(&lpa);
        if !self.pool.insert(lpa, content) && self.pool.overflows() {
            self.take_slot();
        }
        self.clock.advance(DRAM_HIT_NS);
        if self.pool.buffer().len() >= self.config.write_buffer_pages {
            self.flush_buffer(gc)?;
        }
        let done = self.clock.now_ns();
        self.stats.write_latency.record(done - started);
        Ok(done)
    }

    /// Forces the write buffer to flash and waits for it to drain
    /// (host flush / fsync semantics).
    pub fn flush(&mut self) -> Result<(), SimError> {
        let deadline = self.service_flush(GcMode::Synchronous)?;
        self.clock.wait_until(deadline);
        Ok(())
    }

    /// Services a host flush command without blocking on the programs:
    /// the buffer is flushed (state applied), every queued program is
    /// placed, and the drain deadline returned — the
    /// [`crate::Device`] completes the command when that deadline
    /// passes. `gc` says whether the flush collects inline.
    pub(crate) fn service_flush(&mut self, gc: GcMode) -> Result<u64, SimError> {
        self.flush_buffer(gc)?;
        Ok(self.place_programs().max(self.clock.now_ns()))
    }

    /// Frees a DRAM slot for a write that finds every one held: the
    /// flushed page whose program ended first gives its slot up, and is
    /// read from flash from then on. When no program has ended, the
    /// host waits for the earliest to end — one program, plus a resume
    /// if reads suspended it.
    fn take_slot(&mut self) {
        let taken = self.clock.take_earliest_program();
        debug_assert!(taken.is_some(), "a full pool holds a flushed page");
        let Some((end_ns, tag)) = taken else {
            return;
        };
        let now = self.clock.now_ns();
        if end_ns > now {
            self.clock.wait_until(end_ns);
            self.priority.slot_waits += 1;
            self.priority.slot_wait_ns += end_ns.saturating_sub(now);
        }
        self.trace_programs();
        self.pool.release(tag);
    }

    fn flush_buffer(&mut self, gc: GcMode) -> Result<(), SimError> {
        if self.pool.buffer().is_empty() {
            return Ok(());
        }
        // The pages keep their DRAM slots, and the pool learns where
        // each goes; their programs queue behind whatever earlier
        // flushes left queued.
        let sorted = self.config.sort_buffer_on_flush;
        let len = self.pool.buffer().len() as u32;
        self.ensure_allocatable(len, Stream::Host)?;
        let runs = self
            .allocate(Stream::Host, len)
            .ok_or(SimError::DeviceFull)?;
        let (pages, first_tag) = self.pool.flush(sorted, runs.iter().flat_map(PageRun::ppas));

        // Queue every program on its die: the host continues, and the
        // dies serve reads ahead of them.
        let now = self.clock.now_ns();
        let batches = self.program_runs(&runs, &pages, now)?;
        let ppas = runs.iter().flat_map(PageRun::ppas);
        for (tag, ppa) in (first_tag..).zip(ppas) {
            self.queue_program(ppa, now, tag);
        }

        // Invalidate prior locations, then install the new mappings.
        let overwritten = batches.iter().flatten().map(|&(lpa, _)| lpa);
        self.invalidate_overwritten(overwritten, Overwriter::Flush)?;
        for batch in &batches {
            let cost = self.learn_and_mark(batch, sorted);
            let now = self.clock.now_ns();
            let (class, placement) = (TrafficClass::Host, Placement::Behind);
            self.charge_map_cost(batch[0].0, cost, now, class, placement);
        }

        self.translog_append_delta(batches.into_iter().flatten());

        // Learned-table compaction (§3.7) runs here on every path, in
        // DRAM: no scheme charges it flash I/O.
        let (cost, compacted) = self.scheme.maintain();
        debug_assert_eq!(cost, MapCost::FREE, "a compaction that charges flash I/O");
        if compacted {
            self.stats.compactions += 1;
        }
        // Background mode leaves watermark GC to the device front-end;
        // wear levelling stays synchronous in both modes (rare, and its
        // trigger is erase-count skew, not the write path).
        if gc == GcMode::Synchronous {
            self.maybe_gc()?;
        }
        self.maybe_wear_level()?;
        // Blocking path: nothing else will dispatch the queued log
        // ops, so the flush drains them synchronously (the log is
        // durable at every flush boundary). Under background GC the
        // multi-queue device serves them as `Command::MapLog` traffic.
        if self.config.checkpoint_mode == CheckpointMode::FlashLog && gc == GcMode::Synchronous {
            self.drain_maplog()?;
        }
        Ok(())
    }

    /// Installs a batch's mappings and marks the new pages live;
    /// returns the translation I/O the scheme charged, for the caller
    /// to place ([`Ssd::charge_map_cost`]). `sorted` batches (every
    /// sorted flush, GC migration and wear swap) take the scheme's
    /// pre-sorted fast path. Learning runs on the controller CPU
    /// alongside the asynchronous flush, so it is accounted but does
    /// not block the host (§4.5: 0.02% of the flash write latency).
    fn learn_and_mark(&mut self, batch: &[(Lpa, Ppa)], sorted: bool) -> MapCost {
        if batch.is_empty() {
            return MapCost::FREE;
        }
        self.unpersisted.note(batch);
        let cost = if sorted {
            self.scheme.update_batch_sorted(batch)
        } else {
            self.scheme.update_batch(batch)
        };
        let learn_ns = self.scheme.learn_cost_ns(batch.len());
        self.stats.learn_cpu_ns += learn_ns;
        for &(_, ppa) in batch {
            self.mark_valid(ppa);
        }
        cost
    }

    /// Programs `pages` onto `runs` in order at `now_ns`, on the device
    /// only: the dies are the caller's to schedule. Returns the
    /// installed `(LPA, PPA)` pairs run by run — a run is one learning
    /// batch. Every data page the device programs goes through here, for
    /// a flush, a migration or a wear swap alike.
    fn program_runs(
        &mut self,
        runs: &[PageRun],
        pages: &[(Lpa, u64)],
        now_ns: u64,
    ) -> Result<Vec<Batch>, SimError> {
        let mut pages = pages.iter();
        let mut batches: Vec<Batch> = Vec::with_capacity(runs.len());
        for run in runs {
            let mut batch = Vec::with_capacity(run.len as usize);
            for (ppa, &(lpa, content)) in run.ppas().zip(&mut pages) {
                self.device.program(ppa, content, Some(lpa))?;
                self.note_block_write(ppa, now_ns);
                batch.push((lpa, ppa));
            }
            batches.push(batch);
        }
        Ok(batches)
    }

    /// Collects until `stream` can take `pages` pages.
    fn ensure_allocatable(&mut self, pages: u32, stream: Stream) -> Result<(), SimError> {
        if self.collect_while(|ssd| !ssd.allocator.can_allocate(stream, pages))? {
            Ok(())
        } else {
            Err(SimError::DeviceFull)
        }
    }

    /// [`BlockAllocator::allocate`], marking the blocks the request
    /// closed (filled, or the log's replaced in its slot): closing is
    /// what makes a block a GC candidate.
    fn allocate(&mut self, stream: Stream, pages: u32) -> Option<Vec<PageRun>> {
        let runs = self.allocator.allocate(stream, pages);
        for block in self.allocator.take_closed() {
            self.gc_index.touch(block);
        }
        runs
    }

    // The three ways a valid count changes. Each marks the block for
    // the victim index, which re-reads the count at the next selection.

    fn invalidate(&mut self, ppa: Ppa) {
        self.validity.invalidate(ppa);
        self.gc_index.touch(self.config.geometry.block_of(ppa));
    }

    fn mark_valid(&mut self, ppa: Ppa) {
        self.validity.mark_valid(ppa);
        self.gc_index.touch(self.config.geometry.block_of(ppa));
    }

    fn clear_block(&mut self, block: BlockId) {
        self.validity.clear_block(block);
        self.gc_index.touch(block);
    }

    /// Erases `block` on the device, keeping the erase-count histogram
    /// and the victim index (an erased block is no candidate) current.
    fn erase_block(&mut self, block: BlockId) -> Result<(), SimError> {
        let erases = self.device.erase(block)?;
        self.erase_histogram.note_erase(erases - 1);
        self.gc_index.touch(block);
        Ok(())
    }

    /// Recycles `block`: erases it on the device, drops whatever
    /// validity it held and returns it to the free pool. The only way
    /// a block gets back there — for GC victims, wear swaps and the
    /// translation log's superseded blocks alike. The erase's die time
    /// is the caller's to schedule.
    fn recycle(&mut self, block: BlockId) -> Result<(), SimError> {
        self.erase_block(block)?;
        self.clear_block(block);
        self.allocator.release(block);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Garbage collection (§3.6): the state half is `gc.rs`'s
    // ------------------------------------------------------------------

    /// Runs a synchronous collection while `wanted` holds, giving up
    /// when nothing is left to collect or after one pass per block: the
    /// collection a background GC dispatch runs
    /// ([`Ssd::plan_collection`]), placed ahead of the flush programs
    /// queued on its dies (the host is blocked on it, as on a read) and
    /// then waited for once, for its latest erase, so no later host read
    /// queues behind its relocations. Returns whether `wanted` was
    /// satisfied.
    fn collect_while(&mut self, wanted: impl Fn(&Self) -> bool) -> Result<bool, SimError> {
        let started_ns = self.clock.now_ns();
        let (plan, collected) = self.plan_collection(&wanted, usize::MAX, started_ns);
        let mut done = Vec::new();
        let behind_ns = self.place_gc(&plan, Placement::Ahead, &mut done);
        collected?;
        if let Some(last_erase_ns) = done.iter().map(|&(_, erase_ns)| erase_ns).max() {
            self.clock.wait_until(last_erase_ns);
            let (geometry, timing) = (&self.config.geometry, &self.config.timing);
            self.sync_gc.collections += 1;
            self.sync_gc.passes += done.len() as u64;
            self.sync_gc.wait_ns += self.clock.now_ns().saturating_sub(started_ns);
            self.sync_gc.busiest_die_ns += busiest_die_ns(&plan.passes, geometry, timing);
            self.sync_gc.behind_ns += behind_ns;
        }
        Ok(!wanted(self))
    }

    /// Puts a [`GcPlan`] on the dies from its dispatch point: its
    /// persistence points' pages, then its passes' steps in the order
    /// [`CollectionPlan::order`] gives — every read, then every program
    /// (each no earlier than its pass's last read), then every erase
    /// (each no earlier than its pass's last program), a block's steps
    /// in state order. A pass's translation I/O follows its programs, as
    /// a flush's does. The one way GC work reaches a die: `placement`
    /// puts all of it ahead of the flush programs queued there (a
    /// synchronous collection, which the host waits on) or behind them
    /// (a background dispatch, a wear swap, a persistence point run on
    /// its own). Ahead of them, a victim whose program is still queued
    /// is read and erased behind its die's queue.
    ///
    /// Appends each pass's victim and erase completion to `done`, in
    /// pass order, and returns the longest any die the steps use was
    /// already reserved past the dispatch point once the points were
    /// placed ([`SyncGc::behind_ns`]). The host clock does not move.
    pub(crate) fn place_gc(
        &mut self,
        plan: &GcPlan,
        placement: Placement,
        done: &mut Vec<(BlockId, u64)>,
    ) -> u64 {
        let now = plan.dispatch_ns;
        let geometry = self.config.geometry;
        let dies = geometry.total_dies() as usize;
        for point in &plan.points {
            for page in 0..point.pages {
                let die = Die::new(((point.first_die as usize + page) % dies) as u32);
                let target = Target::Translation(die);
                let (op, class) = (FlashOp::TranslationProgram, TrafficClass::MapLog);
                self.place_op(op, class, target, now, placement);
            }
        }
        let passes = &plan.passes;
        let behind_ns = passes
            .iter()
            .flat_map(|pass| {
                std::iter::once(pass.victim).chain(pass.runs.iter().map(|run| run.block))
            })
            .map(|block| self.clock.reserved_until(geometry.die_of_block(block)))
            .map(|reserved_ns| reserved_ns.saturating_sub(now))
            .max()
            .unwrap_or(0);
        let mut order = std::mem::take(&mut self.gc_plan);
        // Per pass: when its reads, its programs and its erase are done.
        let mut times = vec![[now; 3]; passes.len()];
        for &(index, step) in order.order(passes) {
            let pass = &passes[index];
            let times = &mut times[index];
            if placement == Placement::Ahead && matches!(step, Step::Reads | Step::Erase) {
                let die = geometry.die_of_block(pass.victim);
                let first = geometry.first_ppa(pass.victim);
                if self
                    .clock
                    .queues_any(die, first, u64::from(geometry.pages_per_block))
                {
                    self.clock.place_queue_of(die);
                }
            }
            let (class, victim) = (TrafficClass::Gc, Target::Block(pass.victim));
            match step {
                Step::Reads => {
                    for _ in 0..pass.reads {
                        let end = self.place_op(FlashOp::GcRead, class, victim, now, placement);
                        times[0] = times[0].max(end);
                    }
                }
                Step::Run(run) => {
                    for ppa in pass.runs[run].ppas() {
                        let page = Target::Page(ppa);
                        let end = self.place_op(pass.program, class, page, times[0], placement);
                        times[1] = times[1].max(end);
                    }
                }
                Step::MapCosts => {
                    for &(lpa, cost) in &pass.map_costs {
                        self.charge_map_cost(lpa, cost, now, class, placement);
                    }
                }
                Step::Erase => {
                    let floor_ns = times[0].max(times[1]);
                    times[2] = self.place_op(FlashOp::Erase, class, victim, floor_ns, placement);
                }
            }
        }
        self.gc_plan = order;
        done.extend(
            passes
                .iter()
                .zip(&times)
                .map(|(pass, times)| (pass.victim, times[2])),
        );
        behind_ns
    }

    /// The DRAM slot bound: buffered pages plus flushed pages whose
    /// programs have not ended fit in `2 × write_buffer_pages` slots
    /// (so do buffered plus flushed pages still in DRAM), and every
    /// flushed page holding a slot is one whose program the clock has
    /// not handed back.
    fn check_slots(&self) -> Vec<String> {
        let mut violations = Vec::new();
        let (untaken, unended) = self.clock.untaken_programs(self.clock.now_ns());
        let (buffered, resident) = (self.pool.buffer().len(), self.pool.resident());
        let slots = self.pool.capacity();
        if buffered + unended.max(resident) > slots {
            violations.push(format!(
                "{buffered} buffered, {unended} unprogrammed and {resident} flushed pages in {slots} slots"
            ));
        }
        if untaken != resident {
            violations.push(format!(
                "{resident} flushed pages hold a slot, {untaken} programs not handed back"
            ));
        }
        violations
    }

    /// Checks the simulator's own bookkeeping against what it
    /// summarises, returning one line per disagreement (empty =
    /// consistent): the victim index against a scan of the blocks
    /// (every clean key, the tree above the keys, and the candidates it
    /// enumerates once the marked keys are re-read), the allocator's
    /// per-block state and free counter against its slots and pools,
    /// the erase histogram against the device's erase counts, every
    /// flash op counted against its die time
    /// ([`Ssd::check_utilization_conservation`]), and every LPA against
    /// the valid pages naming it in their OOB — at most one, else GC
    /// would migrate a stale copy over the live one. Linear in the
    /// device; for tests and invariant checks.
    pub fn check_invariants(&self) -> Vec<String> {
        let mut violations = self.allocator.check_state();
        violations.extend(self.check_utilization_conservation().err());
        let mut named: Vec<Option<Ppa>> = vec![None; self.config.logical_pages() as usize];
        let mut valid = 0u64;
        for block in (0..self.config.geometry.blocks).map(BlockId::new) {
            for (ppa, lpa, _) in self.device.scan_block(block) {
                if !self.validity.is_valid(ppa) {
                    continue;
                }
                valid += 1;
                let named = lpa.and_then(|lpa| Some((lpa, named.get_mut(lpa.raw() as usize)?)));
                let Some((lpa, slot)) = named else {
                    violations.push(format!("{ppa:?} valid, naming {lpa:?}"));
                    continue;
                };
                if let Some(first) = slot.replace(ppa) {
                    violations.push(format!("{lpa:?} valid at {first:?} and {ppa:?}"));
                }
            }
        }
        if valid != self.validity.total_valid() {
            violations.push(format!(
                "{} valid pages, {valid} of them programmed",
                self.validity.total_valid()
            ));
        }
        let erases = EraseHistogram::new(self.device.erase_counts().map(|(_, count)| count));
        if erases != self.erase_histogram {
            violations.push(format!(
                "erase histogram {:?}, the device says {erases:?}",
                self.erase_histogram
            ));
        }
        violations.extend(self.check_slots());
        violations.extend(self.gc_index.check(|block| self.victim_key(block)));
        let mut index = self.gc_index.clone();
        while let Some(block) = index.pop_dirty() {
            index.refresh(block, self.victim_key(block));
        }
        let mut indexed = Vec::new();
        let limit = self.config.geometry.pages_per_block;
        index.for_each_below(limit, &mut |block, valid| indexed.push((block, valid)));
        let scanned: Vec<(BlockId, u32)> = self.scan_gc_candidates().collect();
        if indexed != scanned {
            violations.push(format!(
                "index candidates {indexed:?}, the scan finds {scanned:?}"
            ));
        }
        violations
    }

    /// Counts every physical page by its standing — free, open and
    /// unwritten, open and stale, closed and stale, log-owned, valid.
    /// Linear in the device; for experiments and tests.
    pub fn space_report(&self) -> SpaceReport {
        let pages = u64::from(self.config.geometry.pages_per_block);
        let mut report = SpaceReport::default();
        for block in (0..self.config.geometry.blocks).map(BlockId::new) {
            let written = u64::from(self.device.block(block).write_ptr());
            let valid = u64::from(self.validity.valid_count(block));
            if self.translog.owns(block) {
                report.log_owned += pages;
            } else if self.allocator.is_open(block) {
                report.valid += valid;
                report.open_stale += written - valid;
                report.open_tail += pages - written;
            } else if written == 0 {
                report.free += pages;
            } else {
                report.valid += valid;
                report.closed_stale += pages - valid;
            }
        }
        report
    }

    // ------------------------------------------------------------------
    // Wear levelling (§3.6)
    // ------------------------------------------------------------------

    fn maybe_wear_level(&mut self) -> Result<(), SimError> {
        // A single flush may need several swaps to close the gap; cap
        // the work per invocation to bound foreground stalls.
        for _ in 0..8 {
            if !self.wear_level_once()? {
                break;
            }
        }
        Ok(())
    }

    /// One cold/hot swap ([`Ssd::plan_wear_swap`]); returns whether a
    /// swap happened. The swap is placed behind the queued flush
    /// programs, and the host waits once, for its erase, like a
    /// synchronous collection of one pass.
    fn wear_level_once(&mut self) -> Result<bool, SimError> {
        let Some(plan) = self.plan_wear_swap(self.clock.now_ns())? else {
            return Ok(false);
        };
        let mut done = Vec::with_capacity(1);
        self.place_gc(&plan, Placement::Behind, &mut done);
        for &(_, erase_ns) in &done {
            self.clock.wait_until(erase_ns);
        }
        self.stats.wear_swaps += 1;
        Ok(true)
    }

    // ------------------------------------------------------------------
    // Crash consistency and recovery (§3.8)
    // ------------------------------------------------------------------

    /// Runs the configured persistence point now, unconditionally, behind
    /// the queued flush programs — the "persist now" of tests,
    /// experiments and recovery; a GC pass asks `persistence_point_due`.
    /// The mapping table and BVC as they stand become the next recovery
    /// `Baseline`, stamped with the flash program sequence.
    /// [`CheckpointMode::DramSnapshot`] writes back what
    /// changed since the previous point and is durable on return: the
    /// groups remapped since (by a flush, a migration, a wear swap or
    /// recovery's replay — a compaction sweep changes no answer and
    /// dirties none) and the BVC entries of the blocks [`Validity`]
    /// lists as touched, charged as `MapLog`-class translation
    /// programs on consecutive dies, from the die after the previous
    /// point's last page: the points of a collection's passes spread
    /// over the dies instead of piling on the first ones. Nothing
    /// changed, nothing is programmed; the first point after a fill
    /// writes the whole table.
    /// A group is priced at the table's mean,
    /// [`MappingScheme::snapshot_bytes`] over the groups ever mapped —
    /// not at its own bytes, which would take a scheme method a
    /// forwarding wrapper does not carry, and simulate another device
    /// behind one (hot groups are the deep ones, so the mean
    /// undercharges: `tests/persistence_pricing.rs` records by how
    /// much). [`CheckpointMode::FlashLog`] queues a checkpoint
    /// generation, sized by [`MappingScheme::checkpoint_footprint`]
    /// plus the whole BVC, as `MapLog` traffic; it is durable once its
    /// pages have landed (on the blocking path, by the end of the next
    /// flush). At most one is in flight: the next generation is built
    /// on the newest one, so a call during a write-out does nothing.
    /// [`CheckpointMode::Disabled`] does nothing.
    ///
    /// Those are the *simulated* costs. On the host a point likewise
    /// costs what changed since the previous one: the baseline the log
    /// holds is brought up to date ([`MappingScheme::sync_checkpoint`],
    /// [`Validity::sync_checkpoint`]), never rebuilt from the live
    /// state.
    pub fn take_snapshot(&mut self) {
        let dispatch_ns = self.clock.now_ns();
        let points = self.persist(dispatch_ns).into_iter().collect();
        let plan = GcPlan {
            dispatch_ns,
            passes: Vec::new(),
            points,
        };
        self.place_gc(&plan, Placement::Behind, &mut Vec::new());
    }

    // ------------------------------------------------------------------
    // Flash-resident translation log (CheckpointMode::FlashLog)
    // ------------------------------------------------------------------

    /// Queued translation-log device ops awaiting dispatch (the
    /// device's `MapLog` replenishment signal): page programs of
    /// entries that are not durable yet, and log-block reclaims. A
    /// power cut loses them.
    pub fn maplog_pending(&self) -> usize {
        self.translog.pending_ops()
    }

    /// Journals `batch`'s installed mappings as a translation-log delta
    /// (one per flush, migration or wear swap), which recovery replays
    /// instead of rescanning the blocks they landed in. Only
    /// [`CheckpointMode::FlashLog`] keeps a journal.
    fn translog_append_delta(&mut self, batch: impl IntoIterator<Item = (Lpa, Ppa)>) {
        if self.config.checkpoint_mode == CheckpointMode::FlashLog {
            let batch = batch.into_iter().collect();
            self.translog.push_delta(batch, self.device.program_seq());
        }
    }

    /// Recycles log block `block` if the durable checkpoint `upto`
    /// superseded everything in it and the log has moved on to another
    /// block; returns the erase's completion time if so.
    fn reclaim_log_block(&mut self, block: BlockId, upto: u64) -> Result<Option<u64>, SimError> {
        if self.allocator.is_open(block) || !self.translog.block_superseded(block, upto) {
            return Ok(None);
        }
        self.recycle(block)?;
        let now = self.clock.now_ns();
        let done = self.flash_op(
            FlashOp::Erase,
            TrafficClass::MapLog,
            Target::Block(block),
            now,
        );
        self.translog.forget_block(block);
        Ok(Some(done))
    }

    /// Makes room for one log page, preferring to eat the log's own
    /// tail (superseded blocks reclaimed synchronously) before leaning
    /// on data GC.
    fn ensure_maplog_allocatable(&mut self) -> Result<(), SimError> {
        if !self.allocator.can_allocate(Stream::MapLog, 1) {
            if let Some(upto) = self.translog.durable_checkpoint_seq() {
                for block in self.translog.owned_blocks() {
                    self.reclaim_log_block(block, upto)?;
                    if self.allocator.can_allocate(Stream::MapLog, 1) {
                        break;
                    }
                }
            }
        }
        self.ensure_allocatable(1, Stream::MapLog)
    }

    /// Dispatches the next queued translation-log op: programs one log
    /// page (`lpa = None`, content = entry seq — recovery re-derives
    /// entry durability purely from physical pages) or erases a
    /// superseded log block. State applies at dispatch like every
    /// other command; the returned deadline is the op's flash
    /// completion on its die timeline. Returns `None` when the queue
    /// is empty (stale reclaims are skipped silently).
    pub(crate) fn service_maplog(&mut self) -> Result<Option<MapLogDispatch>, SimError> {
        loop {
            let Some(op) = self.translog.pop_op() else {
                return Ok(None);
            };
            match op {
                LogOp::Program { seq } => {
                    self.ensure_maplog_allocatable()?;
                    let runs = self
                        .allocate(Stream::MapLog, 1)
                        .ok_or(SimError::DeviceFull)?;
                    let ppa = runs[0].ppas().next().ok_or(SimError::DeviceFull)?;
                    self.device.program(ppa, seq, None)?;
                    let block = self.config.geometry.block_of(ppa);
                    let now = self.clock.now_ns();
                    let done = self.flash_op(
                        FlashOp::TranslationProgram,
                        TrafficClass::MapLog,
                        Target::Page(ppa),
                        now,
                    );
                    self.gc_index.touch(block);
                    let allocator = &self.allocator;
                    self.translog
                        .note_programmed(seq, block, |block| allocator.is_open(block));
                    return Ok(Some(MapLogDispatch {
                        seq,
                        complete_ns: done,
                        reclaimed_block: false,
                    }));
                }
                LogOp::Reclaim { block, upto } => {
                    let Some(done) = self.reclaim_log_block(block, upto)? else {
                        // Stale: already reclaimed eagerly, which also
                        // dropped the block's reclaim mark. Move on.
                        continue;
                    };
                    return Ok(Some(MapLogDispatch {
                        seq: upto,
                        complete_ns: done,
                        reclaimed_block: true,
                    }));
                }
            }
        }
    }

    /// Synchronously drains the translation-log queue (blocking-path
    /// flush boundaries). The guard bounds pathological feedback
    /// (log appends → GC → new checkpoint → more appends) on a nearly
    /// full device; anything left pending simply stays non-durable.
    fn drain_maplog(&mut self) -> Result<(), SimError> {
        let geometry = self.config.geometry;
        for _ in 0..=2 * geometry.blocks * geometry.pages_per_block as u64 {
            let Some(dispatch) = self.service_maplog()? else {
                break;
            };
            self.clock.wait_until(dispatch.complete_ns);
        }
        Ok(())
    }

    /// Simulates a power cut: DRAM state (write buffer, caches, mapping
    /// table, PVT/BVC) is lost; flash survives. One routine recovers
    /// every [`CheckpointMode`]: read the translation log's blocks
    /// back and keep only entries whose pages all survived the cut
    /// (durability is physical, so a torn entry is always a queue
    /// suffix); restore the newest durable `Baseline` — a log
    /// checkpoint generation or the DRAM snapshot, whichever the mode
    /// keeps, else pristine state; replay the durable delta tail; and
    /// OOB-scan only the data pages programmed after the last durable
    /// entry's stamp, re-learning mappings from their reverse mappings
    /// (§3.8) — O(dirty), not O(device). A block that is erased, or
    /// whose first page is newer than a stamp, was recycled since and
    /// loses the validity the baseline recorded for it. Only
    /// [`CheckpointMode::FlashLog`] ever writes log pages, so in the
    /// other modes the log scan and the tail replay are empty.
    pub fn crash_and_recover(&mut self) -> Result<RecoveryReport, SimError> {
        let lost_buffered_writes = self.pool.buffer().len();
        // A flush's state was applied when it queued its programs, so
        // the drive finishes them before the scan: they are durable.
        let programmed_ns = self.place_programs();
        self.clock.wait_until(programmed_ns);
        self.clock.forget_programmed();
        self.pool.clear();
        self.read_cache = LruCache::new();
        let scan_start_ns = self.clock.now_ns();

        // Pass 1: scan the log's own blocks. Each surviving page names
        // the entry seq it belongs to; counting pages per seq tells us
        // which entries are fully durable.
        let owned: Vec<(BlockId, u32)> = self
            .translog
            .owned_blocks()
            .into_iter()
            .map(|block| (block, 0))
            .collect();
        let mut found: BTreeMap<u64, u32> = BTreeMap::new();
        for (ppa, lpa, _) in self.scan_pages(&owned) {
            if let (None, Ok(view)) = (lpa, self.device.read(ppa)) {
                *found.entry(view.content).or_insert(0) += 1;
            }
        }
        self.translog.power_cut(&found);

        // Restore the newest durable baseline.
        let baseline = self
            .translog
            .durable_baseline()
            .cloned()
            .unwrap_or_else(|| self.pristine_baseline());
        self.scheme = baseline.scheme;
        self.validity = baseline.validity;
        self.unpersisted.forget();
        self.forget_recycled_since(baseline.stamp);

        // Replay the durable delta tail in append order. The final
        // durable entry's stamp becomes the baseline for the data
        // scan: everything it journalled is already replayed, so only
        // younger pages need the OOB scan.
        let tail: Vec<(Batch, u64)> = self
            .translog
            .deltas()
            .map(|(batch, stamp)| (batch.to_vec(), stamp))
            .collect();
        for (batch, stamp) in &tail {
            self.replay_mapping_batch(batch, *stamp);
        }
        let replayed_log_entries = tail.len();
        let stamp = tail.last().map_or(baseline.stamp, |&(_, stamp)| stamp);

        // Pass 2: OOB-scan only data blocks that changed after the last
        // durable entry: recycled blocks entirely, still-open blocks
        // only from the first page the entry had not seen. Log-owned
        // blocks hold no reverse mappings and were already read in
        // pass 1.
        self.forget_recycled_since(stamp);
        let scan_from: Vec<(BlockId, u32)> = (0..self.config.geometry.blocks)
            .map(BlockId::new)
            .filter(|&block| !self.translog.owns(block))
            .filter_map(|block| Some((block, self.first_page_since(block, stamp)?)))
            .collect();
        let recovered_pages = self.scan_and_replay(&scan_from);
        self.rebuild_allocator_after_crash();
        // Every block's standing may have changed (open blocks are
        // abandoned, validity is the baseline's plus the replay), and
        // whatever the device front-end had queued died with its DRAM.
        self.rebuild_gc_index();

        Ok(RecoveryReport {
            scanned_data_blocks: scan_from.len(),
            scanned_log_blocks: owned.len(),
            replayed_log_entries,
            recovered_pages,
            lost_buffered_writes,
            scan_time_ns: self.clock.now_ns().saturating_sub(scan_start_ns),
        })
    }

    /// The first page of `block` programmed after the program stamped
    /// `stamp`, if any. Pages program in order and sequence numbers
    /// only grow, so every page from there on is newer than the stamp
    /// too; page 0 means the block was recycled (or first filled)
    /// since. Walks back from the write pointer: O(pages since).
    fn first_page_since(&self, block: BlockId, stamp: u64) -> Option<u32> {
        self.device
            .scan_block(block)
            .rev()
            .take_while(|&(_, _, seq)| seq > stamp)
            .last()
            .map(|(ppa, _, _)| self.config.geometry.page_in_block(ppa))
    }

    /// Drops the validity recorded for every block recycled since the
    /// program stamped `stamp` — one that is erased now, or whose first
    /// page is newer: it holds none of the pages a bitmap of that age
    /// believes in.
    fn forget_recycled_since(&mut self, stamp: u64) {
        for block in (0..self.config.geometry.blocks).map(BlockId::new) {
            if self.device.block(block).is_erased()
                || self.first_page_since(block, stamp) == Some(0)
            {
                self.clear_block(block);
            }
        }
    }

    /// Reads every programmed page of the listed blocks from the given
    /// page on (die-parallel, charged as translation reads, and waited
    /// for): each page's address, OOB reverse mapping and program
    /// sequence number.
    fn scan_pages(&mut self, scan_from: &[(BlockId, u32)]) -> Vec<(Ppa, Option<Lpa>, u64)> {
        let now = self.clock.now_ns();
        let mut deadline = now;
        let mut pages = Vec::new();
        for &(block, first_page) in scan_from {
            let before = pages.len();
            pages.extend(self.device.scan_block(block).skip(first_page as usize));
            for _ in before..pages.len() {
                let end = self.flash_op(
                    FlashOp::TranslationRead,
                    TrafficClass::MapLog,
                    Target::Block(block),
                    now,
                );
                deadline = deadline.max(end);
            }
        }
        self.clock.wait_until(deadline);
        pages
    }

    /// OOB-scans `scan_from` and replays the surviving reverse mappings
    /// in write order. Returns the number of pages re-learned.
    fn scan_and_replay(&mut self, scan_from: &[(BlockId, u32)]) -> u64 {
        let mut entries: Vec<(u64, Lpa, Ppa)> = self
            .scan_pages(scan_from)
            .into_iter()
            .filter_map(|(ppa, lpa, seq)| Some((seq, lpa?, ppa)))
            .collect();

        // Replay in write order so the newest version of each LPA wins,
        // re-learning in the natural chunk batches (consecutive
        // sequence numbers on consecutive PPAs — the original flush
        // runs, which keeps the learned segments as condensed as they
        // were before the crash).
        entries.sort_unstable_by_key(|&(seq, _, _)| seq);
        let recovered_pages = entries.len() as u64;
        let mut idx = 0usize;
        while idx < entries.len() {
            let mut end = idx + 1;
            while end < entries.len()
                && entries[end].0 == entries[end - 1].0 + 1
                && entries[end].2.raw() == entries[end - 1].2.raw() + 1
            {
                end += 1;
            }
            let batch: Vec<(Lpa, Ppa)> = entries[idx..end]
                .iter()
                .map(|&(_, lpa, ppa)| (lpa, ppa))
                .collect();
            // A scanned page is the copy on flash now.
            self.replay_mapping_batch(&batch, u64::MAX);
            idx = end;
        }
        recovered_pages
    }

    /// Re-installs one recovered mapping batch, recorded when the
    /// program sequence stood at `stamp`: leniently invalidate whatever
    /// the table currently resolves for each LPA, then re-learn the
    /// batch and mark its pages valid — the last copy of each LPA only,
    /// and only where the page still holds that copy. A batch is a run
    /// of consecutive programs, so it can name one LPA twice (two
    /// flushes back to back in one open block, the second rewriting a
    /// page of the first); the lookups all see the mapping from before
    /// the batch, and `update_batch` keeps the last write, so an
    /// earlier copy marked valid would stay valid beside the live one
    /// until GC migrated it over it. A journalled batch can name a page
    /// whose block was recycled after `stamp` (the page is erased, or
    /// holds a newer program): that copy is gone, and a later entry's
    /// approximate lookup, resolved against the flash as it is now,
    /// could not find it to invalidate it.
    fn replay_mapping_batch(&mut self, batch: &[(Lpa, Ppa)], stamp: u64) {
        // Pre-crash mappings may point into blocks erased after the
        // checkpoint, so invalidation is lenient here: an unresolvable
        // approximate target means the old copy is gone.
        let replayed =
            self.invalidate_overwritten(batch.iter().map(|&(lpa, _)| lpa), Overwriter::Replay);
        debug_assert!(replayed.is_ok(), "a replay skips what it cannot resolve");
        self.unpersisted.note(batch);
        let _cost = self.scheme.update_batch(batch);
        let mut later: IntSet<Lpa> = IntSet::default();
        let last: Vec<bool> = batch
            .iter()
            .rev()
            .map(|&(lpa, _)| later.insert(lpa))
            .collect();
        for (&(_, ppa), &last) in batch.iter().zip(last.iter().rev()) {
            if last && self.device.read(ppa).is_ok_and(|page| page.seq <= stamp) {
                self.mark_valid(ppa);
            }
        }
    }

    /// Rebuilds the allocator's free pool from the physical state.
    fn rebuild_allocator_after_crash(&mut self) {
        let free: Vec<BlockId> = (0..self.config.geometry.blocks)
            .map(BlockId::new)
            .filter(|&b| self.device.block(b).is_erased())
            .collect();
        self.allocator.rebuild_after_crash(free);
    }
}

/// One dispatched translation-log device op: the entry (or reclaim
/// watermark) seq, its flash completion time, and whether it freed a
/// block (reclaims count as settled GC work for pressure accounting;
/// programs must not).
#[derive(Debug, Clone, Copy)]
pub(crate) struct MapLogDispatch {
    /// Entry seq (programs) or supersede watermark (reclaims).
    pub seq: u64,
    /// When the op's flash work completes on its die timeline.
    pub complete_ns: u64,
    /// True for reclaim erases — the op returned a block to the pool.
    pub reclaimed_block: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::RESUME_NS;
    use crate::LeaFtlScheme;
    use leaftl_core::ExactPageMap;
    use leaftl_flash::FlashGeometry;
    use std::collections::BTreeSet;

    fn ssd() -> Ssd<ExactPageMap> {
        Ssd::new(SsdConfig::small_test(), ExactPageMap::new())
    }

    /// Relocates `victim` — onto `onto`, a block taken from the pool, as
    /// a wear swap does — as a plan of one pass placed behind the queued
    /// flush programs, and returns when its erase completes.
    fn run_relocation<S: MappingScheme + Clone>(
        ssd: &mut Ssd<S>,
        victim: BlockId,
        onto: Option<BlockId>,
    ) -> Result<u64, SimError> {
        let dispatch_ns = ssd.now_ns();
        let passes = vec![ssd.migrate_block(victim, onto, dispatch_ns)?];
        let plan = GcPlan {
            dispatch_ns,
            passes,
            points: Vec::new(),
        };
        let mut done = Vec::new();
        ssd.place_gc(&plan, Placement::Behind, &mut done);
        Ok(done[0].1)
    }

    /// Runs a collection as a background GC dispatch does: planned from
    /// the clock, placed behind the queued flush programs.
    fn collect<S: MappingScheme + Clone>(
        ssd: &mut Ssd<S>,
        wanted: impl Fn(&Ssd<S>) -> bool,
        max_passes: usize,
        done: &mut Vec<(BlockId, u64)>,
    ) -> Result<(), SimError> {
        let (plan, collected) = ssd.plan_collection(wanted, max_passes, ssd.now_ns());
        ssd.place_gc(&plan, Placement::Behind, done);
        collected
    }

    #[test]
    fn flash_op_counts_schedules_and_attributes_one_operation() {
        use crate::stats::FlashOpBreakdown;
        use crate::trace::DieUtilization;
        use FlashOpKind::{Erase, Program, Read};
        let one = |set: fn(&mut FlashOpBreakdown)| {
            let mut flash = FlashOpBreakdown::default();
            set(&mut flash);
            flash
        };
        let cases: [(FlashOp, FlashOpKind, FlashOpBreakdown); 9] = [
            (FlashOp::DataRead, Read, one(|f| f.data_reads = 1)),
            (
                FlashOp::MispredictionRead,
                Read,
                one(|f| f.misprediction_reads = 1),
            ),
            (
                FlashOp::TranslationRead,
                Read,
                one(|f| f.translation_reads = 1),
            ),
            (FlashOp::GcRead, Read, one(|f| f.gc_reads = 1)),
            (FlashOp::DataProgram, Program, one(|f| f.data_programs = 1)),
            (FlashOp::GcProgram, Program, one(|f| f.gc_programs = 1)),
            (FlashOp::WearProgram, Program, one(|f| f.wear_programs = 1)),
            (
                FlashOp::TranslationProgram,
                Program,
                one(|f| f.translation_programs = 1),
            ),
            (FlashOp::Erase, Erase, one(|f| f.erases = 1)),
        ];
        for (index, (op, kind, counted)) in cases.into_iter().enumerate() {
            let mut ssd = ssd();
            let class = TrafficClass::ALL[index % TrafficClass::ALL.len()];
            let geometry = ssd.config().geometry;
            let die = Die::new(index as u32 % geometry.total_dies());
            let block = (0..geometry.blocks)
                .map(BlockId::new)
                .find(|&block| geometry.die_of_block(block) == die)
                .unwrap();
            let latency_ns = kind.latency_ns(&ssd.config().timing);
            // A first operation fills the die, so the one under test
            // must queue behind it whatever its floor. A flush's program
            // is queued, and placed when the flush's programs are.
            let place = |ssd: &mut Ssd<ExactPageMap>, floor_ns| {
                if op == FlashOp::DataProgram {
                    ssd.queue_program(geometry.first_ppa(block), floor_ns, 0);
                    ssd.place_programs()
                } else {
                    ssd.flash_op(op, class, Target::Block(block), floor_ns)
                }
            };
            let busy_until = place(&mut ssd, 500);
            ssd.reset_stats();

            let end_ns = place(&mut ssd, 0);
            assert_eq!(end_ns, busy_until + latency_ns, "{op:?} is scheduled");
            assert_eq!(ssd.now_ns(), 0, "{op:?} leaves the host clock alone");
            assert_eq!(ssd.stats().flash, counted, "{op:?} is counted once");
            for (other, cell) in ssd.utilization().dies.iter().enumerate() {
                if other == die.raw() as usize {
                    let ops: u64 = cell.ops.iter().flatten().sum();
                    assert_eq!((ops, cell.ops_of(class, kind)), (1, 1), "{op:?}");
                    let busy = (cell.total_busy_ns(), cell.class_busy_ns(class));
                    assert_eq!(busy, (latency_ns, latency_ns), "{op:?}");
                } else {
                    assert_eq!(*cell, DieUtilization::default(), "{op:?} on die {other}");
                }
            }
            assert_eq!(ssd.check_utilization_conservation(), Ok(()));
        }
    }

    /// A host read goes ahead of a flush's queued programs and suspends
    /// the one running at its floor; a read of a page of the flush is
    /// answered from DRAM, and the next flush waits for none of it.
    /// Eight flushes put a block on each of the eight dies and a host
    /// flush drains them; a ninth queues its 32 programs (6.4 ms) on one
    /// die, where the reads then land.
    #[test]
    fn host_reads_go_ahead_of_a_flushs_queued_programs() {
        let mut ssd = ssd();
        let timing = ssd.config.timing;
        for lpa in 0..256 {
            ssd.write(Lpa::new(lpa), lpa).unwrap();
        }
        ssd.flush().unwrap();
        for lpa in 1_000..1_032 {
            ssd.write(Lpa::new(lpa), lpa).unwrap();
        }
        let flushed_ns = ssd.now_ns();
        let die_of = |ssd: &mut Ssd<ExactPageMap>, lpa: u64| {
            let hit = ssd.scheme.lookup(Lpa::new(lpa)).0.unwrap();
            ssd.config.geometry.die_of(hit.ppa)
        };
        let chunk_die = die_of(&mut ssd, 1_000);
        let mut on_chunk_die = (0..256).filter(|&lpa| die_of(&mut ssd, lpa) == chunk_die);
        let (first, second) = (on_chunk_die.next().unwrap(), on_chunk_die.next().unwrap());
        ssd.reset_stats();

        // Issued right after the flush: ahead of the whole chunk. Its
        // lookup's 40 ns put it just after the first program started,
        // so it suspends that program.
        assert_eq!(ssd.read(Lpa::new(first)).unwrap(), Some(first));
        let latency = ssd.now_ns().saturating_sub(flushed_ns);
        assert!(latency <= timing.read_ns + RESUME_NS, "{latency} ns");
        // 50 µs later the first program runs again: the read suspends
        // it a second time.
        let issued_ns = ssd.now_ns() + 50_000;
        ssd.advance_to(issued_ns);
        assert_eq!(ssd.read(Lpa::new(second)).unwrap(), Some(second));
        let latency = ssd.now_ns().saturating_sub(issued_ns);
        assert!(latency <= timing.read_ns + RESUME_NS, "{latency} ns");
        // A page of the flush is a buffer hit, and reads no flash.
        assert_eq!(ssd.read(Lpa::new(1_000)).unwrap(), Some(1_000));
        assert_eq!(ssd.stats().flash.data_reads, 2);
        assert_eq!(ssd.stats().buffer_hits, 1);
        assert_eq!(
            *ssd.read_priority(),
            ReadPriority {
                suspensions: 2,
                overtaking_reads: 2,
                in_flight_hits: 1,
                slot_waits: 0,
                slot_wait_ns: 0,
                fill_waits: 0,
                fill_wait_ns: 0,
            }
        );

        // The next flush waits for nothing: its writes take the slots
        // of pages programmed before the chunk, which still programs,
        // and whose pages stay in DRAM.
        let writes_ns = ssd.now_ns();
        for lpa in 1_100..1_132 {
            ssd.write(Lpa::new(lpa), lpa).unwrap();
        }
        assert_eq!(ssd.now_ns(), writes_ns + 32 * DRAM_HIT_NS);
        assert!(ssd.clock.earliest_untaken().map(|(end_ns, _)| end_ns) > Some(ssd.now_ns()));
        assert_eq!(ssd.read(Lpa::new(1_000)).unwrap(), Some(1_000));
        assert_eq!(ssd.stats().flash.data_reads, 2);
        assert_eq!(ssd.read_priority().in_flight_hits, 2);
        assert_eq!(ssd.read_priority().slot_waits, 0);
        assert_eq!(ssd.check_invariants(), Vec::<String>::new());
    }

    /// Two flushes fill the DRAM slots while the first one's 6.4 ms
    /// chunk still programs: each write after them waits for the
    /// earliest program to end, never for a chunk, and the third flush
    /// queues behind the first two without waiting for them. (A write
    /// that waited for the previous flush to drain waited 6.4 ms.)
    #[test]
    fn a_write_waits_for_one_program_not_for_the_previous_flush() {
        let mut ssd = ssd();
        let timing = ssd.config.timing;
        let mut slowest = 0;
        for lpa in (0..32).chain(100..132).chain(200..232) {
            let issued_ns = ssd.now_ns();
            ssd.write(Lpa::new(lpa), lpa).unwrap();
            slowest = slowest.max(ssd.now_ns().saturating_sub(issued_ns));
        }
        assert!(
            slowest <= DRAM_HIT_NS + timing.program_ns + RESUME_NS,
            "{slowest} ns"
        );
        let priority = *ssd.read_priority();
        assert!(priority.slot_waits > 0, "{priority:?}");
        // The 32 writes that needed a slot took the 32 programs that
        // ended first, 16 on each of the two dies, while the first
        // flush's last page still waits for its program.
        assert!(ssd.now_ns() < 17 * timing.program_ns, "{} ns", ssd.now_ns());
        assert_eq!(ssd.stats().flash.data_programs, 96);
        assert_eq!(ssd.pool.resident(), 64);
        assert_eq!(ssd.check_invariants(), Vec::<String>::new());
    }

    /// A flushed page is read from DRAM until its program has ended and
    /// a write has taken its slot, and from flash after that; a page a
    /// later flush rewrote is read from that flush.
    #[test]
    fn a_flushed_page_leaves_dram_when_a_write_takes_its_slot() {
        let mut ssd = ssd();
        for lpa in 0..32 {
            ssd.write(Lpa::new(lpa), lpa).unwrap();
        }
        // Long after every program ended, no write needed a slot.
        let later_ns = ssd.now_ns() + 100 * ssd.config.timing.program_ns;
        ssd.advance_to(later_ns);
        assert_eq!(ssd.read(Lpa::new(0)).unwrap(), Some(0));
        assert_eq!(ssd.stats().buffer_hits, 1);
        // The second flush fills the slots; the next write takes the
        // slot of the page whose program ended first, page 0's.
        for lpa in (100..131).chain([5, 300]) {
            ssd.write(Lpa::new(lpa), lpa + 1).unwrap();
        }
        assert_eq!(ssd.read(Lpa::new(0)).unwrap(), Some(0));
        assert_eq!(ssd.stats().flash.data_reads, 1);
        assert_eq!(ssd.read(Lpa::new(1)).unwrap(), Some(1));
        assert_eq!(ssd.read(Lpa::new(5)).unwrap(), Some(6));
        assert_eq!(
            (ssd.stats().buffer_hits, ssd.stats().flash.data_reads),
            (3, 1)
        );
        assert_eq!(ssd.read_priority().in_flight_hits, 3);
        assert_eq!(ssd.check_invariants(), Vec::<String>::new());
    }

    /// A power cut lets the drive finish the programs flushes queued
    /// (their state was applied when they queued, so they are durable)
    /// before recovery scans: the scan takes what the same cut takes
    /// after a host flush drained them.
    #[test]
    fn a_cut_finishes_the_queued_programs_before_the_recovery_scan() {
        let cut = |flush_first: bool| {
            let mut ssd = ssd();
            // Three flushes, the buffer empty: two chunks still queued.
            for lpa in 0..96 {
                ssd.write(Lpa::new(lpa), lpa).unwrap();
            }
            assert!(ssd.clock.earliest_untaken().map(|(end_ns, _)| end_ns) > Some(ssd.now_ns()));
            if flush_first {
                ssd.flush().unwrap();
            }
            let report = ssd.crash_and_recover().unwrap();
            assert_eq!(ssd.check_invariants(), Vec::<String>::new());
            (report, ssd.now_ns())
        };
        let (queued, queued_ns) = cut(false);
        let (flushed, flushed_ns) = cut(true);
        assert_eq!(queued.recovered_pages, 96);
        assert!(queued.scan_time_ns > 0);
        assert_eq!(queued, flushed);
        assert_eq!(queued_ns, flushed_ns);
    }

    #[test]
    fn write_read_roundtrip_through_buffer() {
        let mut ssd = ssd();
        ssd.write(Lpa::new(3), 33).unwrap();
        // Still buffered: no flash programs yet.
        assert_eq!(ssd.stats().flash.data_programs, 0);
        assert_eq!(ssd.read(Lpa::new(3)).unwrap(), Some(33));
        assert_eq!(ssd.stats().buffer_hits, 1);
    }

    #[test]
    fn flush_programs_sorted_runs() {
        let mut ssd = ssd();
        // Fill exactly one buffer (32 pages) with descending LPAs.
        for i in (0..32u64).rev() {
            ssd.write(Lpa::new(i), i).unwrap();
        }
        assert_eq!(ssd.stats().flash.data_programs, 32);
        // Sorted flush ⇒ each stripe chunk holds ascending LPAs on
        // consecutive PPAs (16-page stripes over the channels).
        let mut seen = 0u64;
        for block in 0..4u64 {
            let base = block * 32;
            let mut last: Option<u64> = None;
            for page in 0..32u64 {
                let Ok(view) = ssd.device().read(Ppa::new(base + page)) else {
                    break;
                };
                let lpa = view.lpa.expect("data page").raw();
                if let Some(prev) = last {
                    assert_eq!(lpa, prev + 1, "chunk must be LPA-consecutive");
                }
                last = Some(lpa);
                seen += 1;
            }
        }
        assert_eq!(seen, 32);
        for i in 0..32u64 {
            assert_eq!(ssd.read(Lpa::new(i)).unwrap(), Some(i));
        }
    }

    #[test]
    fn unwritten_reads_return_none() {
        let mut ssd = ssd();
        assert_eq!(ssd.read(Lpa::new(100)).unwrap(), None);
        assert_eq!(ssd.stats().unmapped_reads, 1);
    }

    #[test]
    fn out_of_range_rejected() {
        let mut ssd = ssd();
        let beyond = Lpa::new(ssd.config().logical_pages());
        assert_eq!(ssd.read(beyond), Err(SimError::LpaOutOfRange(beyond)));
        assert_eq!(ssd.write(beyond, 0), Err(SimError::LpaOutOfRange(beyond)));
    }

    #[test]
    fn overwrites_invalidate_old_pages() {
        let mut ssd = ssd();
        for i in 0..32u64 {
            ssd.write(Lpa::new(i), i).unwrap();
        }
        for i in 0..32u64 {
            ssd.write(Lpa::new(i), 100 + i).unwrap();
        }
        // First block is now fully stale.
        assert_eq!(ssd.validity_valid_count_for_test(BlockId::new(0)), 0);
        for i in 0..32u64 {
            assert_eq!(ssd.read(Lpa::new(i)).unwrap(), Some(100 + i));
        }
    }

    #[test]
    fn gc_reclaims_stale_blocks_under_pressure() {
        let mut ssd = ssd();
        // Logical capacity is 80% of 2048 pages = 1638; hammer a small
        // working set so stale blocks accumulate.
        for round in 0..20u64 {
            for i in 0..256u64 {
                ssd.write(Lpa::new(i), round * 1000 + i).unwrap();
            }
        }
        assert!(ssd.stats().gc_runs > 0, "gc must have run");
        assert!(ssd.stats().flash.erases > 0);
        // Data integrity after GC.
        for i in 0..256u64 {
            assert_eq!(ssd.read(Lpa::new(i)).unwrap(), Some(19 * 1000 + i));
        }
        // WAF is sane: > 1 due to GC copies, bounded by a small factor.
        let waf = ssd.stats().waf();
        assert!((1.0..5.0).contains(&waf), "waf = {waf}");
    }

    #[test]
    fn relocating_a_valid_page_without_a_reverse_mapping_is_an_error() {
        let mut ssd = ssd();
        let runs = ssd.allocate(Stream::Host, 1).unwrap();
        let ppa = runs[0].ppas().next().unwrap();
        // Only translation-log pages are programmed without an LPA, and
        // those are never marked valid.
        ssd.device.program(ppa, 7, None).unwrap();
        ssd.mark_valid(ppa);
        let victim = ssd.config.geometry.block_of(ppa);
        // One pass, whichever collector runs it.
        assert_eq!(
            ssd.gc_pass(victim, &mut GcPlan::default()).err(),
            Some(SimError::MissingReverseMapping { ppa })
        );
    }

    #[test]
    fn latencies_are_recorded() {
        let mut ssd = ssd();
        for i in 0..64u64 {
            ssd.write(Lpa::new(i), i).unwrap();
        }
        for i in 0..64u64 {
            ssd.read(Lpa::new(i)).unwrap();
        }
        assert_eq!(ssd.stats().read_latency.count(), 64);
        assert_eq!(ssd.stats().write_latency.count(), 64);
        assert!(ssd.stats().read_latency.mean_ns() > 0.0);
        assert!(ssd.now_ns() > 0);
    }

    #[test]
    fn crash_without_snapshot_recovers_flushed_data() {
        let mut ssd = ssd();
        for i in 0..64u64 {
            ssd.write(Lpa::new(i), i + 1).unwrap();
        }
        // 64 writes = 2 full buffers, all flushed. Write 5 more that
        // stay buffered and will be lost.
        for i in 100..105u64 {
            ssd.write(Lpa::new(i), 9999).unwrap();
        }
        let report = ssd.crash_and_recover().unwrap();
        assert_eq!(report.lost_buffered_writes, 5);
        assert!(report.scanned_blocks() >= 2);
        assert_eq!(report.recovered_pages, 64);
        for i in 0..64u64 {
            assert_eq!(ssd.read(Lpa::new(i)).unwrap(), Some(i + 1), "lpa {i}");
        }
        assert_eq!(ssd.read(Lpa::new(100)).unwrap(), None);
    }

    #[test]
    fn crash_with_snapshot_scans_less() {
        let mut ssd = ssd();
        for i in 0..64u64 {
            ssd.write(Lpa::new(i), i).unwrap();
        }
        ssd.take_snapshot();
        for i in 0..32u64 {
            ssd.write(Lpa::new(i), 1000 + i).unwrap();
        }
        let report = ssd.crash_and_recover().unwrap();
        // Only the post-snapshot stripes need scanning (2 blocks for a
        // 32-page flush over 16-page stripes), far less than the whole
        // device.
        assert!(report.scanned_blocks() <= 2, "{}", report.scanned_blocks());
        for i in 0..32u64 {
            assert_eq!(ssd.read(Lpa::new(i)).unwrap(), Some(1000 + i));
        }
        for i in 32..64u64 {
            assert_eq!(ssd.read(Lpa::new(i)).unwrap(), Some(i));
        }
    }

    #[test]
    fn extreme_pressure_terminates_with_correct_data() {
        let mut config = SsdConfig::small_test();
        // The least over-provisioning the GC watermarks allow: GC must
        // constantly reclaim.
        config.op_ratio = 0.13;
        let mut ssd = Ssd::new(config, ExactPageMap::new());
        let logical = ssd.config().logical_pages();
        let mut failed = false;
        'outer: for round in 1..=10u64 {
            for i in 0..logical {
                if ssd.write(Lpa::new(i), round * 10_000 + i).is_err() {
                    failed = true;
                    break 'outer;
                }
            }
        }
        // Either the device keeps up via GC (and data is intact) or it
        // reports DeviceFull — it must never hang or corrupt.
        if !failed {
            assert!(ssd.stats().gc_runs > 0, "gc must have worked hard");
            for i in (0..logical).step_by(97) {
                assert_eq!(ssd.read(Lpa::new(i)).unwrap(), Some(10 * 10_000 + i));
            }
        }
    }

    #[test]
    fn maplog_bytes_written_counts_log_programs() {
        let mut config = SsdConfig::small_test();
        config.checkpoint_mode = CheckpointMode::FlashLog;
        let page_size = config.geometry.page_size as u64;
        let mut ssd = Ssd::new(config, ExactPageMap::new());
        assert_eq!(ssd.maplog_bytes_written(), 0);
        for i in 0..256u64 {
            ssd.write(Lpa::new(i), i).unwrap();
        }
        ssd.flush().unwrap();
        let bytes = ssd.maplog_bytes_written();
        assert!(bytes > 0, "flash-log flushes must program log pages");
        assert_eq!(bytes % page_size, 0, "whole page programs only");
        // Overwrite and crash: the lifetime log-traffic tax survives
        // the power cut.
        for i in 0..64u64 {
            ssd.write(Lpa::new(i), 1000 + i).unwrap();
        }
        ssd.crash_and_recover().unwrap();
        assert!(ssd.maplog_bytes_written() >= bytes);
        assert_eq!(ssd.maplog_bytes_written() % page_size, 0);
    }

    #[test]
    fn maplog_bytes_written_zero_under_dram_snapshot() {
        let mut ssd = ssd();
        for i in 0..128u64 {
            ssd.write(Lpa::new(i), i).unwrap();
        }
        ssd.take_snapshot();
        ssd.crash_and_recover().unwrap();
        assert_eq!(ssd.maplog_bytes_written(), 0);
    }

    /// The groups of the mappings `block`'s live pages carry: what
    /// relocating it remaps.
    fn live_groups(ssd: &Ssd<ExactPageMap>, block: BlockId) -> BTreeSet<u64> {
        let mut live = Vec::new();
        ssd.validity.valid_pages(block, &mut live);
        live.iter()
            .map(|&ppa| ssd.device.read(ppa).expect("a live page is programmed"))
            .map(|view| view.lpa.expect("data page").group())
            .collect()
    }

    /// A `DramSnapshot` persistence point writes back what changed
    /// since the previous one: nothing when nothing did, the whole
    /// table after a fill, the groups a flush, a migration, a wear swap
    /// or recovery's replay remapped — each once — and the BVC entries
    /// of the touched blocks. The page map costs every group the same
    /// 2 016 B, so the table's mean is each group's exact price and a
    /// page holds two groups.
    #[test]
    fn a_dram_snapshot_point_programs_what_changed() {
        let mut config = SsdConfig::small_test();
        config.geometry.blocks = 256;
        let page_size = config.geometry.page_size as usize;
        let logical = config.logical_pages();
        let all_groups = logical.div_ceil(Lpa::GROUP_SIZE) as usize;
        let mut ssd = Ssd::new(config, ExactPageMap::new());
        // Runs a point and returns the pages it programmed; `groups`
        // and the blocks the validity map lists are what it must write.
        let point = |ssd: &mut Ssd<ExactPageMap>, groups: usize| {
            let bytes = (ssd.scheme.snapshot_bytes() * groups).div_ceil(all_groups)
                + 4 * ssd.validity.touched_blocks();
            let before = ssd.stats.flash.translation_programs;
            ssd.take_snapshot();
            let programmed = ssd.stats.flash.translation_programs - before;
            assert_eq!(programmed, bytes.div_ceil(page_size) as u64, "{groups}");
            programmed
        };
        let listed = |ssd: &Ssd<ExactPageMap>| -> BTreeSet<u64> {
            ssd.unpersisted.listed.iter().map(|&g| g as u64).collect()
        };

        // An empty device has nothing to persist.
        assert_eq!(point(&mut ssd, 0), 0);

        // The first point after a fill writes the whole table and the
        // BVC entry of every block the fill reached; a second one right
        // behind it writes nothing.
        for lpa in 0..logical {
            ssd.write(Lpa::new(lpa), lpa).unwrap();
        }
        ssd.flush().unwrap();
        assert_eq!(ssd.stats.gc_runs, 0, "no point ran inside the fill");
        assert_eq!(ssd.unpersisted.mapped, all_groups);
        let filled = ssd.validity.touched_blocks();
        assert_eq!(filled as u64, logical.div_ceil(32));
        let whole = (ssd.scheme.snapshot_bytes() + 4 * filled).div_ceil(page_size);
        assert_eq!(point(&mut ssd, all_groups), whole as u64);
        assert_eq!(whole, 13);
        assert_eq!(point(&mut ssd, 0), 0);

        // Three groups rewritten three times over by six flushes, four
        // blocks relocated (the last by a wear swap onto the first's
        // erased block): each group is listed once.
        let rewritten: Vec<u64> = (0..24).chain(256..280).chain(520..536).collect();
        let mut remapped = BTreeSet::new();
        for round in 1..=3u64 {
            for &lpa in &rewritten {
                ssd.write(Lpa::new(lpa), round << 32 | lpa).unwrap();
                remapped.insert(Lpa::new(lpa).group());
            }
        }
        ssd.flush().unwrap();
        assert_eq!(listed(&ssd), remapped);
        assert_eq!(remapped.len(), 3);
        // Blocks of the fill, each all live and inside one other group.
        let [first, second, third, cold] = [80, 90, 100, 110].map(BlockId::new);
        for victim in [first, second, third] {
            remapped.extend(live_groups(&ssd, victim));
            run_relocation(&mut ssd, victim, None).unwrap();
        }
        remapped.extend(live_groups(&ssd, cold));
        let cold_pages = ssd.validity.valid_count(cold) as u64;
        assert!(ssd.allocator.take_block(first));
        run_relocation(&mut ssd, cold, Some(first)).unwrap();
        assert_eq!(ssd.stats.flash.wear_programs, cold_pages);
        assert_eq!(cold_pages, 32);
        assert_eq!(ssd.stats.gc_runs, 0, "no point ran since the fill's");
        assert_eq!(listed(&ssd), remapped);
        assert_eq!(remapped.len(), 7);
        let pages = point(&mut ssd, remapped.len());
        assert!((2..whole as u64).contains(&pages), "{pages}");
        assert_eq!(point(&mut ssd, 0), 0);

        // A power cut loses the table; recovery replays what was
        // flushed since the last point, and the next point writes those
        // groups (and the blocks recovery re-derived) — not the buffered
        // write the cut lost.
        for lpa in (1024..1040).chain(2048..2064) {
            ssd.write(Lpa::new(lpa), u64::MAX).unwrap();
        }
        ssd.write(Lpa::new(3000), u64::MAX).unwrap();
        let report = ssd.crash_and_recover().unwrap();
        assert_eq!(report.lost_buffered_writes, 1);
        assert_eq!(report.recovered_pages, 32);
        assert_eq!(ssd.unpersisted.mapped, all_groups);
        assert_eq!(listed(&ssd), BTreeSet::from([4, 8]));
        assert_eq!(point(&mut ssd, 2), 2);
        assert_eq!(point(&mut ssd, 0), 0);
        for lpa in 0..logical {
            let replayed = (1024..1040).contains(&lpa) || (2048..2064).contains(&lpa);
            let expected = match (rewritten.contains(&lpa), replayed) {
                (true, _) => 3 << 32 | lpa,
                (_, true) => u64::MAX,
                _ => lpa,
            };
            assert_eq!(ssd.read(Lpa::new(lpa)).unwrap(), Some(expected), "{lpa}");
        }
    }

    /// The other two modes are priced as before: the log's generation
    /// by the whole footprint and the whole BVC whatever changed, and
    /// no checkpointing by nothing.
    #[test]
    fn flash_log_and_disabled_points_do_not_price_by_what_changed() {
        // 1 024 entries of 8 B and 64 BVC entries of 4 B: three pages.
        for (mode, whole) in [(CheckpointMode::FlashLog, 3), (CheckpointMode::Disabled, 0)] {
            let mut config = SsdConfig::small_test();
            config.checkpoint_mode = mode;
            let mut ssd = Ssd::new(config, ExactPageMap::new());
            for lpa in 0..1024u64 {
                ssd.write(Lpa::new(lpa), lpa).unwrap();
            }
            ssd.flush().unwrap();
            let mut generations = Vec::new();
            for _ in 0..2 {
                let before = ssd.stats.flash.translation_programs;
                ssd.take_snapshot();
                ssd.drain_maplog().unwrap();
                generations.push(ssd.stats.flash.translation_programs - before);
            }
            assert_eq!(generations, [whole, whole], "{mode:?}");
        }
    }

    /// Under the log a GC pass requests a generation when the journal
    /// has earned one — the delta tail is as long as the generation —
    /// and not before, never beside one still being written out; a
    /// direct `take_snapshot` asks nobody.
    #[test]
    fn a_flash_log_generation_waits_for_the_tail_to_earn_it() {
        let mut config = SsdConfig::small_test();
        config.checkpoint_mode = CheckpointMode::FlashLog;
        let mut ssd = Ssd::new(config, ExactPageMap::new());
        for lpa in 0..1024u64 {
            ssd.write(Lpa::new(lpa), lpa).unwrap();
        }
        ssd.flush().unwrap();
        assert_eq!(ssd.stats.gc_runs, 0, "the fill asked for no generation");
        let fill = ssd.maplog_traffic();
        assert_eq!((fill.generations, fill.generation_pages), (0, 0));
        assert_eq!(ssd.translog.tail_pages() as u64, fill.delta_pages);
        // 1 024 entries of 8 B and 64 BVC entries of 4 B: three pages.
        assert_eq!(ssd.flashlog_generation_pages(), 3);

        // "Persist now" is unconditional: with a long tail, and again
        // with none at all.
        for generations in 1..=2 {
            ssd.take_snapshot();
            assert_eq!(ssd.translog.tail_pages(), 0);
            assert_eq!(ssd.maplog_pending(), 3);
            ssd.drain_maplog().unwrap();
            assert_eq!(ssd.maplog_traffic().generations, generations);
        }

        // Each pass over a block of the fill journals one delta. Two
        // are below break-even; the third reaches it and queues exactly
        // one generation; the fourth finds that one in flight.
        let pass = |ssd: &mut Ssd<ExactPageMap>| {
            let victim = (0..64)
                .map(BlockId::new)
                .find(|&block| !ssd.allocator.is_open(block) && ssd.validity.valid_count(block) > 0)
                .expect("a closed block of the fill");
            ssd.gc_pass(victim, &mut GcPlan::default()).unwrap();
            (ssd.translog.tail_pages(), ssd.maplog_pending())
        };
        assert_eq!(pass(&mut ssd), (1, 1));
        assert_eq!(pass(&mut ssd), (2, 2));
        assert!(!ssd.translog.checkpoint_in_flight());
        assert_eq!(pass(&mut ssd), (0, 3 + 3));
        assert!(ssd.translog.checkpoint_in_flight());
        assert_eq!(pass(&mut ssd), (1, 3 + 3 + 1));
        for _ in 0..2 {
            pass(&mut ssd);
        }
        assert_eq!(ssd.translog.tail_pages(), 3, "earned, but one is in flight");
        assert_eq!(ssd.maplog_pending(), 3 + 3 + 3);
        ssd.drain_maplog().unwrap();
        assert_eq!(ssd.maplog_traffic().generations, 3);
        assert_eq!(pass(&mut ssd), (0, 1 + 3), "the next pass collects it");
        ssd.drain_maplog().unwrap();
        let traffic = ssd.maplog_traffic().since(fill);
        assert_eq!(
            (
                traffic.generations,
                traffic.generation_pages,
                traffic.delta_pages
            ),
            (4, 12, 7)
        );
        for lpa in 0..1024u64 {
            assert_eq!(ssd.read(Lpa::new(lpa)).unwrap(), Some(lpa));
        }
    }

    /// Paced by the journal, checkpoint traffic is bounded by the
    /// journal's own: over a GC-heavy run the generations' pages stay
    /// within the delta pages (plus the one generation a direct call
    /// could add), where a generation per pass wrote several times the
    /// journal — and every physical page is accounted for at the end.
    #[test]
    fn flash_log_generations_cost_no_more_than_the_journal() {
        let mut config = SsdConfig::small_test();
        config.checkpoint_mode = CheckpointMode::FlashLog;
        let geometry = config.geometry;
        let mut ssd = Ssd::new(config, ExactPageMap::new());
        let logical = ssd.config().logical_pages();
        for round in 0..12u64 {
            for lpa in 0..logical / 2 {
                let lpa = (lpa * 7 + round * 13) % logical;
                ssd.write(Lpa::new(lpa), round << 32 | lpa).unwrap();
            }
        }
        ssd.flush().unwrap();
        let traffic = ssd.maplog_traffic();
        let generation = ssd.flashlog_generation_pages() as u64;
        assert!(ssd.stats.gc_runs > 100, "{} passes", ssd.stats.gc_runs);
        assert!(traffic.generations >= 10, "{traffic:?}");
        assert!(traffic.generations < ssd.stats.gc_runs / 2, "{traffic:?}");
        assert!(
            traffic.generation_pages <= traffic.delta_pages + generation,
            "{traffic:?}"
        );
        assert_eq!(
            ssd.maplog_bytes_written(),
            (traffic.generation_pages + traffic.delta_pages) * geometry.page_size as u64
        );

        let space = ssd.space_report();
        let SpaceReport {
            free,
            open_tail,
            open_stale,
            closed_stale,
            log_owned,
            valid,
        } = space;
        assert_eq!(
            free + open_tail + open_stale + closed_stale + log_owned + valid,
            geometry.blocks * geometry.pages_per_block as u64
        );
        assert_eq!(space.valid, ssd.validity.total_valid());
        assert_eq!(
            space.free,
            ssd.allocator.free_blocks() as u64 * geometry.pages_per_block as u64
        );
        assert!(space.log_owned > 0 && space.open_tail > 0, "{space:?}");
    }

    /// The scheme recovery would restore right now.
    fn persisted_scheme(ssd: &Ssd<LeaFtlScheme>) -> &LeaFtlScheme {
        let baseline = ssd.translog.durable_baseline();
        &baseline.expect("a persistence point has run").scheme
    }

    /// A persistence point outside GC, durable on return (a log
    /// checkpoint once its pages are programmed).
    fn persist_now(ssd: &mut Ssd<LeaFtlScheme>) {
        ssd.take_snapshot();
        ssd.drain_maplog().unwrap();
    }

    /// §3.8 on structurally shared tables: the persisted table shares
    /// its groups with the live one, must stay what it was while every
    /// group of the live one changes, must survive being replaced by
    /// later persistence points, and is what a power cut restores.
    fn persisted_table_is_the_recovery_baseline(mode: CheckpointMode) {
        let mut config = SsdConfig::small_test();
        config.gamma = 4;
        config.checkpoint_mode = mode;
        let scheme = LeaFtlScheme::new(leaftl_core::LeaFtlConfig::default().with_gamma(4));
        let mut ssd = Ssd::new(config, scheme);
        let logical = ssd.config.logical_pages();
        let answers = |scheme: &LeaFtlScheme| -> Vec<_> {
            (0..logical)
                .map(|lpa| scheme.table().lookup(Lpa::new(lpa)))
                .collect()
        };
        let mut written = vec![0u64; logical as usize];
        let mut stamp = 0u64;
        let mut write = |ssd: &mut Ssd<LeaFtlScheme>, lpa: u64| {
            stamp += 1;
            written[lpa as usize] = stamp;
            ssd.write(Lpa::new(lpa), stamp).unwrap();
        };

        // Age the device until GC (and with it persistence) runs.
        for _ in 0..3 {
            (0..logical).for_each(|lpa| write(&mut ssd, lpa));
        }
        ssd.flush().unwrap();
        assert!(ssd.stats.gc_runs > 0);

        // Persist, then change every group of the live table with one
        // strided buffer; retry if a GC pass persisted again meanwhile.
        let at_persist = loop {
            persist_now(&mut ssd);
            let at_persist = answers(&ssd.scheme);
            assert_eq!(answers(persisted_scheme(&ssd)), at_persist);
            let gc_runs = ssd.stats.gc_runs;
            (0..logical)
                .step_by(logical as usize / 32)
                .for_each(|lpa| write(&mut ssd, lpa));
            ssd.flush().unwrap();
            if ssd.stats.gc_runs == gc_runs {
                break at_persist;
            }
        };
        let live = answers(&ssd.scheme);
        for group in at_persist.chunks(256).zip(live.chunks(256)) {
            assert_ne!(group.0, group.1, "every group changed");
        }
        assert_eq!(answers(persisted_scheme(&ssd)), at_persist);

        // Overwrite + GC: later persistence points bring the one above
        // up to date (under the log, supersede it with an updated
        // clone) while the live table shares groups with it.
        let gc_runs = ssd.stats.gc_runs;
        while ssd.stats.gc_runs < gc_runs + 2 {
            (0..logical).for_each(|lpa| write(&mut ssd, lpa));
        }
        ssd.flush().unwrap();
        let report = ssd.crash_and_recover().unwrap();
        assert!(report.scanned_blocks() < 64, "{}", report.scanned_blocks());
        for lpa in 0..logical {
            assert_eq!(
                ssd.read(Lpa::new(lpa)).unwrap(),
                Some(written[lpa as usize])
            );
        }

        // A cut that loses only buffered writes restores exactly the
        // persisted mappings.
        persist_now(&mut ssd);
        let at_persist = answers(&ssd.scheme);
        for lpa in 0..16 {
            ssd.write(Lpa::new(lpa * 100), u64::MAX).unwrap();
        }
        let report = ssd.crash_and_recover().unwrap();
        assert_eq!(report.lost_buffered_writes, 16);
        assert_eq!(report.recovered_pages, 0);
        assert_eq!(answers(&ssd.scheme), at_persist);

        ssd.scheme.table().assert_valid();
        recovery_scans_what_the_stamp_does_not_cover(mode);
    }

    /// The four ways a block can stand against the last durable stamp
    /// at a power cut: erased since and left empty; recycled and partly
    /// refilled; an open block appended to; a data block the log took
    /// over.
    fn recovery_scans_what_the_stamp_does_not_cover(mode: CheckpointMode) {
        let mut config = SsdConfig::small_test();
        config.gamma = 4;
        config.checkpoint_mode = mode;
        let scheme = LeaFtlScheme::new(leaftl_core::LeaFtlConfig::default().with_gamma(4));
        let mut ssd = Ssd::new(config, scheme);
        let geometry = ssd.config.geometry;
        let mut written = vec![0u64; ssd.config.logical_pages() as usize];
        let mut content = 0u64;
        let mut write = |ssd: &mut Ssd<LeaFtlScheme>, lpa: u64| {
            content += 1;
            written[lpa as usize] = content;
            ssd.write(Lpa::new(lpa), content).unwrap();
        };

        // Thirty closed blocks of live data with every eighth page
        // overwritten, and the host stream's two open blocks, one per
        // lane: one a page short of full (a 25-page flush, then six
        // one-page ones), the other holding the six one-page flushes in
        // between — far from the GC watermark, so the only persistence
        // point is the one below. After it nothing more persists:
        // background mode keeps the flush path from draining the log.
        // The one-page flushes cycle through seven addresses, so past
        // the seventh they rewrite pages of the open blocks only.
        (0..960).for_each(|lpa| write(&mut ssd, lpa));
        (0..960).step_by(8).for_each(|lpa| write(&mut ssd, lpa));
        for flush in 0..13 {
            write(&mut ssd, 8 * (flush % 7) + 1);
            ssd.flush().unwrap();
        }
        assert_eq!(ssd.stats.gc_runs, 0);
        persist_now(&mut ssd);
        let blocks = || (0..geometry.blocks).map(BlockId::new);
        let state = |ssd: &Ssd<LeaFtlScheme>, block| {
            let block = ssd.device.block(block);
            (block.erase_count(), block.write_ptr())
        };
        let mut open_data: Vec<u32> = blocks()
            .filter(|&block| ssd.allocator.is_open(block) && !ssd.translog.owns(block))
            .map(|block| ssd.device.block(block).write_ptr())
            .collect();
        open_data.sort_unstable();
        assert_eq!(open_data, [6, 31]);
        let at_persist: Vec<(u32, u32)> = blocks().map(|block| state(&ssd, block)).collect();
        let mut covered = ssd.device.program_seq();
        let mut victims = ssd.scan_gc_candidates().map(|(block, _)| block);
        let [emptied, taken_over, refilled, cold] = [(); 4].map(|()| victims.next().unwrap());
        drop(victims);

        run_relocation(&mut ssd, emptied, None).unwrap();
        // That journalled a delta, whose page lands on the next block
        // recycled. It makes the delta durable, so the delta's stamp is
        // where the scan starts.
        if mode == CheckpointMode::FlashLog {
            covered = ssd.device.program_seq();
            run_relocation(&mut ssd, taken_over, None).unwrap();
            assert!(ssd.allocator.take_block(taken_over));
            let Some(LogOp::Program { seq }) = ssd.translog.pop_op() else {
                panic!("the migration queued its delta's page");
            };
            let ppa = geometry.first_ppa(taken_over);
            ssd.device.program(ppa, seq, None).unwrap();
            ssd.translog.note_programmed(seq, taken_over, |_| true);
        }
        // A wear swap by hand refills a recycled block.
        run_relocation(&mut ssd, refilled, None).unwrap();
        assert!(ssd.allocator.take_block(refilled));
        run_relocation(&mut ssd, cold, Some(refilled)).unwrap();
        // The migrations appended to the GC stream's open blocks; a
        // flush appends to the host stream's.
        write(&mut ssd, 11);
        let drained = ssd.service_flush(GcMode::Background).unwrap();
        ssd.clock.wait_until(drained);

        assert_eq!(state(&ssd, emptied), (1, 0));
        assert_eq!(state(&ssd, refilled), (1, 28));
        let appended_to = blocks()
            .zip(&at_persist)
            .filter(|&(block, &(erases, pages))| {
                pages > 0 && state(&ssd, block).0 == erases && state(&ssd, block).1 > pages
            });
        assert!(appended_to.count() >= 1);
        let newer: Vec<usize> = blocks()
            .filter(|&block| !ssd.translog.owns(block))
            .map(|block| ssd.device.scan_block(block))
            .map(|pages| pages.filter(|&(_, _, seq)| seq > covered).count())
            .filter(|&pages| pages > 0)
            .collect();
        let report = ssd.crash_and_recover().unwrap();
        assert_eq!(report.lost_buffered_writes, 0);
        assert_eq!(report.scanned_data_blocks, newer.len());
        assert_eq!(report.recovered_pages, newer.iter().sum::<usize>() as u64);
        assert!((3..12).contains(&newer.len()), "{newer:?}");
        if mode == CheckpointMode::FlashLog {
            assert!(ssd.translog.owns(taken_over));
            assert_eq!(state(&ssd, taken_over), (1, 1));
            assert_eq!(report.replayed_log_entries, 1);
        }
        for (lpa, &content) in written.iter().enumerate() {
            let expected = (content != 0).then_some(content);
            assert_eq!(ssd.read(Lpa::new(lpa as u64)).unwrap(), expected, "{lpa}");
        }
        ssd.scheme.table().assert_valid();
    }

    #[test]
    fn dram_snapshot_is_the_recovery_baseline() {
        persisted_table_is_the_recovery_baseline(CheckpointMode::DramSnapshot);
    }

    #[test]
    fn flash_log_checkpoint_is_the_recovery_baseline() {
        persisted_table_is_the_recovery_baseline(CheckpointMode::FlashLog);
    }

    #[test]
    fn recovery_marks_one_copy_of_each_lpa_valid() {
        let mut config = SsdConfig::small_test();
        config.checkpoint_mode = CheckpointMode::Disabled;
        // One die: every flush appends to the same open block.
        config.geometry.channels = 1;
        config.geometry.dies_per_channel = 1;
        let mut ssd = Ssd::new(config, ExactPageMap::new());
        // Two flushes back to back into that block, the second
        // rewriting a page of the first: the scan replays both as one
        // batch of consecutive programs.
        for i in 0..8u64 {
            ssd.write(Lpa::new(i), i).unwrap();
        }
        ssd.flush().unwrap();
        ssd.write(Lpa::new(3), 100).unwrap();
        ssd.flush().unwrap();
        ssd.crash_and_recover().unwrap();
        assert_eq!(ssd.check_invariants(), Vec::<String>::new());
        assert_eq!(ssd.validity.total_valid(), 8);
        assert_eq!(ssd.read(Lpa::new(3)).unwrap(), Some(100));

        // A stale copy marked valid again is what the check names.
        let stale = (0..ssd.config.geometry.total_pages())
            .map(Ppa::new)
            .find(|&ppa| ssd.device.read(ppa).is_ok() && !ssd.validity.is_valid(ppa))
            .unwrap();
        ssd.mark_valid(stale);
        let violations = ssd.check_invariants();
        assert!(
            violations
                .iter()
                .any(|v| v.starts_with("Lpa(3) valid at") && v.contains(&format!("{stale:?}"))),
            "{violations:?}"
        );
    }

    #[test]
    fn check_invariants_catches_a_lost_mark() {
        let mut ssd = ssd();
        // Fill, then overwrite scattered pages until GC has run: closed
        // blocks end up partly valid.
        for i in 0..1280u64 {
            ssd.write(Lpa::new(i), i).unwrap();
        }
        for i in 0..900u64 {
            ssd.write(Lpa::new(i * 37 % 1280), i).unwrap();
        }
        assert!(ssd.stats().gc_runs > 0);
        assert_eq!(ssd.check_invariants(), Vec::<String>::new());

        // A page of a closed block goes stale: the block is marked, the
        // index still holds its old count, and the check accepts that.
        ssd.refresh_gc_index();
        let (block, valid) = ssd
            .scan_gc_candidates()
            .find(|&(_, valid)| valid > 0)
            .expect("an aged device has a partly valid closed block");
        let mut live = Vec::new();
        ssd.validity.valid_pages(block, &mut live);
        let ppa = live[0];
        ssd.invalidate(ppa);
        assert_eq!(ssd.check_invariants(), Vec::<String>::new());

        // The mark is lost before selection reads the new count.
        assert_eq!(ssd.gc_index.pop_dirty(), Some(block));
        ssd.gc_index.refresh(block, valid);
        let violations = ssd.check_invariants();
        assert!(
            violations
                .iter()
                .any(|v| v.contains(&format!("block {}: clean leaf holds {valid}", block.raw()))),
            "{violations:?}"
        );
        assert!(
            violations.iter().any(|v| v.contains("index candidates")),
            "{violations:?}"
        );
    }

    const GC_BUFFER_PAGES: usize = 32;

    /// `blocks` blocks of 16 pages, `op_ratio` of them over-provisioned,
    /// behind a 32-page buffer, persistence points off and the wear gap
    /// out of reach, written once front to back.
    fn filled_for_gc(blocks: u64, op_ratio: f64) -> Ssd<ExactPageMap> {
        let mut config = SsdConfig::small_test();
        config.geometry.blocks = blocks;
        config.geometry.pages_per_block = 16;
        config.write_buffer_pages = GC_BUFFER_PAGES;
        config.op_ratio = op_ratio;
        config.checkpoint_mode = CheckpointMode::Disabled;
        config.wear_gap_threshold = u32::MAX;
        let mut ssd = Ssd::new(config, ExactPageMap::new());
        for lpa in 0..ssd.config.logical_pages() {
            ssd.write(Lpa::new(lpa), lpa).unwrap();
        }
        ssd.flush().unwrap();
        ssd
    }

    /// Runs `flush` 64 times: every refresh round re-reads at most the
    /// pages flushed plus the blocks touched (valid count, erase count
    /// or open state moved) since the previous round — a flush that
    /// stays above the low watermark selects nothing, so its marks
    /// carry over to the next one that does — and no wear check walks
    /// the blocks. Returns the refresh rounds, one per selection.
    fn assert_gc_work_is_what_changed(
        ssd: &mut Ssd<ExactPageMap>,
        mut flush: impl FnMut(&mut Ssd<ExactPageMap>),
    ) -> usize {
        let blocks = ssd.config.geometry.blocks;
        let block_states = |ssd: &Ssd<ExactPageMap>| -> Vec<(u32, u32, bool)> {
            (0..blocks)
                .map(BlockId::new)
                .map(|block| {
                    (
                        ssd.validity.valid_count(block),
                        ssd.device.block(block).erase_count(),
                        ssd.allocator.is_open(block),
                    )
                })
                .collect()
        };
        let first = ssd.gc_index.rereads.len();
        let wear_walks = || crate::gc_index::WEAR_WALKS.with(std::cell::Cell::get);
        let walks = wear_walks();
        // Block states and data programs at the previous selection.
        let mut since = (block_states(ssd), ssd.stats.flash.data_programs);
        for _ in 0..64 {
            let rounds = ssd.gc_index.rereads.len();
            flush(ssd);
            let now = block_states(ssd);
            let touched = since
                .0
                .iter()
                .zip(&now)
                .filter(|&(was, now)| was != now)
                .count();
            let flushed = (ssd.stats.flash.data_programs - since.1) as usize;
            for &reread in &ssd.gc_index.rereads[rounds..] {
                assert!(
                    reread <= flushed + touched,
                    "{blocks} blocks: a selection re-read {reread} keys after \
                     {flushed} pages flushed and {touched} blocks touched"
                );
            }
            if ssd.gc_index.rereads.len() > rounds {
                since = (now, ssd.stats.flash.data_programs);
            }
        }
        assert_eq!(wear_walks(), walks, "{blocks} blocks: a wear check walked");
        ssd.gc_index.rereads.len() - first
    }

    /// GC selection re-reads the keys of the blocks marked since the
    /// previous selection, and the wear check answers from the erase
    /// histogram, not the device: on 256 and 4 096 blocks, flushes that
    /// collect (an aged device under a hot set) and GC calls that end
    /// on a selection that finds nothing (a device too little
    /// over-provisioned to reach the high watermark) each cost what
    /// they changed.
    #[test]
    fn gc_selection_rereads_what_the_flush_touched_whatever_the_device_holds() {
        for blocks in [256u64, 4_096] {
            // Aged: a tenth overwritten at random, then a hot set of
            // sixteen buffers' worth until GC has run 64 passes.
            let mut ssd = filled_for_gc(blocks, 0.2);
            let logical = ssd.config.logical_pages();
            let mut seed = 0x1eaf_u64;
            let mut random = |below: u64| {
                seed = seed
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (seed >> 33) % below
            };
            for _ in 0..logical / 10 {
                ssd.write(Lpa::new(random(logical)), 1).unwrap();
            }
            let hot: Vec<u64> = (0..16 * GC_BUFFER_PAGES as u64)
                .map(|_| random(logical))
                .collect();
            let mut flush = |ssd: &mut Ssd<ExactPageMap>| loop {
                let lpa = hot[random(hot.len() as u64) as usize];
                ssd.write(Lpa::new(lpa), 2).unwrap();
                if ssd.pool.buffer().is_empty() {
                    break;
                }
            };
            while ssd.stats.gc_runs < 64 {
                flush(&mut ssd);
            }
            assert_gc_work_is_what_changed(&mut ssd, &mut flush);
            assert!(ssd.stats.gc_runs >= 128, "{blocks} blocks");

            // Nothing collectible: over-provisioned just past the high
            // watermark, the device can never free that many blocks, so
            // every GC call collects what the flushes since the previous
            // one left stale and ends on a selection that finds nothing
            // — one selection per pass plus that last one. Each step
            // flushes the same buffer of pages until one call has run;
            // the first step's call reads every key the fill marked.
            let high = ssd.gc_watermarks().high;
            let mut ssd = filled_for_gc(blocks, high + 0.0001);
            let step = |ssd: &mut Ssd<ExactPageMap>| {
                let runs = ssd.stats.gc_runs;
                while ssd.stats.gc_runs == runs {
                    for lpa in 0..GC_BUFFER_PAGES as u64 {
                        ssd.write(Lpa::new(lpa), 3).unwrap();
                    }
                    assert!(ssd.pool.buffer().is_empty());
                }
                assert!(ssd.free_fraction() < high, "{blocks} blocks");
            };
            step(&mut ssd);
            let passes = ssd.stats.gc_runs;
            let selections = assert_gc_work_is_what_changed(&mut ssd, step);
            let passes = ssd.stats.gc_runs - passes;
            assert_eq!(selections as u64, passes + 64, "{blocks} blocks");
        }
    }

    /// The smoke images' shape at an eighth of their page count: 128
    /// blocks over 16 allocation ways and a one-block write buffer, so
    /// one flush stripes over eight blocks and one migration over as
    /// many more. GC must start early enough to keep both in free
    /// blocks: lines fixed at 3 % / 5 % of all blocks (3.84 / 6.4 free)
    /// run out of room for a flush, the rule's capped 8 % / 12 % do not.
    #[test]
    fn a_wide_small_device_keeps_a_flush_of_free_blocks() {
        let mut config = SsdConfig::small_test();
        config.geometry = FlashGeometry {
            channels: 4,
            dies_per_channel: 4,
            blocks: 128,
            ..FlashGeometry::small_test()
        };
        config.stripe_pages = 4;
        let lines = gc_watermarks(&config);
        assert_eq!((lines.low, lines.high), (0.08, 0.12));
        for mode in [CheckpointMode::DramSnapshot, CheckpointMode::FlashLog] {
            config.checkpoint_mode = mode;
            let mut ssd = Ssd::new(config.clone(), ExactPageMap::new());
            let logical = ssd.config.logical_pages();
            for lpa in 0..logical {
                ssd.write(Lpa::new(lpa), lpa).unwrap();
            }
            // Runs of eight pages from random starts.
            let (mut seed, mut start) = (0x5a11_u64, 0);
            for i in 0..3 * logical {
                if i % 8 == 0 {
                    seed = seed
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                    start = seed >> 33;
                }
                let lpa = (start + i % 8) % logical;
                if let Err(e) = ssd.write(Lpa::new(lpa), i) {
                    panic!("{mode:?}: write {i} of {}: {e}", 3 * logical);
                }
            }
            assert!(ssd.stats.gc_runs > 0, "{mode:?}");
            assert_eq!(ssd.check_invariants(), Vec::<String>::new(), "{mode:?}");
        }
    }

    /// On a device with room for a flush of lead the host stream keeps
    /// a lane of open blocks per flush the write pool holds: two
    /// consecutive full-buffer flushes program on disjoint dies, and the
    /// third continues the first one's blocks. Here a flush is four
    /// 8-page chunks, so a block takes four flushes to fill.
    #[test]
    fn consecutive_flushes_program_on_disjoint_dies() {
        let mut config = SsdConfig::small_test();
        config.geometry.blocks = 256;
        config.stripe_pages = 8;
        assert_eq!(host_lanes(&config), POOL_FLUSHES);
        let mut ssd = Ssd::new(config, ExactPageMap::new());
        let buffer = ssd.config.write_buffer_pages as u64;
        let mut flushes = Vec::new();
        for flush in 0..3 {
            ssd.attach_trace();
            for lpa in flush * buffer..(flush + 1) * buffer {
                ssd.write(Lpa::new(lpa), lpa).unwrap();
            }
            ssd.flush().unwrap();
            let sink = ssd.take_trace().unwrap();
            let programs: Vec<(u32, u64)> = sink
                .die_spans()
                .filter(|&(_, kind, class, ..)| (kind, class) == ("program", "host"))
                .map(|(die, _, _, block, ..)| (die, block.unwrap()))
                .collect();
            assert_eq!(programs.len() as u64, buffer, "flush {flush}");
            let dies: BTreeSet<u32> = programs.iter().map(|&(die, _)| die).collect();
            let blocks: BTreeSet<u64> = programs.iter().map(|&(_, block)| block).collect();
            assert_eq!(dies.len(), 4, "flush {flush}");
            flushes.push((dies, blocks));
        }
        assert!(flushes[0].0.is_disjoint(&flushes[1].0), "{flushes:?}");
        assert!(flushes[1].0.is_disjoint(&flushes[2].0), "{flushes:?}");
        assert_eq!(flushes[2].1, flushes[0].1);
        assert_eq!(ssd.check_invariants(), Vec::<String>::new());
    }

    /// The aged device of `a_collection_waits_once_for_its_last_erase`
    /// after its first flush that collects at least four victims, each
    /// on a die of its own: the victims with the pages each held
    /// before the flush, and the host clock and [`SyncGc`] when the
    /// flush began.
    fn flushed_into_a_wide_collection() -> (Ssd<ExactPageMap>, Vec<(BlockId, u32)>, u64, SyncGc) {
        let mut config = SsdConfig::small_test();
        config.geometry = FlashGeometry {
            channels: 8,
            dies_per_channel: 4,
            blocks: 256,
            pages_per_block: 16,
            ..FlashGeometry::small_test()
        };
        config.write_buffer_pages = GC_BUFFER_PAGES;
        config.checkpoint_mode = CheckpointMode::Disabled;
        config.wear_gap_threshold = u32::MAX;
        let mut ssd = Ssd::new(config, ExactPageMap::new());
        let logical = ssd.config.logical_pages();
        for lpa in 0..logical {
            ssd.write(Lpa::new(lpa), lpa).unwrap();
        }
        let blocks = ssd.config.geometry.blocks;
        let mut seed = 0x0ace_u64;
        let mut random = |below: u64| {
            seed = seed
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (seed >> 33) % below
        };
        let (mut start, mut next) = (0, 0u64);
        for _ in 0..300 {
            let before: Vec<(u32, u32)> = (0..blocks)
                .map(BlockId::new)
                .map(|b| {
                    (
                        ssd.device.block(b).erase_count(),
                        ssd.validity.valid_count(b),
                    )
                })
                .collect();
            let (started_ns, sync_gc) = (ssd.now_ns(), ssd.sync_gc);
            loop {
                if next % 8 == 0 {
                    start = random(logical);
                }
                ssd.write(Lpa::new((start + next % 8) % logical), 2)
                    .unwrap();
                next += 1;
                if ssd.pool.buffer().is_empty() {
                    break;
                }
            }
            let victims: Vec<(BlockId, u32)> = (0..blocks)
                .map(BlockId::new)
                .zip(&before)
                .filter(|&(b, &(erases, _))| ssd.device.block(b).erase_count() > erases)
                .map(|(b, &(_, valid))| (b, valid))
                .collect();
            let dies: BTreeSet<u32> = victims
                .iter()
                .map(|&(b, _)| ssd.config.geometry.die_of_block(b).raw())
                .collect();
            if victims.len() >= 4 && dies.len() == victims.len() {
                return (ssd, victims, started_ns, sync_gc);
            }
        }
        panic!("no flush collected four victims on distinct dies");
    }

    /// A synchronous collection puts every victim pass on the dies
    /// from its dispatch point and waits once, for the latest erase. On
    /// an aged device whose flush collects k ≥ 4 victims on distinct
    /// dies, the host clock moves by less than two passes' span — the
    /// longest pass alone on idle dies, its reads, its programs all on
    /// one die and its erase back to back — where waiting for each
    /// pass moved it by k spans. And once the collection returns, no
    /// die is reserved past the clock: the next host read costs its
    /// NAND read alone.
    #[test]
    fn a_collection_waits_once_for_its_last_erase() {
        let (mut ssd, victims, started_ns, sync_gc) = flushed_into_a_wide_collection();
        let timing = ssd.config.timing;
        let span_ns = victims
            .iter()
            .map(|&(_, valid)| {
                u64::from(valid) * (timing.read_ns + timing.program_ns) + timing.erase_ns
            })
            .max()
            .unwrap();
        assert_eq!(ssd.sync_gc.passes - sync_gc.passes, victims.len() as u64);
        let waited_ns = ssd.sync_gc.wait_ns - sync_gc.wait_ns;
        assert!(
            waited_ns < 2 * span_ns,
            "{} passes held the host {waited_ns} ns; one pass spans {span_ns} ns",
            victims.len()
        );
        assert!(ssd.now_ns() - started_ns >= waited_ns);

        let now_ns = ssd.now_ns();
        for die in 0..ssd.config.geometry.total_dies() {
            // A zero-length reservation from time zero ends where the
            // die's last reservation does, and moves nothing.
            let busy_ns = ssd.clock.schedule_after(Die::new(die), 0, 0);
            assert!(
                busy_ns <= now_ns,
                "die {die} busy until {busy_ns} ns, host at {now_ns} ns"
            );
        }
        let cold = (0..ssd.config.logical_pages())
            .map(Lpa::new)
            .find(|lpa| !ssd.read_cache.contains(lpa))
            .unwrap();
        ssd.read(cold).unwrap();
        assert!(
            ssd.now_ns() - now_ns < 2 * timing.read_ns,
            "{}",
            ssd.now_ns() - now_ns
        );
    }

    /// [`SyncGc`] counts what collections held the host for: a call
    /// that runs passes adds one collection, its passes, exactly the
    /// clock's movement inside it, and its busiest die's GC time, which
    /// that movement is never below; a call with nothing wanted adds
    /// nothing; [`Ssd::reset_stats`] clears it.
    #[test]
    fn sync_gc_counts_the_clock_a_collection_moves() {
        let (mut ssd, ..) = flushed_into_a_wide_collection();
        let blocks = ssd.config.geometry.blocks as f64;
        let target = ssd.free_fraction() + 3.0 / blocks;
        let (before, started_ns, runs) = (ssd.sync_gc, ssd.now_ns(), ssd.stats.gc_runs);
        assert!(ssd
            .collect_while(|ssd| ssd.free_fraction() < target)
            .unwrap());
        let passes = ssd.stats.gc_runs - runs;
        assert!(passes >= 3, "{passes}");
        assert_eq!(
            ssd.sync_gc,
            SyncGc {
                collections: before.collections + 1,
                passes: before.passes + passes,
                wait_ns: before.wait_ns + (ssd.now_ns() - started_ns),
                busiest_die_ns: ssd.sync_gc.busiest_die_ns,
                behind_ns: ssd.sync_gc.behind_ns,
            }
        );
        let busiest_ns = ssd.sync_gc.busiest_die_ns - before.busiest_die_ns;
        let timing = ssd.config.timing;
        assert!(busiest_ns >= timing.erase_ns, "{busiest_ns}");
        assert!(ssd.now_ns() - started_ns >= busiest_ns);
        assert!(ssd.sync_gc.wait_ns >= ssd.sync_gc.busiest_die_ns);
        let after = ssd.sync_gc;
        assert!(ssd.collect_while(|_| false).unwrap());
        assert_eq!(ssd.sync_gc, after);
        ssd.reset_stats();
        assert_eq!(ssd.sync_gc, SyncGc::default());
    }

    /// A `small_test()` device widened to 256 blocks on its 8 dies,
    /// persistence points in `mode` and the wear gap out of reach, filled
    /// once and then overwritten by runs of eight pages from random
    /// starts, `rounds` times its logical space, then flushed.
    fn aged_on_eight_dies(rounds: u64, mode: CheckpointMode) -> Ssd<ExactPageMap> {
        let mut config = SsdConfig::small_test();
        config.geometry.blocks = 256;
        config.checkpoint_mode = mode;
        config.wear_gap_threshold = u32::MAX;
        let mut ssd = Ssd::new(config, ExactPageMap::new());
        let logical = ssd.config.logical_pages();
        for lpa in 0..logical {
            ssd.write(Lpa::new(lpa), lpa).unwrap();
        }
        let (mut seed, mut start) = (0x0e1a_u64, 0);
        for i in 0..rounds * logical {
            if i % 8 == 0 {
                seed = seed
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                start = seed >> 33;
            }
            ssd.write(Lpa::new((start + i % 8) % logical), i).unwrap();
        }
        ssd.flush().unwrap();
        ssd
    }

    /// Planning a collection is its state change alone. On an aged
    /// `DramSnapshot` device with a flush's programs still queued, every
    /// pass of a collection of at least eight runs a persistence point,
    /// and yet planning reserves no die, places no queued program and
    /// counts no flash operation. Placed ahead of the queue, the plan's
    /// erases end when they did while the victim-selection loop placed
    /// each point's pages as it went, and the synchronous collector
    /// records the [`SyncGc`] it did then.
    #[test]
    fn a_collection_plan_places_nothing() {
        // µs after the dispatch point, recorded on the interleaved loop.
        const ERASE_ENDS_US: [u64; 24] = [
            17_180, 9_280, 15_520, 10_980, 10_940, 13_600, 11_400, 9_940, 18_680, 17_180, 17_020,
            18_840, 19_300, 21_100, 17_840, 17_280, 20_180, 18_680, 21_340, 23_000, 18_520, 22_600,
            25_740, 25_740,
        ];
        let mut ssd = aged_on_eight_dies(2, CheckpointMode::DramSnapshot);
        let blocks = ssd.config.geometry.blocks as f64;
        let target = ssd.free_fraction() + 8.0 / blocks;
        for lpa in 0..31 {
            ssd.write(Lpa::new(lpa), u64::MAX).unwrap();
        }
        ssd.flush_buffer(GcMode::Background).unwrap();
        let wanted = |ssd: &Ssd<ExactPageMap>| ssd.free_fraction() < target;
        let mut synchronous = ssd.clone();
        let (clock, flash) = (format!("{:?}", ssd.clock), ssd.stats.flash);
        let dispatch_ns = ssd.now_ns();

        let (plan, collected) = ssd.plan_collection(wanted, usize::MAX, dispatch_ns);
        collected.unwrap();
        assert_eq!(plan.passes.len(), ERASE_ENDS_US.len());
        assert_eq!(plan.points.len(), plan.passes.len());
        assert!(plan.points.iter().all(|point| point.pages > 0));
        let dies = ssd.config.geometry.total_dies();
        let queued =
            (0..dies).any(|die| ssd.clock.queues_any(Die::new(die), Ppa::new(0), u64::MAX));
        assert!(queued, "the flush's programs are queued");
        assert_eq!(format!("{:?}", ssd.clock), clock, "planning touched a die");
        assert_eq!(ssd.stats.flash, flash, "planning counted a flash operation");

        let mut done = Vec::new();
        ssd.place_gc(&plan, Placement::Ahead, &mut done);
        let ends: Vec<u64> = done
            .iter()
            .map(|&(_, erase_ns)| (erase_ns - dispatch_ns) / 1_000)
            .collect();
        assert_eq!(ends, ERASE_ENDS_US);

        synchronous.reset_stats();
        assert!(synchronous.collect_while(wanted).unwrap());
        let recorded = SyncGc {
            collections: 1,
            passes: 24,
            wait_ns: 25_740_000,
            busiest_die_ns: 21_020_000,
            behind_ns: 1_800_000,
        };
        assert_eq!(synchronous.sync_gc, recorded);
    }

    /// A collection reserves its reads first: on the 8 dies of an
    /// aged 256-block device, a collection of at least eight greedy
    /// passes — none over a block the collection itself filled, so the
    /// per-block rule moves no step — records every GC read of each die
    /// ahead of that die's first GC program. Chaining one pass after
    /// another reserved a later pass's reads behind an earlier pass's
    /// programs on the same die.
    #[test]
    fn a_collection_reserves_every_read_of_a_die_before_its_programs() {
        let mut ssd = aged_on_eight_dies(2, CheckpointMode::Disabled);
        let blocks = ssd.config.geometry.blocks;
        let candidates: BTreeSet<BlockId> = ssd.scan_gc_candidates().map(|(b, _)| b).collect();
        let erases = |ssd: &Ssd<ExactPageMap>| -> Vec<u32> {
            let blocks = (0..blocks).map(BlockId::new);
            blocks.map(|b| ssd.device.block(b).erase_count()).collect()
        };
        let before = erases(&ssd);
        let target = ssd.free_fraction() + 6.0 / blocks as f64;
        ssd.attach_trace();
        assert!(ssd
            .collect_while(|ssd| ssd.free_fraction() < target)
            .unwrap());
        let victims: Vec<BlockId> = (0..blocks)
            .map(BlockId::new)
            .zip(erases(&ssd).into_iter().zip(before))
            .filter(|&(_, (after, before))| after > before)
            .map(|(block, _)| block)
            .collect();
        assert!(victims.len() >= 8, "{victims:?}");
        assert!(
            victims.iter().all(|victim| candidates.contains(victim)),
            "{victims:?}"
        );
        let sink = ssd.take_trace().unwrap();
        for die in 0..ssd.config.geometry.total_dies() {
            let kinds: Vec<&str> = sink
                .die_spans()
                .filter(|&(on, _, class, ..)| on == die && class == "gc")
                .map(|(_, kind, ..)| kind)
                .collect();
            let programs_from = kinds.iter().position(|&kind| kind == "program");
            let after = &kinds[programs_from.unwrap_or(kinds.len())..];
            assert!(!after.contains(&"read"), "die {die}: {kinds:?}");
        }
    }

    /// The per-block rule, read off the die spans: through the flushes
    /// of an aged 256-block device, every collection's GC steps on a
    /// block run one after another, in an order the block allows — a
    /// read only first or after a program or a read, an erase only
    /// after a read or first, a program only first or after a program
    /// or an erase. The flushes run until one collection both reads a
    /// victim that an earlier pass of it filled and programs a block
    /// that an earlier pass of it erased.
    #[test]
    fn a_collections_steps_on_a_block_follow_one_another() {
        let mut ssd = aged_on_eight_dies(1, CheckpointMode::Disabled);
        let logical = ssd.config.logical_pages();
        let mut seed = 0x5eed_u64;
        let mut random = move || {
            seed = seed
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            seed >> 33
        };
        // Four extents in five start in the hot fifth of the space; one
        // in eight is 2–41 pages long.
        let mut lpas = std::iter::from_fn(|| {
            let start = if random() % 5 < 4 {
                random() % (logical / 5)
            } else {
                random() % logical
            };
            let len = if random() % 8 == 0 {
                2 + random() % 40
            } else {
                1
            };
            Some((0..len).map(move |i| (start + i) % logical))
        })
        .flatten();
        for i in 0..8 * logical {
            let collections = ssd.sync_gc.collections;
            ssd.attach_trace();
            ssd.write(Lpa::new(lpas.next().unwrap()), i).unwrap();
            let sink = ssd.take_trace().unwrap();
            if ssd.sync_gc.collections == collections {
                continue;
            }
            let mut steps: BTreeMap<u64, Vec<(u64, u64, &str)>> = BTreeMap::new();
            for (_, kind, class, block, start_ns, end_ns) in sink.die_spans() {
                if class == "gc" {
                    let block = block.unwrap();
                    steps
                        .entry(block)
                        .or_default()
                        .push((start_ns, end_ns, kind));
                }
            }
            let (mut filled_then_read, mut erased_then_filled) = (false, false);
            for (block, mut steps) in steps {
                steps.sort_unstable();
                for pair in steps.windows(2) {
                    let [(_, end_ns, kind), (start_ns, _, next)] = [pair[0], pair[1]];
                    let allowed = match kind {
                        "read" => ["read", "erase"].contains(&next),
                        "program" => ["program", "read"].contains(&next),
                        _ => next == "program",
                    };
                    assert!(
                        allowed && start_ns >= end_ns,
                        "block {block}: {next} at {start_ns} after {kind} ending {end_ns}"
                    );
                    filled_then_read |= (kind, next) == ("program", "read");
                    erased_then_filled |= (kind, next) == ("erase", "program");
                }
            }
            if filled_then_read && erased_then_filled {
                return;
            }
        }
        panic!("no collection read a block it filled and filled a block it erased");
    }

    /// A collection's passes each run a persistence point, and under
    /// `DramSnapshot` each point's pages continue over the dies from
    /// where the previous one's ended: a synchronous collection of k ≥
    /// 2 × dies passes puts at most ⌈P / dies⌉ + 1 of its P point
    /// programs on any die. Points that each started on die 0 put k
    /// there.
    #[test]
    fn a_collections_persistence_points_rotate_over_the_dies() {
        let mut ssd = aged_on_eight_dies(2, CheckpointMode::DramSnapshot);
        let dies = ssd.config.geometry.total_dies();
        let blocks = ssd.config.geometry.blocks as f64;
        let target = ssd.free_fraction() + 24.0 / blocks;
        let runs = ssd.stats.gc_runs;
        ssd.attach_trace();
        assert!(ssd
            .collect_while(|ssd| ssd.free_fraction() < target)
            .unwrap());
        let passes = ssd.stats.gc_runs - runs;
        assert!(passes >= 2 * u64::from(dies), "{passes} passes");
        let sink = ssd.take_trace().unwrap();
        let mut per_die = vec![0u64; dies as usize];
        for (die, kind, class, ..) in sink.die_spans() {
            if (kind, class) == ("program", "maplog") {
                per_die[die as usize] += 1;
            }
        }
        let points: u64 = per_die.iter().sum();
        assert!(points >= passes, "{points} point pages, {passes} passes");
        let bound = points.div_ceil(u64::from(dies)) + 1;
        assert!(
            per_die.iter().all(|&on_die| on_die <= bound),
            "{passes} passes put {per_die:?} point pages on the dies, bound {bound}"
        );
    }

    /// A die span as a trace records it: die, op kind, traffic class,
    /// block, start and end.
    type DieSpan = (u32, &'static str, &'static str, Option<u64>, u64, u64);

    /// An aged 256-block device, then a 31-page flush whose programs
    /// are still queued when a collection of at least eight passes runs
    /// from the same dispatch point: synchronously (the host waits on
    /// it) or as background GC. Returns the dispatch point and every
    /// die span from the flush on, the flush's programs placed.
    fn collected_behind_a_queued_flush(synchronous: bool) -> (u64, Vec<DieSpan>) {
        let mut ssd = aged_on_eight_dies(2, CheckpointMode::Disabled);
        let blocks = ssd.config.geometry.blocks as f64;
        let target = ssd.free_fraction() + 8.0 / blocks;
        ssd.attach_trace();
        for lpa in 0..31 {
            ssd.write(Lpa::new(lpa), u64::MAX).unwrap();
        }
        ssd.flush_buffer(GcMode::Background).unwrap();
        let (dispatch_ns, runs) = (ssd.now_ns(), ssd.stats.gc_runs);
        let wanted = |ssd: &Ssd<ExactPageMap>| ssd.free_fraction() < target;
        if synchronous {
            assert!(ssd.collect_while(wanted).unwrap());
        } else {
            collect(&mut ssd, wanted, usize::MAX, &mut Vec::new()).unwrap();
        }
        assert!(ssd.stats.gc_runs - runs >= 8);
        ssd.place_programs();
        let sink = ssd.take_trace().unwrap();
        (dispatch_ns, sink.die_spans().collect())
    }

    /// The collection the host is blocked on goes ahead of the flush
    /// programs queued on its dies: on a die that holds some, its
    /// first GC read starts at the dispatch point, and the flush's
    /// programs there end after the collection's last step there. A
    /// background collection from the same image places each die's
    /// queue first: its first GC read there starts after the flush's
    /// programs end.
    #[test]
    fn a_synchronous_collection_goes_ahead_of_queued_flush_programs() {
        for synchronous in [true, false] {
            let (dispatch_ns, spans) = collected_behind_a_queued_flush(synchronous);
            let on = |die: u32, wanted: &'static str| {
                spans
                    .iter()
                    .filter(move |&&(on, _, class, ..)| on == die && class == wanted)
                    .map(|&(_, kind, _, _, start_ns, end_ns)| (kind, start_ns, end_ns))
            };
            let flushed: BTreeSet<u32> = spans
                .iter()
                .filter(|&&(_, kind, class, ..)| (kind, class) == ("program", "host"))
                .map(|&(die, ..)| die)
                .collect();
            let mut checked = 0;
            for &die in &flushed {
                let Some(first_read) = on(die, "gc")
                    .filter(|&(kind, ..)| kind == "read")
                    .map(|(_, start_ns, _)| start_ns)
                    .min()
                else {
                    continue;
                };
                let gc_end = on(die, "gc").map(|(.., end_ns)| end_ns).max().unwrap();
                let flush_end = on(die, "host").map(|(.., end_ns)| end_ns).max().unwrap();
                if synchronous {
                    assert_eq!(first_read, dispatch_ns, "die {die}");
                    assert!(flush_end > gc_end, "die {die}: {flush_end} ≤ {gc_end}");
                } else {
                    assert!(
                        first_read >= flush_end,
                        "die {die}: {first_read} < {flush_end}"
                    );
                }
                checked += 1;
            }
            assert!(
                checked > 0,
                "no die holds the flush and a GC read: {flushed:?}"
            );
        }
    }

    /// A victim whose own programs are still queued — a block the
    /// flush that triggered the collection closed — is read after
    /// them, though the rest of the collection goes ahead of the queue:
    /// a 32-page flush closes a block, a second flush overwrites 28 of
    /// its pages before any of its programs has run, and a synchronous
    /// collection of one pass takes it.
    #[test]
    fn a_victim_with_a_queued_program_is_read_after_it() {
        let mut ssd = half_written();
        let geometry = ssd.config.geometry;
        let logical = ssd.config.logical_pages();
        ssd.attach_trace();
        let fresh: Vec<u64> = (logical / 2..logical / 2 + 32).collect();
        for &lpa in &fresh {
            ssd.write(Lpa::new(lpa), 1).unwrap();
        }
        for &lpa in fresh[..28].iter().chain(&[0, 1, 2, 3]) {
            ssd.write(Lpa::new(lpa), 2).unwrap();
        }
        let block = geometry.block_of(ssd.scheme.lookup(Lpa::new(fresh[31])).0.unwrap().ppa);
        assert_eq!(ssd.validity.valid_count(block), 4);
        let die = geometry.die_of_block(block);
        assert!(ssd.clock.queues_any(
            die,
            geometry.first_ppa(block),
            u64::from(geometry.pages_per_block)
        ));
        let runs = ssd.stats.gc_runs;
        assert!(ssd.collect_while(|ssd| ssd.stats.gc_runs == runs).unwrap());
        ssd.place_programs();
        let sink = ssd.take_trace().unwrap();
        let spans: Vec<(&'static str, &'static str, u64, u64)> = sink
            .die_spans()
            .filter(|&(_, _, _, on, ..)| on == Some(block.raw()))
            .map(|(_, kind, class, _, start_ns, end_ns)| (kind, class, start_ns, end_ns))
            .collect();
        let of_block = |wanted: (&'static str, &'static str)| {
            let spans = spans.iter();
            spans.filter(move |&&(kind, class, ..)| (kind, class) == wanted)
        };
        let programmed_ns = of_block(("program", "host")).map(|span| span.3).max();
        let first_read_ns = of_block(("read", "gc")).map(|span| span.2).min();
        assert_eq!(of_block(("read", "gc")).count(), 4);
        assert!(
            first_read_ns >= programmed_ns,
            "read from {first_read_ns:?}, programmed until {programmed_ns:?}"
        );
        assert_eq!(ssd.check_invariants(), Vec::<String>::new());
    }

    /// [`SyncGc::behind_ns`] adds, per collection, the longest any die
    /// its steps use was already reserved past the dispatch point: two
    /// dies reserved 3 ms and 1 ms ahead add 3 ms, not 4, and a
    /// collection on idle dies adds nothing.
    #[test]
    fn sync_gc_behind_is_the_longest_reservation_a_collection_found() {
        let mut ssd = aged_on_eight_dies(2, CheckpointMode::Disabled);
        let blocks = ssd.config.geometry.blocks as f64;
        let collect = |ssd: &mut Ssd<ExactPageMap>| {
            let before = ssd.sync_gc.behind_ns;
            let target = ssd.free_fraction() + 8.0 / blocks;
            assert!(ssd
                .collect_while(|ssd| ssd.free_fraction() < target)
                .unwrap());
            ssd.sync_gc.behind_ns - before
        };
        let mut idle = ssd.clone();
        assert_eq!(collect(&mut idle), 0);
        let now = ssd.now_ns();
        ssd.clock.schedule_after(Die::new(2), now, 3_000_000);
        ssd.clock.schedule_after(Die::new(5), now, 1_000_000);
        ssd.attach_trace();
        assert_eq!(collect(&mut ssd), 3_000_000);
        // Both reserved dies hold a step of the collection.
        let sink = ssd.take_trace().unwrap();
        let used: BTreeSet<u32> = sink
            .die_spans()
            .filter(|&(_, _, class, ..)| class == "gc")
            .map(|(die, ..)| die)
            .collect();
        assert!(used.is_superset(&BTreeSet::from([2, 5])), "{used:?}");
        ssd.reset_stats();
        assert_eq!(ssd.sync_gc.behind_ns, 0);
    }

    /// A `small_test()` device, persistence points and wear levelling
    /// off, half its logical space written once and flushed: each
    /// closed block holds every page valid, so none is a GC candidate.
    fn half_written() -> Ssd<ExactPageMap> {
        let mut config = SsdConfig::small_test();
        config.checkpoint_mode = CheckpointMode::Disabled;
        config.wear_gap_threshold = u32::MAX;
        let mut ssd = Ssd::new(config, ExactPageMap::new());
        for lpa in 0..ssd.config.logical_pages() / 2 {
            ssd.write(Lpa::new(lpa), lpa).unwrap();
        }
        ssd.flush().unwrap();
        ssd
    }

    /// The closed blocks of `ssd` holding every page valid, in block
    /// order.
    fn fully_valid_blocks(ssd: &Ssd<ExactPageMap>) -> Vec<BlockId> {
        let pages = ssd.config.geometry.pages_per_block;
        (0..ssd.config.geometry.blocks)
            .map(BlockId::new)
            .filter(|&block| {
                !ssd.allocator.is_open(block)
                    && !ssd.device.block(block).is_erased()
                    && ssd.validity.valid_count(block) == pages
            })
            .collect()
    }

    /// Within a collection greedy balances the dies. The only
    /// candidates: blocks a and b on one die, holding 10 and 11 valid
    /// pages, and c on another. A collection of two passes takes a,
    /// then — with the fewest at 11 and Δ(11) = ⌈(11·t_read + t_erase)
    /// / t_program⌉ = 9 — c while c holds 20 pages, and b once c holds
    /// 21. Plain greedy takes a, then b, and so does a device whose GC
    /// lines sit at the cap (set here once the layout is written) while
    /// c holds 20.
    #[test]
    fn a_collection_takes_its_second_victim_from_another_die_within_delta() {
        for (c_valid, capped, second) in [(20, false, 2), (21, false, 1), (20, true, 1)] {
            let mut ssd = half_written();
            let geometry = ssd.config.geometry;
            let die = |block| geometry.die_of_block(block);
            let full = fully_valid_blocks(&ssd);
            let a = full[0];
            let b = *full.iter().find(|&&x| x != a && die(x) == die(a)).unwrap();
            let c = *full.iter().find(|&&x| die(x) != die(a)).unwrap();
            for (block, valid) in [(a, 10), (b, 11), (c, c_valid)] {
                let mut pages = Vec::new();
                ssd.validity.valid_pages(block, &mut pages);
                for &ppa in &pages[valid as usize..] {
                    let lpa = ssd.device.read(ppa).unwrap().lpa.unwrap();
                    ssd.write(lpa, 0).unwrap();
                }
            }
            ssd.flush().unwrap();
            let candidates: BTreeSet<(BlockId, u32)> = ssd.scan_gc_candidates().collect();
            assert_eq!(candidates, BTreeSet::from([(a, 10), (b, 11), (c, c_valid)]));
            if capped {
                ssd.gc_lines.low = 0.08;
                assert!(ssd.gc_lines.capped());
            }
            let mut done = Vec::new();
            collect(&mut ssd, |_| true, 2, &mut done).unwrap();
            let victims: Vec<BlockId> = done.iter().map(|&(victim, _)| victim).collect();
            let case = format!("c holds {c_valid}, capped {capped}");
            assert_eq!(victims, [a, [a, b, c][second]], "{case}");
            assert_eq!(ssd.check_invariants(), Vec::<String>::new());
        }
    }

    /// Greedy over random candidate layouts (a quarter of the closed
    /// blocks kept fully valid, the rest left 0–31 of 32 valid pages):
    /// with no die having given a victim — outside a collection, or on
    /// its first pass — the pick is plain greedy's, the fewest valid
    /// pages and the lowest block id among equals. With 0–3 victims
    /// taken from each die, the pick holds at most Δ(v) = ⌈(v·t_read +
    /// t_erase) / t_program⌉ valid pages over the fewest, v, and is the
    /// candidate within that bound whose die has given the fewest, then
    /// the one with the fewest valid pages, then the lowest block id.
    #[test]
    fn greedy_stays_within_delta_of_the_fewest_and_balances_the_dies() {
        let filled = half_written();
        let geometry = filled.config.geometry;
        let timing = filled.config.timing;
        let closed = fully_valid_blocks(&filled);
        let mut seed = 0xba1a_u64;
        let mut random = move |below: u64| {
            seed = seed
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (seed >> 33) % below
        };
        let mut balanced = 0;
        for case in 0..64 {
            let mut ssd = filled.clone();
            for &block in &closed {
                if random(4) == 0 {
                    continue;
                }
                let valid = random(u64::from(geometry.pages_per_block)) as usize;
                let mut pages = Vec::new();
                ssd.validity.valid_pages(block, &mut pages);
                for &ppa in &pages[valid..] {
                    ssd.invalidate(ppa);
                }
            }
            let candidates: Vec<(BlockId, u32)> = ssd.scan_gc_candidates().collect();
            let fewest = candidates.iter().map(|&(_, valid)| valid).min().unwrap();
            let greedy = candidates
                .iter()
                .filter(|&&(_, valid)| valid == fewest)
                .map(|&(block, _)| block)
                .min();
            let now = ssd.now_ns();
            assert_eq!(
                ssd.select_gc_victim(now, &[]),
                greedy,
                "case {case}: first pass"
            );

            let die_victims: Vec<u32> = (0..geometry.total_dies())
                .map(|_| random(4) as u32)
                .collect();
            let pick = ssd.select_gc_victim(now, &die_victims).unwrap();
            let slack =
                (u64::from(fewest) * timing.read_ns + timing.erase_ns).div_ceil(timing.program_ns);
            let within = |valid: u32| u64::from(valid) <= u64::from(fewest) + slack;
            let victims = |block| die_victims[geometry.die_of_block(block).raw() as usize];
            let picked_valid = ssd.validity.valid_count(pick);
            assert!(
                within(picked_valid),
                "case {case}: {picked_valid} valid, fewest {fewest}, Δ {slack}"
            );
            let expected = candidates
                .iter()
                .filter(|&&(_, valid)| within(valid))
                .min_by_key(|&&(block, valid)| (victims(block), valid, block))
                .map(|&(block, _)| block);
            assert_eq!(Some(pick), expected, "case {case}");
            balanced += usize::from(Some(pick) != greedy);
        }
        assert!(
            balanced >= 16,
            "only {balanced} of 64 picks left plain greedy's"
        );
    }

    #[test]
    fn stats_reset_keeps_state() {
        let mut ssd = ssd();
        for i in 0..32u64 {
            ssd.write(Lpa::new(i), i).unwrap();
        }
        ssd.reset_stats();
        assert_eq!(ssd.stats().host_writes, 0);
        assert_eq!(ssd.read(Lpa::new(1)).unwrap(), Some(1));
    }

    impl Ssd<ExactPageMap> {
        fn validity_valid_count_for_test(&self, block: BlockId) -> u32 {
            self.validity.valid_count(block)
        }
    }

    /// [`ExactPageMap`] behind a demand-paged veneer: LPAs in `paged`
    /// charge one translation-page read per lookup, and lookups report
    /// themselves impure so the engine translates each request at its
    /// turn (no batch hoisting) — the shape that makes head-of-line
    /// blocking visible.
    #[derive(Debug, Clone, Default)]
    struct DemandCost {
        inner: ExactPageMap,
        paged: std::collections::BTreeSet<u64>,
    }

    impl MappingScheme for DemandCost {
        fn name(&self) -> &'static str {
            "DemandCost"
        }

        fn update_batch(&mut self, pairs: &[(Lpa, Ppa)]) -> MapCost {
            self.inner.update_batch(pairs)
        }

        fn lookup(&mut self, lpa: Lpa) -> (Option<MappingLookup>, MapCost) {
            let (hit, mut cost) = self.inner.lookup(lpa);
            if self.paged.contains(&lpa.raw()) {
                cost.add(MapCost {
                    translation_reads: 1,
                    translation_writes: 0,
                });
            }
            (hit, cost)
        }

        fn memory_bytes(&self) -> usize {
            self.inner.memory_bytes()
        }

        fn set_memory_budget(&mut self, _bytes: usize) {}

        fn maintain(&mut self) -> (MapCost, bool) {
            (MapCost::FREE, false)
        }
    }

    /// Lets every flushed page whose program has ended give its DRAM
    /// slot up, as writes that need the slots would.
    fn release_programmed<S: MappingScheme + Clone>(ssd: &mut Ssd<S>) {
        let now = ssd.now_ns();
        while ssd
            .clock
            .earliest_untaken()
            .is_some_and(|(end_ns, _)| end_ns <= now)
        {
            if let Some((_, tag)) = ssd.clock.take_earliest_program() {
                ssd.pool.release(tag);
            }
        }
        ssd.trace_programs();
    }

    fn demand_ssd(paged: u64) -> Ssd<DemandCost> {
        let mut scheme = DemandCost::default();
        scheme.paged.insert(paged);
        let mut ssd = Ssd::new(SsdConfig::small_test(), scheme);
        // One full buffer, then a host flush that waits for its
        // programs, and the slots of its pages given up: everything is
        // on flash and out of DRAM, so reads go through translation
        // rather than the write buffer.
        for i in 0..32u64 {
            ssd.write(Lpa::new(i), 500 + i).unwrap();
        }
        ssd.flush().unwrap();
        release_programmed(&mut ssd);
        // The flush's invalidation lookups already charged scheme costs;
        // start the measured window clean.
        ssd.reset_stats();
        ssd
    }

    #[test]
    fn pipelined_batch_lets_resident_reads_pass_demand_paged_ones() {
        let slow = Lpa::new(3); // demand-paged: +1 translation read
        let fast = Lpa::new(9); // resident: sub-µs lookup only

        let mut ssd = demand_ssd(slow.raw());
        let mut results = [(None, 0); 2];
        ssd.service_read_batch(&[slow, fast], &mut results).unwrap();
        assert_eq!(results[0].0, Some(500 + slow.raw()));
        assert_eq!(results[1].0, Some(500 + fast.raw()));
        // The pipeline: the resident read, though *second* in the
        // batch, completes strictly before the demand-paged one — its
        // lookup and data read overlapped the translation-page read.
        assert!(
            results[1].1 < results[0].1,
            "resident read should finish first (fast {} vs slow {})",
            results[1].1,
            results[0].1
        );
        assert_eq!(ssd.stats().flash.translation_reads, 1);

        // State is bit-identical to servicing the requests one burst
        // each, in submission order.
        let mut twin = demand_ssd(slow.raw());
        assert_eq!(twin.read(slow).unwrap(), Some(500 + slow.raw()));
        assert_eq!(twin.read(fast).unwrap(), Some(500 + fast.raw()));
        assert_eq!(ssd.stats().flash, twin.stats().flash);
        assert_eq!(ssd.stats().lookups, twin.stats().lookups);
        assert_eq!(ssd.stats().cache_hits, twin.stats().cache_hits);
        assert_eq!(ssd.stats().host_reads, twin.stats().host_reads);
        assert_eq!(ssd.stats().mispredictions, twin.stats().mispredictions);
    }

    #[test]
    fn a_demand_paged_lookup_does_not_delay_a_later_dispatchs_resident_one() {
        let slow = Lpa::new(512); // demand-paged, its translation page on die 1
        let fast = Lpa::new(9); // resident, its data on die 0
        let mut ssd = demand_ssd(slow.raw());
        // A second buffer lands on die 1 and drains; then an erase holds
        // die 1 (a host read goes ahead of queued programs, not of an
        // erase), and die 0 is idle.
        for i in 0..32u64 {
            ssd.write(Lpa::new(512 + i), 500 + i).unwrap();
        }
        ssd.flush().unwrap();
        release_programmed(&mut ssd);
        let timing = ssd.config().timing;
        let dispatch = ssd.now_ns();
        let erase = Target::Translation(ssd.translation_die(slow));
        ssd.flash_op(FlashOp::Erase, TrafficClass::Gc, erase, dispatch);

        let mut paged = [(None, 0)];
        ssd.service_read_batch(&[slow], &mut paged).unwrap();
        assert_eq!(paged[0].0, Some(500));
        assert!(
            paged[0].1 > dispatch + timing.erase_ns,
            "the translation read must queue behind the erase: {} from {dispatch}",
            paged[0].1
        );

        // A later burst at the same dispatch point, on the same shard:
        // its lookup does not wait for the paged one's map-ready time.
        let mut resident = [(None, 0)];
        ssd.service_read_batch(&[fast], &mut resident).unwrap();
        assert_eq!(resident[0].0, Some(500 + fast.raw()));
        assert_eq!(resident[0].1, dispatch + LOOKUP_BASE_NS + timing.read_ns);
    }

    #[test]
    fn a_data_cache_hit_waits_for_the_read_that_brings_its_page_in() {
        let config = SsdConfig::small_test();
        let timing = config.timing;
        let mut ssd = Ssd::new(config, ExactPageMap::new());
        for lpa in 0..64 {
            ssd.write(Lpa::new(lpa), lpa).unwrap();
        }
        ssd.flush().unwrap();
        ssd.advance_to(ssd.now_ns() + 100 * timing.program_ns);
        release_programmed(&mut ssd);
        // Cold: in neither the write buffer, the flushed pages nor the
        // data cache.
        ssd.reset_stats();
        let lpa = Lpa::new(5);
        let ppa = ssd.scheme.lookup(lpa).0.unwrap().ppa;
        // An erase holds the page's die (a host read goes ahead of
        // queued programs, not of an erase).
        let dispatch = ssd.now_ns();
        let erased_ns = ssd.flash_op(
            FlashOp::Erase,
            TrafficClass::Gc,
            Target::Page(ppa),
            dispatch,
        );

        // The first read fills the cache; the second, in the same burst,
        // hits it and completes when the page is there.
        let mut burst = [(None, 0); 2];
        ssd.service_read_batch(&[lpa, lpa], &mut burst).unwrap();
        let filled_ns = erased_ns + timing.read_ns;
        assert_eq!(burst, [(Some(5), filled_ns); 2]);
        // So does a hit dispatched later, before the read ends.
        let later_ns = dispatch + 2 * DRAM_HIT_NS;
        ssd.advance_to(later_ns);
        let mut one = [(None, 0)];
        ssd.service_read_batch(&[lpa], &mut one).unwrap();
        assert_eq!(one, [(Some(5), filled_ns)]);
        // Once it has ended, a hit costs one DRAM access.
        ssd.advance_to(filled_ns);
        ssd.service_read_batch(&[lpa], &mut one).unwrap();
        assert_eq!(one, [(Some(5), filled_ns + DRAM_HIT_NS)]);

        assert_eq!(ssd.stats().flash.data_reads, 1);
        assert_eq!(ssd.stats().cache_hits, 3);
        let waited = (filled_ns - dispatch - DRAM_HIT_NS) + (filled_ns - later_ns - DRAM_HIT_NS);
        let priority = ssd.read_priority();
        assert_eq!((priority.fill_waits, priority.fill_wait_ns), (2, waited));
    }

    /// [`ExactPageMap`] posing as a learned table: every lookup is
    /// approximate within ±`gamma` pages, and predicts `shift` pages
    /// past the live page for the LPAs listed there.
    #[derive(Debug, Clone, Default)]
    struct Approximate {
        inner: ExactPageMap,
        gamma: u32,
        shift: BTreeMap<u64, u64>,
    }

    impl MappingScheme for Approximate {
        fn name(&self) -> &'static str {
            "Approximate"
        }

        fn update_batch(&mut self, pairs: &[(Lpa, Ppa)]) -> MapCost {
            self.inner.update_batch(pairs)
        }

        fn lookup(&mut self, lpa: Lpa) -> (Option<MappingLookup>, MapCost) {
            let (hit, cost) = self.inner.lookup(lpa);
            let shift = self.shift.get(&lpa.raw()).copied().unwrap_or(0);
            let hit = hit.map(|hit| MappingLookup {
                ppa: hit.ppa.offset(shift),
                approximate: true,
                error_bound: self.gamma,
                levels_visited: 1,
            });
            (hit, cost)
        }

        fn memory_bytes(&self) -> usize {
            self.inner.memory_bytes()
        }

        fn set_memory_budget(&mut self, _bytes: usize) {}

        fn maintain(&mut self) -> (MapCost, bool) {
            (MapCost::FREE, false)
        }
    }

    /// A γ = 4 device with no data cache (every read that misses the
    /// write pool probes flash) whose LPAs `0..pages` were flushed in
    /// buffers of 32, every flush drained (its pages still hold their
    /// DRAM slots), and the stats reset.
    fn approximate_ssd(pages: u64) -> Ssd<Approximate> {
        let mut config = SsdConfig::small_test();
        (config.gamma, config.dram_bytes) = (4, 0);
        let scheme = Approximate {
            gamma: config.gamma,
            ..Approximate::default()
        };
        let mut ssd = Ssd::new(config, scheme);
        for lpa in 0..pages {
            ssd.write(Lpa::new(lpa), lpa).unwrap();
        }
        ssd.flush().unwrap();
        ssd.reset_stats();
        ssd
    }

    /// [`approximate_ssd`] with every flushed page's slot given up: the
    /// old copies an overwrite resolves are on flash alone.
    fn approximate_on_flash(pages: u64) -> Ssd<Approximate> {
        let mut ssd = approximate_ssd(pages);
        release_programmed(&mut ssd);
        ssd
    }

    fn page_of(ssd: &Ssd<Approximate>, lpa: u64) -> Ppa {
        ssd.scheme().inner.get(Lpa::new(lpa)).unwrap()
    }

    /// Overwrites `lpas` in one flush, reads them back and checks the
    /// invariants.
    fn overwrite(ssd: &mut Ssd<Approximate>, lpas: &[u64]) {
        for &lpa in lpas {
            ssd.write(Lpa::new(lpa), 1_000 + lpa).unwrap();
        }
        ssd.service_flush(GcMode::Synchronous).unwrap();
        for &lpa in lpas {
            assert_eq!(ssd.read(Lpa::new(lpa)).unwrap(), Some(1_000 + lpa));
        }
        assert_eq!(ssd.check_invariants(), Vec::<String>::new());
    }

    /// A flush resolves its approximate overwrites in one pass: one
    /// read per OOB window, counted as the predicted page's data read,
    /// and no second read for an address the window names.
    #[test]
    fn a_flush_resolves_its_overwrites_with_one_read_per_window() {
        // k overwrites whose live pages one window names: the first
        // reads its predicted page, whose window names the other two.
        let mut ssd = approximate_on_flash(32);
        let first = page_of(&ssd, 0);
        for lpa in 1..3 {
            assert_eq!(page_of(&ssd, lpa), first.offset(lpa), "one run of pages");
        }
        overwrite(&mut ssd, &[0, 1, 2]);
        let flash = ssd.stats().flash;
        assert_eq!((flash.data_reads, flash.misprediction_reads), (1, 0));
        let paths = *ssd.lookup_paths();
        assert_eq!((paths.resolutions, paths.window_resolutions), (3, 2));
        assert_eq!((paths.resolution_reads, ssd.stats().lookups), (1, 3));
        assert_eq!(paths.dram_resolutions, 0);
        assert_eq!(ssd.stats().mispredictions, 0);

        // A mispredicted overwrite the window names: the predicted page
        // is read, and the window gives the address without a second.
        let mut ssd = approximate_on_flash(32);
        ssd.scheme.shift.insert(5, 1);
        overwrite(&mut ssd, &[5]);
        let flash = ssd.stats().flash;
        assert_eq!((flash.data_reads, flash.misprediction_reads), (1, 0));
        assert_eq!(ssd.stats().mispredictions, 1);
        assert_eq!(ssd.lookup_paths().resolution_mispredictions, 1);
    }

    /// An overwrite whose old copy is a flushed page still in DRAM
    /// takes its address from the pool: no probe reaches flash, and the
    /// lookup is counted as before.
    #[test]
    fn an_overwrite_of_a_page_still_in_dram_resolves_without_a_flash_read() {
        let mut ssd = approximate_ssd(32);
        ssd.scheme.shift.insert(5, 1);
        let old: Vec<Ppa> = [0, 5, 17].iter().map(|&lpa| page_of(&ssd, lpa)).collect();
        overwrite(&mut ssd, &[0, 5, 17]);
        let flash = ssd.stats().flash;
        assert_eq!((flash.data_reads, flash.misprediction_reads), (0, 0));
        let paths = *ssd.lookup_paths();
        assert_eq!((paths.resolutions, paths.dram_resolutions), (3, 3));
        assert_eq!((paths.resolution_reads, paths.window_resolutions), (0, 0));
        assert_eq!((ssd.stats().lookups, ssd.stats().mispredictions), (3, 1));
        assert!(old.iter().all(|&ppa| !ssd.validity.is_valid(ppa)));
    }

    /// The flush's resolution reads stay on their dies, and the write
    /// that flushed completes before either ends.
    #[test]
    fn a_flushing_write_does_not_wait_for_its_resolution_reads() {
        let read_ns = SsdConfig::small_test().timing.read_ns;
        let mut ssd = approximate_on_flash(64);
        let (a, b) = (page_of(&ssd, 0), page_of(&ssd, 32));
        let geometry = ssd.config().geometry;
        assert_ne!(geometry.die_of(a), geometry.die_of(b));
        // Two overwrites, one per die, among pages never written.
        ssd.write(Lpa::new(0), 1_000).unwrap();
        for lpa in 100..130 {
            ssd.write(Lpa::new(lpa), lpa).unwrap();
        }
        // The 32nd write fills the buffer and flushes it.
        let started = ssd.now_ns();
        let done = ssd
            .service_write(Lpa::new(32), 1_032, GcMode::Synchronous)
            .unwrap();
        assert_eq!(ssd.pool.buffer().len(), 0, "the write flushed");
        assert_eq!(ssd.lookup_paths().resolution_reads, 2);
        // A resolution read ends no sooner than `read_ns` after the
        // flush dispatched it.
        assert_eq!(done - started, DRAM_HIT_NS);
        assert!(done < started + read_ns);
        for (lpa, old) in [(0, a), (32, b)] {
            assert!(!ssd.validity.is_valid(old));
            assert_eq!(ssd.read(Lpa::new(lpa)).unwrap(), Some(1_000 + lpa));
        }
        assert_eq!(ssd.check_invariants(), Vec::<String>::new());
    }

    /// GC moves a block whose pages still hold DRAM slots: the pool
    /// follows them, and an overwrite invalidates where they went.
    #[test]
    fn gc_relocation_keeps_the_pools_record_exact() {
        let mut ssd = approximate_ssd(32);
        let geometry = ssd.config().geometry;
        let victim = geometry.block_of(page_of(&ssd, 0));
        assert!(ssd.validity.valid_count(victim) > 0);
        run_relocation(&mut ssd, victim, None).unwrap();
        let moved: Vec<Ppa> = [0, 5, 31].iter().map(|&lpa| page_of(&ssd, lpa)).collect();
        assert!(moved.iter().all(|&ppa| geometry.block_of(ppa) != victim));
        assert_eq!(ssd.pool.resident(), 32, "the moved pages are still in DRAM");
        overwrite(&mut ssd, &[0, 5, 31]);
        let paths = *ssd.lookup_paths();
        assert_eq!((paths.dram_resolutions, paths.resolution_reads), (3, 0));
        let flash = ssd.stats().flash;
        assert_eq!((flash.data_reads, flash.misprediction_reads), (0, 0));
        assert!(moved.iter().all(|&ppa| !ssd.validity.is_valid(ppa)));
    }

    /// A mispredicted host read whose predicted page's program is still
    /// queued takes that page's OOB window from DRAM: it reads only the
    /// live page, on another die, and every program lands where it
    /// would without the read.
    #[test]
    fn a_mispredicted_read_leaves_a_queued_page_to_dram() {
        let mut ssd = approximate_on_flash(32);
        // The next flush fills the next block, on the next die, and its
        // programs stay queued.
        for lpa in 100..132 {
            ssd.write(Lpa::new(lpa), lpa).unwrap();
        }
        let (live, predicted) = (page_of(&ssd, 31), page_of(&ssd, 100));
        let geometry = ssd.config().geometry;
        let die = geometry.die_of(predicted);
        assert_eq!(predicted, live.offset(1), "adjacent blocks");
        assert_ne!(geometry.die_of(live), die);
        assert!(ssd.clock.is_queued(die, predicted));
        ssd.scheme.shift.insert(31, 1);
        ssd.reset_stats();
        let mut unread = ssd.clone();

        let dispatch = ssd.now_ns();
        assert_eq!(ssd.read(Lpa::new(31)).unwrap(), Some(31));
        let read_ns = ssd.config().timing.read_ns;
        assert_eq!(ssd.now_ns(), dispatch + LOOKUP_BASE_NS + read_ns);
        let (stats, flash) = (ssd.stats(), ssd.stats().flash);
        let reads = (flash.data_reads, flash.misprediction_reads);
        assert_eq!((reads, stats.mispredictions), ((0, 1), 1));
        assert!(ssd.clock.is_queued(die, predicted));
        let placed = |ssd: &mut Ssd<Approximate>| {
            ssd.clock.place_programs();
            ssd.clock.take_placed().collect::<Vec<_>>()
        };
        assert_eq!(placed(&mut ssd), placed(&mut unread));
    }

    /// A flush puts none of its pages in the data cache, so the pages
    /// reads brought in stay there; here it holds four.
    #[test]
    fn a_flush_leaves_the_pages_reads_cached() {
        let mut config = SsdConfig::small_test();
        let page_bytes = config.geometry.page_size as usize;
        // 64 mapped addresses at 8 B each, and four pages.
        config.dram_bytes = 64 * 8 + 4 * page_bytes;
        let mut ssd = Ssd::new(config, ExactPageMap::new());
        for lpa in 0..64 {
            ssd.write(Lpa::new(lpa), lpa).unwrap();
        }
        ssd.flush().unwrap();
        release_programmed(&mut ssd);
        assert_eq!(ssd.data_cache_capacity(), 4 * page_bytes);
        for lpa in 0..4 {
            assert_eq!(ssd.read(Lpa::new(lpa)).unwrap(), Some(lpa));
        }
        // One full buffer of overwrites flushes; the map keeps its size.
        for lpa in 32..64 {
            ssd.write(Lpa::new(lpa), lpa + 1).unwrap();
        }
        assert!(ssd.pool.buffer().is_empty(), "the buffer flushed");
        ssd.reset_stats();
        for lpa in 0..4 {
            assert_eq!(ssd.read(Lpa::new(lpa)).unwrap(), Some(lpa));
        }
        let stats = ssd.stats();
        assert_eq!((stats.cache_hits, stats.flash.data_reads), (4, 0));
    }

    /// [`LookupPaths`] splits host reads by who wrote the live page:
    /// a read of a page a GC pass relocated counts as relocated, and so
    /// does its misprediction; a read of a page a host flush wrote does
    /// not.
    #[test]
    fn lookup_paths_count_the_reads_of_relocated_pages() {
        let mut ssd = approximate_on_flash(64);
        let geometry = ssd.config.geometry;
        let (moved, flushed) = (page_of(&ssd, 0), page_of(&ssd, 40));
        assert_ne!(geometry.block_of(moved), geometry.block_of(flushed));
        run_relocation(&mut ssd, geometry.block_of(moved), None).unwrap();
        let relocated = geometry.block_of(page_of(&ssd, 10));
        assert_eq!(ssd.allocator.opened_by(relocated), Some(Stream::Gc));
        let flushed = geometry.block_of(flushed);
        assert_eq!(ssd.allocator.opened_by(flushed), Some(Stream::Host));
        ssd.scheme.shift.extend([(10, 1), (40, 1)]);
        for lpa in [10, 11, 40, 41] {
            assert_eq!(ssd.read(Lpa::new(lpa)).unwrap(), Some(lpa));
        }
        let paths = *ssd.lookup_paths();
        assert_eq!((paths.read_lookups, paths.read_mispredictions), (4, 2));
        let relocated = (
            paths.relocated_read_lookups,
            paths.relocated_read_mispredictions,
        );
        assert_eq!(relocated, (2, 1));
    }

    /// Under background GC, a block's erase goes on its die after every
    /// resolution read of one of its pages that came before it: the
    /// host no longer waits for those reads, but the die still does.
    #[test]
    fn a_resolution_read_ends_before_its_blocks_erase() {
        let mut config = SsdConfig::small_test();
        config.gamma = 4;
        config.op_ratio = 0.5;
        let scheme = Approximate {
            gamma: config.gamma,
            ..Approximate::default()
        };
        let mut ssd = Ssd::new(config, scheme);
        let logical = ssd.config().logical_pages();
        ssd.attach_trace();
        {
            let mut device =
                crate::Device::new(&mut ssd, crate::DeviceConfig::single(8).background_gc());
            // Sequential rounds: each flush overwrites whole blocks, so
            // GC erases a block soon after the reads that resolved it.
            for i in 0..4 * logical {
                device.submit_write(Lpa::new(i % logical), i).unwrap();
            }
            device.drain().unwrap();
            assert!(device.gc_dispatched() > 0, "background GC must have run");
        }
        assert!(ssd.lookup_paths().resolution_reads > 0);
        let sink = ssd.take_trace().unwrap();
        // Every host-class read here is a resolution: nothing reads.
        let mut reads_end: BTreeMap<u64, u64> = BTreeMap::new();
        let mut checked = 0;
        for (_, kind, class, block, start_ns, end_ns) in sink.die_spans() {
            let Some(block) = block else { continue };
            match (kind, class) {
                ("read", "host") => {
                    let end = reads_end.entry(block).or_default();
                    *end = (*end).max(end_ns);
                }
                ("erase", _) => {
                    if let Some(read_end) = reads_end.remove(&block) {
                        assert!(
                            start_ns >= read_end,
                            "block {block} erased at {start_ns}, read until {read_end}"
                        );
                        checked += 1;
                    }
                }
                _ => {}
            }
        }
        assert!(checked > 0, "no erased block had been read by a resolution");
        assert_eq!(ssd.check_invariants(), Vec::<String>::new());
    }
}
