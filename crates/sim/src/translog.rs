//! The flash-resident translation log (checkpoint + delta journal).
//!
//! Under [`crate::CheckpointMode::FlashLog`] the FTL no longer relies
//! on a magically durable DRAM snapshot at GC time (§3.8's model):
//! mapping-table persistence becomes *device traffic*. Two entry kinds
//! flow through the log:
//!
//! * **Checkpoints** — a [`Baseline`]: the learned mapping table and
//!   the page-validity bitmap as they were when the generation was
//!   requested, sized by [`crate::MappingScheme::checkpoint_footprint`]
//!   and written as a run of metadata pages. The payload stands in for
//!   the bytes in the log pages, so it must never follow the live
//!   state; it is not copied from it either. Each generation is its
//!   predecessor *brought up to date*: the live scheme and bitmap list
//!   what they change, and a persistence point re-points exactly that
//!   in a baseline it already has ([`crate::MappingScheme::sync_checkpoint`]) —
//!   the predecessor itself when the new generation supersedes it on
//!   arrival, a clone of it when the predecessor has to stay
//!   recoverable while the new pages are written. A checkpoint is
//!   durable only once *every* page has physically programmed — a
//!   power cut in the middle leaves a torn, ignored generation, and
//!   the state recovery restores from the older one is in step with it.
//! * **Deltas** — one page per host flush batch, GC migration or wear
//!   swap, recording the installed `(LPA, PPA)` mappings. Deltas newer
//!   than the latest durable checkpoint are replayed at recovery.
//!
//! The deltas are the incremental record of every mapping change, so a
//! checkpoint is needed only to truncate them — and the log paces its
//! own generations by that: it counts the delta pages appended since
//! the newest generation was *requested* ([`TransLog::tail_pages`]),
//! and a GC pass requests the next one when that tail is at least as
//! long as the generation would be, and none is in flight
//! ([`TransLog::checkpoint_in_flight`]). At that length replaying the
//! tail costs recovery what writing the generation costs the device:
//! generations are at most half the log's pages, and recovery replays
//! at most one generation's length of deltas plus what accrued while
//! the generation before it was written out. Before the first GC pass
//! nothing asks, and the tail is the fill's.
//!
//! Both kinds are stamped with the flash program sequence at creation
//! (every page carries its own in the OOB): whatever the last durable
//! entry does not cover is exactly the pages with a greater sequence,
//! found by an OOB scan of the data blocks that changed since —
//! O(dirty), not O(device), and a stamp costs one word per entry.
//!
//! [`crate::CheckpointMode::DramSnapshot`] keeps its baseline here too,
//! as a checkpoint of zero log pages: nothing to program, so it is
//! durable on arrival (§3.8's model) — the one baseline is moved out,
//! brought up to date and pushed back, and a persistence point costs
//! the host what changed since the last one. Recovery therefore
//! restores "the newest durable checkpoint" in every mode and has no
//! second place to look.
//!
//! Each pending page program / block reclaim is queued here as a
//! [`LogOp`] and drained either synchronously at flush boundaries
//! (blocking path) or by the multi-queue [`crate::Device`] as
//! [`crate::Command::MapLog`] background traffic beside GC.
//!
//! Log pages are programmed with `lpa = None` (metadata, invisible to
//! data-block recovery scans) and `content = entry seq`, so recovery
//! re-derives entry durability purely from physical page state: an
//! entry is durable iff the device holds as many pages tagged with its
//! seq as the entry spans. The log owns its blocks outright — they are
//! excluded from data GC victim selection and reclaimed by the log's
//! own retention policy once a newer durable checkpoint supersedes
//! every entry they hold.

use crate::validity::Validity;
use leaftl_flash::{BlockId, Lpa, Ppa};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// One queued translation-log device operation, dispatched as a
/// [`crate::Command::MapLog`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LogOp {
    /// Program the next page of entry `seq` into the log stream.
    Program {
        /// Entry the page belongs to.
        seq: u64,
    },
    /// Erase a fully superseded log block and fold it back into the
    /// allocator (the log's own GC).
    Reclaim {
        /// The superseded log block.
        block: BlockId,
        /// The durable checkpoint that superseded it (re-verified at
        /// dispatch; also stamped on the completion).
        upto: u64,
    },
}

/// Log pages physically programmed over the log's lifetime, by entry
/// kind: how much of the map-log traffic was checkpoint generations
/// and how much the delta journal they truncate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MapLogTraffic {
    /// Checkpoint generations written out in full.
    pub generations: u64,
    /// Pages programmed for checkpoint generations (torn ones too).
    pub generation_pages: u64,
    /// Pages programmed for deltas, one per flush batch, GC migration
    /// or wear swap.
    pub delta_pages: u64,
}

impl MapLogTraffic {
    /// The traffic since an earlier reading `base` (the counters are
    /// lifetime ones and survive a stats reset).
    pub fn since(self, base: MapLogTraffic) -> MapLogTraffic {
        MapLogTraffic {
            generations: self.generations - base.generations,
            generation_pages: self.generation_pages - base.generation_pages,
            delta_pages: self.delta_pages - base.delta_pages,
        }
    }
}

/// The DRAM-resident FTL state persisted to flash (mapping table +
/// BVC, §3.8) — what recovery restores before replaying and scanning
/// what changed since. `scheme` and `validity` are what the live ones
/// were at `stamp`, kept up to date from one persistence point to the
/// next rather than copied at each (see the module docs). The
/// table-backed schemes share structure with it copy-on-write
/// (`LeaFtlTable`'s groups, the baselines' translation pages): holding
/// a baseline costs the host what the live scheme changed since, and
/// nothing the live scheme does afterwards can alter it.
#[derive(Debug, Clone)]
pub(crate) struct Baseline<S> {
    pub scheme: S,
    pub validity: Validity,
    /// [`leaftl_flash::FlashDevice::program_seq`] at capture: the
    /// baseline knows every page stamped no later, and none stamped
    /// after (the paper compares the stored BVC with the rebuilt one).
    pub stamp: u64,
}

/// What a log entry carries.
#[derive(Debug, Clone)]
enum LogPayload<S> {
    /// A checkpoint generation.
    Checkpoint(Box<Baseline<S>>),
    /// One batch of installed `(LPA, new PPA)` mappings, and the
    /// program sequence once they were all on flash.
    Delta { batch: Vec<(Lpa, Ppa)>, stamp: u64 },
}

/// One translation-log entry (a checkpoint generation or a delta).
#[derive(Debug, Clone)]
struct LogEntry<S> {
    /// Log pages the entry spans (1 for deltas, 0 for a DRAM snapshot).
    pages: u32,
    /// Pages physically programmed so far; durable iff equal to
    /// `pages`.
    programmed: u32,
    payload: LogPayload<S>,
}

impl<S> LogEntry<S> {
    /// Whether every page of the entry has physically programmed.
    fn durable(&self) -> bool {
        self.programmed >= self.pages
    }

    fn checkpoint(&self) -> Option<&Baseline<S>> {
        match &self.payload {
            LogPayload::Checkpoint(baseline) => Some(baseline),
            LogPayload::Delta { .. } => None,
        }
    }
}

/// The flash-resident translation log: entry metadata, pending device
/// ops, and ownership of the log's flash blocks.
///
/// The entry map and block ownership model *flash* state (what a real
/// controller would read back from the log blocks); the pending op
/// queue and reclaim marks are DRAM-volatile and discarded by
/// [`TransLog::power_cut`].
#[derive(Debug, Clone)]
pub(crate) struct TransLog<S> {
    /// Next entry sequence number (monotonic across crashes — seqs are
    /// stamped into physical pages and must never repeat).
    next_seq: u64,
    /// Queued device ops, FIFO. Ordering is load-bearing: an entry's
    /// pages enqueue together, so durability is prefix-closed — a
    /// durable entry implies every earlier entry is durable too.
    pending: VecDeque<LogOp>,
    /// Entry metadata by seq (payloads stand in for the bytes a real
    /// log would serialise into its pages).
    entries: BTreeMap<u64, LogEntry<S>>,
    /// seqs of the pages each owned log block holds, in program order.
    block_seqs: BTreeMap<BlockId, Vec<u64>>,
    /// Blocks with a reclaim already queued (dedup).
    reclaim_queued: BTreeSet<BlockId>,
    /// Newest fully durable checkpoint seq.
    durable_checkpoint: Option<u64>,
    /// Log blocks reclaimed over the log's lifetime (retention-policy
    /// observability for tests and reports).
    reclaimed_blocks: u64,
    /// Delta pages appended since the newest checkpoint generation was
    /// requested — the journal tail that generation does not cover,
    /// and what paces the next one (see the module docs).
    tail_pages: u32,
    /// Checkpoint generations requested whose pages have not all
    /// programmed yet.
    checkpoints_in_flight: u32,
    /// Pages programmed so far, by entry kind.
    traffic: MapLogTraffic,
}

impl<S> TransLog<S> {
    /// An empty log.
    pub fn new() -> Self {
        TransLog {
            next_seq: 1,
            pending: VecDeque::new(),
            entries: BTreeMap::new(),
            block_seqs: BTreeMap::new(),
            reclaim_queued: BTreeSet::new(),
            durable_checkpoint: None,
            reclaimed_blocks: 0,
            tail_pages: 0,
            checkpoints_in_flight: 0,
            traffic: MapLogTraffic::default(),
        }
    }

    /// Log pages programmed over the log's lifetime, by entry kind.
    pub fn traffic(&self) -> MapLogTraffic {
        self.traffic
    }

    /// Log blocks reclaimed (erased and returned to the allocator)
    /// over the log's lifetime.
    pub fn reclaimed_blocks(&self) -> u64 {
        self.reclaimed_blocks
    }

    /// Queued device ops not yet dispatched.
    pub fn pending_ops(&self) -> usize {
        self.pending.len()
    }

    /// Pops the next queued op (dispatch order).
    pub fn pop_op(&mut self) -> Option<LogOp> {
        self.pending.pop_front()
    }

    /// Appends an entry of `pages` log pages and queues one program
    /// per page.
    fn push(&mut self, pages: u32, payload: LogPayload<S>) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.entries.insert(
            seq,
            LogEntry {
                pages,
                programmed: 0,
                payload,
            },
        );
        for _ in 0..pages {
            self.pending.push_back(LogOp::Program { seq });
        }
        seq
    }

    /// Appends a one-page delta entry and queues its program.
    pub fn push_delta(&mut self, batch: Vec<(Lpa, Ppa)>, stamp: u64) -> u64 {
        self.tail_pages += 1;
        self.push(1, LogPayload::Delta { batch, stamp })
    }

    /// Appends a `pages`-page checkpoint generation and queues one
    /// program per page. With no page to wait for — the DRAM snapshot
    /// — the generation is durable at once and supersedes whatever the
    /// log still holds (its predecessor was moved out to make it).
    pub fn push_checkpoint(&mut self, baseline: Baseline<S>, pages: u32) -> u64 {
        let seq = self.push(pages, LogPayload::Checkpoint(Box::new(baseline)));
        self.tail_pages = 0;
        if pages == 0 {
            self.durable_checkpoint = Some(seq);
            self.prune_superseded(seq);
        } else {
            self.checkpoints_in_flight += 1;
        }
        seq
    }

    /// Whether a checkpoint generation is still being written out (the
    /// checkpoint cadence guard: one in flight at a time).
    pub fn checkpoint_in_flight(&self) -> bool {
        self.checkpoints_in_flight > 0
    }

    /// Delta pages appended since the newest checkpoint generation was
    /// requested (since the log began, before the first): what recovery
    /// would replay on top of that generation, and what a new one would
    /// truncate.
    pub fn tail_pages(&self) -> u32 {
        self.tail_pages
    }

    /// Records one physically programmed page of entry `seq` landing
    /// in `block`. When that completes a checkpoint generation,
    /// retention runs: entry metadata it supersedes is pruned, and
    /// every log block the log has moved on from (`is_open` says
    /// which it has not) whose pages all predate it is queued for
    /// reclaim (erase + fold back into the allocator).
    pub fn note_programmed(&mut self, seq: u64, block: BlockId, is_open: impl Fn(BlockId) -> bool) {
        self.block_seqs.entry(block).or_default().push(seq);
        let Some(entry) = self.entries.get_mut(&seq) else {
            return;
        };
        entry.programmed += 1;
        if entry.checkpoint().is_none() {
            self.traffic.delta_pages += 1;
            return;
        }
        self.traffic.generation_pages += 1;
        if entry.durable() {
            self.traffic.generations += 1;
            self.checkpoints_in_flight -= 1;
            let upto = self.durable_checkpoint.unwrap_or(0).max(seq);
            self.durable_checkpoint = Some(upto);
            self.prune_superseded(upto);
            for block in self.owned_blocks() {
                if !is_open(block) && self.block_superseded(block, upto) {
                    self.queue_reclaim(block, upto);
                }
            }
        }
    }

    /// Newest fully durable checkpoint seq.
    pub fn durable_checkpoint_seq(&self) -> Option<u64> {
        self.durable_checkpoint
    }

    /// Drops entry metadata a durable checkpoint `upto` supersedes
    /// (recovery never reads below the newest durable checkpoint).
    fn prune_superseded(&mut self, upto: u64) {
        self.entries.retain(|&seq, _| seq >= upto);
    }

    /// Whether `block` holds log pages (owned blocks are invisible to
    /// data-GC victim selection and wear swaps).
    pub fn owns(&self, block: BlockId) -> bool {
        self.block_seqs.contains_key(&block)
    }

    /// All blocks currently holding log pages, ascending.
    pub fn owned_blocks(&self) -> Vec<BlockId> {
        self.block_seqs.keys().copied().collect()
    }

    /// Whether every page in `block` belongs to an entry strictly
    /// older than checkpoint `upto` — i.e. the block is dead weight
    /// and safe to erase.
    pub fn block_superseded(&self, block: BlockId, upto: u64) -> bool {
        self.block_seqs
            .get(&block)
            .is_some_and(|seqs| seqs.iter().all(|&s| s < upto))
    }

    /// Queues a reclaim for `block` (deduplicated); returns whether an
    /// op was queued.
    fn queue_reclaim(&mut self, block: BlockId, upto: u64) -> bool {
        if !self.reclaim_queued.insert(block) {
            return false;
        }
        self.pending.push_back(LogOp::Reclaim { block, upto });
        true
    }

    /// Forgets an erased log block (ownership and reclaim bookkeeping).
    pub fn forget_block(&mut self, block: BlockId) {
        if self.block_seqs.remove(&block).is_some() {
            self.reclaimed_blocks += 1;
        }
        self.reclaim_queued.remove(&block);
    }

    /// What a power cut leaves of the log. The DRAM-volatile half goes:
    /// queued ops (never dispatched ⇒ never programmed) and reclaim
    /// marks. Physical page ownership and entry metadata model flash
    /// contents and are reconciled with the physically scanned log:
    /// `found` maps entry seq → pages actually on flash. Torn entries
    /// (fewer pages than they span) are dropped; survivors are marked
    /// fully programmed, the newest durable checkpoint re-derived and
    /// everything older than it dropped — what is left is what
    /// recovery restores ([`TransLog::durable_baseline`]) and replays
    /// ([`TransLog::deltas`]).
    pub fn power_cut(&mut self, found: &BTreeMap<u64, u32>) {
        self.pending.clear();
        self.reclaim_queued.clear();
        self.entries
            .retain(|seq, e| found.get(seq).copied().unwrap_or(0) >= e.pages);
        for e in self.entries.values_mut() {
            e.programmed = e.pages;
        }
        self.durable_checkpoint = self
            .entries
            .iter()
            .rev()
            .find(|(_, e)| e.checkpoint().is_some())
            .map(|(&seq, _)| seq);
        if let Some(upto) = self.durable_checkpoint {
            self.prune_superseded(upto);
        }
        // Every survivor is durable, and the newest generation among
        // them heads the map now: the tail is the deltas behind it.
        self.checkpoints_in_flight = 0;
        self.tail_pages = self.deltas().count() as u32;
    }

    /// The newest durable checkpoint generation, if any.
    pub fn durable_baseline(&self) -> Option<&Baseline<S>> {
        self.entries.get(&self.durable_checkpoint?)?.checkpoint()
    }

    /// The newest checkpoint generation the log holds, durable or not.
    pub fn newest_checkpoint(&self) -> Option<&Baseline<S>> {
        self.entries.values().rev().find_map(LogEntry::checkpoint)
    }

    /// Moves the newest durable checkpoint generation out of the log,
    /// for the caller to bring up to date and push back as the
    /// generation that supersedes it on arrival (a zero-page one: the
    /// log is without a baseline only in between).
    pub fn take_durable_baseline(&mut self) -> Option<Baseline<S>> {
        let seq = self.durable_checkpoint.take()?;
        match self.entries.remove(&seq)?.payload {
            LogPayload::Checkpoint(baseline) => Some(*baseline),
            LogPayload::Delta { .. } => None,
        }
    }

    /// The delta entries in append order, each with its stamp. After
    /// [`TransLog::power_cut`] these are the durable deltas newer than
    /// the baseline.
    pub fn deltas(&self) -> impl Iterator<Item = (&[(Lpa, Ppa)], u64)> {
        self.entries.values().filter_map(|e| match &e.payload {
            LogPayload::Delta { batch, stamp } => Some((batch.as_slice(), *stamp)),
            LogPayload::Checkpoint(_) => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leaftl_flash::FlashGeometry;

    fn baseline(scheme: u8) -> Baseline<u8> {
        Baseline {
            scheme,
            validity: Validity::new(FlashGeometry::small_test()),
            stamp: 0,
        }
    }

    #[test]
    fn checkpoint_durability_is_all_pages_or_nothing() {
        let mut log: TransLog<u8> = TransLog::new();
        let seq = log.push_checkpoint(baseline(7), 3);
        assert!(log.checkpoint_in_flight());
        assert_eq!(log.pending_ops(), 3);
        let block = BlockId::new(1);
        log.note_programmed(seq, block, |_| true);
        log.note_programmed(seq, block, |_| true);
        assert!(log.durable_checkpoint_seq().is_none());
        log.note_programmed(seq, block, |_| true);
        assert_eq!(
            log.durable_checkpoint_seq(),
            Some(seq),
            "last page completes it"
        );
        assert!(!log.checkpoint_in_flight());
    }

    #[test]
    fn retention_supersedes_older_generations() {
        let mut log: TransLog<u8> = TransLog::new();
        let old_delta = log.push_delta(Vec::new(), 0);
        let old_ckpt = log.push_checkpoint(baseline(1), 1);
        let (block, newest) = (BlockId::new(2), BlockId::new(3));
        log.note_programmed(old_delta, block, |_| true);
        log.note_programmed(old_ckpt, block, |_| true);
        let new_ckpt = log.push_checkpoint(baseline(2), 1);
        log.note_programmed(new_ckpt, newest, |block| block == newest);
        assert!(!log.entries.contains_key(&old_delta));
        assert!(!log.entries.contains_key(&old_ckpt));
        assert!(log.block_superseded(block, new_ckpt));
        assert!(!log.block_superseded(newest, new_ckpt));
        // Behind the three page programs, one reclaim: of the block
        // the log has moved on from, not of the one it is filling.
        let ops: Vec<LogOp> = std::iter::from_fn(|| log.pop_op()).collect();
        let upto = new_ckpt;
        assert_eq!(ops[3..], [LogOp::Reclaim { block, upto }]);
        assert!(!log.queue_reclaim(block, new_ckpt), "dedup");
        log.forget_block(block);
        assert!(!log.owns(block));
    }

    #[test]
    fn power_cut_drops_torn_entries() {
        let mut log: TransLog<u8> = TransLog::new();
        let ckpt = log.push_checkpoint(baseline(1), 2);
        let delta = log.push_delta(Vec::new(), 5);
        let torn = log.push_checkpoint(baseline(2), 4);
        // Physically present: both ckpt pages, the delta, one torn page.
        let found: BTreeMap<u64, u32> = [(ckpt, 2), (delta, 1), (torn, 1)].into_iter().collect();
        log.power_cut(&found);
        assert_eq!(log.pending_ops(), 0);
        assert_eq!(log.durable_checkpoint_seq(), Some(ckpt));
        assert_eq!(log.durable_baseline().map(|b| b.scheme), Some(1));
        assert_eq!(
            log.deltas().map(|(_, stamp)| stamp).collect::<Vec<_>>(),
            [5]
        );
        assert!(!log.entries.contains_key(&torn));
    }

    /// The tail is the deltas behind the newest generation *requested*:
    /// it restarts at every request, outlives retention's pruning, and
    /// a power cut that tears the newest generation recounts it from
    /// the older one — with the "in flight" mark kept beside it.
    #[test]
    fn tail_counts_the_deltas_behind_the_newest_generation() {
        let mut log: TransLog<u8> = TransLog::new();
        let block = BlockId::new(1);
        let program = |log: &mut TransLog<u8>, seq| log.note_programmed(seq, block, |_| true);
        let before: Vec<u64> = (0..3).map(|_| log.push_delta(Vec::new(), 0)).collect();
        assert_eq!(log.tail_pages(), 3, "no generation yet: every delta");
        let first = log.push_checkpoint(baseline(1), 2);
        assert_eq!(log.tail_pages(), 0, "a request restarts the tail");
        assert!(log.checkpoint_in_flight());
        let between: Vec<u64> = (0..2).map(|_| log.push_delta(Vec::new(), 0)).collect();
        assert_eq!(
            log.tail_pages(),
            2,
            "counted while the generation is written out"
        );
        for &seq in before.iter().chain([&first, &first]) {
            program(&mut log, seq);
        }
        assert!(!log.checkpoint_in_flight());
        assert_eq!(log.entries.len(), 3, "retention pruned the older deltas");
        assert_eq!(log.tail_pages(), 2, "pruning leaves the tail alone");
        for &seq in &between {
            program(&mut log, seq);
        }
        let torn = log.push_checkpoint(baseline(2), 3);
        let after = log.push_delta(Vec::new(), 0);
        assert_eq!(log.tail_pages(), 1);
        program(&mut log, torn);
        assert_eq!(
            log.traffic(),
            MapLogTraffic {
                generations: 1,
                generation_pages: 3,
                delta_pages: 5,
            }
        );
        // The cut: one of the torn generation's three pages landed, the
        // delta queued behind it did not.
        let found = [(first, 2), (between[0], 1), (between[1], 1), (torn, 1)];
        log.power_cut(&found.into_iter().collect());
        assert!(!log.entries.contains_key(&after));
        assert!(!log.checkpoint_in_flight(), "the torn generation is gone");
        assert_eq!(log.durable_checkpoint_seq(), Some(first));
        assert_eq!(log.tail_pages(), 2, "counted from the older generation");
        log.push_delta(Vec::new(), 0);
        assert_eq!(log.tail_pages(), 3);
        // A DRAM snapshot restarts it too, and is never in flight.
        log.push_checkpoint(baseline(3), 0);
        assert_eq!(log.tail_pages(), 0);
        assert!(!log.checkpoint_in_flight());
    }

    #[test]
    fn a_checkpoint_of_no_pages_is_durable_on_arrival() {
        let mut log: TransLog<u8> = TransLog::new();
        let first = log.push_checkpoint(baseline(1), 0);
        assert_eq!(log.durable_checkpoint_seq(), Some(first));
        log.push_checkpoint(baseline(2), 0);
        assert_eq!(log.pending_ops(), 0);
        assert!(!log.checkpoint_in_flight());
        assert_eq!(log.entries.len(), 1, "the older snapshot is dropped");
        // No log page names it, and a power cut keeps it all the same.
        log.power_cut(&BTreeMap::new());
        assert_eq!(log.durable_baseline().map(|b| b.scheme), Some(2));
    }
}
