//! The flash-resident translation log (checkpoint + delta journal).
//!
//! Under [`crate::CheckpointMode::FlashLog`] the FTL no longer relies
//! on a magically durable DRAM snapshot at GC time (§3.8's model):
//! mapping-table persistence becomes *device traffic*. Two entry kinds
//! flow through the log:
//!
//! * **Checkpoints** — the learned mapping table as it was when the
//!   generation was requested (a clone, which shares every group with
//!   the live table until that group next changes — the payload stands
//!   in for the bytes in the log pages, so it must never follow the
//!   live table) plus the page-validity bitmap, sized by
//!   [`crate::MappingScheme::checkpoint_footprint`] and
//!   written as a run of metadata pages. A checkpoint is durable only
//!   once *every* page has physically programmed — a power cut in the
//!   middle leaves a torn, ignored generation.
//! * **Deltas** — one page per host flush batch, GC migration or wear
//!   swap, recording the installed `(LPA, PPA)` mappings plus the
//!   per-block write pointers and erase counts at creation. Deltas
//!   newer than the latest durable checkpoint are replayed at
//!   recovery; everything after the last durable entry is covered by
//!   the OOB scan of the data blocks that changed since — O(dirty),
//!   not O(device).
//!
//! Each pending page program / block reclaim is queued here as a
//! [`LogOp`] and drained either synchronously at flush boundaries
//! (blocking path) or by the multi-queue [`crate::Device`] as
//! [`crate::Command::MapLog`] background traffic beside GC and
//! compaction.
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
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};

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

impl LogOp {
    /// Stable trace-span name for this operation.
    pub(crate) fn label(&self) -> &'static str {
        match self {
            LogOp::Program { .. } => "maplog_program",
            LogOp::Reclaim { .. } => "maplog_reclaim",
        }
    }
}

/// What a log entry carries.
#[derive(Debug, Clone)]
pub(crate) enum LogPayload<S> {
    /// Mapping-table + validity checkpoint captured at creation (the
    /// scheme clone is copy-on-write against the live one).
    Checkpoint(Box<(S, Validity)>),
    /// One batch of installed `(LPA, new PPA)` mappings.
    Delta(Vec<(Lpa, Ppa)>),
}

/// One translation-log entry (a checkpoint generation or a delta).
#[derive(Debug, Clone)]
pub(crate) struct LogEntry<S> {
    /// Log pages the entry spans (1 for deltas).
    pub pages: u32,
    /// Pages physically programmed so far; durable iff equal to
    /// `pages`.
    pub programmed: u32,
    /// The entry's payload.
    pub payload: LogPayload<S>,
    /// Per-block programmed-page counts captured at creation — the
    /// recovery scan baseline once this is the newest durable entry.
    pub write_ptrs: Vec<u32>,
    /// Per-block erase counts captured at creation.
    pub erase_counts: Vec<u32>,
}

impl<S> LogEntry<S> {
    /// Whether every page of the entry has physically programmed.
    pub fn durable(&self) -> bool {
        self.programmed >= self.pages
    }

    /// Whether the entry is a checkpoint generation.
    pub fn is_checkpoint(&self) -> bool {
        matches!(self.payload, LogPayload::Checkpoint(_))
    }
}

/// The flash-resident translation log: entry metadata, pending device
/// ops, and ownership of the log's flash blocks.
///
/// The entry map and block ownership model *flash* state (what a real
/// controller would read back from the log blocks); the pending op
/// queue and reclaim marks are DRAM-volatile and discarded by
/// [`TransLog::discard_volatile`] on a power cut.
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
        }
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

    /// Appends a one-page delta entry and queues its program.
    pub fn push_delta(
        &mut self,
        batch: Vec<(Lpa, Ppa)>,
        write_ptrs: Vec<u32>,
        erase_counts: Vec<u32>,
    ) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.entries.insert(
            seq,
            LogEntry {
                pages: 1,
                programmed: 0,
                payload: LogPayload::Delta(batch),
                write_ptrs,
                erase_counts,
            },
        );
        self.pending.push_back(LogOp::Program { seq });
        seq
    }

    /// Appends a `pages`-page checkpoint generation and queues one
    /// program per page.
    pub fn push_checkpoint(
        &mut self,
        scheme: S,
        validity: Validity,
        pages: u32,
        write_ptrs: Vec<u32>,
        erase_counts: Vec<u32>,
    ) -> u64 {
        let pages = pages.max(1);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.entries.insert(
            seq,
            LogEntry {
                pages,
                programmed: 0,
                payload: LogPayload::Checkpoint(Box::new((scheme, validity))),
                write_ptrs,
                erase_counts,
            },
        );
        for _ in 0..pages {
            self.pending.push_back(LogOp::Program { seq });
        }
        seq
    }

    /// Whether a checkpoint generation is still being written out (the
    /// checkpoint cadence guard: one in flight at a time).
    pub fn checkpoint_in_flight(&self) -> bool {
        self.entries
            .values()
            .any(|e| e.is_checkpoint() && !e.durable())
    }

    /// Records one physically programmed page of entry `seq` landing
    /// in `block`. Returns `true` when the program completed a
    /// checkpoint generation (the caller runs retention then).
    pub fn note_programmed(&mut self, seq: u64, block: BlockId) -> bool {
        self.block_seqs.entry(block).or_default().push(seq);
        let Some(entry) = self.entries.get_mut(&seq) else {
            return false;
        };
        entry.programmed += 1;
        if entry.durable() && entry.is_checkpoint() {
            self.durable_checkpoint = Some(self.durable_checkpoint.unwrap_or(0).max(seq));
            return true;
        }
        false
    }

    /// Newest fully durable checkpoint seq.
    pub fn durable_checkpoint_seq(&self) -> Option<u64> {
        self.durable_checkpoint
    }

    /// Drops entry metadata a durable checkpoint `upto` supersedes
    /// (recovery never reads below the newest durable checkpoint).
    pub fn prune_superseded(&mut self, upto: u64) {
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
    pub fn queue_reclaim(&mut self, block: BlockId, upto: u64) -> bool {
        if !self.reclaim_queued.insert(block) {
            return false;
        }
        self.pending.push_back(LogOp::Reclaim { block, upto });
        true
    }

    /// Drops a stale reclaim mark so retention can re-queue the block
    /// later.
    pub fn clear_reclaim_mark(&mut self, block: BlockId) {
        self.reclaim_queued.remove(&block);
    }

    /// Forgets an erased log block (ownership and reclaim bookkeeping).
    pub fn forget_block(&mut self, block: BlockId) {
        if self.block_seqs.remove(&block).is_some() {
            self.reclaimed_blocks += 1;
        }
        self.reclaim_queued.remove(&block);
    }

    /// Discards the DRAM-volatile half of the log on a power cut:
    /// queued ops (never dispatched ⇒ never programmed) and reclaim
    /// marks. Physical page ownership and entry metadata survive —
    /// they model flash contents; [`TransLog::retain_durable`] then
    /// drops the entries the cut left torn.
    pub fn discard_volatile(&mut self) {
        self.pending.clear();
        self.reclaim_queued.clear();
    }

    /// Reconciles entry metadata with the physically scanned log:
    /// `found` maps entry seq → pages actually on flash. Torn entries
    /// (fewer pages than they span) are dropped; survivors are marked
    /// fully programmed and the newest durable checkpoint re-derived.
    pub fn retain_durable(&mut self, found: &HashMap<u64, u32>) {
        self.entries
            .retain(|seq, e| found.get(seq).copied().unwrap_or(0) >= e.pages);
        for e in self.entries.values_mut() {
            e.programmed = e.pages;
        }
        self.durable_checkpoint = self
            .entries
            .iter()
            .rev()
            .find(|(_, e)| e.is_checkpoint())
            .map(|(&seq, _)| seq);
    }

    /// Read access to the entry map (recovery).
    pub fn entries(&self) -> &BTreeMap<u64, LogEntry<S>> {
        &self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leaftl_flash::FlashGeometry;

    fn vecs() -> (Vec<u32>, Vec<u32>) {
        (vec![0; 4], vec![0; 4])
    }

    fn validity() -> Validity {
        Validity::new(FlashGeometry::small_test())
    }

    #[test]
    fn checkpoint_durability_is_all_pages_or_nothing() {
        let mut log: TransLog<u8> = TransLog::new();
        let (wp, ec) = vecs();
        let seq = log.push_checkpoint(7, validity(), 3, wp, ec);
        assert!(log.checkpoint_in_flight());
        assert_eq!(log.pending_ops(), 3);
        let block = BlockId::new(1);
        assert!(!log.note_programmed(seq, block));
        assert!(!log.note_programmed(seq, block));
        assert!(log.durable_checkpoint_seq().is_none());
        assert!(log.note_programmed(seq, block), "last page completes it");
        assert_eq!(log.durable_checkpoint_seq(), Some(seq));
        assert!(!log.checkpoint_in_flight());
    }

    #[test]
    fn retention_supersedes_older_generations() {
        let mut log: TransLog<u8> = TransLog::new();
        let (wp, ec) = vecs();
        let old_delta = log.push_delta(Vec::new(), wp.clone(), ec.clone());
        let old_ckpt = log.push_checkpoint(1, validity(), 1, wp.clone(), ec.clone());
        let block = BlockId::new(2);
        log.note_programmed(old_delta, block);
        log.note_programmed(old_ckpt, block);
        let new_ckpt = log.push_checkpoint(2, validity(), 1, wp, ec);
        log.note_programmed(new_ckpt, BlockId::new(3));
        log.prune_superseded(new_ckpt);
        assert!(log.entries().get(&old_delta).is_none());
        assert!(log.entries().get(&old_ckpt).is_none());
        assert!(log.block_superseded(block, new_ckpt));
        assert!(!log.block_superseded(BlockId::new(3), new_ckpt));
        assert!(log.queue_reclaim(block, new_ckpt));
        assert!(!log.queue_reclaim(block, new_ckpt), "dedup");
        log.forget_block(block);
        assert!(!log.owns(block));
    }

    #[test]
    fn retain_durable_drops_torn_entries() {
        let mut log: TransLog<u8> = TransLog::new();
        let (wp, ec) = vecs();
        let ckpt = log.push_checkpoint(1, validity(), 2, wp.clone(), ec.clone());
        let delta = log.push_delta(Vec::new(), wp.clone(), ec.clone());
        let torn = log.push_checkpoint(2, validity(), 4, wp, ec);
        // Physically present: both ckpt pages, the delta, one torn page.
        let found: HashMap<u64, u32> = [(ckpt, 2), (delta, 1), (torn, 1)].into_iter().collect();
        log.discard_volatile();
        assert_eq!(log.pending_ops(), 0);
        log.retain_durable(&found);
        assert_eq!(log.durable_checkpoint_seq(), Some(ckpt));
        assert!(log.entries().contains_key(&delta));
        assert!(!log.entries().contains_key(&torn));
    }
}
