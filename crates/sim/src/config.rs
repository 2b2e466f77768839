//! Simulator configuration.

use crate::allocator::BlockAllocator;
use crate::buffer::POOL_FLUSHES;
use leaftl_flash::{FlashGeometry, NandTiming};
use serde::{Deserialize, Serialize};

/// How the SSD DRAM is split between mapping structures and the data
/// cache (the two experimental settings of Fig. 16).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum DramPolicy {
    /// The mapping side may take as much DRAM as it wants; the data
    /// cache gets the leftovers (Fig. 16a).
    MappingFirst,
    /// The data cache is guaranteed at least this fraction of DRAM; the
    /// mapping budget is capped at the complement (Fig. 16b uses 0.2).
    DataFloor(f64),
}

/// Garbage-collection victim-selection policy (§3.6 uses greedy; the
/// cost-benefit alternative weighs block age against utilisation and
/// is provided for ablations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GcPolicy {
    /// Pick the closed block with the fewest valid pages (the paper's
    /// choice, minimising migration work).
    Greedy,
    /// Pick the block maximising `age · (1 − u) / (1 + u)` where `u` is
    /// the valid-page fraction (Rosenblum & Ousterhout's LFS heuristic):
    /// prefers old, mostly-stale blocks even over slightly fuller ones.
    CostBenefit,
}

/// When garbage collection runs relative to the host write path.
///
/// GC starts when the free blocks fall below the low watermark and
/// collects until they reach the high one. Both lie a lead above the
/// free reserve one buffer flush needs: 3 % and 5 % of all blocks on
/// the full-size devices of at least 512 MiB, capped at 8 % and 12 % on
/// devices too small for that lead. Both modes run the same
/// collection: victim passes applied at one dispatch point, then put
/// on the dies phase by phase — every read, then every program, then
/// every erase. In the flush path GC stalls the submitting write, which
/// waits for the collection's latest erase. A multi-queue
/// [`crate::Device`] can instead defer the work: it collects between
/// the same watermarks, by the same victim rule, but a collection is a
/// background dispatch that competes for dies through the device's
/// arbiter, and host writes block only when free blocks fall to the
/// hard floor, 2 % of all blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GcMode {
    /// Collect inside the flush path until the high watermark is
    /// restored (the blocking path's behaviour; the default). The
    /// victim passes of one collection are placed on the die timelines
    /// from the flush's dispatch point phase by phase, so passes on
    /// different dies overlap and no pass's reads queue behind
    /// another's programs or erase, and the host waits once, for the
    /// latest erase: no later host read queues behind the collection.
    Synchronous,
    /// Collect between the same watermarks, one collection per
    /// background GC dispatch: it runs to the high watermark (or, under
    /// a QoS controller's GC pacing, to the pacing limit minus the
    /// erases in flight), each pass taking the block the synchronous
    /// rule picks when it runs, is placed on the dies as a synchronous
    /// collection is, and retires one [`crate::Command::GcMigrate`] per
    /// pass, each completing at its own erase.
    Background,
}

/// How (and whether) the translation state is checkpointed for crash
/// recovery.
///
/// The default keeps the recovery baseline in DRAM and charges a
/// persistence point ([`crate::Ssd::take_snapshot`], at the end of
/// every GC pass) the flash write-back of what changed since the
/// previous one: the mapping groups remapped and the BVC entries
/// touched, as `MapLog`-class translation programs placed on the die
/// timelines at the point itself — inside the flush/GC paths, not
/// scheduled as device commands — and recovery still scans every block
/// programmed since the point. Following
/// the flash-resident page-map direction (Dayan & Bonnet), the mapping
/// can instead be a log-structured flash citizen: checkpoints and
/// per-flush deltas are programmed into dedicated translation-log
/// blocks ([`crate::Command::MapLog`]), charged on die timelines like
/// any other program, and recovery replays the durable log tail plus
/// only the post-checkpoint data blocks — O(dirty), not O(device).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CheckpointMode {
    /// In-DRAM baseline brought up to date after every GC pass, whose
    /// write-back of the groups and BVC entries changed since the last
    /// pass is charged as translation programs (the default).
    DramSnapshot,
    /// Flash-resident translation log: checkpoints and flush deltas
    /// are appended to dedicated log blocks as background device
    /// traffic with their own retention/GC policy. Every flush, GC
    /// migration and wear swap is journalled as a one-page delta, so a
    /// checkpoint generation (the whole table and BVC) only truncates
    /// the journal, and a GC pass requests one when the journal has
    /// earned it: once the delta pages appended since the newest
    /// generation was requested are at least the pages a generation
    /// takes, and none is still being written out. Checkpoint traffic
    /// is thereby bounded by the journal's own (at most half the log's
    /// pages) and the tail recovery replays by one generation's length
    /// plus what accrues during a write-out; there is no threshold to
    /// configure.
    FlashLog,
    /// No checkpointing: recovery falls back to the full
    /// O(device) out-of-band scan.
    Disabled,
}

/// Full configuration of a simulated SSD.
///
/// Defaults mirror Table 1 of the paper: 2 TB capacity, 16 channels,
/// 4 KB pages, 256 pages/block, 128 B OOB, 1 GB DRAM, 20 %
/// over-provisioning, 20 µs read / 200 µs program / 1.5 ms erase.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SsdConfig {
    /// NAND array geometry.
    pub geometry: FlashGeometry,
    /// NAND operation latencies.
    pub timing: NandTiming,
    /// Total controller DRAM in bytes.
    pub dram_bytes: usize,
    /// Over-provisioning ratio: the host-visible capacity is
    /// `(1 − op_ratio)` of the raw capacity.
    pub op_ratio: f64,
    /// DRAM split policy between mapping structures and data cache.
    pub dram_policy: DramPolicy,
    /// Write data buffer capacity in pages (paper §3.3 default: 8 MB):
    /// a full buffer flushes. The buffer is dedicated controller
    /// memory, *not* part of [`SsdConfig::dram_bytes`] (which funds the
    /// mapping structures and the read data cache), and DRAM holds
    /// twice this many pages: the buffer and the flushed pages whose
    /// slots no write has taken yet share `2 × write_buffer_pages`
    /// slots ([`crate::buffer::WritePool`]).
    pub write_buffer_pages: usize,
    /// Preferred flush stripe chunk in pages. Block-sized chunks (the
    /// paper's flush granularity) maximise learned-segment length;
    /// smaller chunks spread small buffers over more channels.
    pub stripe_pages: u32,
    /// GC victim-selection policy.
    pub gc_policy: GcPolicy,
    /// Wear levelling triggers when `max − min` block erase counts
    /// exceed this gap.
    pub wear_gap_threshold: u32,
    /// Error bound γ for LeaFTL's approximate segments.
    pub gamma: u32,
    /// Host writes between learned-table compactions (paper §3.7
    /// default: one million). Experiments scale it with the device so
    /// the steady-state behaviour matches the paper's. A due compaction
    /// runs inline in the flush, on the blocking path and under every
    /// [`crate::Device`] alike: there is no other compaction mode.
    pub compaction_interval_writes: u64,
    /// Whether the write buffer is sorted by LPA before flushing
    /// (§3.3). Disabling it is the Fig. 7 ablation.
    pub sort_buffer_on_flush: bool,
    /// How translation state is checkpointed for crash recovery.
    pub checkpoint_mode: CheckpointMode,
}

impl SsdConfig {
    /// Table 1 configuration (2 TB). Use [`SsdConfig::scaled`] for
    /// simulations that must fit in host memory.
    pub fn paper_default() -> Self {
        SsdConfig {
            geometry: FlashGeometry::paper_default(),
            timing: NandTiming::paper_default(),
            dram_bytes: 1024 * 1024 * 1024,
            op_ratio: 0.2,
            dram_policy: DramPolicy::MappingFirst,
            write_buffer_pages: 2048, // 8 MB of 4 KB pages
            stripe_pages: 256,        // one block per chunk, as in §3.3
            gc_policy: GcPolicy::Greedy,
            wear_gap_threshold: 16,
            gamma: 0,
            compaction_interval_writes: 1_000_000,
            sort_buffer_on_flush: true,
            checkpoint_mode: CheckpointMode::DramSnapshot,
        }
    }

    /// A proportionally scaled-down SSD: same channel count, page and
    /// block sizes, with `capacity_bytes` of flash and DRAM scaled by
    /// the same factor relative to Table 1 (1 GB per 2 TB).
    ///
    /// # Panics
    ///
    /// Panics if `capacity_bytes` is not a positive multiple of the
    /// block size.
    pub fn scaled(capacity_bytes: u64) -> Self {
        let mut config = SsdConfig::paper_default();
        config.geometry = FlashGeometry::with_capacity(capacity_bytes);
        let scale = capacity_bytes as f64 / (2.0 * 1024.0 * 1024.0 * 1024.0 * 1024.0);
        config.dram_bytes = ((1024.0 * 1024.0 * 1024.0) * scale) as usize;
        config
    }

    /// A small configuration for unit and integration tests: 4 channels,
    /// 64 blocks × 32 pages, tiny write buffer, generous DRAM.
    pub fn small_test() -> Self {
        let mut config = SsdConfig::paper_default();
        config.geometry = FlashGeometry::small_test();
        config.dram_bytes = 4 * 1024 * 1024;
        config.write_buffer_pages = 32; // one block
        config
    }

    /// Host-visible capacity in pages (`(1 − op_ratio)` of raw).
    pub fn logical_pages(&self) -> u64 {
        (self.geometry.total_pages() as f64 * (1.0 - self.op_ratio)) as u64
    }

    /// DRAM available to mapping structures under the configured policy.
    pub fn mapping_budget(&self) -> usize {
        match self.dram_policy {
            DramPolicy::MappingFirst => self.dram_bytes,
            DramPolicy::DataFloor(fraction) => {
                let floor = (self.dram_bytes as f64 * fraction) as usize;
                self.dram_bytes.saturating_sub(floor)
            }
        }
    }

    /// Validates the configuration, panicking with a descriptive message
    /// on nonsensical values. Called by `Ssd::new`.
    pub fn validate(&self) {
        assert!(
            self.op_ratio > 0.0 && self.op_ratio < 0.9,
            "op_ratio out of range"
        );
        assert!(
            gc_watermarks(self).high < self.op_ratio,
            "gc high watermark must stay below the over-provisioned fraction"
        );
        assert!(self.write_buffer_pages >= 1, "write buffer too small");
        assert!(
            self.gamma <= self.geometry.max_gamma(),
            "gamma {} exceeds what the {}-byte OOB can verify (max {})",
            self.gamma,
            self.geometry.oob_size,
            self.geometry.max_gamma()
        );
        if let DramPolicy::DataFloor(f) = self.dram_policy {
            assert!((0.0..1.0).contains(&f), "data floor fraction out of range");
        }
    }
}

impl Default for SsdConfig {
    fn default() -> Self {
        SsdConfig::paper_default()
    }
}

/// Where GC works, as fractions of all blocks free: below `low` it
/// starts, at `high` it stops, and below `floor` a background-GC
/// [`crate::Device`] stalls block-consuming host commands until
/// in-flight erases land.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct GcWatermarks {
    pub(crate) floor: f64,
    pub(crate) low: f64,
    pub(crate) high: f64,
}

impl GcWatermarks {
    /// Whether [`gc_watermarks`] capped these lines: the device is too
    /// small for a flush of lead.
    pub(crate) fn capped(&self) -> bool {
        self.low >= LOW_CAP || self.high >= HIGH_CAP
    }
}

/// The one GC start/stop rule, a function of the configuration alone
/// ([`crate::Ssd::new`] evaluates it once). The paper fixes
/// over-provisioning at 20 % (Table 1) but sets no watermarks; these
/// keep free the reserve a buffer flush needs (Dayan & Bonnet's
/// free-space reserve) and little more, so GC waits for victims that
/// the over-provisioned space has let go stale.
///
/// With `F` the blocks one flush stripes over
/// ([`BlockAllocator::blocks_opened_by`]), the reserve is one flush
/// plus the block its GC migration opens, and at least 2 % of all
/// blocks; GC starts one lead of `max(1 %, F)` above it and stops
/// `max(2 %, F)` higher. The floor stays at 2 %. The low and high lines
/// are capped at 8 % and 12 %, which is where a device too small for a
/// flush of lead (a few blocks per way) keeps them. On the full-size
/// devices of at least 512 MiB the lines read 2 / 3 / 5 %.
///
/// The cap also decides how many sets of open blocks the host stream
/// keeps ([`host_lanes`]) and whether greedy GC balances the dies
/// within a collection ([`crate::Ssd`]'s victim selection).
pub(crate) fn gc_watermarks(config: &SsdConfig) -> GcWatermarks {
    let lines = uncapped_watermarks(config);
    GcWatermarks {
        low: lines.low.min(LOW_CAP),
        high: lines.high.min(HIGH_CAP),
        ..lines
    }
}

/// Where [`gc_watermarks`] caps the low and high lines.
const LOW_CAP: f64 = 0.08;
const HIGH_CAP: f64 = 0.12;

/// Sets of open blocks ("lanes") the host stream keeps
/// ([`BlockAllocator::with_lanes`]): one per flush the write pool
/// holds ([`POOL_FLUSHES`]), so consecutive flushes program on disjoint
/// dies, on a device with room for a flush of lead — one whose GC lines
/// [`gc_watermarks`] does not cap. A capped device keeps one lane: the
/// spare a second lane's part-filled blocks hold is more than its lines
/// leave GC.
pub(crate) fn host_lanes(config: &SsdConfig) -> usize {
    if gc_watermarks(config).capped() {
        1
    } else {
        POOL_FLUSHES
    }
}

/// [`gc_watermarks`] before the cap.
fn uncapped_watermarks(config: &SsdConfig) -> GcWatermarks {
    let blocks = config.geometry.blocks as f64;
    let flush_pages = u32::try_from(config.write_buffer_pages).unwrap_or(u32::MAX);
    let flush = BlockAllocator::blocks_opened_by(&config.geometry, config.stripe_pages, flush_pages)
        as f64
        / blocks;
    let floor: f64 = 0.02;
    let reserve = floor.max(flush + 1.0 / blocks);
    let low = reserve + flush.max(0.01);
    let high = low + flush.max(0.02);
    GcWatermarks { floor, low, high }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_table1() {
        let c = SsdConfig::paper_default();
        assert_eq!(c.geometry.capacity_bytes(), 2u64 << 40);
        assert_eq!(c.dram_bytes, 1 << 30);
        assert_eq!(c.timing.read_us(), 20.0);
        assert!((c.op_ratio - 0.2).abs() < 1e-9);
        c.validate();
    }

    #[test]
    fn scaled_keeps_dram_ratio() {
        let c = SsdConfig::scaled(16 * 1024 * 1024 * 1024);
        assert_eq!(c.geometry.capacity_bytes(), 16u64 << 30);
        // 1 GB per 2 TB => 8 MB per 16 GB.
        assert_eq!(c.dram_bytes, 8 * 1024 * 1024);
        c.validate();
    }

    #[test]
    fn logical_capacity_respects_op() {
        let c = SsdConfig::small_test();
        let total = c.geometry.total_pages();
        assert_eq!(c.logical_pages(), (total as f64 * 0.8) as u64);
    }

    #[test]
    fn mapping_budget_policies() {
        let mut c = SsdConfig::small_test();
        c.dram_bytes = 1_000_000;
        c.dram_policy = DramPolicy::MappingFirst;
        assert_eq!(c.mapping_budget(), 1_000_000);
        c.dram_policy = DramPolicy::DataFloor(0.2);
        assert_eq!(c.mapping_budget(), 800_000);
    }

    /// The GC lines on every device the repository runs: the unit-test
    /// image, the 256-block golden device, the 128-block smoke images,
    /// the four full-size ledger devices and Table 1's drive. A device
    /// whose lines sit at the cap keeps one host lane, any other one per
    /// flush the write pool holds.
    #[test]
    fn gc_lines_keep_a_flush_of_reserve_and_lead() {
        let sized = |mib: u64, buffer: usize| {
            let mut config = SsdConfig::scaled(mib << 20);
            config.stripe_pages = 32;
            config.write_buffer_pages = buffer;
            config
        };
        let golden = {
            let mut config = SsdConfig::small_test();
            config.geometry.blocks = 256;
            config
        };
        // `tests/latency_model.rs`'s striped image and
        // `tests/translog_crash.rs`'s 16-block one.
        let striped = SsdConfig {
            stripe_pages: 8,
            ..SsdConfig::small_test()
        };
        let tiny = SsdConfig {
            geometry: FlashGeometry {
                channels: 2,
                dies_per_channel: 1,
                blocks: 16,
                pages_per_block: 8,
                ..FlashGeometry::small_test()
            },
            write_buffer_pages: 8,
            stripe_pages: 8,
            ..SsdConfig::small_test()
        };
        // (name, config, blocks one flush stripes over, (low, high),
        // host lanes).
        let cases = [
            (
                "small_test",
                SsdConfig::small_test(),
                1,
                (0.046875, 0.066875),
                POOL_FLUSHES,
            ),
            ("golden 256 x 32", golden, 1, (0.03, 0.05), POOL_FLUSHES),
            ("small_test, 8-page chunks", striped, 4, (0.08, 0.12), 1),
            ("16 blocks x 8 pages", tiny, 1, (0.08, 0.12), 1),
            (
                "smoke, 256-page buffer",
                sized(128, 256),
                8,
                (0.08, 0.12),
                1,
            ),
            (
                "smoke, 128-page buffer",
                sized(128, 128),
                4,
                (0.0703125, 0.1015625),
                POOL_FLUSHES,
            ),
            (
                "blocking_mix / read_qd32",
                sized(2048, 256),
                8,
                (0.03, 0.05),
                POOL_FLUSHES,
            ),
            ("write_gc", sized(1024, 256), 8, (0.03, 0.05), POOL_FLUSHES),
            ("fleet_1012", sized(512, 128), 4, (0.03, 0.05), POOL_FLUSHES),
            (
                "paper_default",
                SsdConfig::paper_default(),
                8,
                (0.03, 0.05),
                POOL_FLUSHES,
            ),
        ];
        for (name, config, flush, (low, high), lanes) in cases {
            let geometry = config.geometry;
            let opened = BlockAllocator::blocks_opened_by(
                &geometry,
                config.stripe_pages,
                config.write_buffer_pages as u32,
            );
            assert_eq!(opened, flush, "{name}");
            let lines = gc_watermarks(&config);
            let close = |a: f64, b: f64| (a - b).abs() < 1e-12;
            assert!(
                close(lines.low, low) && close(lines.high, high),
                "{name}: {lines:?}"
            );
            assert_eq!(lines.floor, 0.02, "{name}");
            assert_eq!(host_lanes(&config), lanes, "{name}");
            assert_eq!(lines.capped(), lanes == 1, "{name}");
            assert!(lines.floor < lines.low, "{name}");
            assert!(lines.low < lines.high, "{name}");
            assert!(lines.high < config.op_ratio, "{name}");
            let blocks = geometry.blocks as f64;
            let flush = flush as f64;
            let (low, high) = (lines.low * blocks, lines.high * blocks);
            if lines.low < 0.08 {
                // A flush of lead above a reserve of one flush plus the
                // block its migration opens, and above the floor.
                let reserve = low - flush;
                assert!(reserve >= flush + 1.0 - 1e-9, "{name}: {lines:?}");
                assert!(reserve >= lines.floor * blocks - 1e-9, "{name}: {lines:?}");
            }
            if lines.high < 0.12 {
                assert!(high - low >= flush - 1e-9, "{name}: {lines:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "gamma")]
    fn validate_rejects_oversized_gamma() {
        let mut c = SsdConfig::small_test();
        c.gamma = 100;
        c.validate();
    }
}
