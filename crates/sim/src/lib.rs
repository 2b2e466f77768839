//! # Trace-driven SSD simulator
//!
//! The evaluation substrate of the LeaFTL reproduction — the equivalent
//! of the WiscSim simulator the paper builds on (§3.9). It models:
//!
//! * a virtual nanosecond clock with per-die parallelism ([`clock`]),
//! * an NVMe-style multi-queue device front-end ([`Device`]): N host
//!   submission queues plus internal background traffic (GC migrations
//!   and translation-log writes), a pluggable [`Arbiter`]
//!   (round-robin / weighted / host-priority), background GC with
//!   hard-floor back-pressure ([`GcMode`]), out-of-order completion,
//!   and open-loop multi-stream replay ([`replay_queued`],
//!   [`replay_open_loop`]),
//! * the controller DRAM split between mapping structures, write
//!   buffer, and LRU data cache ([`SsdConfig`], [`DramPolicy`]),
//! * the write path: buffering, LPA-sorted block-granular flushes
//!   (§3.3), flash programming with OOB reverse mappings, and the
//!   learned table's periodic compaction, inline in every flush (§3.7),
//! * the read path: cache lookups, learned/exact address translation,
//!   OOB-based misprediction recovery with exactly one extra flash
//!   read in the window case (§3.5),
//! * greedy garbage collection with LPA-sorted re-learning (§3.6),
//!   wear levelling, and crash recovery from mapping snapshots plus
//!   OOB block scans (§3.8).
//!
//! FTL mapping schemes plug in through the [`MappingScheme`] trait
//! (defined in `leaftl_core`, re-exported here): [`LeaFtlScheme`]
//! adapts the learned table from `leaftl-core`; DFTL and SFTL live in
//! `leaftl-baselines`; [`ExactPageMap`] is the in-DRAM oracle; any of
//! them scale out behind a [`ShardedMapping`].
//!
//! ```
//! use leaftl_core::LeaFtlConfig;
//! use leaftl_flash::Lpa;
//! use leaftl_sim::{LeaFtlScheme, Ssd, SsdConfig};
//!
//! # fn main() -> Result<(), leaftl_sim::SimError> {
//! let scheme = LeaFtlScheme::new(LeaFtlConfig::default());
//! let mut ssd = Ssd::new(SsdConfig::small_test(), scheme);
//! for i in 0..64 {
//!     ssd.write(Lpa::new(i), i * 7)?;
//! }
//! assert_eq!(ssd.read(Lpa::new(10))?, Some(70));
//! // 64 sequential pages learned as a couple of 8-byte segments.
//! assert!(ssd.mapping_bytes() <= 32);
//! # Ok(())
//! # }
//! ```

pub mod allocator;
pub mod arbiter;
pub mod buffer;
pub mod clock;
mod collection;
mod config;
mod device;
mod error;
mod gc_index;
mod leaftl_scheme;
pub mod lru;
mod qos;
mod replay;
mod request;
mod ssd;
mod stats;
mod trace;
mod translog;
pub mod validity;

pub use arbiter::{
    AdmissionClass, Arbiter, ArbiterView, HostPriority, ReadySet, RoundRobin, Source, Weighted,
};
pub use config::{CheckpointMode, DramPolicy, GcMode, GcPolicy, SsdConfig};
pub use device::{Device, DeviceConfig, GC_QUEUE, MAPLOG_QUEUE};
pub use error::SimError;
pub use leaftl_core::{
    CowSlots, ExactPageMap, MapCost, MappingLookup, MappingScheme, ShardPressure, ShardedMapping,
};
pub use leaftl_scheme::LeaFtlScheme;
pub use qos::{QosController, QosControllerConfig, QosSpec, QosTick, QueueTick, Slo, SloClass};
pub use replay::{
    replay, replay_open_loop, replay_queued, HostOp, QueuedReplayReport, ReplayReport,
    StreamLatency, TimedOp,
};
pub use request::{Command, IoCompletion, IoKind, IoRequest};
pub use ssd::{RecoveryReport, SpaceReport, Ssd, LOOKUP_BASE_NS, LOOKUP_PER_LEVEL_NS};
pub use stats::{FlashOpBreakdown, LatencyHistogram, LookupPaths, ReadPriority, SimStats, SyncGc};
pub use trace::{
    DieUtilization, FlashOpKind, TraceCheck, TraceSink, TrafficClass, UtilizationReport,
};
pub use translog::MapLogTraffic;
