//! # LeaFTL learned address-mapping table
//!
//! This crate implements the primary contribution of *"LeaFTL: A
//! Learning-Based Flash Translation Layer for Solid-State Drives"*
//! (ASPLOS 2023): a flash address-mapping table built from learned index
//! segments instead of one-to-one page mapping entries.
//!
//! ## How it works
//!
//! A buffer flush hands the table a batch of `(LPA, PPA)` pairs that is
//! sorted by LPA and mapped to consecutive PPAs. [Greedy error-bounded
//! piecewise linear regression](plr) fits the batch with segments
//! `(S, L, K, I)` that each cost **8 bytes** and translate via
//! `PPA = round(K·x) + I`:
//!
//! * **accurate segments** capture sequential and regularly-strided
//!   patterns exactly;
//! * **approximate segments** capture irregular patterns within a
//!   configurable error bound `γ`; their member LPAs are tracked in a
//!   per-group [conflict resolution buffer](crb);
//! * **single-point segments** hold random writes at the same 8-byte
//!   cost as a conventional page-mapping entry.
//!
//! Segments live in per-group log-structured levels: new segments shadow
//! older ones, overlap merges trim stale members (Algorithm 2 of the
//! paper), and periodic [compaction](LeaFtlTable::compact) reclaims
//! shadowed space.
//!
//! ## Modules
//!
//! * [`segment`] — the 8-byte `(S, L, K, I)` segment; [`mod@f16`] — its
//!   half-float slope codec, both directions exact bit arithmetic;
//! * [`plr`] — the greedy error-bounded fitter: a run in, pieces out,
//!   nothing allocated;
//! * [`group`] — one 256-LPA group: every level's segments in one flat
//!   array with the level boundaries beside it (Algorithms 1 and 2 as
//!   passes over it), and [`crb`] — its conflict resolution buffer, the
//!   paper's nearly-sorted byte list; both work on `offsets`' four-word
//!   member bitmap;
//! * [`LeaFtlTable`] — the groups in [`slots`] (one per id,
//!   copy-on-write behind `Arc`, the changed ones listed so that a kept
//!   copy is brought up to date at the cost of what changed), with
//!   incremental accounting and dirty-group compaction;
//! * [`scheme`], [`shards`] — the translation-service layer (below).
//!
//! ## Example
//!
//! ```
//! use leaftl_core::{LeaFtlConfig, LeaFtlTable};
//! use leaftl_flash::{Lpa, Ppa};
//!
//! let mut table = LeaFtlTable::new(LeaFtlConfig::default().with_gamma(4));
//! // An irregular (but monotonic) flush batch.
//! let batch = vec![
//!     (Lpa::new(80), Ppa::new(304)),
//!     (Lpa::new(82), Ppa::new(305)),
//!     (Lpa::new(83), Ppa::new(306)),
//!     (Lpa::new(84), Ppa::new(307)),
//!     (Lpa::new(87), Ppa::new(308)),
//! ];
//! table.learn(&batch);
//! let hit = table.lookup(Lpa::new(83)).expect("mapped");
//! let err = (hit.ppa.raw() as i64 - 306).unsigned_abs();
//! assert!(err <= hit.error_bound as u64);
//! ```
//!
//! Beyond the paper's table, this crate also hosts the *translation
//! service* layer: the [`MappingScheme`] trait every FTL implements
//! ([`scheme`]) and the range-sharded [`ShardedMapping`] composition
//! ([`shards`]) that partitions the LPA space into independent shards
//! so a concurrent device front-end can translate bursts in parallel
//! and compact shards in the background.
//!
//! The companion crates `leaftl-sim` (SSD simulator), `leaftl-baselines`
//! (DFTL/SFTL) and `leaftl-bench` (paper experiments) build on this one.

mod config;
pub mod crb;
pub mod f16;
pub mod group;
mod offsets;
pub mod plr;
pub mod scheme;
pub mod segment;
pub mod shards;
pub mod slots;
mod stats;
mod table;
mod validate;

pub use config::LeaFtlConfig;
pub use crb::{Crb, CrbPatch};
pub use group::{Group, GroupLookup};
pub use plr::LearnedPiece;
pub use scheme::{ExactPageMap, MapCost, MappingLookup, MappingScheme, ShardPressure};
pub use segment::Segment;
pub use shards::ShardedMapping;
pub use slots::CowSlots;
pub use stats::{percentile, MemoryBreakdown, TableStats};
pub use table::{LeaFtlTable, LookupResult, TableWalk};
pub use validate::InvariantViolation;
