//! Umbrella crate for the LeaFTL reproduction.
//!
//! Re-exports every crate of the workspace under one roof so that the
//! integration tests in `tests/` and the runnable examples in
//! `examples/` can exercise the whole stack with a single dependency.
//!
//! * [`flash`] — NAND device model (geometry, erase-before-write, OOB).
//! * [`core`] — the learned mapping table: PLR segments, CRB,
//!   log-structured levels (the paper's contribution).
//! * [`sim`] — trace-driven SSD simulator (cache, write buffer, GC, wear
//!   levelling, crash recovery, timing).
//! * [`baselines`] — DFTL and SFTL mapping schemes.
//! * [`workloads`] — synthetic trace generators for the paper's
//!   evaluation workloads.
//!
//! # Quickstart
//!
//! ```
//! use leaftl_repro::core::{LeaFtlConfig, LeaFtlTable};
//! use leaftl_repro::flash::{Lpa, Ppa};
//!
//! let mut table = LeaFtlTable::new(LeaFtlConfig::default());
//! let pairs: Vec<(Lpa, Ppa)> =
//!     (0..100).map(|i| (Lpa::new(i), Ppa::new(1000 + i))).collect();
//! table.learn(&pairs);
//! let guess = table.lookup(Lpa::new(42)).expect("mapped");
//! assert_eq!(guess.ppa, Ppa::new(1042));
//! ```

pub use leaftl_baselines as baselines;
pub use leaftl_core as core;
pub use leaftl_flash as flash;
pub use leaftl_sim as sim;
pub use leaftl_workloads as workloads;
