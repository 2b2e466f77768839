//! # Baseline FTL mapping schemes
//!
//! The two state-of-the-art page-level schemes the LeaFTL paper
//! compares against (§4.1):
//!
//! * [`Dftl`] — demand-based FTL: the full page-level table lives in
//!   flash, a Cached Mapping Table holds hot entries in DRAM.
//! * [`Sftl`] — spatial-locality-aware FTL: cached translation pages
//!   are condensed into strictly-sequential run descriptors.
//!
//! Both implement [`leaftl_sim::MappingScheme`] and plug into the same
//! simulator as LeaFTL, so every experiment compares identical I/O
//! paths and differs only in the mapping structure.
//!
//! ```
//! use leaftl_baselines::Dftl;
//! use leaftl_flash::Lpa;
//! use leaftl_sim::{Ssd, SsdConfig};
//!
//! # fn main() -> Result<(), leaftl_sim::SimError> {
//! let mut ssd = Ssd::new(SsdConfig::small_test(), Dftl::new());
//! ssd.write(Lpa::new(7), 77)?;
//! assert_eq!(ssd.read(Lpa::new(7))?, Some(77));
//! # Ok(())
//! # }
//! ```

mod dftl;
mod page_table;
mod sftl;

pub use dftl::{Dftl, ENTRY_BYTES};
pub use sftl::{sftl_full_table_bytes, Sftl, RUN_BYTES};
