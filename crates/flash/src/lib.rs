//! NAND flash device model used by the LeaFTL reproduction.
//!
//! This crate is the lowest layer of the stack: it models the physical
//! resource that a flash translation layer (FTL) manages. It provides
//!
//! * strongly-typed logical/physical page addresses ([`Lpa`], [`Ppa`]),
//! * an SSD geometry description ([`FlashGeometry`]) with the paper's
//!   default configuration (Table 1 of the LeaFTL paper),
//! * a page/block state machine that enforces NAND programming rules
//!   (erase-before-write, sequential programming within a block),
//! * out-of-band (OOB) reverse-mapping windows per page ([`OobWindow`]), which
//!   LeaFTL uses to store reverse mappings of neighbouring pages for
//!   misprediction recovery (§3.5 of the paper),
//! * the NAND latencies ([`NandTiming`]) the simulator charges per
//!   operation (the device itself keeps no clock and counts nothing),
//! * the deterministic integer hasher ([`IntMap`], [`IntSet`]) every map
//!   keyed by these addresses uses instead of `RandomState`.
//!
//! The device stores a 64-bit *content tag* per page instead of a full
//! 4 KB payload; integration tests use the tag to verify end-to-end data
//! integrity without the memory cost of real payloads. Content tag,
//! reverse mapping and program sequence number sit together in one
//! device-wide array indexed by raw PPA, so a page read costs a cache
//! line, not one per attribute; a [`Block`] is the write-pointer /
//! erase-count header over its slice of that array.
//!
//! # Example
//!
//! ```
//! use leaftl_flash::{FlashDevice, FlashGeometry, Lpa, Ppa};
//!
//! # fn main() -> Result<(), leaftl_flash::FlashError> {
//! let geometry = FlashGeometry::small_test();
//! let mut device = FlashDevice::new(geometry);
//!
//! // NAND pages must be programmed in order within a block.
//! let ppa = Ppa::new(0);
//! device.program(ppa, 0xdead_beef, Some(Lpa::new(42)))?;
//! let page = device.read(ppa)?;
//! assert_eq!(page.content, 0xdead_beef);
//! assert_eq!(page.lpa, Some(Lpa::new(42)));
//!
//! // Misprediction recovery reads the OOB window around a page.
//! let window = device.oob_window(ppa, 1).expect("programmed");
//! assert_eq!(window.own_lpa(), Some(Lpa::new(42)));
//! # Ok(())
//! # }
//! ```

mod addr;
mod block;
mod device;
mod error;
mod geometry;
mod inthash;
mod oob;
mod timing;

pub use addr::{BlockId, Die, Lpa, Ppa};
pub use block::Block;
pub use device::{FlashDevice, PageView};
pub use error::FlashError;
pub use geometry::FlashGeometry;
pub use inthash::{IntHasher, IntMap, IntSet};
pub use oob::OobWindow;
pub use timing::NandTiming;
