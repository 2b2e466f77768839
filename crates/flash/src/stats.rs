//! Operation counters for the flash device.

use serde::{Deserialize, Serialize};

/// Cumulative counts of NAND operations performed by a device.
///
/// The simulator derives the write amplification factor (Fig. 25 of the
/// paper) from `programs` versus the host-issued write count, and uses
/// `reads`/`erases` for latency accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FlashStats {
    /// Page reads.
    pub reads: u64,
    /// Page programs.
    pub programs: u64,
    /// Block erases.
    pub erases: u64,
}

impl FlashStats {
    /// A zeroed counter set.
    pub fn new() -> Self {
        FlashStats::default()
    }
}
