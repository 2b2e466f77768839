//! NAND operation latencies.

use serde::{Deserialize, Serialize};

/// Latency model for NAND operations, in nanoseconds.
///
/// Defaults follow Table 1 of the LeaFTL paper: 20 µs read, 200 µs
/// program, 1.5 ms erase. The simulator combines these with per-die
/// queueing to model die-level parallelism.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct NandTiming {
    /// Page read latency in nanoseconds.
    pub read_ns: u64,
    /// Page program latency in nanoseconds.
    pub program_ns: u64,
    /// Block erase latency in nanoseconds.
    pub erase_ns: u64,
}

impl NandTiming {
    /// Timing from Table 1 of the paper.
    pub const fn paper_default() -> Self {
        NandTiming {
            read_ns: 20_000,
            program_ns: 200_000,
            erase_ns: 1_500_000,
        }
    }

    /// Read latency in microseconds (as reported in the paper's tables).
    pub fn read_us(&self) -> f64 {
        self.read_ns as f64 / 1_000.0
    }

    /// Program latency in microseconds.
    pub fn program_us(&self) -> f64 {
        self.program_ns as f64 / 1_000.0
    }

    /// Erase latency in milliseconds.
    pub fn erase_ms(&self) -> f64 {
        self.erase_ns as f64 / 1_000_000.0
    }
}

impl Default for NandTiming {
    fn default() -> Self {
        NandTiming::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_values() {
        let t = NandTiming::paper_default();
        assert_eq!(t.read_us(), 20.0);
        assert_eq!(t.program_us(), 200.0);
        assert_eq!(t.erase_ms(), 1.5);
    }

    #[test]
    fn default_is_paper() {
        assert_eq!(NandTiming::default(), NandTiming::paper_default());
    }
}
