//! Snapshot statistics over a learned mapping table.

use serde::{Deserialize, Serialize};

/// Memory footprint breakdown of the learned mapping table.
///
/// Matches the paper's accounting: 8 bytes per segment (§3.2) plus the
/// CRB bytes (§3.4, "trivial storage space").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct MemoryBreakdown {
    /// Bytes used by segments (8 B each).
    pub segment_bytes: usize,
    /// Bytes used by conflict resolution buffers.
    pub crb_bytes: usize,
}

impl MemoryBreakdown {
    /// Total mapping-structure footprint.
    pub fn total(&self) -> usize {
        self.segment_bytes + self.crb_bytes
    }
}

/// A computed snapshot of table structure, consumed by the experiment
/// harness (Figs. 5, 10, 12, 20).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TableStats {
    /// Total learned segments.
    pub segments: usize,
    /// Accurate segments (type flag clear).
    pub accurate_segments: usize,
    /// Approximate segments (type flag set).
    pub approximate_segments: usize,
    /// Single-point segments (`L == 0`, `K == 0`).
    pub single_point_segments: usize,
    /// Groups with at least one segment.
    pub groups: usize,
    /// Level count of every non-empty group.
    pub levels_per_group: Vec<u32>,
    /// CRB byte size of every non-empty group.
    pub crb_bytes_per_group: Vec<usize>,
    /// Number of LPAs indexed by each segment (Fig. 5 "length").
    pub members_per_segment: Vec<u32>,
    /// Memory footprint.
    pub memory: MemoryBreakdown,
}

impl TableStats {
    /// Average number of mappings per segment (`avg(L)` in §1; the paper
    /// reports 20.3 across its workloads).
    pub fn avg_members_per_segment(&self) -> f64 {
        mean_u32(&self.members_per_segment)
    }

    /// Average levels per group.
    pub fn avg_levels(&self) -> f64 {
        mean_u32(&self.levels_per_group)
    }

    /// Average CRB bytes per group.
    pub fn avg_crb_bytes(&self) -> f64 {
        if self.crb_bytes_per_group.is_empty() {
            return 0.0;
        }
        self.crb_bytes_per_group.iter().sum::<usize>() as f64
            / self.crb_bytes_per_group.len() as f64
    }
}

fn mean_u32(values: &[u32]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().map(|&v| v as u64).sum::<u64>() as f64 / values.len() as f64
}

/// Percentile over a copied, sorted sample (nearest-rank method).
///
/// Returns 0.0 for an empty sample. `p` is in `[0, 100]`.
pub fn percentile<T: Copy + Into<f64> + PartialOrd>(values: &[T], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted: Vec<f64> = values.iter().map(|&v| v.into()).collect();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_total() {
        let m = MemoryBreakdown {
            segment_bytes: 80,
            crb_bytes: 14,
        };
        assert_eq!(m.total(), 94);
    }

    #[test]
    fn percentile_nearest_rank() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile::<u32>(&[], 50.0), 0.0);
    }

    #[test]
    fn averages() {
        let stats = TableStats {
            members_per_segment: vec![10, 30],
            levels_per_group: vec![1, 3],
            crb_bytes_per_group: vec![0, 28],
            ..TableStats::default()
        };
        assert_eq!(stats.avg_members_per_segment(), 20.0);
        assert_eq!(stats.avg_levels(), 2.0);
        assert_eq!(stats.avg_crb_bytes(), 14.0);
    }
}
