//! Read-only inspection of a mapping scheme's table, for the
//! `map_full_bytes` end-to-end metric and the `table.*` layer metrics.

use crate::spans::Timed;
use leaftl_repro::baselines::{sftl_full_table_bytes, Dftl, Sftl};
use leaftl_repro::core::{MappingScheme, ShardedMapping};
use leaftl_repro::sim::LeaFtlScheme;

/// Additive structure counters of a learned table (all zero for the
/// table-based baselines), summed across shards.
#[derive(Debug, Clone, Copy, Default)]
pub struct TableShape {
    pub segments: u64,
    pub approximate_segments: u64,
    pub groups: u64,
    pub levels_sum: u64,
    pub max_levels: u64,
    pub crb_bytes: u64,
    pub members_sum: u64,
}

impl TableShape {
    fn merge(self, other: TableShape) -> TableShape {
        TableShape {
            segments: self.segments + other.segments,
            approximate_segments: self.approximate_segments + other.approximate_segments,
            groups: self.groups + other.groups,
            levels_sum: self.levels_sum + other.levels_sum,
            max_levels: self.max_levels.max(other.max_levels),
            crb_bytes: self.crb_bytes + other.crb_bytes,
            members_sum: self.members_sum + other.members_sum,
        }
    }
}

pub trait Probe: MappingScheme + Clone {
    /// The error bound γ of the scheme's predictions (0 for schemes
    /// that translate exactly).
    fn gamma(&self) -> u32 {
        0
    }

    /// Bytes the scheme needs to hold its *entire* mapping in DRAM —
    /// the paper's Fig. 15 quantity. A learned table is compacted
    /// first (on a clone): the baselines carry no stale entries, so
    /// the comparable figure is the shadow-free size.
    fn full_bytes(&self) -> usize;

    /// The live (uncompacted) table structure.
    fn shape(&self) -> TableShape {
        TableShape::default()
    }
}

impl Probe for LeaFtlScheme {
    fn gamma(&self) -> u32 {
        self.table().config().gamma
    }

    fn full_bytes(&self) -> usize {
        let mut table = self.table().clone();
        table.compact();
        table.memory_bytes().total()
    }

    fn shape(&self) -> TableShape {
        let stats = self.table_stats();
        TableShape {
            segments: stats.segments as u64,
            approximate_segments: stats.approximate_segments as u64,
            groups: stats.groups as u64,
            levels_sum: stats.levels_per_group.iter().map(|&l| l as u64).sum(),
            max_levels: stats.levels_per_group.iter().copied().max().unwrap_or(0) as u64,
            crb_bytes: stats.memory.crb_bytes as u64,
            members_sum: stats.members_per_segment.iter().map(|&m| m as u64).sum(),
        }
    }
}

impl<S: Probe + Send + 'static> Probe for ShardedMapping<S> {
    fn gamma(&self) -> u32 {
        self.shard(0).gamma()
    }

    fn full_bytes(&self) -> usize {
        self.shards().map(|shard| shard.full_bytes()).sum()
    }

    fn shape(&self) -> TableShape {
        self.shards()
            .map(|shard| shard.shape())
            .fold(TableShape::default(), TableShape::merge)
    }
}

impl<S: Probe> Probe for Timed<S> {
    fn gamma(&self) -> u32 {
        self.inner().gamma()
    }

    fn full_bytes(&self) -> usize {
        self.inner().full_bytes()
    }

    fn shape(&self) -> TableShape {
        self.inner().shape()
    }
}

impl Probe for Dftl {
    fn full_bytes(&self) -> usize {
        self.full_table_bytes()
    }
}

impl Probe for Sftl {
    fn full_bytes(&self) -> usize {
        sftl_full_table_bytes(self)
    }
}
