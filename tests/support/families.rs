//! The scheme families the whole-SSD suites hold to the host model,
//! each on the small test device, and the aging that brings a device to
//! GC before a history starts.

use crate::ops::Action;
use leaftl_repro::baselines::{Dftl, Sftl};
use leaftl_repro::core::LeaFtlConfig;
use leaftl_repro::sim::{CheckpointMode, ExactPageMap, LeaFtlScheme, Ssd, SsdConfig};

/// The small test device under `mode`, with `dram_bytes` of DRAM.
pub fn config(mode: CheckpointMode, dram_bytes: usize) -> SsdConfig {
    let mut config = SsdConfig::small_test();
    config.checkpoint_mode = mode;
    config.dram_bytes = dram_bytes;
    config
}

/// Every mapping table resident.
pub const RESIDENT: usize = 4 * 1024 * 1024;

/// A few hundred CMT entries or a sub-table group budget, and
/// essentially no data cache: demand paging on every read.
pub const TINY: usize = 2 * 1024;

pub fn exact(mode: CheckpointMode) -> Ssd<ExactPageMap> {
    Ssd::new(config(mode, RESIDENT), ExactPageMap::new())
}

/// LeaFTL at `gamma` with `dram_bytes`, compacting every `interval`
/// learned pages; with `sorted` false, the Fig. 7 ablation: no LPA
/// sort before a flush, so the learned mappings are mostly points.
pub fn leaftl(mut config: SsdConfig, gamma: u32, interval: u64, sorted: bool) -> Ssd<LeaFtlScheme> {
    config.gamma = gamma;
    config.sort_buffer_on_flush = sorted;
    let scheme = LeaFtlConfig::default()
        .with_gamma(gamma)
        .with_compaction_interval(interval);
    Ssd::new(config, LeaFtlScheme::new(scheme))
}

pub fn dftl(mode: CheckpointMode) -> Ssd<Dftl> {
    Ssd::new(config(mode, TINY), Dftl::new())
}

pub fn sftl(mode: CheckpointMode) -> Ssd<Sftl> {
    Ssd::new(config(mode, 4 * 1024), Sftl::new())
}

/// Writes the logical space once, then overwrites half of it strided
/// until the collector has run: from here on every flush may collect.
pub fn aging(logical: u64) -> [Action; 2] {
    [
        Action::Write {
            lpa: 0,
            len: logical,
        },
        Action::StridedWrite {
            lpa: 7,
            stride: 3,
            count: logical / 2,
        },
    ]
}
