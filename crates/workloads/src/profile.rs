//! Parameterised workload profiles and the trace generator.
//!
//! Each evaluation workload of the paper is modelled as a
//! [`ProfileParams`] instance describing its access-pattern *structure*
//! — read/write mix, sequential-run share and length, strided-access
//! share, skew, and working-set size. The generator turns a profile
//! into a deterministic stream of [`HostOp`]s sized to a target device.
//!
//! The real MSR-Cambridge/FIU block traces are not redistributable;
//! these synthetic equivalents control exactly the properties the
//! learned index responds to (runs, strides, skew, overwrites).

use crate::zipf::Zipf;
use leaftl_flash::Lpa;
use leaftl_sim::HostOp;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Access-pattern description of one workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProfileParams {
    /// Display name (matches the paper's workload labels).
    pub name: String,
    /// Fraction of operations that are reads.
    pub read_ratio: f64,
    /// Fraction of operations that start a sequential run.
    pub seq_fraction: f64,
    /// Fraction of operations that start a strided run.
    pub stride_fraction: f64,
    /// Mean pages per sequential run (geometric distribution).
    pub mean_run_pages: u32,
    /// Zipf skew of single-page accesses (0 = uniform; ≠ 1).
    pub zipf_theta: f64,
    /// Fraction of the logical space the workload touches.
    pub working_set: f64,
}

impl ProfileParams {
    /// Builds a generator over a device with `logical_pages` pages.
    pub fn generator(&self, logical_pages: u64, seed: u64) -> TraceGenerator {
        let span = ((logical_pages as f64 * self.working_set) as u64).max(256);
        let span = span.min(logical_pages);
        TraceGenerator {
            params: self.clone(),
            span,
            zipf: Zipf::new(span, self.zipf_theta),
            rng: StdRng::seed_from_u64(seed ^ fxhash(self.name.as_bytes())),
            pending: VecDeque::new(),
        }
    }

    /// Generates `ops` host operations for a device with
    /// `logical_pages` pages.
    pub fn generate(&self, logical_pages: u64, ops: usize, seed: u64) -> Vec<HostOp> {
        self.generator(logical_pages, seed).take(ops).collect()
    }
}

/// Deterministic FNV-style hash for seeding per-profile RNG streams.
fn fxhash(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x1000_0000_01b3);
    }
    hash
}

/// Infinite deterministic stream of host operations for one profile.
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    params: ProfileParams,
    span: u64,
    zipf: Zipf,
    rng: StdRng,
    /// Remaining single-page ops of an in-flight strided run.
    pending: VecDeque<HostOp>,
}

impl TraceGenerator {
    /// Pages the workload can touch (its working set).
    pub fn span(&self) -> u64 {
        self.span
    }

    /// The stream `ProfileParams::generator` would start under `seed`
    /// for the same profile and device, without rebuilding the Zipf
    /// sampler (whose normaliser sums up to 10⁵ `powf` terms).
    pub(crate) fn reseeded(&self, seed: u64) -> TraceGenerator {
        TraceGenerator {
            rng: StdRng::seed_from_u64(seed ^ fxhash(self.params.name.as_bytes())),
            pending: VecDeque::new(),
            ..self.clone()
        }
    }

    fn sample_run_len(&mut self) -> u32 {
        // Geometric with the configured mean, capped at 512 pages
        // (2 MB requests).
        let mean = self.params.mean_run_pages.max(1) as f64;
        let p = 1.0 / mean;
        let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        let len = (u.ln() / (1.0 - p).ln()).ceil();
        (len as u32).clamp(1, 512)
    }

    fn sample_start(&mut self) -> u64 {
        self.zipf.sample_scrambled(&mut self.rng)
    }

    fn next_op(&mut self) -> HostOp {
        if let Some(op) = self.pending.pop_front() {
            return op;
        }
        let is_read = self.rng.gen_bool(self.params.read_ratio.clamp(0.0, 1.0));
        let style: f64 = self.rng.gen();
        let (lpa, pages) = if style < self.params.seq_fraction {
            // Sequential run.
            let len = self.sample_run_len();
            let start = self
                .sample_start()
                .min(self.span.saturating_sub(len as u64));
            (start, len)
        } else if style < self.params.seq_fraction + self.params.stride_fraction {
            // Strided run (Fig. 1 B): consecutive records `stride`
            // pages apart, issued as single-page requests. The write
            // buffer sorts them, so LeaFTL learns one strided accurate
            // segment where page-run schemes see scattered pages.
            let stride = [2u64, 3, 4, 8][self.rng.gen_range(0..4usize)];
            let count = (self.sample_run_len().clamp(2, 64)) as u64;
            let max_start = self.span.saturating_sub(stride * count + 1);
            let start = self.sample_start().min(max_start);
            let span = self.span;
            let op = |i: u64| {
                let lpa = Lpa::new((start + i * stride).min(span - 1));
                if is_read {
                    HostOp::Read { lpa, pages: 1 }
                } else {
                    HostOp::Write { lpa, pages: 1 }
                }
            };
            self.pending.extend((1..count).map(op));
            return op(0);
        } else {
            // Single-page skewed access.
            (self.sample_start(), 1)
        };
        let lpa = Lpa::new(lpa.min(self.span - 1));
        if is_read {
            HostOp::Read { lpa, pages }
        } else {
            HostOp::Write { lpa, pages }
        }
    }
}

impl Iterator for TraceGenerator {
    type Item = HostOp;

    fn next(&mut self) -> Option<HostOp> {
        Some(self.next_op())
    }
}

/// A strided batch: `count` pages starting at `start`, `stride` apart.
/// Used by workloads with regular column/record layouts — the pattern
/// LeaFTL learns as accurate strided segments (Fig. 1 B).
pub fn strided_ops(start: u64, stride: u64, count: u32, write: bool) -> Vec<HostOp> {
    (0..count as u64)
        .map(|i| {
            let lpa = Lpa::new(start + i * stride);
            if write {
                HostOp::Write { lpa, pages: 1 }
            } else {
                HostOp::Read { lpa, pages: 1 }
            }
        })
        .collect()
}

/// Sequentially writes `fraction` of the logical space — the warm-up
/// pass the paper performs before measuring ("run a set of workloads to
/// warm up the SSD and make sure the GC will be executed").
pub fn warmup_ops(logical_pages: u64, fraction: f64) -> Vec<HostOp> {
    let pages = (logical_pages as f64 * fraction.clamp(0.0, 1.0)) as u64;
    let chunk = 512u64;
    let mut ops = Vec::new();
    let mut lpa = 0;
    while lpa < pages {
        let len = chunk.min(pages - lpa) as u32;
        ops.push(HostOp::Write {
            lpa: Lpa::new(lpa),
            pages: len,
        });
        lpa += len as u64;
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> ProfileParams {
        ProfileParams {
            name: "test".to_string(),
            read_ratio: 0.5,
            seq_fraction: 0.3,
            stride_fraction: 0.1,
            mean_run_pages: 16,
            zipf_theta: 0.9,
            working_set: 0.5,
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let p = profile();
        let a = p.generate(100_000, 1000, 42);
        let b = p.generate(100_000, 1000, 42);
        assert_eq!(a, b);
        let c = p.generate(100_000, 1000, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn a_reseeded_generator_draws_what_a_fresh_one_does() {
        let p = profile();
        let mut used = p.generator(100_000, 1);
        used.by_ref().take(777).for_each(drop);
        let ops: Vec<HostOp> = used.reseeded(42).take(1000).collect();
        assert_eq!(ops, p.generate(100_000, 1000, 42));
    }

    #[test]
    fn ops_stay_in_working_set() {
        let p = profile();
        let span = (100_000f64 * p.working_set) as u64;
        for op in p.generate(100_000, 5000, 1) {
            let (lpa, pages) = match op {
                HostOp::Read { lpa, pages } | HostOp::Write { lpa, pages } => (lpa, pages),
            };
            assert!(lpa.raw() < span, "{lpa} outside working set");
            assert!((1..=512).contains(&pages));
        }
    }

    #[test]
    fn read_ratio_is_respected() {
        let p = profile();
        let ops = p.generate(100_000, 20_000, 7);
        let reads = ops.iter().filter(|op| op.is_read()).count();
        let ratio = reads as f64 / ops.len() as f64;
        assert!((ratio - 0.5).abs() < 0.05, "read ratio {ratio}");
    }

    #[test]
    fn sequential_share_produces_long_runs() {
        let mut p = profile();
        p.seq_fraction = 1.0;
        let ops = p.generate(100_000, 2000, 9);
        let avg: f64 = ops.iter().map(|op| op.page_count() as f64).sum::<f64>() / ops.len() as f64;
        assert!(avg > 8.0, "mean run length {avg}");
    }

    #[test]
    fn warmup_covers_prefix() {
        let ops = warmup_ops(10_000, 0.5);
        let total: u64 = ops.iter().map(|op| op.page_count() as u64).sum();
        assert_eq!(total, 5000);
        assert!(ops.iter().all(|op| !op.is_read()));
    }

    #[test]
    fn strided_ops_have_constant_stride() {
        let ops = strided_ops(100, 3, 5, true);
        let lpas: Vec<u64> = ops
            .iter()
            .map(|op| match op {
                HostOp::Write { lpa, .. } | HostOp::Read { lpa, .. } => lpa.raw(),
            })
            .collect();
        assert_eq!(lpas, vec![100, 103, 106, 109, 112]);
    }

    #[test]
    fn tiny_device_clamps_span() {
        let p = profile();
        let ops = p.generate(300, 100, 3);
        assert!(!ops.is_empty());
    }
}
