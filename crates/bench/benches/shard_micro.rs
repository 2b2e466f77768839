//! Sharded-translation-service micro-costs: what the `ShardedMapping`
//! layer itself adds to a sorted flush, isolated from the simulator —
//! `update_batch_sorted` boundary splitting vs the monolithic learn
//! path.

#![expect(missing_docs, reason = "criterion_group! emits a bare `pub fn`")]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use leaftl_core::{LeaFtlConfig, MappingScheme, ShardedMapping};
use leaftl_flash::{Lpa, Ppa};
use leaftl_sim::LeaFtlScheme;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

/// LPA space: 1024 groups, enough that 8 shards each own plenty.
const SPACE: u64 = 256 * 1024;

/// Builds a warmed sharded service: a sequential base layer plus
/// scattered overwrites (single-point + short segments), the shape a
/// mixed workload leaves behind.
fn warmed(shards: usize) -> ShardedMapping<LeaFtlScheme> {
    let mut scheme = ShardedMapping::new(shards, SPACE, |_| {
        LeaFtlScheme::new(LeaFtlConfig::default().with_gamma(4))
    });
    scheme.set_memory_budget(usize::MAX);
    let base: Vec<(Lpa, Ppa)> = (0..SPACE).map(|i| (Lpa::new(i), Ppa::new(i))).collect();
    scheme.update_batch_sorted(&base);
    let mut rng = StdRng::seed_from_u64(7);
    for round in 0..8u64 {
        let mut batch: Vec<(Lpa, Ppa)> = (0..2048u64)
            .map(|i| {
                (
                    Lpa::new(rng.gen_range(0u64..SPACE)),
                    Ppa::new(SPACE + round * 4096 + i),
                )
            })
            .collect();
        batch.sort_by_key(|&(lpa, _)| lpa);
        batch.dedup_by_key(|&mut (lpa, _)| lpa);
        scheme.update_batch(&batch);
    }
    scheme
}

fn bench_sorted_split(c: &mut Criterion) {
    let mut group = c.benchmark_group("shard_update_sorted");
    const FLUSH: usize = 2048;
    group.throughput(Throughput::Elements(FLUSH as u64));
    for &shards in &[1usize, 8] {
        let mut scheme = warmed(shards);
        let mut next_ppa = 10 * SPACE;
        let mut rng = StdRng::seed_from_u64(17);
        group.bench_function(BenchmarkId::from_parameter(shards), |b| {
            b.iter(|| {
                // A fresh flush-shaped batch each iteration: sorted
                // unique LPAs on consecutive PPAs.
                let start = rng.gen_range(0u64..SPACE - 4 * FLUSH as u64);
                let batch: Vec<(Lpa, Ppa)> = (0..FLUSH as u64)
                    .map(|i| {
                        next_ppa += 1;
                        (Lpa::new(start + i * 3), Ppa::new(next_ppa))
                    })
                    .collect();
                scheme.update_batch_sorted(black_box(&batch))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sorted_split);
criterion_main!(benches);
