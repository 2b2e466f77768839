//! Head-to-head micro-benchmarks of the three mapping schemes'
//! software paths (no flash latency): update and lookup throughput,
//! plus the learn vs learn_sorted fast-path delta.

#![expect(missing_docs, reason = "criterion_group! emits a bare `pub fn`")]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use leaftl_baselines::{Dftl, Sftl};
use leaftl_core::{LeaFtlConfig, LeaFtlTable};
use leaftl_flash::{Lpa, Ppa};
use leaftl_sim::{LeaFtlScheme, MappingScheme};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn batches(seed: u64, n: usize) -> Vec<Vec<(Lpa, Ppa)>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let start = rng.gen_range(0u64..1 << 18) & !63;
            (0..64u64)
                .map(|j| (Lpa::new(start + j), Ppa::new(((i as u64) << 8) | j)))
                .collect()
        })
        .collect()
}

fn bench_scheme<S: MappingScheme>(
    group: &mut criterion::BenchmarkGroup<'_, criterion::measurement::WallTime>,
    name: &str,
    mut scheme: S,
) {
    scheme.set_memory_budget(usize::MAX >> 1);
    let data = batches(1, 512);
    for batch in &data {
        scheme.update_batch(batch);
    }
    let mut rng = StdRng::seed_from_u64(5);
    let lpas: Vec<Lpa> = (0..4096)
        .map(|_| {
            let b = &data[rng.gen_range(0..data.len())];
            b[rng.gen_range(0..b.len())].0
        })
        .collect();

    group.throughput(Throughput::Elements(64));
    let mut idx = 0usize;
    group.bench_function(BenchmarkId::new("update_batch64", name), |b| {
        b.iter(|| {
            scheme.update_batch(black_box(&data[idx % data.len()]));
            idx += 1;
        })
    });
    group.throughput(Throughput::Elements(1));
    let mut idx = 0usize;
    group.bench_function(BenchmarkId::new("lookup", name), |b| {
        b.iter(|| {
            let lpa = lpas[idx % lpas.len()];
            idx += 1;
            black_box(scheme.lookup(black_box(lpa)))
        })
    });
}

fn bench_schemes(c: &mut Criterion) {
    let mut group = c.benchmark_group("mapping_schemes");
    bench_scheme(&mut group, "DFTL", Dftl::new());
    bench_scheme(&mut group, "SFTL", Sftl::new());
    bench_scheme(
        &mut group,
        "LeaFTL",
        LeaFtlScheme::new(LeaFtlConfig::default()),
    );
    group.finish();
}

/// The flush path drains the write buffer LPA-sorted and deduplicated;
/// `learn_sorted` skips the defensive clone + re-sort `learn` pays.
/// This measures the delta on that exact batch shape.
fn bench_learn_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("leaftl_learn_paths");
    // One flush worth of sorted, unique mappings spanning two groups.
    let sorted_batch: Vec<(Lpa, Ppa)> = (0..256u64)
        .map(|i| (Lpa::new(i * 2), Ppa::new(100_000 + i)))
        .collect();
    group.throughput(Throughput::Elements(sorted_batch.len() as u64));
    // Fresh table per iteration (construction is a couple of empty
    // maps, negligible): both paths fit the identical flush shape into
    // identical state, so the delta is exactly the clone + sort skip.
    group.bench_function(BenchmarkId::new("learn", "sorted256"), |b| {
        b.iter(|| {
            let mut table = LeaFtlTable::new(LeaFtlConfig::default().with_gamma(4));
            table.learn(black_box(&sorted_batch));
            black_box(table.segment_count())
        })
    });
    group.bench_function(BenchmarkId::new("learn_sorted", "sorted256"), |b| {
        b.iter(|| {
            let mut table = LeaFtlTable::new(LeaFtlConfig::default().with_gamma(4));
            table.learn_sorted(black_box(&sorted_batch));
            black_box(table.segment_count())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_schemes, bench_learn_paths);
criterion_main!(benches);
