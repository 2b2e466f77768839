//! Criterion version of Table 3: learning time per 256-mapping batch
//! and per-LPA lookup latency, for γ ∈ {0, 1, 4}.
//!
//! The paper measures 9.8–10.8 µs learning and 40.2–67.5 ns lookups on
//! an ARM Cortex-A72; host-CPU numbers differ in absolute terms but
//! must keep the same shape (µs-scale learning, tens-of-ns lookups,
//! slight growth with γ).

#![expect(missing_docs, reason = "criterion_group! emits a bare `pub fn`")]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use leaftl_core::{LeaFtlConfig, LeaFtlTable};
use leaftl_flash::{Lpa, Ppa};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn batch(rng: &mut StdRng, jitter: u64) -> Vec<(Lpa, Ppa)> {
    let mut lpa = rng.gen_range(0u64..1 << 20) & !255;
    let mut ppa = rng.gen_range(0u64..1 << 24);
    let mut out = Vec::with_capacity(256);
    for _ in 0..256 {
        out.push((Lpa::new(lpa), Ppa::new(ppa)));
        lpa += 1 + rng.gen_range(0..=jitter);
        ppa += 1;
    }
    out
}

fn bench_learning(c: &mut Criterion) {
    let mut group = c.benchmark_group("table3_learning_256");
    group.throughput(Throughput::Elements(256));
    for gamma in [0u32, 1, 4] {
        group.bench_with_input(BenchmarkId::from_parameter(gamma), &gamma, |b, &gamma| {
            let mut rng = StdRng::seed_from_u64(7 + gamma as u64);
            let jitter = if gamma == 0 { 0 } else { gamma as u64 };
            let batches: Vec<_> = (0..512).map(|_| batch(&mut rng, jitter)).collect();
            let mut idx = 0usize;
            let mut table = LeaFtlTable::new(LeaFtlConfig::default().with_gamma(gamma));
            b.iter(|| {
                table.learn(black_box(&batches[idx % batches.len()]));
                idx += 1;
            });
        });
    }
    group.finish();
}

fn bench_lookup(c: &mut Criterion) {
    let mut group = c.benchmark_group("table3_lookup");
    for gamma in [0u32, 1, 4] {
        group.bench_with_input(BenchmarkId::from_parameter(gamma), &gamma, |b, &gamma| {
            let mut rng = StdRng::seed_from_u64(11 + gamma as u64);
            let jitter = if gamma == 0 { 0 } else { gamma as u64 };
            let mut table = LeaFtlTable::new(LeaFtlConfig::default().with_gamma(gamma));
            let batches: Vec<_> = (0..512).map(|_| batch(&mut rng, jitter)).collect();
            for batch in &batches {
                table.learn(batch);
            }
            let lpas: Vec<Lpa> = (0..4096)
                .map(|_| {
                    let b = &batches[rng.gen_range(0..batches.len())];
                    b[rng.gen_range(0..b.len())].0
                })
                .collect();
            let mut idx = 0usize;
            b.iter(|| {
                let lpa = lpas[idx % lpas.len()];
                idx += 1;
                black_box(table.lookup(black_box(lpa)))
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_learning, bench_lookup);
criterion_main!(benches);
