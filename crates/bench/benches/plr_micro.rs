//! Micro-benchmarks of the greedy PLR fitter on the pattern classes of
//! Fig. 1: sequential, strided, and irregular batches.

#![expect(missing_docs, reason = "criterion_group! emits a bare `pub fn`")]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use leaftl_core::plr;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

/// One run as the parallel (offsets, PPAs) slices `plr::fit` takes.
type Run = (Vec<u8>, Vec<u64>);

fn sequential(n: usize) -> Run {
    (0..n).map(|i| (i as u8, 5_000 + i as u64)).unzip()
}

fn strided(stride: usize) -> Run {
    (0..256 / stride)
        .map(|i| ((i * stride) as u8, 9_000 + i as u64))
        .unzip()
}

fn irregular(seed: u64) -> Run {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Run::default();
    let mut x = 0u64;
    let mut y = 40_000u64;
    while x <= 255 {
        out.0.push(x as u8);
        out.1.push(y);
        x += 1 + rng.gen_range(0..3u64);
        y += 1;
    }
    out
}

fn bench_fit(c: &mut Criterion) {
    let mut group = c.benchmark_group("plr_fit");
    let cases: Vec<(&str, Run)> = vec![
        ("sequential_256", sequential(256)),
        ("strided_4", strided(4)),
        ("irregular", irregular(3)),
    ];
    for (name, (offsets, ppas)) in &cases {
        group.throughput(Throughput::Elements(offsets.len() as u64));
        for gamma in [0u32, 4] {
            group.bench_with_input(
                BenchmarkId::new(*name, gamma),
                &(offsets, ppas, gamma),
                |b, (offsets, ppas, gamma)| {
                    // `fit` is lazy: fold over the pieces it yields.
                    b.iter(|| {
                        plr::fit(black_box(offsets), black_box(ppas), *gamma)
                            .fold(0u64, |acc, piece| acc ^ black_box(piece).segment.encode())
                    });
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_fit);
criterion_main!(benches);
