//! Submission/completion throughput of the device front-end at queue
//! depth 1/8/32: how many page requests the multi-queue device can
//! push through the software stack (no wall-clock flash latency — the
//! virtual clock is free; this measures the device + mapping-path CPU
//! cost per request). The `blocking` row issues the same reads one at
//! a time through `Ssd::read`, with no device in front: `qd1` over
//! `blocking` is what the front-end adds to a read at queue depth 1.

#![expect(missing_docs, reason = "criterion_group! emits a bare `pub fn`")]
#![expect(
    clippy::expect_used,
    reason = "a benchmark: a setup step that fails should stop it with its message"
)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use leaftl_core::LeaFtlConfig;
use leaftl_flash::Lpa;
use leaftl_sim::{Device, DeviceConfig, LeaFtlScheme, Ssd, SsdConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

const BURST: usize = 256;

/// A prefilled device: every read below hits flash-resident state.
fn prefilled() -> Ssd<LeaFtlScheme> {
    let mut config = SsdConfig::small_test();
    config.dram_bytes = 128 * 1024; // small cache: reads reach the FTL
    let mut ssd = Ssd::new(
        config,
        LeaFtlScheme::new(LeaFtlConfig::default().with_gamma(4)),
    );
    for i in 0..1024u64 {
        ssd.write(Lpa::new(i), i).expect("prefill write");
    }
    ssd.flush().expect("flush");
    ssd
}

fn bench_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_submit_complete");
    group.throughput(Throughput::Elements(BURST as u64));
    // The random reads every row issues, in order.
    let mut rng = StdRng::seed_from_u64(11);
    let lpas: Vec<Lpa> = (0..4096)
        .map(|_| Lpa::new(rng.gen_range(0u64..1024)))
        .collect();
    for &depth in &[1usize, 8, 32] {
        let mut ssd = prefilled();
        let mut cursor = 0usize;
        group.bench_function(
            BenchmarkId::new("read_burst256", format!("qd{depth}")),
            |b| {
                b.iter(|| {
                    let mut device = Device::new(&mut ssd, DeviceConfig::single(depth));
                    for _ in 0..BURST {
                        let lpa = lpas[cursor % lpas.len()];
                        cursor += 1;
                        device.submit_read(black_box(lpa)).expect("submit");
                    }
                    black_box(device.drain().expect("drain"))
                })
            },
        );
    }
    let mut ssd = prefilled();
    let mut cursor = 0usize;
    group.bench_function(BenchmarkId::new("read_burst256", "blocking"), |b| {
        b.iter(|| {
            for _ in 0..BURST {
                let lpa = lpas[cursor % lpas.len()];
                cursor += 1;
                black_box(ssd.read(black_box(lpa)).expect("read"));
            }
        })
    });
    group.finish();
}

criterion_group!(benches, bench_engine);
criterion_main!(benches);
