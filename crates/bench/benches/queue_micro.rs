//! Arbiter and multi-queue submit/complete overhead: what the device
//! front-end itself costs per command (virtual flash time is free —
//! this isolates queue bookkeeping + arbitration + mapping-path CPU).
//!
//! Four axes: single queue vs four tenant queues, round-robin vs
//! weighted vs host-priority arbitration, background-GC dispatch in
//! the loop (replenish/victim-selection overhead on a device at its
//! watermark), and a 1012-queue open-loop fleet with sparse arrivals —
//! the case where a pump iteration must not cost O(queues).

#![expect(missing_docs, reason = "criterion_group! emits a bare `pub fn`")]
#![expect(
    clippy::expect_used,
    reason = "a benchmark: a setup step that fails should stop it with its message"
)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use leaftl_core::LeaFtlConfig;
use leaftl_flash::Lpa;
use leaftl_sim::{
    Device, DeviceConfig, HostPriority, LeaFtlScheme, RoundRobin, Ssd, SsdConfig, Weighted,
};
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

fn arbiter_for(name: &str, queues: usize) -> DeviceConfig {
    let config = DeviceConfig::new(queues, 32);
    match name {
        "round-robin" => config.with_arbiter(Box::new(RoundRobin::new())),
        "weighted" => config.with_arbiter(Box::new(Weighted::new(
            (0..queues).map(|i| i as u32 + 1).collect(),
            1,
        ))),
        "host-priority" => config.with_arbiter(Box::new(HostPriority::new())),
        other => unreachable!("unknown arbiter {other}"),
    }
}

fn bench_arbiters(c: &mut Criterion) {
    let mut group = c.benchmark_group("queue_submit_complete");
    group.throughput(Throughput::Elements(BURST as u64));
    for &queues in &[1usize, 4] {
        for arbiter in ["round-robin", "weighted", "host-priority"] {
            let mut ssd = prefilled();
            let mut rng = StdRng::seed_from_u64(23);
            let lpas: Vec<Lpa> = (0..4096)
                .map(|_| Lpa::new(rng.gen_range(0u64..1024)))
                .collect();
            let mut cursor = 0usize;
            group.bench_function(
                BenchmarkId::new(format!("read_burst256_q{queues}"), arbiter),
                |b| {
                    b.iter(|| {
                        let mut device = Device::new(&mut ssd, arbiter_for(arbiter, queues));
                        for i in 0..BURST {
                            let lpa = lpas[cursor % lpas.len()];
                            cursor += 1;
                            device
                                .submit_to(i % queues, black_box(leaftl_sim::IoRequest::read(lpa)))
                                .expect("submit");
                        }
                        black_box(device.drain().expect("drain"))
                    })
                },
            );
        }
    }
    group.finish();
}

/// Background-GC dispatch overhead: a write burst on a device held at
/// its watermark, so every pump replenishes and arbitrates the GC
/// queue alongside host work.
fn bench_background_gc(c: &mut Criterion) {
    let mut group = c.benchmark_group("queue_background_gc");
    group.throughput(Throughput::Elements(BURST as u64));
    let mut config = SsdConfig::small_test();
    config.op_ratio = 0.5;
    config.gc_low_watermark = 0.30;
    config.gc_high_watermark = 0.40;
    let mut ssd = Ssd::new(
        config,
        LeaFtlScheme::new(LeaFtlConfig::default().with_gamma(4)),
    );
    let logical = ssd.config().logical_pages();
    for round in 0..3u64 {
        for i in 0..logical {
            ssd.write(Lpa::new(i), round).expect("prefill");
        }
    }
    ssd.flush().expect("flush");
    let mut cursor = 0u64;
    group.bench_function(
        BenchmarkId::new("write_burst256", "bg-host-priority"),
        |b| {
            b.iter(|| {
                let mut device = Device::new(
                    &mut ssd,
                    DeviceConfig::single(32)
                        .background_gc()
                        .with_arbiter(Box::new(HostPriority::new())),
                );
                for _ in 0..BURST {
                    cursor = (cursor + 7) % logical;
                    device
                        .submit_write(black_box(Lpa::new(cursor)), cursor)
                        .expect("submit");
                }
                black_box(device.drain().expect("drain"))
            })
        },
    );
    group.finish();
}

/// Fleet scale: 1012 tenant queues, open loop, weighted arbitration.
/// Arrivals are spread so that at any instant most heads lie in the
/// future and a handful are ready; per command the front-end runs a
/// dispatch iteration and, as often, one that only advances the clock
/// to the next arrival. What an iteration costs when most queues have
/// nothing to offer is what this group shows.
fn bench_fleet(c: &mut Criterion) {
    const QUEUES: usize = 1012;
    const OPS_PER_QUEUE: usize = 2;
    const MEAN_GAP_NS: u64 = 10_000;
    let mut group = c.benchmark_group("queue_fleet_open_loop");
    group.throughput(Throughput::Elements((QUEUES * OPS_PER_QUEUE) as u64));
    let mut ssd = prefilled();
    let mut rng = StdRng::seed_from_u64(29);
    // (queue, arrival offset, lpa), in arrival order; each queue's
    // arrivals ascend because the offsets do.
    let mut at_ns = 0u64;
    let arrivals: Vec<(usize, u64, Lpa)> = (0..QUEUES * OPS_PER_QUEUE)
        .map(|_| {
            at_ns += rng.gen_range(0..2 * MEAN_GAP_NS);
            let queue = rng.gen_range(0..QUEUES);
            (queue, at_ns, Lpa::new(rng.gen_range(0u64..1024)))
        })
        .collect();
    group.bench_function(BenchmarkId::new("read_q1012", "weighted"), |b| {
        b.iter(|| {
            // The SSD's clock carries over between iterations.
            let base_ns = ssd.now_ns();
            let mut device = Device::new(&mut ssd, arbiter_for("weighted", QUEUES));
            for &(queue, offset_ns, lpa) in &arrivals {
                device
                    .enqueue_to(
                        queue,
                        black_box(leaftl_sim::IoRequest::read(lpa).at(base_ns + offset_ns)),
                    )
                    .expect("enqueue");
            }
            black_box(device.drain().expect("drain"))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_arbiters, bench_background_gc, bench_fleet);
criterion_main!(benches);
