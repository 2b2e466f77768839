//! What a host read touches, piece by piece: the regression guard for
//! "a read costs a handful of cache lines and no allocator call".
//!
//! * **flash_read_random** — `FlashDevice::read` at random PPAs of a
//!   fully programmed 1 GiB device (6 MB of page state, several times
//!   L2): one page entry and its block header per read.
//! * **lru_data_cache** — `LruCache` at data-cache size (1 024 4 KB
//!   pages): a hit (`get`, promotes), and the miss path's `insert` of a
//!   new page plus `pop_lru` of the coldest.
//! * **write_buffer_get** — `WriteBuffer::get` on a full 2 048-page
//!   buffer, hits and misses interleaved: every host read probes it
//!   first.
//! * **read_burst** — the whole read path on an aged, resident
//!   four-shard γ = 4 table: 32 random reads issued one by one through
//!   `Ssd::read` (bursts of one) and as one queue-depth-32 burst
//!   through a `Device`.
//! * **take_completions** — `Device::take_completions` over the 10⁵
//!   completions of a queue-depth-32 closed loop that never took any;
//!   producing them is kept out of the timing.

#![expect(missing_docs, reason = "criterion_group! emits a bare `pub fn`")]
#![expect(
    clippy::expect_used,
    reason = "a benchmark: a setup step that fails should stop it with its message"
)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use leaftl_core::{LeaFtlConfig, ShardedMapping};
use leaftl_flash::{FlashDevice, FlashGeometry, Lpa, Ppa};
use leaftl_sim::buffer::WriteBuffer;
use leaftl_sim::lru::LruCache;
use leaftl_sim::{CheckpointMode, Device, DeviceConfig, IoRequest, LeaFtlScheme, Ssd, SsdConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::{Duration, Instant};

const BURST: usize = 32;

fn bench_flash_read(c: &mut Criterion) {
    let geometry = FlashGeometry::with_capacity(1 << 30);
    let pages = geometry.total_pages();
    let mut device = FlashDevice::new(geometry);
    for ppa in 0..pages {
        device
            .program(Ppa::new(ppa), ppa, Some(Lpa::new(ppa)))
            .expect("program");
    }
    let mut rng = StdRng::seed_from_u64(31);
    let ppas: Vec<Ppa> = (0..1 << 16)
        .map(|_| Ppa::new(rng.gen_range(0..pages)))
        .collect();
    let mut cursor = 0usize;
    let mut group = c.benchmark_group("flash_read_random");
    group.throughput(Throughput::Elements(1));
    group.bench_function(BenchmarkId::new("read", "1GiB"), |b| {
        b.iter(|| {
            cursor = (cursor + 1) % ppas.len();
            black_box(device.read(black_box(ppas[cursor])).expect("programmed"))
        })
    });
    group.finish();
}

fn bench_lru(c: &mut Criterion) {
    const RESIDENT: u64 = 1024;
    let mut group = c.benchmark_group("lru_data_cache");
    group.throughput(Throughput::Elements(1));
    let mut lru: LruCache<Lpa, u64> = LruCache::new();
    for raw in 0..RESIDENT {
        lru.insert(Lpa::new(raw * 37), raw, 4096, false);
    }
    let mut rng = StdRng::seed_from_u64(37);
    let hits: Vec<Lpa> = (0..1 << 12)
        .map(|_| Lpa::new(rng.gen_range(0..RESIDENT) * 37))
        .collect();
    let mut cursor = 0usize;
    group.bench_function(BenchmarkId::new("get_hit", RESIDENT), |b| {
        b.iter(|| {
            cursor = (cursor + 1) % hits.len();
            black_box(lru.get(black_box(&hits[cursor])).copied())
        })
    });
    // Steady state of a cache that misses: one page in, the coldest
    // out, the population constant.
    let mut next = RESIDENT * 37;
    group.bench_function(BenchmarkId::new("insert_pop_lru", RESIDENT), |b| {
        b.iter(|| {
            next += 37;
            lru.insert(black_box(Lpa::new(next)), next, 4096, false);
            black_box(lru.pop_lru())
        })
    });
    group.finish();
}

fn bench_write_buffer(c: &mut Criterion) {
    const PAGES: u64 = 2048;
    let mut buffer = WriteBuffer::new();
    let mut rng = StdRng::seed_from_u64(41);
    while (buffer.len() as u64) < PAGES {
        let lpa = rng.gen_range(0u64..1 << 19);
        buffer.insert(Lpa::new(lpa), lpa);
    }
    // Reads over the same space: a buffered page now and then, mostly
    // not — what a read-mostly workload sees.
    let probes: Vec<Lpa> = (0..1 << 12)
        .map(|_| Lpa::new(rng.gen_range(0u64..1 << 19)))
        .collect();
    let mut cursor = 0usize;
    let mut group = c.benchmark_group("write_buffer_get");
    group.throughput(Throughput::Elements(1));
    group.bench_function(BenchmarkId::new("get", PAGES), |b| {
        b.iter(|| {
            cursor = (cursor + 1) % probes.len();
            black_box(buffer.get(black_box(probes[cursor])))
        })
    });
    group.finish();
}

/// A 256 MiB device behind a resident four-shard γ = 4 table, written
/// once and then overwritten at random for a third of its logical
/// space so GC has run and the groups are several levels deep; the
/// 64-page data cache makes nearly every read reach flash.
fn aged_ssd() -> Ssd<ShardedMapping<LeaFtlScheme>> {
    let mut config = SsdConfig::scaled(256 << 20);
    config.gamma = 4;
    config.dram_bytes = 1 << 20;
    config.checkpoint_mode = CheckpointMode::Disabled;
    let logical = config.logical_pages();
    let scheme = ShardedMapping::new(4, logical, |_| {
        LeaFtlScheme::new(LeaFtlConfig::default().with_gamma(4))
    });
    let mut ssd = Ssd::new(config, scheme);
    for lpa in 0..logical {
        ssd.write(Lpa::new(lpa), lpa).expect("fill");
    }
    let mut rng = StdRng::seed_from_u64(43);
    for round in 0..logical / 3 {
        let lpa = rng.gen_range(0..logical);
        ssd.write(Lpa::new(lpa), round).expect("age");
    }
    ssd.flush().expect("flush");
    ssd
}

fn bench_read_burst(c: &mut Criterion) {
    let mut ssd = aged_ssd();
    let logical = ssd.config().logical_pages();
    let mut rng = StdRng::seed_from_u64(47);
    let lpas: Vec<Lpa> = (0..1 << 14)
        .map(|_| Lpa::new(rng.gen_range(0..logical)))
        .collect();
    let mut cursor = 0usize;
    let mut group = c.benchmark_group("read_burst");
    group.throughput(Throughput::Elements(BURST as u64));
    group.bench_function(BenchmarkId::new("aged_4shard", 1), |b| {
        b.iter(|| {
            for _ in 0..BURST {
                cursor = (cursor + 1) % lpas.len();
                black_box(ssd.read(black_box(lpas[cursor])).expect("read"));
            }
        })
    });
    group.bench_function(BenchmarkId::new("aged_4shard", BURST), |b| {
        b.iter(|| {
            let mut device = Device::new(&mut ssd, DeviceConfig::single(BURST));
            for _ in 0..BURST {
                cursor = (cursor + 1) % lpas.len();
                device
                    .enqueue_to(0, black_box(IoRequest::read(lpas[cursor])))
                    .expect("enqueue");
            }
            black_box(device.drain().expect("drain"))
        })
    });
    group.finish();
}

fn bench_take_completions(c: &mut Criterion) {
    const COMPLETIONS: usize = 100_000;
    let mut ssd = aged_ssd();
    let logical = ssd.config().logical_pages();
    let mut rng = StdRng::seed_from_u64(53);
    let lpas: Vec<Lpa> = (0..COMPLETIONS)
        .map(|_| Lpa::new(rng.gen_range(0..logical)))
        .collect();
    let mut group = c.benchmark_group("take_completions");
    group.throughput(Throughput::Elements(COMPLETIONS as u64));
    group.bench_function(BenchmarkId::new("qd32_closed_loop", COMPLETIONS), |b| {
        b.iter_custom(|iters| {
            let mut taken = Duration::ZERO;
            for _ in 0..iters {
                let mut device = Device::new(&mut ssd, DeviceConfig::single(BURST));
                for &lpa in &lpas {
                    device.submit_read(lpa).expect("submit");
                }
                // All but the last partial queue depth has been
                // dispatched and waits, in dispatch order, to be taken.
                let start = Instant::now();
                let done = device.take_completions();
                taken += start.elapsed();
                assert!(done.len() > COMPLETIONS - BURST);
                black_box(done);
                device.drain().expect("drain");
            }
            taken
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_flash_read,
    bench_lru,
    bench_write_buffer,
    bench_read_burst,
    bench_take_completions
);
criterion_main!(benches);
