//! What a flush costs in GC victim selection and the wear check, vs
//! block count: the regression guard for "a GC pass asks about blocks
//! in time proportional to what changed, not to the device".
//!
//! Every flush ends in `maybe_gc` (below the low watermark: select a
//! victim, collect, select again, …) and `wear_level_once`. Selection
//! reads the root of the victim index after re-reading the keys of the
//! blocks the flush touched, an empty selection is one comparison, and
//! the wear check leaves through the erase histogram — none of it
//! walks the blocks. Before the index, every selection walked every
//! block and asked the allocator to walk its 3 × 64 open slots for each,
//! and the wear check walked every block once more per flush.
//!
//! Two axes, each at 2 048 vs 32 768 blocks (16× the state, 64 pages a
//! block to keep the flash model's memory modest), both through the
//! blocking path (`Ssd::write`, one 256-page buffer per iteration) with
//! persistence points off — a GC pass ends in one, whose host cost is
//! `table_micro`'s to watch — and with the wear gap out of reach, so
//! that the wear check always takes its no-swap exit (a real swap still
//! walks the blocks for its pair):
//!
//! * **after flush** — an aged device (filled, a tenth of its pages
//!   overwritten at random, then run to steady state under a hot set):
//!   every iteration is one flush of 256 hot pages, the four or so GC
//!   passes that win its four blocks back, and the wear check.
//! * **nothing collectible** — a device filled front to back with the
//!   watermarks just under the over-provisioning ratio, rewriting one
//!   buffer's worth of pages: the old copies sit in blocks that are
//!   still open, so all a flush exposes to GC is the odd fully stale
//!   block that just closed, and every flush's GC loop ends on a
//!   selection that finds nothing.
//!
//! Per-iteration time must be flat in block count on both.

#![expect(missing_docs, reason = "criterion_group! emits a bare `pub fn`")]
#![expect(
    clippy::expect_used,
    reason = "a benchmark: a setup step that fails should stop it with its message"
)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use leaftl_flash::Lpa;
use leaftl_sim::{CheckpointMode, ExactPageMap, Ssd, SsdConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

/// Block counts under test: per-flush cost must not grow with this.
const BLOCK_COUNTS: [u64; 2] = [2_048, 32_768];
const BUFFER_PAGES: u64 = 256;

/// The logical space written once, front to back, on a device of
/// `blocks` 64-page blocks with the given GC watermarks.
fn filled(blocks: u64, low: f64, high: f64) -> Ssd<ExactPageMap> {
    let mut config = SsdConfig::paper_default();
    config.geometry.blocks = blocks;
    config.geometry.pages_per_block = 64;
    config.write_buffer_pages = BUFFER_PAGES as usize;
    config.dram_bytes = 0;
    config.gc_low_watermark = low;
    config.gc_high_watermark = high;
    config.checkpoint_mode = CheckpointMode::Disabled;
    config.wear_gap_threshold = u32::MAX;
    let mut ssd = Ssd::new(config, ExactPageMap::new());
    for lpa in 0..ssd.config().logical_pages() {
        ssd.write(Lpa::new(lpa), lpa).expect("fill");
    }
    ssd
}

fn bench_after_flush(c: &mut Criterion) {
    let mut group = c.benchmark_group("gc_after_flush");
    for &blocks in &BLOCK_COUNTS {
        let mut ssd = filled(blocks, 0.08, 0.0801);
        let logical = ssd.config().logical_pages();
        let mut rng = StdRng::seed_from_u64(31);
        // Age: stale pages scattered over every block, stopping short
        // of the watermark so that set-up runs no GC.
        for _ in 0..blocks * 64 / 10 {
            ssd.write(Lpa::new(rng.gen_range(0..logical)), 1)
                .expect("age");
        }
        // The hot set: sixteen buffers' worth, spread over the space.
        let hot: Vec<u64> = (0..16 * BUFFER_PAGES)
            .map(|_| rng.gen_range(0..logical))
            .collect();
        let mut flush = |ssd: &mut Ssd<ExactPageMap>| {
            for _ in 0..BUFFER_PAGES {
                let lpa = hot[rng.gen_range(0..hot.len())];
                ssd.write(Lpa::new(lpa), 2).expect("write");
            }
        };
        // Steady state: down to the watermark, and then long enough
        // for the hot set to have moved into blocks of its own.
        while ssd.stats().gc_runs == 0 {
            flush(&mut ssd);
        }
        for _ in 0..64 {
            flush(&mut ssd);
        }
        group.bench_function(BenchmarkId::from_parameter(blocks), |b| {
            b.iter(|| {
                flush(&mut ssd);
                black_box(ssd.stats().gc_runs)
            })
        });
    }
    group.finish();
}

fn bench_nothing_collectible(c: &mut Criterion) {
    let mut group = c.benchmark_group("gc_nothing_collectible");
    for &blocks in &BLOCK_COUNTS {
        // A freshly filled device holds 80 % valid data and a handful
        // of open blocks: below these watermarks, with nothing to give.
        let mut ssd = filled(blocks, 0.1995, 0.1999);
        let flush = |ssd: &mut Ssd<ExactPageMap>| {
            for lpa in 0..BUFFER_PAGES {
                ssd.write(Lpa::new(lpa), 3).expect("write");
            }
        };
        for _ in 0..64 {
            flush(&mut ssd);
        }
        let before = ssd.stats().clone();
        group.bench_function(BenchmarkId::from_parameter(blocks), |b| {
            b.iter(|| {
                flush(&mut ssd);
                black_box(ssd.stats().gc_runs)
            })
        });
        let stats = ssd.stats();
        assert_eq!(
            stats.flash.gc_programs, before.flash.gc_programs,
            "only fully stale blocks may have been collected"
        );
        assert!(
            ssd.device().erase_counts().filter(|&(_, c)| c == 0).count() as u64 > blocks / 2,
            "the filled blocks must have stayed put"
        );
    }
    group.finish();
}

criterion_group!(benches, bench_after_flush, bench_nothing_collectible);
criterion_main!(benches);
