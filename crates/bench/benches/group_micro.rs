//! Micro-benchmarks of the translation kernels inside one 256-LPA
//! group, one case per kernel the flush, lookup and compaction paths
//! spend their time in:
//!
//! * the half-float codec (`f16::decode`, `f16::encode_floor`);
//! * `plr::fit` at γ ∈ {0, 4} over the pattern classes of Fig. 1: the
//!   paper's Fig. 6 run, a group written sequentially, every fourth
//!   offset, and gaps of one to three drawn at random;
//! * `Group::insert_piece`, `Group::compact` (dirty by one piece),
//!   `Group::clone` and `Group::lookup` (resolving on the top level and
//!   on the deepest one) on a group shaped like the ones an aged,
//!   skewed-overwrite device holds: 14 levels, about 96 segments.
//!
//! `insert_piece` and `compact` mutate, so each iteration works on a
//! fresh clone; `group_clone` is that clone alone, to subtract.

#![expect(missing_docs, reason = "criterion_group! emits a bare `pub fn`")]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use leaftl_core::{f16, plr, Group};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

const GAMMA: u32 = 4;

/// One run as the parallel (offsets, PPAs) slices `plr::fit` takes.
type Run = (Vec<u8>, Vec<u64>);

/// A few pages spread wide over the group: what a GC migration or a
/// skewed overwrite flush leaves of one group after LPA sorting. Wide
/// intervals with few members are what stacks levels.
fn sparse_run(rng: &mut StdRng, first_ppa: u64) -> Run {
    let mut offset = rng.gen_range(0u32..200);
    let mut run = Run::default();
    for ppa in first_ppa..first_ppa + rng.gen_range(1u64..6) {
        if offset > 255 {
            break;
        }
        run.0.push(offset as u8);
        run.1.push(ppa);
        offset += rng.gen_range(1u32..12);
    }
    run
}

fn insert_run(group: &mut Group, run: &Run) {
    for piece in plr::fit(&run.0, &run.1, GAMMA) {
        group.insert_piece(&piece);
    }
}

/// A swept group 14 levels deep holding about 96 segments, and the run
/// that dirties it next.
fn deep_group() -> (Group, Run) {
    let mut rng = StdRng::seed_from_u64(0x1eaf);
    let mut group = Group::new();
    let sequential: Run = ((0..=255u8).collect(), (0..256u64).collect());
    insert_run(&mut group, &sequential);
    let mut next_ppa = 1_000u64;
    for round in 1..100_000u32 {
        let run = sparse_run(&mut rng, next_ppa);
        next_ppa += 16;
        if round % 6 == 0 {
            group.compact();
            if group.level_count() == 14 && (90..=102).contains(&group.segment_count()) {
                return (group, run);
            }
        }
        insert_run(&mut group, &run);
    }
    unreachable!("the overwrite history reaches a 14-level, ~96-segment group");
}

fn bench_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("f16");
    // Every slope 1/s the learner rounds, and the patterns they decode from.
    let slopes: Vec<f64> = (1..=255u32).map(|s| 1.0 / s as f64).collect();
    let patterns: Vec<u16> = slopes.iter().map(|&k| f16::encode_floor(k)).collect();
    group.throughput(Throughput::Elements(slopes.len() as u64));
    group.bench_function("decode", |b| {
        b.iter(|| {
            patterns
                .iter()
                .map(|&bits| f16::decode(black_box(bits)))
                .sum::<f64>()
        })
    });
    group.bench_function("encode_floor", |b| {
        b.iter(|| {
            slopes
                .iter()
                .fold(0u16, |acc, &k| acc ^ f16::encode_floor(black_box(k)))
        })
    });
    group.finish();
}

/// Offsets from 0 with gaps of one to three drawn at random, on
/// consecutive PPAs: about 128 points no single line covers.
fn irregular_run(seed: u64) -> Run {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut offsets = Vec::new();
    let mut offset = 0u64;
    while offset <= 255 {
        offsets.push(offset as u8);
        offset += 1 + rng.gen_range(0..3u64);
    }
    let ppas = (40_000..).take(offsets.len()).collect();
    (offsets, ppas)
}

fn bench_fit(c: &mut Criterion) {
    let mut group = c.benchmark_group("plr_fit_run");
    let runs: [(&str, Run); 4] = [
        ("4_points", (vec![0, 1, 4, 5], vec![64, 65, 66, 67])),
        (
            "256_points",
            ((0..=255).collect(), (5_000..5_256).collect()),
        ),
        (
            "strided_4",
            ((0..=255).step_by(4).collect(), (9_000..9_064).collect()),
        ),
        ("irregular", irregular_run(3)),
    ];
    for (name, (offsets, ppas)) in &runs {
        group.throughput(Throughput::Elements(offsets.len() as u64));
        for gamma in [0u32, 4] {
            group.bench_function(BenchmarkId::new(*name, gamma), |b| {
                b.iter(|| {
                    plr::fit(black_box(offsets), black_box(ppas), gamma)
                        .fold(0u64, |acc, piece| acc ^ piece.segment.encode())
                })
            });
        }
    }
    group.finish();
}

fn bench_group(c: &mut Criterion) {
    let (swept, run) = deep_group();
    let mut dirty = swept.clone();
    insert_run(&mut dirty, &run);
    println!(
        "deep group: {} levels, {} segments, {} crb bytes; dirtied: {} levels, {} segments",
        swept.level_count(),
        swept.segment_count(),
        swept.crb_bytes(),
        dirty.level_count(),
        dirty.segment_count(),
    );

    c.bench_function("group_clone", |b| b.iter(|| black_box(&swept).clone()));
    c.bench_function("group_insert_piece", |b| {
        b.iter(|| {
            let mut group = black_box(&swept).clone();
            insert_run(&mut group, black_box(&run));
            group
        })
    });
    c.bench_function("group_compact_dirty_by_one", |b| {
        b.iter(|| {
            let mut group = black_box(&dirty).clone();
            group.compact();
            group
        })
    });

    // Offsets that resolve on the top level and on the deepest one.
    let resolving_on = |level: u32| -> Vec<u8> {
        (0..=255u8)
            .filter(|&x| {
                swept
                    .lookup(x)
                    .is_some_and(|hit| hit.levels_visited == level)
            })
            .collect()
    };
    let mut lookups = c.benchmark_group("group_lookup");
    for level in [1u32, 14] {
        let offsets = resolving_on(level);
        assert!(!offsets.is_empty(), "no offset resolves on level {level}");
        lookups.throughput(Throughput::Elements(offsets.len() as u64));
        lookups.bench_function(BenchmarkId::new("level", level), |b| {
            b.iter(|| {
                for &x in &offsets {
                    black_box(swept.lookup(black_box(x)));
                }
            })
        });
    }
    lookups.finish();
}

criterion_group!(benches, bench_codec, bench_fit, bench_group);
criterion_main!(benches);
