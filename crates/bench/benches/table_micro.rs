//! Lookup + residency-touch cost, and compaction and snapshot cost
//! after one flush, vs table size: the regression guard for "host work
//! is proportional to what an operation touches, not to the table".
//!
//! Every `LeaFtlScheme::lookup` runs a residency check
//! (`touch_group`) that consults the table's total footprint and — when
//! demand paging is active — the touched group's exact byte size.
//! Both are now O(1) incremental counters; before this change
//! `memory_bytes()` walked every group on every translation, so
//! per-lookup cost grew linearly with table size (the `shard_micro`
//! burst-32 "sharding win" was mostly that artifact).
//!
//! Four axes, each at 64, 4096 and 65 536 resident groups — the last is
//! the table of a 64 GiB device, 1024× the state of the first:
//!
//! * **resident** — the paper's headline case: the whole table fits in
//!   DRAM, `touch_group` is one footprint comparison. Per-lookup cost
//!   must be flat in group count (tens-to-hundreds of ns, Fig. 23b).
//! * **paged** — budget below the footprint: every lookup pays the
//!   LRU residency check with the exact per-group byte charge. Cost is
//!   per-group work (hash + list splice), still flat in group count.
//! * **compact after flush** — one 256-page flush into an already swept
//!   table, then a sweep. The sweep visits only the groups the flush
//!   learned into (the same sixteen clusters' worth at either size), so
//!   flush + sweep must be flat in group count; when every sweep walked
//!   every group it grew 64× with the table.
//! * **snapshot after flush** — one 256-page flush, then what a
//!   persistence point does to the mapping table
//!   (`MappingScheme::sync_checkpoint`): bring the recovery baseline it
//!   keeps up to date by re-pointing the groups the flush learned into.
//!   The flush copies those groups (the baseline still holds them) and
//!   the sync writes one slot each, so the whole iteration must be flat
//!   in group count: 65 536 within 2× of 64. The `whole_clone` variant
//!   beside it is the reference it replaced — clone the scheme and drop
//!   the previous clone, a pointer and a reference count per group —
//!   which grows with the table (and, when a clone copied every group's
//!   levels and CRB, grew 64× from 64 groups to 4096).

#![expect(missing_docs, reason = "criterion_group! emits a bare `pub fn`")]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use leaftl_core::LeaFtlConfig;
use leaftl_flash::{Lpa, Ppa};
use leaftl_sim::{LeaFtlScheme, MappingScheme};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

/// Group counts under test: per-operation cost must not grow with this.
const GROUP_COUNTS: [u64; 3] = [64, 4096, 65_536];

/// Builds a warmed monolithic scheme covering `groups` 256-LPA groups:
/// a sequential base layer plus scattered overwrites, the state shape a
/// mixed workload leaves behind.
fn warmed(groups: u64) -> LeaFtlScheme {
    let space = groups * 256;
    let mut scheme = LeaFtlScheme::new(LeaFtlConfig::default().with_gamma(4));
    scheme.set_memory_budget(usize::MAX);
    // A million pages at a time, so the largest table is not built
    // through a quarter-gigabyte batch.
    const CHUNK: u64 = 1 << 20;
    for start in (0..space).step_by(CHUNK as usize) {
        let base: Vec<(Lpa, Ppa)> = (start..space.min(start + CHUNK))
            .map(|i| (Lpa::new(i), Ppa::new(i)))
            .collect();
        scheme.update_batch_sorted(&base);
    }
    let mut rng = StdRng::seed_from_u64(11);
    for round in 0..4u64 {
        let mut batch: Vec<(Lpa, Ppa)> = (0..(space / 8).max(64))
            .map(|i| {
                (
                    Lpa::new(rng.gen_range(0u64..space)),
                    Ppa::new(space + round * space + i),
                )
            })
            .collect();
        batch.sort_by_key(|&(lpa, _)| lpa);
        batch.dedup_by_key(|&mut (lpa, _)| lpa);
        scheme.update_batch(&batch);
    }
    scheme
}

fn burst(space: u64, len: usize) -> Vec<Lpa> {
    let mut rng = StdRng::seed_from_u64(42);
    (0..len)
        .map(|_| Lpa::new(rng.gen_range(0u64..space)))
        .collect()
}

/// Fully resident table: lookup + the O(1) footprint check.
fn bench_lookup_resident(c: &mut Criterion) {
    let mut group = c.benchmark_group("table_lookup_resident");
    const LOOKUPS: usize = 1024;
    group.throughput(Throughput::Elements(LOOKUPS as u64));
    for &groups in &GROUP_COUNTS {
        let mut scheme = warmed(groups);
        let lpas = burst(groups * 256, LOOKUPS);
        group.bench_function(BenchmarkId::from_parameter(groups), |b| {
            b.iter(|| {
                for &lpa in &lpas {
                    black_box(scheme.lookup(black_box(lpa)));
                }
            })
        });
    }
    group.finish();
}

/// Demand-paged table: lookup + LRU residency touch with the exact
/// per-group byte charge (misses fault the group in, dirty victims
/// charge write-backs).
fn bench_lookup_paged(c: &mut Criterion) {
    let mut group = c.benchmark_group("table_lookup_paged");
    const LOOKUPS: usize = 1024;
    group.throughput(Throughput::Elements(LOOKUPS as u64));
    for &groups in &GROUP_COUNTS {
        let mut scheme = warmed(groups);
        // Half the footprint stays resident: every burst mixes hits,
        // faults and evictions.
        let budget = scheme.table().memory_bytes().total() / 2;
        scheme.set_memory_budget(budget);
        let lpas = burst(groups * 256, LOOKUPS);
        group.bench_function(BenchmarkId::from_parameter(groups), |b| {
            b.iter(|| {
                for &lpa in &lpas {
                    black_box(scheme.lookup(black_box(lpa)));
                }
            })
        });
    }
    group.finish();
}

/// Sorted 256-page flushes of sixteen 16-page clusters with irregular
/// gaps — the same number of groups touched whatever the table size.
fn clustered_flushes(space: u64, count: u64) -> Vec<Vec<(Lpa, Ppa)>> {
    let mut rng = StdRng::seed_from_u64(23);
    (0..count)
        .map(|flush| {
            let mut lpas: Vec<u64> = (0..16)
                .flat_map(|_| {
                    let mut lpa = rng.gen_range(0u64..space - 64);
                    (0..16)
                        .map(|_| {
                            lpa += rng.gen_range(1u64..4);
                            lpa
                        })
                        .collect::<Vec<_>>()
                })
                .collect();
            lpas.sort_unstable();
            lpas.dedup();
            lpas.iter()
                .zip(6 * space + flush * 256..)
                .map(|(&lpa, ppa)| (Lpa::new(lpa), Ppa::new(ppa)))
                .collect()
        })
        .collect()
}

/// One flush into a swept table, then the sweep the background
/// scheduler would dispatch (`maintain_shard` = `LeaFtlTable::compact`
/// + the residency re-sync).
fn bench_compact_after_flush(c: &mut Criterion) {
    let mut group = c.benchmark_group("table_compact_after_flush");
    for &groups in &GROUP_COUNTS {
        let mut scheme = warmed(groups);
        // The first sweep after warming is the full walk; time the
        // steady state behind it.
        scheme.maintain_shard(0);
        let flushes = clustered_flushes(groups * 256, 32);
        let mut next = 0usize;
        group.bench_function(BenchmarkId::from_parameter(groups), |b| {
            b.iter(|| {
                scheme.update_batch_sorted(black_box(&flushes[next % flushes.len()]));
                next += 1;
                black_box(scheme.maintain_shard(0))
            })
        });
    }
    group.finish();
}

/// One flush, then a persistence point's host work on the mapping
/// table (`Ssd::take_snapshot`): the kept baseline brought up to date.
/// `whole_clone` is what that replaced — `clone()` the scheme and drop
/// the clone the previous iteration kept.
fn bench_snapshot_after_flush(c: &mut Criterion) {
    let mut group = c.benchmark_group("table_snapshot_after_flush");
    for &groups in &GROUP_COUNTS {
        let mut scheme = warmed(groups);
        scheme.maintain_shard(0);
        let flushes = clustered_flushes(groups * 256, 32);
        let mut next = 0usize;
        let mut snapshot = scheme.clone();
        group.bench_function(BenchmarkId::from_parameter(groups), |b| {
            b.iter(|| {
                scheme.update_batch_sorted(black_box(&flushes[next % flushes.len()]));
                next += 1;
                scheme.sync_checkpoint(black_box(&mut snapshot));
            })
        });
        group.bench_function(BenchmarkId::new("whole_clone", groups), |b| {
            b.iter(|| {
                scheme.update_batch_sorted(black_box(&flushes[next % flushes.len()]));
                next += 1;
                snapshot = black_box(scheme.clone());
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_lookup_resident,
    bench_lookup_paged,
    bench_compact_after_flush,
    bench_snapshot_after_flush
);
criterion_main!(benches);
