//! Sharded-translation-service equivalence invariants.
//!
//! **A 1-shard service is the unsharded path.** `ShardedMapping` with
//! one shard forwards every call verbatim, so a full SSD built on it is
//! *state-identical* to one built on the bare scheme — same flash
//! contents, same mapping bytes, same stats, same virtual clock
//! (cycle-exact, not merely convergent).
//!
//! **N shards hold the same groups.** Shard boundaries are aligned to
//! 256-LPA group boundaries and every learned structure is per-group,
//! so a 2/4/8-shard service answers every lookup identically to the
//! unsharded scheme and occupies the same memory, before and after
//! compaction — and the §3.1 bound (segments ≤ live pages) holds
//! *inside each shard* against only that shard's live LPAs.
//!
//! **Background compaction is state-transparent.** Promoting the
//! compaction sweep from a flush-path side effect to arbitrated
//! [`Command::Compact`] device traffic changes *when* the table is
//! compacted and *what time it costs*, never what the table answers or
//! what lands on flash: an inline-compaction blocking run and a
//! background-compaction device run end with identical flash digests
//! and identical reads.

#![expect(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "a test: a step that fails should fail it with its message"
)]

use leaftl_repro::core::{LeaFtlConfig, MappingScheme, ShardedMapping};
use leaftl_repro::flash::{BlockId, Lpa, Ppa};
use leaftl_repro::sim::{Device, DeviceConfig, LeaFtlScheme, QosSpec, Slo, Ssd, SsdConfig};
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::HashMap;

/// LPA space for scheme-level tests: 32 groups, so every shard count
/// under test owns several groups.
const SPACE: u64 = 8192;

/// One scheme-level operation.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Learn a batch of `len` mappings starting at `lpa` with `stride`,
    /// mapped to consecutive fresh PPAs (the allocator's shape).
    Learn { lpa: u64, len: u64, stride: u64 },
    /// Probe one address.
    Probe { lpa: u64 },
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0u64..SPACE, 1u64..300, 1u64..5)
            .prop_map(|(lpa, len, stride)| Op::Learn { lpa, len, stride }),
        2 => (0u64..SPACE).prop_map(|lpa| Op::Probe { lpa }),
    ]
}

fn scheme(gamma: u32) -> LeaFtlScheme {
    let mut s = LeaFtlScheme::new(
        LeaFtlConfig::default()
            .with_gamma(gamma)
            // Interval-gated maintenance off: growth must be identical
            // step for step, compaction is exercised explicitly.
            .with_compaction_interval(u64::MAX),
    );
    s.set_memory_budget(usize::MAX);
    s
}

fn sharded(shards: usize, gamma: u32) -> ShardedMapping<LeaFtlScheme> {
    let mut s = ShardedMapping::new(shards, SPACE, |_| scheme(gamma));
    s.set_memory_budget(usize::MAX);
    s
}

/// Applies one op to any scheme, advancing the shared PPA counter the
/// way a flush would.
fn apply<S: MappingScheme>(scheme: &mut S, op: Op, next_ppa: &mut u64) {
    match op {
        Op::Learn { lpa, len, stride } => {
            let batch: Vec<(Lpa, Ppa)> = (0..len)
                .map(|j| {
                    let addr = (lpa + j * stride) % SPACE;
                    let pair = (Lpa::new(addr), Ppa::new(*next_ppa));
                    *next_ppa += 1;
                    pair
                })
                .collect();
            scheme.update_batch(&batch);
        }
        Op::Probe { .. } => {}
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// 2/4/8-shard services answer every lookup like the unsharded
    /// scheme and occupy the same memory, before and after compaction,
    /// over arbitrary learn sequences.
    #[test]
    fn sharded_scheme_is_lookup_and_memory_equivalent(
        ops in vec(op(), 1..40),
        shards in prop_oneof![Just(2usize), Just(4), Just(8)],
        gamma in 0u32..5,
    ) {
        let mut plain = scheme(gamma);
        let mut split = sharded(shards, gamma);
        let mut ppa_plain = 10_000u64;
        let mut ppa_split = 10_000u64;
        for &o in &ops {
            apply(&mut plain, o, &mut ppa_plain);
            apply(&mut split, o, &mut ppa_split);
            if let Op::Probe { lpa } = o {
                prop_assert_eq!(
                    split.lookup(Lpa::new(lpa)),
                    plain.lookup(Lpa::new(lpa)),
                    "probe {} diverged", lpa
                );
            }
        }
        // Group-aligned range shards hold exactly the unsharded groups:
        // byte-identical memory and pointwise-identical translation.
        prop_assert_eq!(split.memory_bytes(), plain.memory_bytes());
        for lpa in (0..SPACE).step_by(7) {
            prop_assert_eq!(
                split.lookup(Lpa::new(lpa)),
                plain.lookup(Lpa::new(lpa)),
                "lpa {} diverged", lpa
            );
        }

        // ... and still after a full compaction sweep on both.
        split.compact_all();
        plain.maintain_shard(0);
        prop_assert_eq!(split.memory_bytes(), plain.memory_bytes());
        for lpa in (0..SPACE).step_by(13) {
            prop_assert_eq!(
                split.lookup(Lpa::new(lpa)),
                plain.lookup(Lpa::new(lpa)),
                "post-compaction lpa {} diverged", lpa
            );
        }
    }

    /// §3.1 shard-locally: after compaction, each shard's learned
    /// segments are bounded by the live LPAs *of that shard's range*
    /// (8 B per segment ≤ 8 B per live page — never worse than a page
    /// table over the shard's slice).
    #[test]
    fn memory_bound_holds_per_shard(
        ops in vec(op(), 1..40),
        shards in prop_oneof![Just(2usize), Just(4), Just(8)],
        gamma in 0u32..5,
    ) {
        let mut split = sharded(shards, gamma);
        let mut live: HashMap<usize, std::collections::HashSet<u64>> = HashMap::new();
        let mut next_ppa = 10_000u64;
        for &o in &ops {
            if let Op::Learn { lpa, len, stride } = o {
                for j in 0..len {
                    let addr = (lpa + j * stride) % SPACE;
                    live.entry(split.shard_of(Lpa::new(addr)))
                        .or_default()
                        .insert(addr);
                }
            }
            apply(&mut split, o, &mut next_ppa);
        }
        split.compact_all();
        for (index, shard) in split.shards().enumerate() {
            let live_pages = live.get(&index).map_or(0, |s| s.len());
            let segments = shard.table().segment_count();
            prop_assert!(
                segments <= live_pages,
                "shard {}: {} segments > {} live pages",
                index, segments, live_pages
            );
        }
    }
}

/// A simulator-level host action (mirrors `engine_equivalence`).
#[derive(Debug, Clone, Copy)]
enum Action {
    Write { lpa: u64, len: u64 },
    StridedWrite { lpa: u64, stride: u64, count: u64 },
    Read { lpa: u64 },
    Flush,
}

fn action() -> impl Strategy<Value = Action> {
    prop_oneof![
        4 => (0u64..1200, 1u64..12).prop_map(|(lpa, len)| Action::Write { lpa, len }),
        2 => (0u64..1000, 2u64..6, 2u64..16)
            .prop_map(|(lpa, stride, count)| Action::StridedWrite { lpa, stride, count }),
        4 => (0u64..1400).prop_map(|lpa| Action::Read { lpa }),
        1 => Just(Action::Flush),
    ]
}

/// Expands actions into page-granular ops; `None` is a flush barrier.
fn page_ops(actions: &[Action], logical: u64) -> Vec<Option<(bool, u64, u64)>> {
    let mut content = 0u64;
    let mut ops = Vec::new();
    for &a in actions {
        match a {
            Action::Write { lpa, len } => {
                for j in 0..len {
                    content += 1;
                    ops.push(Some((true, (lpa + j) % logical, content)));
                }
            }
            Action::StridedWrite { lpa, stride, count } => {
                for j in 0..count {
                    content += 1;
                    ops.push(Some((true, (lpa + j * stride) % logical, content)));
                }
            }
            Action::Read { lpa } => ops.push(Some((false, lpa % logical, 0))),
            Action::Flush => ops.push(None),
        }
    }
    ops
}

/// Full-device digest: per-page (content, reverse-mapped LPA, program
/// sequence) plus per-block erase counts.
#[allow(clippy::type_complexity)]
fn device_digest<S: MappingScheme + Clone>(
    ssd: &Ssd<S>,
) -> (Vec<Option<(u64, Option<Lpa>, u64)>>, Vec<u32>) {
    let geometry = *ssd.device().geometry();
    let pages = (0..geometry.total_pages())
        .map(|raw| {
            ssd.device()
                .read(Ppa::new(raw))
                .ok()
                .map(|view| (view.content, view.lpa, view.seq))
        })
        .collect();
    let erases = (0..geometry.blocks)
        .map(|raw| ssd.device().block(BlockId::new(raw)).erase_count())
        .collect();
    (pages, erases)
}

fn ssd_config(gamma: u32) -> SsdConfig {
    let mut config = SsdConfig::small_test();
    config.gamma = gamma;
    config
}

fn leaftl_config(gamma: u32) -> LeaFtlConfig {
    LeaFtlConfig::default()
        .with_gamma(gamma)
        .with_compaction_interval(300)
}

fn run_blocking<S: MappingScheme + Clone>(
    ssd: &mut Ssd<S>,
    ops: &[Option<(bool, u64, u64)>],
) -> Vec<Option<u64>> {
    let mut reads = Vec::new();
    for op in ops {
        match *op {
            Some((true, lpa, content)) => ssd.write(Lpa::new(lpa), content).expect("write"),
            Some((false, lpa, _)) => reads.push(ssd.read(Lpa::new(lpa)).expect("read")),
            None => ssd.flush().expect("flush"),
        }
    }
    reads
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// A 1-shard `ShardedMapping` SSD is state-identical — and
    /// cycle-exact — to the unsharded SSD over arbitrary workloads on
    /// the blocking path.
    #[test]
    fn one_shard_service_is_state_identical(
        actions in vec(action(), 1..60),
        gamma in 0u32..5,
    ) {
        let mut plain = Ssd::new(ssd_config(gamma), LeaFtlScheme::new(leaftl_config(gamma)));
        let logical = plain.config().logical_pages();
        let ops = page_ops(&actions, logical);
        let plain_reads = run_blocking(&mut plain, &ops);

        let mut one_shard = Ssd::new(
            ssd_config(gamma),
            ShardedMapping::new(1, logical, |_| LeaFtlScheme::new(leaftl_config(gamma))),
        );
        let shard_reads = run_blocking(&mut one_shard, &ops);

        prop_assert_eq!(&shard_reads, &plain_reads);
        prop_assert_eq!(device_digest(&one_shard), device_digest(&plain));
        prop_assert_eq!(one_shard.mapping_bytes(), plain.mapping_bytes());
        prop_assert_eq!(one_shard.now_ns(), plain.now_ns(), "must be cycle-exact");
        let (ss, ps) = (one_shard.stats(), plain.stats());
        prop_assert_eq!(ss.flash, ps.flash);
        prop_assert_eq!(ss.lookups, ps.lookups);
        prop_assert_eq!(ss.compactions, ps.compactions);
        prop_assert_eq!(ss.gc_runs, ps.gc_runs);
    }

    /// Background `Command::Compact` traffic converges to the same
    /// state as inline compaction: an inline blocking run and a
    /// background-compaction device run (any shard count, any depth)
    /// end with identical flash digests and identical reads — the
    /// sweep only ever costs time.
    #[test]
    fn background_compaction_matches_inline_state(
        actions in vec(action(), 10..60),
        shards in prop_oneof![Just(1usize), Just(2), Just(4), Just(8)],
        queue_depth in 1usize..17,
        gamma in 0u32..3,
        level_threshold in 2u32..5,
        segment_threshold in 32usize..200,
    ) {
        let build = |n: usize| {
            let config = ssd_config(gamma);
            let logical = config.logical_pages();
            Ssd::new(
                config,
                ShardedMapping::new(n, logical, |_| LeaFtlScheme::new(leaftl_config(gamma))),
            )
        };

        // Inline reference: compaction as flush-path side effect.
        let mut inline = build(shards);
        let logical = inline.config().logical_pages();
        let ops = page_ops(&actions, logical);
        let inline_reads = run_blocking(&mut inline, &ops);

        // Background run: compaction as arbitrated device traffic.
        let mut background = build(shards);
        let mut completions = Vec::new();
        {
            let mut device = Device::new(
                &mut background,
                DeviceConfig::single(queue_depth)
                    .background_compaction()
                    .with_compaction_thresholds(level_threshold, segment_threshold),
            );
            for op in &ops {
                match *op {
                    Some((true, lpa, content)) => {
                        device.submit_write(Lpa::new(lpa), content).expect("write");
                    }
                    Some((false, lpa, _)) => {
                        device.submit_read(Lpa::new(lpa)).expect("read");
                    }
                    None => {
                        // Flush barrier: drain, then a host flush, as
                        // the blocking sequence does.
                        completions.extend(device.drain().expect("drain"));
                        device
                            .submit_to(0, leaftl_repro::sim::IoRequest::flush())
                            .expect("flush");
                    }
                }
            }
            completions.extend(device.drain().expect("drain"));
        }
        completions.sort_by_key(|c| c.id);
        let bg_reads: Vec<Option<u64>> = completions
            .iter()
            .filter(|c| c.kind() == leaftl_repro::sim::IoKind::Read)
            .map(|c| c.data)
            .collect();

        prop_assert_eq!(&bg_reads, &inline_reads);
        prop_assert_eq!(device_digest(&background), device_digest(&inline));
        for lpa in (0..logical).step_by(17) {
            prop_assert_eq!(
                background.read(Lpa::new(lpa)).expect("read"),
                inline.read(Lpa::new(lpa)).expect("read"),
                "lpa {} diverged", lpa
            );
        }
    }

    /// A QD=1 device run over a sharded, DRAM-constrained (demand-paged,
    /// near-zero data cache) mapping is *cycle-exact* with the blocking
    /// interface at any shard count — not just state but the virtual
    /// clock itself. Reads run the same code on both sides (a burst of
    /// one; `tests/read_path_golden.rs` pins what that code does), so
    /// what this holds equal is everything around them: write and
    /// flush servicing, dispatch, completion retirement and the drain
    /// barriers.
    #[test]
    fn pipelined_device_at_qd1_is_cycle_exact(
        actions in vec(action(), 1..50),
        shards in prop_oneof![Just(1usize), Just(2), Just(4), Just(8)],
        gamma in 0u32..3,
    ) {
        let build = |n: usize| {
            let mut config = ssd_config(gamma);
            // Demand paging + translation traffic on most reads.
            config.dram_bytes = 2 * 1024;
            let logical = config.logical_pages();
            Ssd::new(
                config,
                ShardedMapping::new(n, logical, |_| LeaFtlScheme::new(leaftl_config(gamma))),
            )
        };
        let mut blocking = build(shards);
        let logical = blocking.config().logical_pages();
        let ops = page_ops(&actions, logical);
        let blocking_reads = run_blocking(&mut blocking, &ops);

        let mut queued = build(shards);
        let mut completions = Vec::new();
        {
            let mut device = Device::new(&mut queued, DeviceConfig::single(1));
            for op in &ops {
                match *op {
                    Some((true, lpa, content)) => {
                        device.submit_write(Lpa::new(lpa), content).expect("write");
                    }
                    Some((false, lpa, _)) => {
                        device.submit_read(Lpa::new(lpa)).expect("read");
                    }
                    None => {
                        completions.extend(device.drain().expect("drain"));
                        device
                            .submit_to(0, leaftl_repro::sim::IoRequest::flush())
                            .expect("flush");
                    }
                }
            }
            completions.extend(device.drain().expect("drain"));
        }
        completions.sort_by_key(|c| c.id);
        let queued_reads: Vec<Option<u64>> = completions
            .iter()
            .filter(|c| c.kind() == leaftl_repro::sim::IoKind::Read)
            .map(|c| c.data)
            .collect();

        prop_assert_eq!(&queued_reads, &blocking_reads);
        prop_assert_eq!(device_digest(&queued), device_digest(&blocking));
        prop_assert_eq!(queued.mapping_bytes(), blocking.mapping_bytes());
        prop_assert_eq!(
            queued.now_ns(),
            blocking.now_ns(),
            "queue depth 1 must be cycle-exact"
        );
        let (qs, bs) = (queued.stats(), blocking.stats());
        prop_assert_eq!(qs.flash, bs.flash);
        prop_assert_eq!(qs.lookups, bs.lookups);
        prop_assert_eq!(qs.cache_hits, bs.cache_hits);
        prop_assert_eq!(qs.translation_stall_ns, bs.translation_stall_ns);

        // QoS leg: an active controller on a guaranteed-class queue is
        // pure observation + arbitration here — one queue leaves the
        // arbiter no choices, a guaranteed head is never
        // admission-deferred, and synchronous GC keeps the pacing gate
        // inert — so the controller must not perturb the timeline by a
        // single cycle.
        let mut qos_run = build(shards);
        let mut qos_completions = Vec::new();
        {
            let mut device = Device::new(
                &mut qos_run,
                DeviceConfig::single(1)
                    .with_qos(QosSpec::new(vec![Slo::guaranteed(1_000.0)])),
            );
            for op in &ops {
                match *op {
                    Some((true, lpa, content)) => {
                        device.submit_write(Lpa::new(lpa), content).expect("write");
                    }
                    Some((false, lpa, _)) => {
                        device.submit_read(Lpa::new(lpa)).expect("read");
                    }
                    None => {
                        qos_completions.extend(device.drain().expect("drain"));
                        device
                            .submit_to(0, leaftl_repro::sim::IoRequest::flush())
                            .expect("flush");
                    }
                }
            }
            qos_completions.extend(device.drain().expect("drain"));
        }
        qos_completions.sort_by_key(|c| c.id);
        let qos_reads: Vec<Option<u64>> = qos_completions
            .iter()
            .filter(|c| c.kind() == leaftl_repro::sim::IoKind::Read)
            .map(|c| c.data)
            .collect();
        prop_assert_eq!(&qos_reads, &blocking_reads);
        prop_assert_eq!(device_digest(&qos_run), device_digest(&blocking));
        prop_assert_eq!(
            qos_run.now_ns(),
            blocking.now_ns(),
            "a QoS controller at queue depth 1 must stay cycle-exact"
        );
    }
}

/// Deterministic cross-check: on a pressured sliding-window workload a
/// multi-shard device actually dispatches background compactions
/// (non-trivial convergence), and per-shard sweeps only ever touch
/// their own range.
#[test]
fn background_compaction_fires_per_shard() {
    let config = ssd_config(0);
    let logical = config.logical_pages();
    let mut ssd = Ssd::new(
        config,
        ShardedMapping::new(4, logical, |_| {
            LeaFtlScheme::new(LeaFtlConfig::default().with_compaction_interval(u64::MAX))
        }),
    );
    let mut compacted_shards = std::collections::HashSet::new();
    {
        let mut device = Device::new(
            &mut ssd,
            DeviceConfig::single(8)
                .background_compaction()
                .with_compaction_thresholds(u32::MAX, 16),
        );
        for round in 0..12u64 {
            for i in 0..256u64 {
                let lpa = (round * 131 + i * 5) % logical;
                device
                    .submit_write(Lpa::new(lpa), round * 10_000 + i)
                    .unwrap();
            }
        }
        let completions = device.drain().unwrap();
        assert!(device.compact_dispatched() > 0, "compaction must fire");
        for c in &completions {
            if let leaftl_repro::sim::Command::Compact { shard } = c.command {
                assert!(shard < 4, "shard id in range");
                assert_eq!(c.queue, leaftl_repro::sim::COMPACT_QUEUE);
                compacted_shards.insert(shard);
            }
        }
    }
    assert!(
        compacted_shards.len() > 1,
        "writes span the LPA space: more than one shard must compact (got {compacted_shards:?})"
    );
}
