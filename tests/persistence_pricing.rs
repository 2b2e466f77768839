//! What a `DramSnapshot` persistence point charges, seen from outside
//! the simulator crate.
//!
//! A point programs the groups remapped since the previous one, each
//! priced at the table's mean bytes per mapped group
//! (`MappingScheme::snapshot_bytes` over the groups ever mapped). Two
//! things rest on that choice and are held here:
//!
//! * A scheme behind a wrapper that forwards the trait's methods — the
//!   way `benchmark/`'s `Timed<S>` wraps the traced child's — simulates
//!   the very same device as the bare scheme. The price is taken
//!   through a method such a wrapper forwards and the changed groups
//!   are counted by the `Ssd`, so nothing new has to pass through the
//!   wrapper.
//! * The mean undercharges: hot groups are the deep ones. The second
//!   test measures by how much on a `blocking_mix`-shaped run — the
//!   exact bytes of every remapped group, summed at every point by a
//!   wrapper that can see them — and prints the ratio. Pricing by the
//!   exact bytes waits on `Timed<S>` forwarding
//!   `MappingScheme::sync_checkpoint` (ROADMAP direction 1).

#![expect(
    clippy::expect_used,
    reason = "a test: a step that fails should fail it with its message"
)]

use leaftl_repro::core::{LeaFtlConfig, MapCost, MappingLookup, ShardPressure};
use leaftl_repro::flash::{Lpa, Ppa};
use leaftl_repro::sim::{CheckpointMode, HostOp, LeaFtlScheme, MappingScheme, Ssd, SsdConfig};
use leaftl_repro::workloads::ProfileParams;
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;

const GAMMA: u32 = 4;

/// `blocking_mix` at a sixteenth of its capacity: demand-paged LeaFTL,
/// a 256-page write buffer, inline compaction, synchronous GC and the
/// default checkpoint mode.
fn config() -> SsdConfig {
    let mut config = SsdConfig::scaled(128 << 20);
    config.stripe_pages = 32;
    config.dram_bytes = 20 << 10;
    config.write_buffer_pages = 256;
    config.compaction_interval_writes = 15_000;
    config.gamma = GAMMA;
    assert_eq!(config.checkpoint_mode, CheckpointMode::DramSnapshot);
    config
}

fn leaftl() -> LeaFtlScheme {
    LeaFtlScheme::new(
        LeaFtlConfig::default()
            .with_gamma(GAMMA)
            .with_compaction_interval(config().compaction_interval_writes),
    )
}

/// The page operations of `blocking_mix`'s profile (MSR-hm-shaped:
/// write-heavy, short runs, some strides, a fifth of the space).
fn page_ops(logical: u64, seed: u64, count: usize) -> Vec<(Lpa, bool)> {
    let profile = ProfileParams {
        name: "perf-blocking-mix".to_string(),
        read_ratio: 0.35,
        seq_fraction: 0.45,
        stride_fraction: 0.15,
        mean_run_pages: 12,
        zipf_theta: 0.90,
        working_set: 0.20,
    };
    profile
        .generator(logical, seed)
        .flat_map(|op| {
            let (lpa, pages, write) = match op {
                HostOp::Read { lpa, pages } => (lpa, pages, false),
                HostOp::Write { lpa, pages } => (lpa, pages, true),
            };
            (0..pages as u64).map(move |i| (Lpa::new((lpa.raw() + i) % logical), write))
        })
        .take(count)
        .collect()
}

/// Prefills the logical space, then replays `ops` one blocking call at
/// a time. Returns every read's value and the clock after every call.
fn drive<S: MappingScheme + Clone>(ssd: &mut Ssd<S>, ops: &[(Lpa, bool)]) -> Vec<(u64, u64)> {
    let logical = ssd.config().logical_pages();
    for lpa in 0..logical {
        ssd.write(Lpa::new(lpa), lpa).expect("prefill");
    }
    let mut seen = Vec::with_capacity(ops.len());
    for (index, &(lpa, write)) in ops.iter().enumerate() {
        let value = if write {
            ssd.write(lpa, 1 << 40 | index as u64).expect("write");
            0
        } else {
            ssd.read(lpa).expect("read").expect("prefilled")
        };
        seen.push((value, ssd.now_ns()));
    }
    ssd.flush().expect("flush");
    seen
}

/// Forwards the methods `benchmark/src/spans.rs`'s `Timed<S>` forwards
/// — every one but `sync_checkpoint` — and adds nothing.
#[derive(Debug, Clone)]
struct Forwarding<S>(S);

impl<S: MappingScheme> MappingScheme for Forwarding<S> {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn update_batch(&mut self, pairs: &[(Lpa, Ppa)]) -> MapCost {
        self.0.update_batch(pairs)
    }

    fn update_batch_sorted(&mut self, pairs: &[(Lpa, Ppa)]) -> MapCost {
        self.0.update_batch_sorted(pairs)
    }

    fn lookup(&mut self, lpa: Lpa) -> (Option<MappingLookup>, MapCost) {
        self.0.lookup(lpa)
    }

    fn lookup_batch(&mut self, lpas: &[Lpa]) -> Vec<(Option<MappingLookup>, MapCost)> {
        self.0.lookup_batch(lpas)
    }

    fn lookup_is_pure(&self) -> bool {
        self.0.lookup_is_pure()
    }

    fn memory_bytes(&self) -> usize {
        self.0.memory_bytes()
    }

    fn set_memory_budget(&mut self, bytes: usize) {
        self.0.set_memory_budget(bytes);
    }

    fn maintain(&mut self) -> (MapCost, bool) {
        self.0.maintain()
    }

    fn note_sibling_writes(&mut self, writes: u64) {
        self.0.note_sibling_writes(writes);
    }

    fn learn_cost_ns(&self, batch_len: usize) -> u64 {
        self.0.learn_cost_ns(batch_len)
    }

    fn snapshot_bytes(&self) -> usize {
        self.0.snapshot_bytes()
    }

    fn checkpoint_footprint(&self) -> (usize, usize) {
        self.0.checkpoint_footprint()
    }

    fn shard_count(&self) -> usize {
        self.0.shard_count()
    }

    fn shard_of(&self, lpa: Lpa) -> usize {
        self.0.shard_of(lpa)
    }

    fn shard_pressure(&self, shard: usize) -> ShardPressure {
        self.0.shard_pressure(shard)
    }

    fn maintain_shard(&mut self, shard: usize) -> (MapCost, bool) {
        self.0.maintain_shard(shard)
    }

    fn compact_cost_ns(&self, shard: usize) -> u64 {
        self.0.compact_cost_ns(shard)
    }
}

/// The traced-child contract, held inside tier-1: a scheme behind a
/// forwarding wrapper yields the bare scheme's statistics, utilization,
/// read values and completion times, bit for bit, on a GC-heavy
/// `DramSnapshot` run.
#[test]
fn a_forwarding_wrapper_simulates_the_same_device() {
    let logical = config().logical_pages();
    let ops = page_ops(logical, 7, 30_000);
    let mut bare = Ssd::new(config(), leaftl());
    let mut wrapped = Ssd::new(config(), Forwarding(leaftl()));
    let bare_seen = drive(&mut bare, &ops);
    let wrapped_seen = drive(&mut wrapped, &ops);

    let stats = bare.stats();
    assert!(stats.gc_runs > 100, "{}", stats.gc_runs);
    assert!(stats.flash.translation_programs > stats.gc_runs);
    assert!(bare_seen == wrapped_seen, "a read or a completion time");
    assert_eq!(format!("{:?}", wrapped.stats()), format!("{stats:?}"));
    assert_eq!(
        format!("{:?}", wrapped.utilization()),
        format!("{:?}", bare.utilization())
    );
    assert_eq!(wrapped.now_ns(), bare.now_ns());
}

/// What one persistence point had to write of the mapping table.
#[derive(Debug, Clone, Copy)]
struct Point {
    /// Groups remapped since the previous point.
    groups: usize,
    /// Their share of the table at its mean bytes per mapped group.
    mean_bytes: usize,
    /// Their own bytes.
    exact_bytes: usize,
}

/// LeaFTL that keeps, beside the `Ssd`, its own list of the groups
/// remapped since the last persistence point, and at each point (the
/// one call of `sync_checkpoint`) records what they weigh.
#[derive(Debug, Clone)]
struct Weighing {
    inner: LeaFtlScheme,
    mapped: BTreeSet<u64>,
    remapped: BTreeSet<u64>,
    points: Rc<RefCell<Vec<Point>>>,
}

impl Weighing {
    fn note(&mut self, pairs: &[(Lpa, Ppa)]) {
        for &(lpa, _) in pairs {
            self.mapped.insert(lpa.group());
            self.remapped.insert(lpa.group());
        }
    }
}

impl MappingScheme for Weighing {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn update_batch(&mut self, pairs: &[(Lpa, Ppa)]) -> MapCost {
        self.note(pairs);
        self.inner.update_batch(pairs)
    }

    fn update_batch_sorted(&mut self, pairs: &[(Lpa, Ppa)]) -> MapCost {
        self.note(pairs);
        self.inner.update_batch_sorted(pairs)
    }

    fn lookup(&mut self, lpa: Lpa) -> (Option<MappingLookup>, MapCost) {
        self.inner.lookup(lpa)
    }

    fn memory_bytes(&self) -> usize {
        self.inner.memory_bytes()
    }

    fn set_memory_budget(&mut self, bytes: usize) {
        self.inner.set_memory_budget(bytes);
    }

    fn maintain(&mut self) -> (MapCost, bool) {
        self.inner.maintain()
    }

    fn learn_cost_ns(&self, batch_len: usize) -> u64 {
        self.inner.learn_cost_ns(batch_len)
    }

    fn snapshot_bytes(&self) -> usize {
        self.inner.snapshot_bytes()
    }

    fn sync_checkpoint(&mut self, checkpoint: &mut Self) {
        let table = self.inner.table();
        let exact_bytes = self.remapped.iter().map(|&g| table.group_bytes(g)).sum();
        let mean_bytes =
            (self.snapshot_bytes() * self.remapped.len()).div_ceil(self.mapped.len().max(1));
        self.points.borrow_mut().push(Point {
            groups: self.remapped.len(),
            mean_bytes,
            exact_bytes,
        });
        self.remapped.clear();
        self.inner.sync_checkpoint(&mut checkpoint.inner);
    }
}

/// The `persist` instants of a Chrome trace export, as
/// `(groups, blocks, pages)`.
fn persist_instants(json: &str) -> Vec<(usize, usize, usize)> {
    let field = |line: &str, key: &str| -> usize {
        let at = line.find(key).unwrap_or_else(|| panic!("{key} in {line}")) + key.len();
        let digits: String = line[at..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        digits.parse().expect("an integer argument")
    };
    json.lines()
        .filter(|line| line.contains("\"name\":\"persist\""))
        .map(|line| {
            assert!(line.contains("\"mode\":\"dram_snapshot\""), "{line}");
            (
                field(line, "\"groups\":"),
                field(line, "\"blocks\":"),
                field(line, "\"pages\":"),
            )
        })
        .collect()
}

/// Mean-priced against exact: every point of a `blocking_mix`-shaped
/// run charges `ceil((mean share + 4 B × touched blocks) / page)`, the
/// groups the `Ssd` counted are the groups the scheme saw remapped, and
/// over the run the charge is no more than the groups' own bytes would
/// have come to. Prints the two totals and their ratio.
#[test]
fn the_mean_priced_write_back_is_no_more_than_the_exact_one() {
    let config = config();
    let page_size = config.geometry.page_size as usize;
    let logical = config.logical_pages();
    let ops = page_ops(logical, 7, 30_000);
    let points = Rc::new(RefCell::new(Vec::new()));
    let scheme = Weighing {
        inner: leaftl(),
        mapped: BTreeSet::new(),
        remapped: BTreeSet::new(),
        points: Rc::clone(&points),
    };
    let mut ssd = Ssd::new(config, scheme);
    ssd.attach_trace();
    drive(&mut ssd, &ops);
    let table = ssd.scheme().inner.table();
    let by_group: usize = table.group_ids().map(|g| table.group_bytes(g)).sum();
    assert_eq!(by_group, ssd.scheme().snapshot_bytes());
    let trace = ssd.take_trace().expect("attached above");
    let instants = persist_instants(&trace.export_chrome_json());
    let points = points.borrow();
    assert_eq!(instants.len(), points.len());
    assert_eq!(instants.len() as u64, ssd.stats().gc_runs);
    assert!(instants.len() > 100, "{}", instants.len());

    let (mut charged, mut exact) = (0usize, 0usize);
    for (&(groups, blocks, pages), point) in instants.iter().zip(points.iter()) {
        assert_eq!(groups, point.groups);
        assert_eq!(pages, (point.mean_bytes + 4 * blocks).div_ceil(page_size));
        charged += pages;
        exact += (point.exact_bytes + 4 * blocks).div_ceil(page_size);
    }
    // The prefill's first point wrote the whole table, at either price.
    assert_eq!(points[0].mean_bytes, points[0].exact_bytes);
    let programs = ssd.stats().flash.total_programs();
    println!(
        "{} points: {charged} pages charged at the table's mean, {exact} at the groups' own \
         bytes ({:.2}x) of {programs} programs; WAF {:.4} against {:.4}",
        points.len(),
        exact as f64 / charged as f64,
        ssd.stats().waf(),
        (programs + (exact - charged) as u64) as f64 / ssd.stats().host_writes as f64,
    );
    assert!(charged <= exact, "{charged} > {exact}");
}
