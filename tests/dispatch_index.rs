//! Golden test for the device's dispatch index.
//!
//! `Device::pump` keeps its ready set, future-arrival heap, pending
//! counter and admission accounting incrementally instead of scanning
//! every host queue per iteration. The constants below were recorded
//! on the commit *before* that rewrite (full per-iteration scan), so
//! they pin the index to the scan's behaviour: same picks, same
//! dispatch times, same admission wait to the nanosecond.
//!
//! The scenario is a small fixed-seed open-loop fleet on a pre-aged,
//! GC-pressured device: 72 queues (the ready bitset crosses a word
//! boundary), guaranteed and best-effort readers and writers, so all
//! three readiness classes are populated and both admission gates (the
//! best-effort slot cap and the GC-floor margin) open and close while
//! queues sit behind them. The request stream comes from a generator
//! local to this file: the constants depend on `leaftl_sim` alone.
//!
//! The four fleet records were taken again when a `DramSnapshot`
//! persistence point began to program what changed instead of the whole
//! table (here two or three pages after a GC pass, not always three):
//! the dies are busy for less time behind every background migration,
//! so dispatch and completion times move. Round-robin and host-priority
//! fleets: the times only — completion, dispatch and background-GC
//! dispatch counts, every value read, GC pages moved and erases are the
//! first recording's. Weighted + QoS fleet: the times, the admission
//! waits and the controller's tick count (264 → 262) with them, and —
//! its 72 queues race on shared pages — which write some reads saw; the
//! counts are the first recording's. The 1012-queue drain-order digest
//! hashes times and nothing else moved in it.
//!
//! The weighted + QoS record was taken again when the controller stopped
//! retuning arbiter weights at every control tick (the device now sets
//! `QosController::BASE_WEIGHT` on every queue once): completions
//! 7 069 → 7 065, background GC dispatches 169 → 165, control ticks
//! 262 → 248, the admission waits and the completion digest moved. The
//! other three records run no controller and did not move.
//!
//! All four records — the three fleets and the 1012-queue drain-order
//! digest — were taken again when the hard floor stopped being
//! configurable and this file stopped raising it to the low watermark
//! (0.08): every device now stalls host writes at the simulator's one
//! floor, 2 % of all blocks free. Completions 7 067 → 7 065 (round
//! robin), 7 068 → 7 064 (host priority) and 7 065 → 7 061 (weighted +
//! QoS, with control ticks 248 → 265 and longer admission waits), the
//! completion digests and the drain-order digest moved. Each record
//! equals what the previous simulator records with the floor at 0.02.
//!
//! All four were taken again when a host or GC block began to close
//! with its last page and the host stream to fill its open blocks
//! before opening more, which also moved the `small_test()` lines to
//! 4.7 % / 6.7 % of all blocks free. Background GC dispatches
//! 165 → 156 (round robin), 164 → 158 (host priority) and 161 → 152
//! (weighted + QoS, control ticks 265 → 240, shorter admission waits),
//! completions and the drain-order count (7 124 → 7 114) with them.
//!
//! All four were taken again when background GC stopped selecting a
//! batch of victims at the low line and holding them until each
//! dispatched: each migration now takes the block the synchronous
//! collector would pick when it dispatches, and collection runs until
//! the free fraction is back at the high line. Background GC
//! dispatches 156 → 155 (round robin), 158 → 156 (host priority) and
//! 152 → 154 (weighted + QoS, control ticks 240 → 255, shorter
//! admission waits); completions, dispatch counts, the completion
//! digests and the drain-order record (7 114 → 7 119) move with them.
//!
//! All four were taken again when a background GC dispatch began to run
//! one collection to the high line, placed on the dies phase by phase
//! (every read, then every program, then every erase), and to retire
//! one migration per pass: passes of one collection now share a
//! dispatch time and finish sooner. Background GC dispatches 155 → 156
//! (round robin, completions and dispatches 7 055 → 7 056); host
//! priority keeps its counts; weighted + QoS keeps its counts, with
//! control ticks 255 → 254 and longer admission waits. The completion
//! digests and the drain-order digest (7 119 commands, as before) move.
//!
//! All four were taken again when the per-shard translation-CPU
//! timelines went: a lookup now runs from its request's map-ready time
//! instead of queueing behind the lookups granted before it on the
//! device's one translation CPU, so reads complete sooner. Round robin
//! and host priority keep their counts; weighted + QoS, whose controller
//! ticks and admission gates see the earlier completions, goes to
//! 7 057 completions and dispatches (7 054), 157 background GC
//! dispatches (154), 252 control ticks (254) and longer admission
//! waits. The completion digests and the drain-order digest (7 119
//! commands, as before) move.
//!
//! All four were taken again when a flush stopped reserving its
//! programs on the dies up front: they wait in a per-die queue, host
//! reads go ahead of them, and the flush's pages are read from DRAM
//! until the next flush waits for the programs. Reads complete sooner,
//! so the background GC that follows them starts at other times and
//! takes other turns: round robin 7 059 completions and dispatches
//! (159 of them GC; 7 056 and 156 before), host priority 7 055 (155),
//! weighted + QoS 7 054 (154; 7 057 and 157 before) with 236 control
//! ticks (252) and shorter admission waits. Every completion digest
//! moves, and the drain-order digest now hashes 7 120 commands (7 119).
//!
//! All four were taken again when the write buffer and the flushed
//! pages began to share `2 × write_buffer_pages` DRAM slots: a flush no
//! longer waits for the previous one's programs to drain, and a write
//! that finds every slot held waits for one program to end. Writes hold
//! the device for less time, so background GC takes other turns: round
//! robin 7 055 completions and dispatches (155 of them GC; 7 059 and
//! 159 before), host priority keeps 7 055 (155), weighted + QoS 7 052
//! (152; 7 054 and 154 before) with 216 control ticks (236) and shorter
//! admission waits. Every completion digest moves, and the drain-order
//! digest now hashes 7 121 commands (7 120).
//!
//! All four were taken again when a data-cache hit on a page still being
//! read from flash began to complete when that read ends (not one DRAM
//! access after its dispatch), and an approximate segment began to store
//! the (K, I) that predicts the most of its members exactly (fewer
//! misprediction reads). Round robin and host priority keep their counts;
//! weighted + QoS completes 7 052 → 7 055 commands, with background GC
//! dispatches 152 → 155, control ticks 216 → 230 and longer admission
//! waits. The completion digests and the drain-order digest (7 121
//! commands, as before) move.
//!
//! All four were taken again when a flush stopped copying its pages
//! into the read cache: reads that flushes used to evict hit DRAM, so
//! background GC takes other turns (alone, the change that no read
//! reaches a page whose program is queued moves none). Weighted + QoS
//! completes 7 055 → 7 053 commands, GC dispatches 155 → 153, control
//! ticks 230 → 211; the other two keep their counts. Every digest moves.
//!
//! The three fleet records were taken again when the host stream began
//! to keep one lane of open blocks per flush the write pool holds (the
//! `small_test()` device is not capped, so it keeps two): consecutive
//! flushes now alternate between two open blocks on two dies, so the
//! free space GC finds and the times it runs move. Round robin 7 055 →
//! 7 061 completions and dispatches (GC 155 → 161); host priority keeps
//! 7 055 (155); weighted + QoS 7 053 → 7 059 (GC 153 → 159) with control
//! ticks 211 → 220 and longer admission waits. The completion digests
//! move; the drain-order digest (7 121 commands) does not.
//!
//! Three records were taken again when greedy began to balance a
//! collection's victims across dies (from a collection's second pass
//! on, a candidate within Δ valid pages of the fewest is taken from the
//! die that has given the collection the fewest victims): background
//! collections pick other blocks and end at other times. Round robin
//! keeps 7 061 completions and dispatches (161 of them GC); host
//! priority 7 055 → 7 056 (GC 155 → 156); the drain-order digest now
//! hashes 7 122 commands (7 121). The completion digests move. The
//! weighted + QoS fleet paces background GC to one pass per collection,
//! where the pick is plain greedy's, and kept its record.
//!
//! All four records were taken again when a synchronous collection
//! began to go ahead of the flush programs queued on its dies, and a
//! `DramSnapshot` point's pages began to continue over the dies from
//! where the previous point's ended instead of starting on die 0. The
//! ageing writes of `aged_ssd` collect synchronously and every
//! collection of the fleets persists a point, so the fleets start from
//! another clock and their collections end at other times: round robin
//! completes 7 061 → 7 056 commands (GC 161 → 156); host priority keeps
//! 7 056 (156); weighted + QoS 7 059 → 7 058 (GC 159 → 158) with
//! control ticks 220 → 217 and other admission waits; the drain-order
//! fleet keeps 7 122 commands. Every digest moves.
//!
//! The proptest at the end holds the three bitset arbitration policies
//! to a slice-walk transcription of the algorithms they replaced, on
//! views drawn as gated admission classes the way the device forms
//! them.

#![expect(
    clippy::expect_used,
    reason = "a test: a step that fails should fail it with its message"
)]

mod support;

use support::{fnv1a, Rng, FNV_OFFSET};

use leaftl_repro::flash::Lpa;
use leaftl_repro::sim::{
    AdmissionClass, Arbiter, ArbiterView, Device, DeviceConfig, ExactPageMap, HostPriority,
    IoRequest, QosControllerConfig, QosSpec, ReadySet, RoundRobin, Slo, Source, Ssd, SsdConfig,
    Weighted,
};
use proptest::collection::vec;
use proptest::prelude::*;

const QUEUES: usize = 72;
const GUARANTEED_READERS: usize = 4;
const GUARANTEED_WRITERS: usize = 2;
const BEST_EFFORT_WRITERS: usize = 34;
const QUEUE_DEPTH: usize = 16;

/// A small device, twice overwritten, so background GC, the floor gate
/// and hard-floor stalls all engage in every fleet; the tiny DRAM makes
/// reads reach flash.
fn aged_ssd() -> Ssd<ExactPageMap> {
    let mut config = SsdConfig::small_test();
    config.op_ratio = 0.5;
    config.dram_bytes = 64 * 1024;
    let logical = config.logical_pages();
    let mut ssd = Ssd::new(config, ExactPageMap::new());
    for round in 0..2u64 {
        for i in 0..logical {
            ssd.write(Lpa::new((i * 7 + round) % logical), round * logical + i)
                .expect("pre-age write");
        }
    }
    ssd.flush().expect("pre-age flush");
    ssd
}

/// Per-queue SLOs: the leading queues are guaranteed, the rest
/// best-effort.
fn slos() -> Vec<Slo> {
    (0..QUEUES)
        .map(|queue| {
            if queue < GUARANTEED_READERS + GUARANTEED_WRITERS {
                Slo::guaranteed(2_000.0)
            } else {
                Slo::best_effort()
            }
        })
        .collect()
}

/// The open-loop request stream, as `(queue, request)` in submission
/// order. Queues `0..4` are guaranteed readers, `4..6` guaranteed
/// writers, `6..40` best-effort writers, `40..72` best-effort mixed
/// readers (three reads to one write). Every 32nd command of a writer
/// is a flush.
fn fleet(logical: u64) -> Vec<(usize, IoRequest)> {
    let mut rng = Rng(0x001e_af71);
    let mut requests = Vec::new();
    for queue in 0..QUEUES {
        let writers_end = GUARANTEED_READERS + GUARANTEED_WRITERS + BEST_EFFORT_WRITERS;
        let (ops, mean_gap_ns, write_share) = if queue < GUARANTEED_READERS {
            (180, 150_000, 0)
        } else if queue < GUARANTEED_READERS + GUARANTEED_WRITERS {
            (120, 250_000, 4)
        } else if queue < writers_end {
            (90, 300_000, 4)
        } else {
            (90, 300_000, 1)
        };
        let mut at_ns = rng.next() % mean_gap_ns;
        for op in 0..ops {
            let lpa = Lpa::new(rng.next() % logical);
            let request = if write_share == 4 && op % 32 == 31 {
                IoRequest::flush()
            } else if rng.next() % 4 < write_share {
                IoRequest::write(lpa, ((queue as u64) << 32) | op)
            } else {
                IoRequest::read(lpa)
            };
            requests.push((queue, request.at(at_ns).on_stream(queue as u32)));
            // Uniform on [0, 2·mean): bursts and lulls without floats.
            at_ns += rng.next() % (2 * mean_gap_ns);
        }
    }
    requests
}

/// What one run is pinned by.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    /// FNV-1a over every completion's `(id, queue, dispatch_ns,
    /// complete_ns)`, in `drain`'s order.
    completions_fnv: u64,
    completions: usize,
    admission_wait_per_queue: Vec<u64>,
    qos_ticks: usize,
    dispatches: u64,
    gc_dispatched: u64,
}

fn run(arbiter: Box<dyn Arbiter>, qos: bool) -> Golden {
    let mut ssd = aged_ssd();
    let logical = ssd.config().logical_pages();
    let mut config = DeviceConfig::new(QUEUES, QUEUE_DEPTH)
        .background_gc()
        .with_arbiter(arbiter);
    if qos {
        config = config.with_qos(QosSpec::new(slos()).with_controller(QosControllerConfig {
            control_interval_ns: 1_000_000,
            admission_margin: 0.10,
            guaranteed_slot_reserve: 10,
            gc_pacing_limit: 1,
        }));
    }
    let mut device = Device::new(&mut ssd, config);
    for (queue, request) in fleet(logical) {
        device.enqueue_to(queue, request).expect("enqueue");
    }
    let completions = device.drain().expect("drain");
    let mut hash = FNV_OFFSET;
    for c in &completions {
        fnv1a(&mut hash, c.id);
        fnv1a(&mut hash, c.queue as u64);
        fnv1a(&mut hash, c.dispatch_ns);
        fnv1a(&mut hash, c.complete_ns);
    }
    Golden {
        completions_fnv: hash,
        completions: completions.len(),
        admission_wait_per_queue: device.admission_wait_per_queue().to_vec(),
        qos_ticks: device.qos_ticks().len(),
        dispatches: device.dispatches(),
        gc_dispatched: device.gc_dispatched(),
    }
}

#[test]
fn weighted_qos_fleet_matches_the_full_scan() {
    let weights = (0..QUEUES as u32).map(|queue| 1 + queue % 5).collect();
    let golden = run(Box::new(Weighted::new(weights, 2)), true);
    assert_eq!(
        golden,
        Golden {
            completions_fnv: 3278646711054654390,
            completions: 7058,
            admission_wait_per_queue: vec![
                0, 0, 0, 0, 0, 0, 236794680, 236794680, 236794680, 236794680, 236794680, 236794680,
                236794680, 236794680, 236794680, 236794680, 236794680, 236794680, 236794680,
                236794680, 236794680, 236794680, 236794680, 236794680, 236794680, 236794680,
                236794680, 236794680, 236794680, 236794680, 236794680, 236794680, 236794680,
                236794680, 236794680, 236794680, 236794680, 236794680, 236794680, 236794680,
                179053040, 178001680, 149822240, 160378080, 146836200, 118098600, 142351640,
                166552120, 156314440, 191400400, 179797520, 136184320, 170517560, 176198480,
                170511960, 151883400, 160642640, 183268040, 165397280, 138453800, 186051600,
                165199360, 164965480, 140456760, 179504680, 170261600, 171916080, 159651400,
                167625720, 185780480, 112125240, 154294400
            ],
            qos_ticks: 217,
            dispatches: 7058,
            gc_dispatched: 158,
        }
    );
}

#[test]
fn round_robin_fleet_matches_the_full_scan() {
    let golden = run(Box::new(RoundRobin::new()), false);
    assert_eq!(
        golden,
        Golden {
            completions_fnv: 15777468688405870521,
            completions: 7056,
            admission_wait_per_queue: vec![0; QUEUES],
            qos_ticks: 0,
            dispatches: 7056,
            gc_dispatched: 156,
        }
    );
}

#[test]
fn host_priority_fleet_matches_the_full_scan() {
    let golden = run(Box::new(HostPriority::new()), false);
    assert_eq!(
        golden,
        Golden {
            completions_fnv: 8305626095725670219,
            completions: 7056,
            admission_wait_per_queue: vec![0; QUEUES],
            qos_ticks: 0,
            dispatches: 7056,
            gc_dispatched: 156,
        }
    );
}

/// `drain` returns completions ordered by completion time, ties by
/// submission id. Ids are unique, so that order does not depend on the
/// order completions were retired in: a stable sort by
/// `(complete_ns, id)` of *any* permutation is the same sequence. A
/// 1012-queue open-loop fleet on a coarse arrival grid (many commands
/// due at one instant, DRAM hits completing at the same nanosecond)
/// gives the tie-break work to do; the digest was recorded when
/// `take_completions` was that stable sort.
#[test]
fn drain_order_is_the_stable_sort_on_a_1012_queue_fleet() {
    const FLEET: usize = 1012;
    const OPS_PER_QUEUE: u64 = 7;
    let mut ssd = aged_ssd();
    let logical = ssd.config().logical_pages();
    let weights = (0..FLEET as u32).map(|queue| 1 + queue % 5).collect();
    let config = DeviceConfig::new(FLEET, QUEUE_DEPTH)
        .background_gc()
        .with_arbiter(Box::new(Weighted::new(weights, 2)));
    let mut device = Device::new(&mut ssd, config);
    let mut rng = Rng(0x0c0f_fee5);
    let mut submitted = 0usize;
    for queue in 0..FLEET {
        for op in 0..OPS_PER_QUEUE {
            // A hot set of 24 pages keeps the data cache and the write
            // buffer answering: equal completion times across queues.
            let lpa = if rng.next().is_multiple_of(3) {
                Lpa::new(rng.next() % logical)
            } else {
                Lpa::new((rng.next() % 24) * 61 % logical)
            };
            let request = if rng.next().is_multiple_of(5) {
                IoRequest::write(lpa, ((queue as u64) << 32) | op)
            } else {
                IoRequest::read(lpa)
            };
            let at_ns = (op * 4 + rng.next() % 4) * 250_000;
            device
                .enqueue_to(queue, request.at(at_ns).on_stream(queue as u32))
                .expect("enqueue");
            submitted += 1;
        }
    }
    let drained = device.drain().expect("drain");
    let background = device.gc_dispatched() + device.maplog_dispatched();
    assert_eq!(drained.len(), submitted + background as usize);

    let mut ids: Vec<u64> = drained.iter().map(|c| c.id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), drained.len(), "completion ids must be unique");
    let tied = drained
        .windows(2)
        .filter(|pair| pair[0].complete_ns == pair[1].complete_ns)
        .count();
    assert!(tied > 100, "only {tied} tied completion times");

    let mut want = drained.clone();
    want.sort_by_key(|c| c.id); // submission order: some other permutation
    want.sort_by_key(|c| (c.complete_ns, c.id));
    assert!(drained == want, "drain order is not the stable sort");

    let mut hash = FNV_OFFSET;
    for c in &drained {
        fnv1a(&mut hash, c.id);
        fnv1a(&mut hash, c.queue as u64);
        fnv1a(&mut hash, c.dispatch_ns);
        fnv1a(&mut hash, c.complete_ns);
    }
    assert_eq!((drained.len(), hash), (7122, 5406013962017672373));
}

/// The three policies as they were before the ready bitset: each walks
/// one `head_ready` flag per host queue, slot layout
/// `[Host(0) … Host(n-1), Gc]`. `Weighted` grows its credit vector in
/// place when a weight names a queue beyond the device.
mod slice_walk {
    use super::Source;

    fn is_ready(host: &[bool], background: bool, source: Source) -> bool {
        match source {
            Source::Host(queue) => host.get(queue).copied().unwrap_or(false),
            Source::Gc => background,
        }
    }

    #[derive(Default)]
    pub struct RoundRobin {
        cursor: usize,
    }

    impl RoundRobin {
        pub fn pick(&mut self, host: &[bool], background: bool) -> Source {
            let slots = host.len() + 1;
            for step in 0..slots {
                let slot = (self.cursor + step) % slots;
                let source = if slot < host.len() {
                    Source::Host(slot)
                } else {
                    Source::Gc
                };
                if is_ready(host, background, source) {
                    self.cursor = (slot + 1) % slots;
                    return source;
                }
            }
            Source::Gc
        }
    }

    pub struct Weighted {
        host_weights: Vec<u32>,
        gc_weight: u32,
        credit: Vec<i64>,
    }

    impl Weighted {
        pub fn new(host_weights: &[u32], gc_weight: u32) -> Self {
            Weighted {
                host_weights: host_weights.iter().map(|&w| w.max(1)).collect(),
                gc_weight: gc_weight.max(1),
                credit: Vec::new(),
            }
        }

        pub fn pick(&mut self, host: &[bool], background: bool) -> Source {
            let hosts = host.len().max(self.host_weights.len());
            let slots = hosts + 1;
            if self.credit.len() < slots {
                // Host credits stay; GC's moves to the new last slot.
                let gc = self.credit.pop().unwrap_or(0);
                self.credit.resize(hosts, 0);
                self.credit.push(gc);
            }
            let slot_source = |slot: usize| {
                if slot < hosts {
                    Source::Host(slot)
                } else {
                    Source::Gc
                }
            };
            let mut total = 0i64;
            let mut best: Option<(i64, usize)> = None;
            for slot in 0..slots {
                if !is_ready(host, background, slot_source(slot)) {
                    continue;
                }
                let weight = if slot < hosts {
                    self.host_weights.get(slot).copied().unwrap_or(1) as i64
                } else {
                    self.gc_weight as i64
                };
                self.credit[slot] += weight;
                total += weight;
                if best.is_none_or(|(credit, _)| self.credit[slot] > credit) {
                    best = Some((self.credit[slot], slot));
                }
            }
            let Some((_, winner)) = best else {
                return Source::Gc;
            };
            self.credit[winner] -= total;
            slot_source(winner)
        }
    }

    #[derive(Default)]
    pub struct HostPriority {
        cursor: usize,
    }

    impl HostPriority {
        pub fn pick(&mut self, host: &[bool], background: bool) -> Source {
            let queues = host.len().max(1);
            for step in 0..queues {
                let slot = (self.cursor + step) % queues;
                if is_ready(host, background, Source::Host(slot)) {
                    self.cursor = (slot + 1) % queues;
                    return Source::Host(slot);
                }
            }
            Source::Gc
        }
    }
}

/// Host queues as the device presents them to an arbiter: each queue's
/// arrived head sits in one of three admission classes, each behind a
/// gate.
struct Classes {
    arrived: Vec<bool>,
    class_of: Vec<usize>,
    open: [bool; 3],
}

impl Classes {
    /// One step's change, drawn from `kind`: new arrivals, gates that
    /// close and reopen, heads that move class (a best-effort head
    /// switching from read to write), or every gate shut so only
    /// background work can be ready. A few heads arrive or leave on
    /// every step, as dispatches and arrivals do.
    fn step(&mut self, kind: u64, rng: &mut Rng) {
        let queues = self.arrived.len();
        match kind {
            0 => {
                let density = rng.next() % 6;
                for arrived in &mut self.arrived {
                    *arrived = rng.next() % 5 < density;
                }
            }
            1 => self.open = [0, 1, 2].map(|_| !rng.next().is_multiple_of(3)),
            2 => {
                for _ in 0..=queues / 8 {
                    let queue = rng.next() as usize % queues;
                    self.class_of[queue] = rng.next() as usize % 3;
                }
            }
            3 => self.open = [false; 3],
            _ => {}
        }
        for _ in 0..rng.next() % 4 {
            let queue = rng.next() as usize % queues;
            self.arrived[queue] = !self.arrived[queue];
        }
    }

    /// The arrived set of each class.
    fn sets(&self) -> [ReadySet; 3] {
        [0, 1, 2].map(|class| {
            self.arrived
                .iter()
                .zip(&self.class_of)
                .map(|(&arrived, &of)| arrived && of == class)
                .collect()
        })
    }

    /// The ready flag per queue: arrived, behind an open gate.
    fn ready(&self) -> Vec<bool> {
        self.arrived
            .iter()
            .zip(&self.class_of)
            .map(|(&arrived, &of)| arrived && self.open[of])
            .collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Over gated admission classes — whole classes closing and
    /// reopening, heads moving between classes, views with only
    /// background work — and over weights (some beyond the device's
    /// queues) and queue counts that straddle the bitset's word
    /// boundaries, every
    /// pick of the three bitset policies equals the slice walk's over
    /// the union of the open classes — cursors and credits included,
    /// since each sequence starts from wherever the previous picks left
    /// them.
    #[test]
    fn bitset_policies_pick_what_the_slice_walk_picks(
        queues in 1usize..131,
        weights in vec(0u32..40, 0..140),
        gc_weight in 0u32..5,
        steps in vec((0u64..u64::MAX, 0u64..8, proptest::bool::ANY), 1..80),
    ) {
        let mut round_robin = (RoundRobin::new(), slice_walk::RoundRobin::default());
        let mut weighted = (
            Weighted::new(weights.clone(), gc_weight),
            slice_walk::Weighted::new(&weights, gc_weight),
        );
        let mut host_priority = (HostPriority::new(), slice_walk::HostPriority::default());
        let mut classes = Classes {
            arrived: vec![false; queues],
            class_of: (0..queues).map(|queue| queue % 3).collect(),
            open: [true; 3],
        };
        for (step, &(seed, kind, background)) in steps.iter().enumerate() {
            let mut rng = Rng(seed);
            classes.step(kind, &mut rng);
            let sets = classes.sets();
            let gated: Vec<AdmissionClass<'_>> = sets
                .iter()
                .zip(classes.open)
                .map(|(arrived, open)| AdmissionClass { arrived, open })
                .collect();
            let view = ArbiterView {
                classes: &gated,
                background_pending: usize::from(background),
            };
            let host = classes.ready();
            prop_assert_eq!(
                round_robin.0.pick(&view),
                round_robin.1.pick(&host, background),
                "round-robin, step {}", step
            );
            prop_assert_eq!(
                weighted.0.pick(&view),
                weighted.1.pick(&host, background),
                "weighted, step {}", step
            );
            prop_assert_eq!(
                host_priority.0.pick(&view),
                host_priority.1.pick(&host, background),
                "host-priority, step {}", step
            );
        }
    }
}
