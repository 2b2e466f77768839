//! Queue arbitration for the multi-queue [`crate::Device`] front-end.
//!
//! An NVMe controller drains many submission queues into one pool of
//! flash dies; *which* queue it serves next is the arbitration policy,
//! and it is the main lever a device has over inter-tenant fairness and
//! host-vs-background-GC tail latency. The [`Arbiter`] trait makes the
//! policy pluggable: the device hands it a snapshot of every source
//! with dispatchable work — the host submission queues whose head has
//! arrived, as one bitset ([`ReadySet`]) per admission class with the
//! class's gate flag ([`AdmissionClass`]), plus the internal GC
//! migration queue — and the arbiter names the source to serve. Three
//! policies ship:
//!
//! * [`RoundRobin`] — NVMe's default: every source (GC included) gets
//!   an equal turn; one bit search per class from the cursor.
//! * [`Weighted`] — smooth weighted round-robin over the host queues
//!   plus a GC weight; the classic WRR credit scheme, so a 3:1 weight
//!   really serves 3 commands to 1 over time rather than in bursts.
//!   Credit accrues lazily per admission class, so a pick costs the
//!   queues that joined or left a class since the previous pick, not
//!   one step per ready queue.
//! * [`HostPriority`] — strict host-over-GC: migrations run only when
//!   no host command is dispatchable, soaking up idle device time; one
//!   bit search per class from the cursor.
//!   (The device's hard-floor back-pressure overrides every policy:
//!   when free blocks fall to the floor, GC dispatches regardless.)

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A dispatch source the arbiter can pick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Host submission queue by index.
    Host(usize),
    /// The internal background queue: GC migrations and translation-log
    /// writes ([`crate::Command::MapLog`]). The device serves space
    /// reclamation first, then log durability.
    Gc,
}

/// A set of host-queue indices, one bit per queue — how the device
/// tells an arbiter which heads have arrived in an admission class.
/// Iteration is in ascending queue order and skips empty words, so a
/// walk costs `O(members + queues / 64)` instead of every queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadySet {
    words: Vec<u64>,
    queues: usize,
    len: usize,
}

impl ReadySet {
    /// An empty set over host queues `0..queues`.
    pub fn new(queues: usize) -> Self {
        ReadySet {
            words: vec![0; queues.div_ceil(64)],
            queues,
            len: 0,
        }
    }

    /// The number of host queues the set ranges over (the device's
    /// queue count), not the number of members.
    pub fn queues(&self) -> usize {
        self.queues
    }

    /// Members in the set.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no queue is in the set.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `queue` is in the set (`false` beyond the range).
    pub fn contains(&self, queue: usize) -> bool {
        queue < self.queues && self.words[queue / 64] & (1 << (queue % 64)) != 0
    }

    /// Adds `queue`; returns whether it was absent.
    ///
    /// # Panics
    ///
    /// Panics if `queue` is beyond the set's range.
    pub fn insert(&mut self, queue: usize) -> bool {
        assert!(queue < self.queues, "queue {queue} beyond the ready set");
        let added = !self.contains(queue);
        self.words[queue / 64] |= 1 << (queue % 64);
        self.len += usize::from(added);
        added
    }

    /// Removes `queue`; returns whether it was present.
    pub fn remove(&mut self, queue: usize) -> bool {
        let removed = self.contains(queue);
        if removed {
            self.words[queue / 64] &= !(1 << (queue % 64));
            self.len -= 1;
        }
        removed
    }

    /// Empties the set.
    pub fn clear(&mut self) {
        self.words.fill(0);
        self.len = 0;
    }

    /// The smallest member `>= from`, if any.
    pub fn first_at_or_after(&self, from: usize) -> Option<usize> {
        let mut index = from / 64;
        let mut word = *self.words.get(index)? & (u64::MAX << (from % 64));
        loop {
            if word != 0 {
                return Some(index * 64 + word.trailing_zeros() as usize);
            }
            index += 1;
            word = *self.words.get(index)?;
        }
    }

    /// The members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(index, &word)| {
            std::iter::successors((word != 0).then_some(word), |&rest| {
                let rest = rest & (rest - 1);
                (rest != 0).then_some(rest)
            })
            .map(move |rest| index * 64 + rest.trailing_zeros() as usize)
        })
    }
}

impl FromIterator<bool> for ReadySet {
    /// One flag per host queue, in queue order.
    fn from_iter<I: IntoIterator<Item = bool>>(flags: I) -> Self {
        let mut set = ReadySet::new(0);
        for ready in flags {
            if set.queues.is_multiple_of(64) {
                set.words.push(0);
            }
            if ready {
                set.words[set.queues / 64] |= 1 << (set.queues % 64);
                set.len += 1;
            }
            set.queues += 1;
        }
        set
    }
}

/// One admission class as an arbiter sees it: the host queues whose
/// head has arrived and waits behind the class's gate, and whether the
/// gate lets them dispatch now.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionClass<'a> {
    /// Queues whose head has arrived, over all of the device's host
    /// queues.
    pub arrived: &'a ReadySet,
    /// Whether those heads are dispatchable now: the class's admission
    /// gate is open and a depth slot is free.
    pub open: bool,
}

/// Everything an arbiter may consult when picking the next source.
#[derive(Debug)]
pub struct ArbiterView<'a> {
    /// The host queues with an arrived head, split into disjoint
    /// admission classes. A queue is ready when it sits in an open
    /// class.
    pub classes: &'a [AdmissionClass<'a>],
    /// Background commands dispatchable now, all served from
    /// [`Source::Gc`]: one GC collection while the device is
    /// collecting and has a block to collect (none while the QoS
    /// controller paces them), and translation-log ops.
    pub background_pending: usize,
}

impl ArbiterView<'_> {
    /// The number of host queues the device has.
    pub fn queues(&self) -> usize {
        self.classes
            .first()
            .map_or(0, |class| class.arrived.queues())
    }

    /// The arrived sets of the open classes that hold a queue.
    fn open(&self) -> impl Iterator<Item = &ReadySet> + '_ {
        self.classes
            .iter()
            .filter(|class| class.open && !class.arrived.is_empty())
            .map(|class| class.arrived)
    }

    /// The number of ready host queues.
    pub fn ready_queues(&self) -> usize {
        self.open().map(ReadySet::len).sum()
    }

    /// The smallest ready host queue `>= from`, if any.
    pub fn first_ready_at_or_after(&self, from: usize) -> Option<usize> {
        self.open()
            .filter_map(|arrived| arrived.first_at_or_after(from))
            .min()
    }

    /// Whether the internal background source has dispatchable work.
    pub fn background_ready(&self) -> bool {
        self.background_pending > 0
    }

    /// Whether `source` has dispatchable work right now.
    pub fn is_ready(&self, source: Source) -> bool {
        match source {
            Source::Host(i) => self.open().any(|arrived| arrived.contains(i)),
            Source::Gc => self.background_ready(),
        }
    }

    /// All sources with dispatchable work, host queues first, in
    /// ascending order.
    pub fn ready_sources(&self) -> impl Iterator<Item = Source> + '_ {
        std::iter::successors(self.first_ready_at_or_after(0), |&queue| {
            self.first_ready_at_or_after(queue + 1)
        })
        .map(Source::Host)
        .chain(self.background_ready().then_some(Source::Gc))
    }
}

/// A submission-queue arbitration policy.
///
/// The device calls [`Arbiter::pick`] once per dispatch with at least
/// one ready source; the returned source must be ready (the device
/// falls back to the first ready source otherwise, so a buggy policy
/// degrades to FIFO rather than wedging the device).
pub trait Arbiter: std::fmt::Debug {
    /// Picks the next source to dispatch from.
    fn pick(&mut self, view: &ArbiterView<'_>) -> Source;

    /// Policy name (experiment labels).
    fn name(&self) -> &'static str;

    /// Sets the weight of host queue `queue`. Called before the first
    /// pick: a device with a QoS spec calls it once per host queue at
    /// construction, to set [`crate::QosController::BASE_WEIGHT`].
    /// Policies without per-queue weights ignore the call (the
    /// default).
    fn set_weight(&mut self, _queue: usize, _weight: u32) {}
}

/// Equal-turn rotation over host queues and the GC queue.
#[derive(Debug, Default)]
pub struct RoundRobin {
    /// Index into the rotation `[Host(0) … Host(n-1), Gc]`.
    cursor: usize,
}

impl RoundRobin {
    /// A fresh round-robin arbiter.
    pub fn new() -> Self {
        RoundRobin::default()
    }
}

impl Arbiter for RoundRobin {
    fn pick(&mut self, view: &ArbiterView<'_>) -> Source {
        let hosts = view.queues();
        let slots = hosts + 1; // + the GC queue
        let start = self.cursor % slots;
        // The rotation from `start`: host queues `start..`, the GC
        // slot, then host queues `..start`.
        let (source, slot) = if let Some(queue) = view.first_ready_at_or_after(start) {
            (Source::Host(queue), queue)
        } else if view.background_ready() {
            (Source::Gc, hosts)
        } else if let Some(queue) = view.first_ready_at_or_after(0) {
            (Source::Host(queue), queue)
        } else {
            // Caller guarantees a ready source; fall back defensively.
            return Source::Gc;
        };
        self.cursor = (slot + 1) % slots;
        source
    }

    fn name(&self) -> &'static str {
        "round-robin"
    }
}

/// Smooth weighted round-robin: each ready source accrues its weight
/// as credit every pick; the richest source wins (the lowest queue on a
/// tie, GC after every host queue) and pays back the total ready
/// weight, which interleaves service proportionally instead of serving
/// each weight as one burst.
///
/// Accrual is lazy, per admission class. A class counts the picks at
/// which its gate was open; a queue the class holds has credit
/// `credit + weight × (count − count when it joined)`. Members of one
/// weight keep their order as the count advances, so they sit in one
/// max-heap keyed by `credit − weight × count when it joined`. A pick
/// XORs each class's arrived set against the members it holds (joins
/// and leaves), advances the counts of the open classes, and compares
/// the few heap tops with the GC credit; the winner pays the ready
/// total, kept as a running sum per class. Debug builds run the
/// per-pick scan beside it and assert every pick equals the scan's.
#[derive(Debug)]
pub struct Weighted {
    host_weights: Vec<u32>,
    gc_weight: u32,
    gc_credit: i64,
    /// Per host queue, over every queue the device or a weight names.
    queues: Vec<QueueCredit>,
    /// What each class of the view held at the previous pick.
    classes: Vec<HeldClass>,
    #[cfg(debug_assertions)]
    scan: CreditScan,
}

/// A host queue's credit. While a class holds the queue, `credit` is
/// its value at `mark` picks of that class; otherwise it is the whole
/// credit.
#[derive(Debug, Clone, Copy, Default)]
struct QueueCredit {
    credit: i64,
    mark: i64,
    /// Bumped when the queue leaves a class, which turns its heap entry
    /// stale.
    stamp: u32,
}

/// A held queue in its weight's heap, packed into one integer so that a
/// heap step is one comparison. From the top bit down: the key with its
/// sign bit flipped (unsigned order is then signed order), the queue's
/// complement (the lower queue wins a credit tie) and the stamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Entry(u128);

impl Entry {
    /// `key` is `credit − weight × mark`: the same for every count, so
    /// the order of one weight's members never changes while they
    /// accrue. It stays exact while weight × picks stays below 2^63.
    fn new(key: i64, queue: usize, stamp: u32) -> Self {
        let key = u128::from(key.cast_unsigned() ^ 1 << 63);
        let queue = u128::from(u32::MAX - queue as u32);
        Entry(key << 64 | queue << 32 | u128::from(stamp))
    }

    fn key(self) -> i64 {
        ((self.0 >> 64) as u64 ^ 1 << 63).cast_signed()
    }

    fn queue(self) -> usize {
        (u32::MAX - (self.0 >> 32) as u32) as usize
    }

    fn stamp(self) -> u32 {
        self.0 as u32
    }
}

/// The members of one class that have one weight.
#[derive(Debug)]
struct WeightHeap {
    weight: u32,
    /// Entries that are not stale.
    live: usize,
    entries: BinaryHeap<Entry>,
}

impl WeightHeap {
    /// The richest live member, dropping stale entries above it.
    fn top(&mut self, queues: &[QueueCredit]) -> Option<Entry> {
        while let Some(&entry) = self.entries.peek() {
            if queues[entry.queue()].stamp == entry.stamp() {
                return Some(entry);
            }
            self.entries.pop();
        }
        None
    }
}

/// The members of one admission class the arbiter holds.
#[derive(Debug)]
struct HeldClass {
    /// One bit per host queue, like [`ReadySet`]'s words.
    members: Vec<u64>,
    /// Picks at which the class's gate was open.
    open_picks: i64,
    /// The members' weights summed: what they add to a pick's total.
    weight_sum: i64,
    heaps: Vec<WeightHeap>,
}

impl HeldClass {
    fn new(words: usize) -> Self {
        HeldClass {
            members: vec![0; words],
            open_picks: 0,
            weight_sum: 0,
            heaps: Vec::new(),
        }
    }

    fn holds(&self, queue: usize) -> bool {
        self.members[queue / 64] & (1 << (queue % 64)) != 0
    }

    fn join(&mut self, queue: usize, weight: u32, queues: &mut [QueueCredit]) {
        self.members[queue / 64] |= 1 << (queue % 64);
        self.weight_sum += i64::from(weight);
        let state = &mut queues[queue];
        state.mark = self.open_picks;
        let entry = Entry::new(
            state.credit - i64::from(weight) * state.mark,
            queue,
            state.stamp,
        );
        let index = match self.heaps.iter().position(|heap| heap.weight == weight) {
            Some(index) => index,
            None => {
                self.heaps.push(WeightHeap {
                    weight,
                    live: 0,
                    entries: BinaryHeap::new(),
                });
                self.heaps.len() - 1
            }
        };
        let heap = &mut self.heaps[index];
        heap.live += 1;
        heap.entries.push(entry);
    }

    /// Settles `queue`'s credit and turns its entry stale.
    fn leave(&mut self, queue: usize, weight: u32, queues: &mut [QueueCredit]) {
        self.members[queue / 64] &= !(1 << (queue % 64));
        self.weight_sum -= i64::from(weight);
        let state = &mut queues[queue];
        state.credit += i64::from(weight) * (self.open_picks - state.mark);
        state.stamp = state.stamp.wrapping_add(1);
        // A member sits in its weight's heap.
        let Some(index) = self.heaps.iter().position(|heap| heap.weight == weight) else {
            return;
        };
        let heap = &mut self.heaps[index];
        heap.live -= 1;
        if heap.live == 0 {
            self.heaps.swap_remove(index);
        } else if heap.entries.len() > 2 * heap.live + 16 {
            // Stale entries sink with low credit: clear them out once
            // they outnumber the members, amortised O(1) per leave.
            heap.entries
                .retain(|entry| queues[entry.queue()].stamp == entry.stamp());
        }
    }
}

impl Weighted {
    /// Weighted arbitration with one weight per host queue plus a GC
    /// weight. Zero weights are clamped to 1, and a host queue beyond
    /// the weight vector defaults to weight 1 — a source with no
    /// effective weight would never be served and its queue would grow
    /// without bound.
    pub fn new(host_weights: Vec<u32>, gc_weight: u32) -> Self {
        let host_weights: Vec<u32> = host_weights.iter().map(|&w| w.max(1)).collect();
        Weighted {
            host_weights,
            gc_weight: gc_weight.max(1),
            gc_credit: 0,
            queues: Vec::new(),
            classes: Vec::new(),
            #[cfg(debug_assertions)]
            scan: CreditScan::default(),
        }
    }

    fn host_weight(&self, queue: usize) -> u32 {
        self.host_weights.get(queue).copied().unwrap_or(1)
    }

    /// Sizes the per-queue and per-class state in place: what grows
    /// keeps its credit.
    fn grow(&mut self, hosts: usize, classes: usize) {
        let words = hosts.div_ceil(64);
        if self.queues.len() < hosts {
            self.queues.resize(hosts, QueueCredit::default());
            for held in &mut self.classes {
                held.members.resize(words, 0);
            }
        }
        while self.classes.len() < classes {
            self.classes
                .push(HeldClass::new(self.queues.len().div_ceil(64)));
        }
    }

    /// Brings the held members up to the view's arrived sets: a queue
    /// that moved between classes leaves its old class before it joins
    /// the new one.
    fn sync(&mut self, view: &ArbiterView<'_>) {
        let words = self.queues.len().div_ceil(64);
        for index in 0..self.classes.len() {
            let arrived = view
                .classes
                .get(index)
                .map_or(&[][..], |class| &class.arrived.words[..]);
            if self.classes[index].members == arrived {
                // Most picks: nothing joined or left the class.
                continue;
            }
            for word in 0..words {
                let now = arrived.get(word).copied().unwrap_or(0);
                let held = self.classes[index].members[word];
                let mut left = held & !now;
                while left != 0 {
                    let queue = word * 64 + left.trailing_zeros() as usize;
                    left &= left - 1;
                    let weight = self.host_weight(queue);
                    self.classes[index].leave(queue, weight, &mut self.queues);
                }
                let mut joined = now & !held;
                while joined != 0 {
                    let queue = word * 64 + joined.trailing_zeros() as usize;
                    joined &= joined - 1;
                    let weight = self.host_weight(queue);
                    if let Some(other) = self.classes.iter().position(|c| c.holds(queue)) {
                        self.classes[other].leave(queue, weight, &mut self.queues);
                    }
                    self.classes[index].join(queue, weight, &mut self.queues);
                }
            }
        }
    }
}

impl Arbiter for Weighted {
    fn pick(&mut self, view: &ArbiterView<'_>) -> Source {
        // Cover the *device's* queues, not just the configured weight
        // vector — extra queues get default weight rather than
        // starving. GC ranks after every host queue on a tie.
        let hosts = view.queues().max(self.host_weights.len());
        self.grow(hosts, view.classes.len());
        self.sync(view);
        // A source's credit, the lower queue first on a tie.
        type Rank = (i64, Reverse<usize>);
        // Where a host queue's entry sits: `(class, heap)`; `None` is GC.
        type Seat = Option<(usize, usize)>;
        let mut best: Option<(Rank, Seat)> = None;
        let mut total: i64 = 0;
        for (index, class) in view.classes.iter().enumerate() {
            if !class.open {
                continue;
            }
            let held = &mut self.classes[index];
            held.open_picks += 1;
            total += held.weight_sum;
            for (heap_index, heap) in held.heaps.iter_mut().enumerate() {
                let Some(top) = heap.top(&self.queues) else {
                    continue;
                };
                let credit = top.key() + i64::from(heap.weight) * held.open_picks;
                let rank = (credit, Reverse(top.queue()));
                if best.is_none_or(|(richest, _)| rank > richest) {
                    best = Some((rank, Some((index, heap_index))));
                }
            }
        }
        if view.background_ready() {
            self.gc_credit += i64::from(self.gc_weight);
            total += i64::from(self.gc_weight);
            let rank = (self.gc_credit, Reverse(hosts));
            if best.is_none_or(|(richest, _)| rank > richest) {
                best = Some((rank, None));
            }
        }
        let source = match best {
            // Caller guarantees a ready source; fall back defensively.
            None => Source::Gc,
            Some(((_, Reverse(queue)), Some((index, heap_index)))) => {
                // `top` left the winner's entry on top of its heap.
                if let Some(mut top) = self.classes[index].heaps[heap_index].entries.peek_mut() {
                    *top = Entry::new(top.key() - total, top.queue(), top.stamp());
                }
                self.queues[queue].credit -= total;
                Source::Host(queue)
            }
            Some((_, None)) => {
                self.gc_credit -= total;
                Source::Gc
            }
        };
        #[cfg(debug_assertions)]
        {
            let scanned = self
                .scan
                .pick(view, hosts, &self.host_weights, self.gc_weight);
            let paid = best.map(|((credit, _), _)| credit - total);
            assert_eq!(
                (source, paid),
                scanned,
                "lazy weighted credit disagrees with the scan"
            );
        }
        source
    }

    fn name(&self) -> &'static str {
        "weighted"
    }

    /// Replaces queue `queue`'s weight (clamped to 1, like
    /// construction) before the first pick: no queue is held yet, so
    /// nothing sits in a heap under the old weight. A queue beyond the
    /// current vector grows it, filling the gap with the default
    /// weight 1.
    fn set_weight(&mut self, queue: usize, weight: u32) {
        debug_assert!(
            self.queues.is_empty(),
            "Weighted::set_weight is called before the first pick"
        );
        if self.host_weights.len() <= queue {
            self.host_weights.resize(queue + 1, 1);
        }
        self.host_weights[queue] = weight.max(1);
    }
}

/// The per-pick scan [`Weighted`] replaced: every ready source accrues,
/// in ascending order. Debug builds hold the lazy credit to it.
#[cfg(debug_assertions)]
#[derive(Debug, Default)]
struct CreditScan {
    /// `[host …, gc]`.
    credit: Vec<i64>,
}

#[cfg(debug_assertions)]
impl CreditScan {
    /// The pick and the winner's credit after it paid.
    fn pick(
        &mut self,
        view: &ArbiterView<'_>,
        hosts: usize,
        weights: &[u32],
        gc_weight: u32,
    ) -> (Source, Option<i64>) {
        if self.credit.len() < hosts + 1 {
            let gc = self.credit.pop().unwrap_or(0);
            self.credit.resize(hosts, 0);
            self.credit.push(gc);
        }
        let gc_slot = self.credit.len() - 1;
        let mut total = 0;
        let mut best: Option<(i64, usize)> = None;
        for source in view.ready_sources() {
            let (slot, weight) = match source {
                Source::Host(queue) => (queue, weights.get(queue).copied().unwrap_or(1)),
                Source::Gc => (gc_slot, gc_weight),
            };
            self.credit[slot] += i64::from(weight);
            total += i64::from(weight);
            if best.is_none_or(|(credit, _)| self.credit[slot] > credit) {
                best = Some((self.credit[slot], slot));
            }
        }
        let Some((_, winner)) = best else {
            return (Source::Gc, None);
        };
        self.credit[winner] -= total;
        let source = if winner == gc_slot {
            Source::Gc
        } else {
            Source::Host(winner)
        };
        (source, Some(self.credit[winner]))
    }
}

/// Strict host-over-GC priority: round-robin among ready host queues;
/// GC migrations dispatch only when no host command is ready.
#[derive(Debug, Default)]
pub struct HostPriority {
    cursor: usize,
}

impl HostPriority {
    /// A fresh host-priority arbiter.
    pub fn new() -> Self {
        HostPriority::default()
    }
}

impl Arbiter for HostPriority {
    fn pick(&mut self, view: &ArbiterView<'_>) -> Source {
        let queues = view.queues().max(1);
        let start = self.cursor % queues;
        let Some(queue) = view
            .first_ready_at_or_after(start)
            .or_else(|| view.first_ready_at_or_after(0))
        else {
            return Source::Gc;
        };
        self.cursor = (queue + 1) % queues;
        Source::Host(queue)
    }

    fn name(&self) -> &'static str {
        "host-priority"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view<'a>(classes: &'a [AdmissionClass<'a>], background_pending: usize) -> ArbiterView<'a> {
        ArbiterView {
            classes,
            background_pending,
        }
    }

    /// `ready` as the view's one class, its gate open.
    fn open(ready: &ReadySet) -> [AdmissionClass<'_>; 1] {
        [AdmissionClass {
            arrived: ready,
            open: true,
        }]
    }

    /// One flag per queue: whether its head is ready.
    fn ready<const N: usize>(flags: [bool; N]) -> ReadySet {
        flags.into_iter().collect()
    }

    #[test]
    fn collected_flags_equal_the_inserted_set() {
        for queues in [0usize, 1, 63, 64, 65, 130] {
            let member = |queue: usize| queue.is_multiple_of(3) || queue + 1 == queues;
            let collected: ReadySet = (0..queues).map(member).collect();
            let mut inserted = ReadySet::new(queues);
            for queue in (0..queues).filter(|&queue| member(queue)) {
                inserted.insert(queue);
            }
            assert_eq!(collected, inserted, "{queues} queues");
        }
    }

    #[test]
    fn ready_set_iterates_ascending_across_word_boundaries() {
        let mut set = ReadySet::new(130);
        for queue in [129, 0, 64, 63, 65, 127] {
            assert!(set.insert(queue));
        }
        assert!(!set.insert(64), "already present");
        assert_eq!(set.len(), 6);
        assert_eq!(
            set.iter().collect::<Vec<_>>(),
            vec![0, 63, 64, 65, 127, 129]
        );
        assert_eq!(set.first_at_or_after(0), Some(0));
        assert_eq!(set.first_at_or_after(1), Some(63));
        assert_eq!(set.first_at_or_after(64), Some(64));
        assert_eq!(set.first_at_or_after(66), Some(127));
        assert_eq!(set.first_at_or_after(128), Some(129));
        assert_eq!(set.first_at_or_after(130), None);
        assert_eq!(set.first_at_or_after(1_000), None);
        assert!(set.remove(64) && !set.remove(64));
        assert!(!set.contains(64) && set.contains(65) && !set.contains(130));
        assert_eq!(set.len(), 5);
        set.clear();
        assert!(set.is_empty() && set.iter().next().is_none());
        assert_eq!(ReadySet::new(0).first_at_or_after(0), None);
    }

    #[test]
    fn round_robin_rotates_over_all_sources() {
        let mut arbiter = RoundRobin::new();
        let host = ready([true, true]);
        let picks: Vec<Source> = (0..6)
            .map(|_| arbiter.pick(&view(&open(&host), 3)))
            .collect();
        assert_eq!(
            picks,
            vec![
                Source::Host(0),
                Source::Host(1),
                Source::Gc,
                Source::Host(0),
                Source::Host(1),
                Source::Gc,
            ]
        );
    }

    #[test]
    fn round_robin_skips_empty_queues() {
        let mut arbiter = RoundRobin::new();
        let host = ready([false, true]);
        assert_eq!(arbiter.pick(&view(&open(&host), 0)), Source::Host(1));
        assert_eq!(arbiter.pick(&view(&open(&host), 0)), Source::Host(1));
    }

    #[test]
    fn weighted_serves_proportionally_and_interleaved() {
        let mut arbiter = Weighted::new(vec![3, 1], 1);
        let host = ready([true, true]);
        let picks: Vec<Source> = (0..10)
            .map(|_| arbiter.pick(&view(&open(&host), 100)))
            .collect();
        let count = |s: Source| picks.iter().filter(|&&p| p == s).count();
        assert_eq!(count(Source::Host(0)), 6);
        assert_eq!(count(Source::Host(1)), 2);
        assert_eq!(count(Source::Gc), 2);
        // Smooth WRR: the heavy queue never monopolises three turns
        // beyond its weight in a row at these weights.
        assert_ne!(picks[0], picks[1]);
    }

    #[test]
    fn weighted_serves_queues_beyond_the_weight_vector() {
        // Two weights configured, three queues on the device: queue 2
        // must still get default-weight service, not starve.
        let mut arbiter = Weighted::new(vec![3, 1], 1);
        let host = ready([true, true, true]);
        let picks: Vec<Source> = (0..12)
            .map(|_| arbiter.pick(&view(&open(&host), 0)))
            .collect();
        let served_q2 = picks.iter().filter(|&&p| p == Source::Host(2)).count();
        assert!(served_q2 >= 2, "unweighted queue got {served_q2}/12 turns");
    }

    #[test]
    fn set_weight_before_the_first_pick_sets_shares_and_grows_the_vector() {
        let mut arbiter = Weighted::new(vec![1, 1], 1);
        let host = ready([true, true]);
        // Queue 0 from 1:1 to 3:1 before any pick: service follows.
        arbiter.set_weight(0, 3);
        // A queue beyond the vector grows it (gap defaults to weight 1)
        // and zero clamps to 1.
        arbiter.set_weight(5, 0);
        assert_eq!(arbiter.host_weight(5), 1);
        assert_eq!(arbiter.host_weight(3), 1);
        let picks: Vec<Source> = (0..8)
            .map(|_| arbiter.pick(&view(&open(&host), 0)))
            .collect();
        let count = |s: Source| picks.iter().filter(|&&p| p == s).count();
        assert_eq!(count(Source::Host(0)), 6);
        assert_eq!(count(Source::Host(1)), 2);
    }

    #[test]
    fn weighted_credit_follows_queues_across_gated_classes() {
        // Queue 0 accrues only while its class is open, and carries its
        // credit when it moves to the other class.
        let mut arbiter = Weighted::new(vec![1, 1], 1);
        let both = ready([true, true]);
        let first = ready([true, false]);
        let second = ready([false, true]);
        let none = ready([false, false]);
        fn class(arrived: &ReadySet, open: bool) -> AdmissionClass<'_> {
            AdmissionClass { arrived, open }
        }
        let mut pick = |classes: &[AdmissionClass<'_>]| arbiter.pick(&view(classes, 0));
        // Both ready: queue 0 wins the tie and pays 2 (credits −1, 1).
        assert_eq!(
            pick(&[class(&both, true), class(&none, true)]),
            Source::Host(0)
        );
        // Queue 1's class closes: queue 0 alone, pays its own 1 (−1, 1).
        assert_eq!(
            pick(&[class(&first, true), class(&second, false)]),
            Source::Host(0)
        );
        // Queue 0 moves into queue 1's class, which reopens: 0 against
        // 2, so queue 1 wins (0, 0).
        assert_eq!(
            pick(&[class(&none, false), class(&both, true)]),
            Source::Host(1)
        );
        // The tie goes to the lower queue again.
        assert_eq!(
            pick(&[class(&none, true), class(&both, true)]),
            Source::Host(0)
        );
    }

    #[test]
    fn set_weight_defaults_to_noop_for_unweighted_policies() {
        let mut arbiter = RoundRobin::new();
        arbiter.set_weight(0, 100);
        let host = ready([true, true]);
        // Still an equal-turn rotation.
        assert_eq!(arbiter.pick(&view(&open(&host), 0)), Source::Host(0));
        assert_eq!(arbiter.pick(&view(&open(&host), 0)), Source::Host(1));
        assert_eq!(arbiter.pick(&view(&open(&host), 0)), Source::Host(0));
    }

    #[test]
    fn weighted_gives_all_to_the_only_ready_source() {
        let mut arbiter = Weighted::new(vec![1, 5], 2);
        let host = ready([true, false]);
        for _ in 0..4 {
            assert_eq!(arbiter.pick(&view(&open(&host), 0)), Source::Host(0));
        }
    }

    #[test]
    fn background_work_makes_the_gc_source_ready() {
        let host = ready([false]);
        let classes = open(&host);
        let v = view(&classes, 3);
        assert!(v.is_ready(Source::Gc));
        assert_eq!(v.ready_sources().next(), Some(Source::Gc));
        let mut arbiter = RoundRobin::new();
        assert_eq!(arbiter.pick(&v), Source::Gc);
        assert!(!view(&open(&host), 0).is_ready(Source::Gc));
    }

    #[test]
    fn host_priority_starves_gc_while_host_is_ready() {
        let mut arbiter = HostPriority::new();
        let host = ready([true, true]);
        for _ in 0..8 {
            assert_ne!(arbiter.pick(&view(&open(&host), 5)), Source::Gc);
        }
        let idle = ready([false, false]);
        assert_eq!(arbiter.pick(&view(&open(&idle), 5)), Source::Gc);
    }
}
