//! Queue arbitration for the multi-queue [`crate::Device`] front-end.
//!
//! An NVMe controller drains many submission queues into one pool of
//! flash dies; *which* queue it serves next is the arbitration policy,
//! and it is the main lever a device has over inter-tenant fairness and
//! host-vs-background-GC tail latency. The [`Arbiter`] trait makes the
//! policy pluggable: the device hands it a snapshot of every source
//! with dispatchable work — the ready host submission queues as a
//! bitset ([`ReadySet`]) plus the internal GC migration queue — and the
//! arbiter names the source to serve. Three policies ship, each walking
//! only the ready queues in ascending order:
//!
//! * [`RoundRobin`] — NVMe's default: every source (GC included) gets
//!   an equal turn.
//! * [`Weighted`] — smooth weighted round-robin over the host queues
//!   plus a GC weight; the classic WRR credit scheme, so a 3:1 weight
//!   really serves 3 commands to 1 over time rather than in bursts.
//! * [`HostPriority`] — strict host-over-GC: migrations run only when
//!   no host command is dispatchable, soaking up idle device time.
//!   (The device's hard-floor back-pressure overrides every policy:
//!   when free blocks fall to the floor, GC dispatches regardless.)

/// A dispatch source the arbiter can pick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Host submission queue by index.
    Host(usize),
    /// The internal background queue: GC migrations, translation-log
    /// writes ([`crate::Command::MapLog`]), and translation compactions
    /// ([`crate::Command::Compact`]). The device serves space
    /// reclamation first, then log durability, then compaction.
    Gc,
}

/// A set of host-queue indices, one bit per queue — how the device
/// tells an arbiter which heads are dispatchable. Iteration is in
/// ascending queue order and skips empty words, so a policy walks
/// `O(ready + queues / 64)` instead of every queue.
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

    /// Adds every member of `other`, word by word.
    ///
    /// # Panics
    ///
    /// Panics if the two sets range over different queue counts.
    pub fn union_with(&mut self, other: &ReadySet) {
        assert_eq!(self.queues, other.queues, "ready sets of different devices");
        for (word, &theirs) in self.words.iter_mut().zip(&other.words) {
            self.len += (theirs & !*word).count_ones() as usize;
            *word |= theirs;
        }
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

/// Everything an arbiter may consult when picking the next source.
#[derive(Debug)]
pub struct ArbiterView<'a> {
    /// The host queues whose head command is dispatchable now (arrived,
    /// a depth slot free, not deferred by admission control). Ranges
    /// over all of the device's host queues.
    pub ready: &'a ReadySet,
    /// Background commands dispatchable now, all served from
    /// [`Source::Gc`]: GC migrations (none while the QoS controller
    /// paces them), translation-log ops and compaction sweeps.
    pub background_pending: usize,
}

impl ArbiterView<'_> {
    /// Whether the internal background source has dispatchable work.
    pub fn background_ready(&self) -> bool {
        self.background_pending > 0
    }

    /// Whether `source` has dispatchable work right now.
    pub fn is_ready(&self, source: Source) -> bool {
        match source {
            Source::Host(i) => self.ready.contains(i),
            Source::Gc => self.background_ready(),
        }
    }

    /// All sources with dispatchable work, host queues first.
    pub fn ready_sources(&self) -> impl Iterator<Item = Source> + '_ {
        self.ready
            .iter()
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

    /// Retunes the weight of host queue `queue` at runtime. Policies
    /// without per-queue weights ignore the call (the default); the
    /// [`crate::QosController`] drives this on [`Weighted`] every
    /// control tick.
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
        let hosts = view.ready.queues();
        let slots = hosts + 1; // + the GC queue
        let start = self.cursor % slots;
        // The rotation from `start`: host queues `start..`, the GC
        // slot, then host queues `..start`.
        let (source, slot) = if let Some(queue) = view.ready.first_at_or_after(start) {
            (Source::Host(queue), queue)
        } else if view.background_ready() {
            (Source::Gc, hosts)
        } else if let Some(queue) = view.ready.first_at_or_after(0) {
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
/// as credit every pick; the richest source wins and pays back the
/// total ready weight, which interleaves service proportionally
/// instead of serving each weight as one burst.
#[derive(Debug)]
pub struct Weighted {
    host_weights: Vec<u32>,
    gc_weight: u32,
    /// Running credit per source (`[host …, gc]`).
    credit: Vec<i64>,
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
            credit: Vec::new(),
        }
    }

    fn host_weight(&self, queue: usize) -> u32 {
        self.host_weights.get(queue).copied().unwrap_or(1)
    }
}

impl Arbiter for Weighted {
    fn pick(&mut self, view: &ArbiterView<'_>) -> Source {
        // Rotate over the *device's* queues, not just the configured
        // weight vector — extra queues get default weight rather than
        // starving. Slot layout: `[Host(0) … Host(n-1), Gc]`.
        let hosts = view.ready.queues().max(self.host_weights.len());
        let slots = hosts + 1;
        if self.credit.len() != slots {
            self.credit = vec![0; slots];
        }
        let mut total: i64 = 0;
        let mut best: Option<(i64, usize)> = None;
        // Only ready sources accrue credit; ascending slot order makes
        // the lowest slot win a credit tie.
        let ready_slots = view
            .ready
            .iter()
            .chain(view.background_ready().then_some(hosts));
        for slot in ready_slots {
            let weight = if slot < hosts {
                self.host_weight(slot) as i64
            } else {
                self.gc_weight as i64
            };
            self.credit[slot] += weight;
            total += weight;
            if best.is_none_or(|(c, _)| self.credit[slot] > c) {
                best = Some((self.credit[slot], slot));
            }
        }
        let Some((_, winner)) = best else {
            return Source::Gc;
        };
        self.credit[winner] -= total;
        if winner < hosts {
            Source::Host(winner)
        } else {
            Source::Gc
        }
    }

    fn name(&self) -> &'static str {
        "weighted"
    }

    /// Runtime retune: replaces queue `queue`'s weight (clamped to 1,
    /// like construction). A queue beyond the current vector grows it,
    /// filling the gap with the default weight 1. Accumulated credit
    /// is deliberately kept — smooth WRR forgets history at the rate
    /// of one total-ready-weight per pick, so dispatch proportions
    /// converge to the new weights within a few rounds (pinned by a
    /// proptest in `tests/qos_control.rs`).
    fn set_weight(&mut self, queue: usize, weight: u32) {
        if self.host_weights.len() <= queue {
            self.host_weights.resize(queue + 1, 1);
        }
        self.host_weights[queue] = weight.max(1);
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
        let queues = view.ready.queues().max(1);
        let start = self.cursor % queues;
        let Some(queue) = view
            .ready
            .first_at_or_after(start)
            .or_else(|| view.ready.first_at_or_after(0))
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

    fn view(ready: &ReadySet, background_pending: usize) -> ArbiterView<'_> {
        ArbiterView {
            ready,
            background_pending,
        }
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

        let mut other = ReadySet::new(130);
        other.insert(64);
        other.insert(65);
        set.union_with(&other);
        assert_eq!(set.len(), 6, "a shared member counts once");
        set.clear();
        assert!(set.is_empty() && set.iter().next().is_none());
        assert_eq!(ReadySet::new(0).first_at_or_after(0), None);
    }

    #[test]
    fn round_robin_rotates_over_all_sources() {
        let mut arbiter = RoundRobin::new();
        let host = ready([true, true]);
        let picks: Vec<Source> = (0..6).map(|_| arbiter.pick(&view(&host, 3))).collect();
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
        assert_eq!(arbiter.pick(&view(&host, 0)), Source::Host(1));
        assert_eq!(arbiter.pick(&view(&host, 0)), Source::Host(1));
    }

    #[test]
    fn weighted_serves_proportionally_and_interleaved() {
        let mut arbiter = Weighted::new(vec![3, 1], 1);
        let host = ready([true, true]);
        let picks: Vec<Source> = (0..10).map(|_| arbiter.pick(&view(&host, 100))).collect();
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
        let picks: Vec<Source> = (0..12).map(|_| arbiter.pick(&view(&host, 0))).collect();
        let served_q2 = picks.iter().filter(|&&p| p == Source::Host(2)).count();
        assert!(served_q2 >= 2, "unweighted queue got {served_q2}/12 turns");
    }

    #[test]
    fn set_weight_retunes_and_grows_the_vector() {
        let mut arbiter = Weighted::new(vec![1, 1], 1);
        let host = ready([true, true]);
        // Flip queue 0 from 1:1 to 3:1 at runtime: service follows.
        arbiter.set_weight(0, 3);
        let picks: Vec<Source> = (0..8).map(|_| arbiter.pick(&view(&host, 0))).collect();
        let count = |s: Source| picks.iter().filter(|&&p| p == s).count();
        assert_eq!(count(Source::Host(0)), 6);
        assert_eq!(count(Source::Host(1)), 2);
        // Retuning a queue beyond the vector grows it (gap defaults to
        // weight 1) and clamps zero to 1.
        arbiter.set_weight(5, 0);
        assert_eq!(arbiter.host_weight(5), 1);
        assert_eq!(arbiter.host_weight(3), 1);
    }

    #[test]
    fn set_weight_defaults_to_noop_for_unweighted_policies() {
        let mut arbiter = RoundRobin::new();
        arbiter.set_weight(0, 100);
        let host = ready([true, true]);
        // Still an equal-turn rotation.
        assert_eq!(arbiter.pick(&view(&host, 0)), Source::Host(0));
        assert_eq!(arbiter.pick(&view(&host, 0)), Source::Host(1));
        assert_eq!(arbiter.pick(&view(&host, 0)), Source::Host(0));
    }

    #[test]
    fn weighted_gives_all_to_the_only_ready_source() {
        let mut arbiter = Weighted::new(vec![1, 5], 2);
        let host = ready([true, false]);
        for _ in 0..4 {
            assert_eq!(arbiter.pick(&view(&host, 0)), Source::Host(0));
        }
    }

    #[test]
    fn background_work_makes_the_gc_source_ready() {
        let host = ready([false]);
        let v = view(&host, 3);
        assert!(v.is_ready(Source::Gc));
        assert_eq!(v.ready_sources().next(), Some(Source::Gc));
        let mut arbiter = RoundRobin::new();
        assert_eq!(arbiter.pick(&v), Source::Gc);
        assert!(!view(&host, 0).is_ready(Source::Gc));
    }

    #[test]
    fn host_priority_starves_gc_while_host_is_ready() {
        let mut arbiter = HostPriority::new();
        let host = ready([true, true]);
        for _ in 0..8 {
            assert_ne!(arbiter.pick(&view(&host, 5)), Source::Gc);
        }
        let idle = ready([false, false]);
        assert_eq!(arbiter.pick(&view(&idle, 5)), Source::Gc);
    }
}
