//! Host-speed calibration: what makes wall-clock numbers comparable
//! on a host whose speed is not constant.
//!
//! On the reference VM the same binary on the same input ran a
//! measured phase in anything from 2.3 s to 3.9 s within five minutes,
//! and medians of ten runs taken a quarter of an hour apart differed by
//! 10–31 % — beyond any bound the benchmark could set. The host itself
//! speeds up and slows down (other tenants on the machine), in bursts
//! of a fraction of a second and in drifts over minutes.
//!
//! So every phase is cut into slices of about [`SLICE`]; after each
//! slice the measuring thread itself runs two small fixed kernels and
//! the slice's wall time is scaled by how fast they ran relative to
//! fixed reference times. The sum is the phase's *normalised* time:
//! what the phase would have taken on a host that always runs the
//! kernels at reference speed. Raw times are reported next to the
//! normalised ones.
//!
//! The kernels were chosen by measurement, not by argument. A fixed
//! chunk of simulator work was timed 700 times over several minutes,
//! twice, each time followed by seven candidate kernels (dependent
//! multiplies, pointer chases through 128 KiB and 8 MiB, a 32 MiB
//! streaming sum, a 4 MiB copy, allocator churn, hash-map inserts).
//! Averaged over 4 s windows the chunk's time had a log standard
//! deviation of 0.11–0.12. Allocator churn and hash-map inserts — what
//! the simulator itself spends its time on — tracked it best
//! (correlation 0.87–0.94, slope near 1); their geometric mean left a
//! residual of 0.04 in both data sets, a threefold reduction. Pure
//! compute or memory-latency kernels tracked it in one data set and
//! not in the other.

use crate::alloc_count;
use leaftl_repro::sim::{Arbiter, ArbiterView, Source};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// A slice ends at the first poll after this much work. The kernels
/// take about 2 ms, so calibration costs about 2 % of a phase.
const SLICE: Duration = Duration::from_millis(100);
/// Polls between looks at the clock.
const POLLS_PER_LOOK: u32 = 256;

/// What the two kernels take on the reference VM when it is quiet (the
/// fastest tenth of 700 samples). Arbitrary but fixed: changing them,
/// or the kernels, rescales every host-clock metric, so they change
/// only together with a new baseline.
const CHURN_REFERENCE_NS: f64 = 1_000_000.0;
const HASH_REFERENCE_NS: f64 = 700_000.0;

const CHURN_ALLOCATIONS: usize = 10_000;
const CHURN_LIVE: usize = 64;
const HASH_INSERTS: u64 = 20_000;

/// One closed phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct Lap {
    /// Wall time of the phase's slices, calibration excluded.
    pub raw: Duration,
    /// The same, each slice scaled to reference host speed.
    pub normalised: Duration,
    /// Wall time the calibration kernels themselves took.
    pub calibration: Duration,
    /// Allocation calls and bytes of the calibration kernels during
    /// the phase — the benchmark's own, to be left out of `alloc.*`.
    pub own_allocations: (u64, u64),
}

impl Lap {
    /// Reference-speed seconds per raw second: below 1 on a host that
    /// ran slower than the reference during the phase.
    pub fn speed_factor(&self) -> f64 {
        if self.raw.is_zero() {
            1.0
        } else {
            self.normalised.as_secs_f64() / self.raw.as_secs_f64()
        }
    }
}

#[derive(Debug)]
pub struct Pace {
    polls: u32,
    slice_start: Instant,
    raw_ns: f64,
    normalised_ns: f64,
    calibration_ns: f64,
    own_allocations: (u64, u64),
}

impl Pace {
    /// Starts the first slice now.
    pub fn new() -> Self {
        Pace {
            polls: 0,
            slice_start: Instant::now(),
            raw_ns: 0.0,
            normalised_ns: 0.0,
            calibration_ns: 0.0,
            own_allocations: (0, 0),
        }
    }

    /// Called once per unit of work from the measuring thread; cheap
    /// enough (a counter, and the clock every 256th call) to sit in a
    /// loop whose body takes a microsecond.
    #[inline]
    pub fn poll(&mut self) {
        self.polls += 1;
        if self.polls.is_multiple_of(POLLS_PER_LOOK) && self.slice_start.elapsed() >= SLICE {
            self.close_slice();
        }
    }

    /// Ends the current phase: closes its last slice and returns the
    /// totals, starting the next phase from zero.
    pub fn lap(&mut self) -> Lap {
        self.close_slice();
        let lap = Lap {
            raw: Duration::from_nanos(self.raw_ns as u64),
            normalised: Duration::from_nanos(self.normalised_ns as u64),
            calibration: Duration::from_nanos(self.calibration_ns as u64),
            own_allocations: self.own_allocations,
        };
        self.raw_ns = 0.0;
        self.normalised_ns = 0.0;
        self.calibration_ns = 0.0;
        self.own_allocations = (0, 0);
        lap
    }

    fn close_slice(&mut self) {
        let work_ns = self.slice_start.elapsed().as_nanos() as f64;
        let before = alloc_count::snapshot();
        let churn_ns = kernel_ns(churn_kernel);
        let hash_ns = kernel_ns(hash_kernel);
        let after = alloc_count::snapshot();
        self.own_allocations.0 += after.0 - before.0;
        self.own_allocations.1 += after.1 - before.1;
        let speed = ((CHURN_REFERENCE_NS / churn_ns) * (HASH_REFERENCE_NS / hash_ns)).sqrt();
        self.raw_ns += work_ns;
        self.normalised_ns += work_ns * speed;
        self.calibration_ns += churn_ns + hash_ns;
        self.slice_start = Instant::now();
    }
}

fn kernel_ns(kernel: fn() -> usize) -> f64 {
    let start = Instant::now();
    std::hint::black_box(kernel());
    (start.elapsed().as_nanos() as f64).max(1.0)
}

/// Allocates and zeroes 10 k buffers of 16 B – 4 KiB, keeping 64 alive.
fn churn_kernel() -> usize {
    let mut live: Vec<Vec<u8>> = Vec::with_capacity(CHURN_LIVE + 1);
    for i in 0..CHURN_ALLOCATIONS {
        live.push(vec![0u8; 16 + (i * 37) % 4000]);
        if live.len() > CHURN_LIVE {
            live.swap_remove(i % CHURN_LIVE);
        }
    }
    live.len()
}

/// Grows a hash map from empty to 20 k scattered keys.
fn hash_kernel() -> usize {
    let mut map: HashMap<u64, u64> = HashMap::new();
    for i in 0..HASH_INSERTS {
        map.insert(i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40, i);
    }
    map.len()
}

/// An [`Arbiter`] that polls the pace once per pick and otherwise
/// forwards. `Device::drain` runs a whole open-loop trace in one call;
/// the arbiter is the one place inside it where benchmark code runs,
/// so this is how that call gets cut into slices.
#[derive(Debug)]
pub struct PacedArbiter {
    inner: Box<dyn Arbiter>,
    pace: Rc<RefCell<Pace>>,
}

impl PacedArbiter {
    pub fn new(inner: Box<dyn Arbiter>, pace: &Rc<RefCell<Pace>>) -> Self {
        PacedArbiter {
            inner,
            pace: Rc::clone(pace),
        }
    }
}

impl Arbiter for PacedArbiter {
    fn pick(&mut self, view: &ArbiterView<'_>) -> Source {
        self.pace.borrow_mut().poll();
        self.inner.pick(view)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn set_weight(&mut self, queue: usize, weight: u32) {
        self.inner.set_weight(queue, weight);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn laps_partition_time_and_scale_it() {
        let mut pace = Pace::new();
        std::thread::sleep(Duration::from_millis(5));
        for _ in 0..10_000 {
            pace.poll();
        }
        let first = pace.lap();
        assert!(first.raw >= Duration::from_millis(5));
        // Whatever this host's speed, the scale is a sane number.
        assert!((0.05..20.0).contains(&first.speed_factor()), "{first:?}");
        let second = pace.lap();
        assert!(second.raw < first.raw);
        // The kernels allocate; the lap owns up to it.
        assert!(first.own_allocations.0 >= CHURN_ALLOCATIONS as u64);
        assert_eq!(Lap::default().speed_factor(), 1.0);
    }
}
