//! Greedy error-bounded piecewise linear regression (PLR).
//!
//! LeaFTL learns index segments with the maximum-error-bounded greedy
//! PLR of Xie et al. (the paper's reference \[64\]): a segment grows while
//! a line through the anchor point can pass within `±γ` of every point
//! (the feasible-slope *cone*); when the cone empties, the segment is
//! closed and a new one starts.
//!
//! After the real-valued fit, the slope is quantized to half precision
//! with the segment-type flag forced into its LSB, and **every covered
//! point is verified against the quantized integer decoder**
//! ([`Segment::translate`]). If quantization breaks the bound for some
//! point, the segment is shortened at that point. γ = 0 therefore yields
//! exclusively exact (accurate) segments, and γ > 0 segments never exceed
//! the bound — the paper's "guaranteed error bound" enforced by
//! construction.
//!
//! **Choosing (K, I).** An accurate segment stores the slope its stride
//! fixes. An approximate segment exists when a half-precision neighbour
//! of the cone midpoint keeps every point within `±γ`; that settles its
//! length and members. Since a mispredicted lookup reads flash twice
//! (§3.5), the learner then scores that slope and the lines from the
//! first point to four points spread evenly along the segment (the
//! last included), and stores the pair that predicts the most members
//! exactly. For each slope the intercept is the most common residual
//! `y − round(K·x)` among those that keep every point within `±γ`,
//! counted on a ring of `γ + 1` slots; ties go to the midrange, and the
//! search stops once every member is exact. On the paper's Fig. 6
//! example (LPAs 0, 1, 4, 5 → PPAs 64–67, γ = 4) the stored pair
//! predicts all four exactly; the midrange intercept at the cone slope
//! predicted one.
//!
//! The fit allocates nothing: a run arrives as two parallel slices
//! (offsets, PPAs), [`fit`] yields its pieces one at a time, and each
//! piece's member list is a sub-slice of the run's offsets — what the
//! table's flush path hands straight to `Group::insert_piece`.

use crate::f16;
use crate::segment::{fixed_slope, round_fixed, slope_stride, Segment};
use leaftl_flash::Ppa;

/// A fitted segment together with the exact set of group offsets it
/// indexes, borrowed from the run it was fitted over. For accurate
/// segments the member set is implied by the stride; for approximate
/// segments the caller must register the members in the group's CRB
/// (§3.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LearnedPiece<'a> {
    /// The 8-byte encoded segment.
    pub segment: Segment,
    /// Group offsets of the LPAs this segment actually indexes, sorted.
    pub members: &'a [u8],
}

impl LearnedPiece<'_> {
    /// Number of LPA→PPA mappings this piece indexes.
    pub fn member_count(&self) -> usize {
        self.members.len()
    }
}

/// Fits learned segments over one run with error bound `gamma`,
/// yielding them in offset order.
///
/// The run is `offsets[i] → ppas[i]`: group offsets that must be
/// strictly increasing, mapped to raw PPAs that must be strictly
/// increasing too — the natural shape of a buffer flush after LPA
/// sorting (§3.3): ascending LPAs get ascending PPAs.
///
/// # Panics
///
/// Panics if the slices differ in length and (debug builds) if the
/// input violates monotonicity.
pub fn fit<'a>(
    offsets: &'a [u8],
    ppas: &'a [u64],
    gamma: u32,
) -> impl Iterator<Item = LearnedPiece<'a>> + 'a {
    assert_eq!(offsets.len(), ppas.len(), "one ppa per offset");
    debug_assert!(
        offsets.windows(2).all(|w| w[0] < w[1]) && ppas.windows(2).all(|w| w[0] < w[1]),
        "plr input must be strictly increasing in offset and ppa"
    );
    let mut rest = (offsets, ppas);
    let mut counts = [0; SLOTS];
    std::iter::from_fn(move || {
        let (xs, ys) = rest;
        if xs.is_empty() {
            return None;
        }
        let (segment, used) = fit_one(xs, ys, gamma, &mut counts);
        rest = (&xs[used..], &ys[used..]);
        Some(LearnedPiece {
            segment,
            members: &xs[..used],
        })
    })
}

/// Fits one maximal segment from the head of the run; returns it with
/// the number of points it indexes. `counts` is the scorers' residual
/// count, all zero.
fn fit_one(xs: &[u8], ys: &[u64], gamma: u32, counts: &mut Counts) -> (Segment, usize) {
    let (x0, y0) = (xs[0], ys[0]);

    // Grow the feasible-slope cone anchored at (x0, y0).
    let mut lo = 0.0_f64;
    let mut hi = f64::INFINITY;
    let mut m = 1;
    while m < xs.len() {
        let dx = (xs[m] - x0) as f64;
        let dy = ys[m] as f64 - y0 as f64;
        let new_lo = lo.max((dy - gamma as f64) / dx);
        let new_hi = hi.min((dy + gamma as f64) / dx);
        if new_lo > new_hi {
            break;
        }
        lo = new_lo;
        hi = new_hi;
        m += 1;
    }
    let k_star = if m == 1 {
        0.0
    } else {
        0.5 * (lo + hi.min(f16::MAX_F16))
    };

    // Quantize and verify; shorten on violation. Terminates because a
    // single point always verifies.
    let mut len = m;
    while len > 1 {
        if let Some(segment) = quantize(&xs[..len], &ys[..len], k_star, gamma, counts) {
            return (segment, len);
        }
        len -= 1;
    }
    (Segment::single_point(x0, Ppa::new(y0)), 1)
}

/// Builds a verified [`Segment`] over the points, or `None` if no
/// half-precision slope honours the bound over all of them.
fn quantize(
    xs: &[u8],
    ys: &[u64],
    k_star: f64,
    gamma: u32,
    counts: &mut Counts,
) -> Option<Segment> {
    try_accurate(xs, ys, counts).or_else(|| {
        if gamma > 0 {
            try_approximate(xs, ys, k_star, gamma, counts)
        } else {
            None
        }
    })
}

/// Accurate classification: offsets form an arithmetic sequence with
/// stride `s` and PPAs are consecutive, i.e. the batch wrote a regular
/// stride pattern (slope `1/s`). Verifies exact translation *and* that
/// the stride test `⌈1/K⌉ == s` identifies exactly the members.
fn try_accurate(xs: &[u8], ys: &[u64], counts: &mut Counts) -> Option<Segment> {
    let stride = xs[1] - xs[0];
    let arithmetic =
        xs.windows(2).all(|w| w[1] - w[0] == stride) && ys.windows(2).all(|w| w[1] - w[0] == 1);
    if !arithmetic || stride == 0 {
        return None;
    }
    let mut scorer = Scorer::new(xs, ys, 0, counts);
    f16::candidates_with_flag(1.0 / stride as f64, false)
        .into_iter()
        .filter(|&k_bits| slope_stride(k_bits) == Some(u32::from(stride)))
        .find_map(|k_bits| {
            scorer.consider(k_bits);
            scorer.verified()
        })
}

/// Approximate classification. The points form one segment when a
/// half-precision slope next to the cone midpoint keeps them all within
/// `±γ`; the segment then stores the (K, I) that predicts the most of
/// them exactly, of that slope's and the [`LINES`] lines'.
fn try_approximate(
    xs: &[u8],
    ys: &[u64],
    k_star: f64,
    gamma: u32,
    counts: &mut Counts,
) -> Option<Segment> {
    let mut scorer = Scorer::new(xs, ys, gamma, counts);
    for k_bits in f16::candidates_with_flag(k_star.clamp(0.0, f16::MAX_F16), true) {
        if scorer.best.is_none() {
            scorer.consider(k_bits);
        }
    }
    scorer.best?;
    // Lines from the first point to points spread evenly along the
    // segment, the last one included: a line through two members
    // predicts both exactly unless quantizing its slope moves one.
    let last = xs.len() - 1;
    let mut previous = 0;
    for end in (1..=LINES).map(|line| (line * last).div_ceil(LINES)) {
        if end == previous {
            continue;
        }
        previous = end;
        let rise = (ys[end] - ys[0]) as f64;
        let slope = (rise / f64::from(xs[end] - xs[0])).min(f16::MAX_F16);
        let [down, up] = f16::candidates_with_flag(slope, true);
        let nearer = if slope - f16::decode(down) <= f16::decode(up) - slope {
            down
        } else {
            up
        };
        scorer.consider(nearer);
    }
    scorer.verified()
}

/// How many lines through the first point an approximate segment
/// scores besides the cone-midpoint slope, to points spread evenly
/// along it (more lines predict a few more members exactly, each at the
/// cost of a pass over the segment).
const LINES: usize = 4;

/// Slots of the residual count: a ring of `γ + 1` rounded up to a
/// power of two, at most this many (every γ a 256-byte OOB can verify
/// gets a ring of its own).
const SLOTS: usize = 64;

/// The residual count, one per [`fit`] and zero between slopes.
type Counts = [u16; SLOTS];

/// Scores slopes over one segment's points: for each, the intercept
/// that keeps every point within `±γ` and predicts the most of them
/// exactly; keeps the best pair.
struct Scorer<'a> {
    xs: &'a [u8],
    ys: &'a [u64],
    gamma: i64,
    /// Points per residual value on a ring of `mask + 1` slots.
    counts: &'a mut Counts,
    mask: i64,
    /// The slopes scored so far, so a repeat is not scored twice.
    tried: [u16; 2 + LINES],
    tried_len: usize,
    /// The best segment so far and the points it predicts exactly.
    best: Option<(Segment, usize)>,
}

impl<'a> Scorer<'a> {
    fn new(xs: &'a [u8], ys: &'a [u64], gamma: u32, counts: &'a mut Counts) -> Self {
        Scorer {
            xs,
            ys,
            gamma: i64::from(gamma),
            counts,
            mask: (gamma as usize + 1).next_power_of_two().min(SLOTS) as i64 - 1,
            tried: [0; 2 + LINES],
            tried_len: 0,
            best: None,
        }
    }

    /// Scores slope `k_bits` unless it was scored already or the best
    /// pair predicts every point; keeps it if it predicts more points
    /// exactly than the best so far (the first of equals stays).
    fn consider(&mut self, k_bits: u16) {
        let done = self.best.is_some_and(|(_, exact)| exact == self.xs.len());
        if done || self.tried[..self.tried_len].contains(&k_bits) {
            return;
        }
        self.tried[self.tried_len] = k_bits;
        self.tried_len += 1;
        if let Some((segment, exact)) = self.score(k_bits) {
            if self.best.is_none_or(|(_, best)| exact > best) {
                self.best = Some((segment, exact));
            }
        }
    }

    /// The segment with slope `k_bits` whose intercept is the most
    /// common residual among those that keep every point within `±γ`
    /// (ties to the midrange), and how many points it predicts exactly;
    /// `None` when no intercept keeps them all.
    fn score(&mut self, k_bits: u16) -> Option<(Segment, usize)> {
        let slope = fixed_slope(k_bits);
        let (xs, ys, gamma, mask) = (self.xs, self.ys, self.gamma, self.mask);
        let n = xs.len();
        let residual = |(&x, &y): (&u8, &u64)| y as i64 - round_fixed(slope, x);
        let points = || xs.iter().zip(ys);
        // The endpoints first: most slopes that fail, fail there.
        let (first, last) = (
            residual((&xs[0], &ys[0])),
            residual((&xs[n - 1], &ys[n - 1])),
        );
        let (mut e_min, mut e_max) = (first.min(last), first.max(last));
        if e_max - e_min > 2 * gamma {
            return None;
        }
        // Points per residual value, on the ring slot its distance from
        // the first residual names: values less than a ring apart never
        // share a slot, and every residual lies within γ of every
        // feasible intercept (below), so a ring longer than γ counts
        // each intercept exactly.
        let slot = |r: i64| ((r - first) & mask) as usize;
        for r in points().map(residual) {
            e_min = e_min.min(r);
            e_max = e_max.max(r);
            if e_max - e_min > 2 * gamma {
                self.counts[..=mask as usize].fill(0);
                return None;
            }
            self.counts[slot(r)] += 1;
        }
        // An intercept keeps every point within ±γ iff it lies in
        // [e_max − γ, e_min + γ], and predicts a point exactly where it
        // equals the point's residual: at most γ + 1 values, and the
        // ring's size from γ = 64 up.
        let lo = e_min.max(e_max - gamma);
        let hi = e_max.min(e_min + gamma).min(lo + mask);
        if gamma > mask {
            // Only from γ = 64 up, where the ring can merge residuals 64
            // apart: count the lowest feasible values again, by value.
            self.counts.fill(0);
            for r in points().map(residual) {
                if (lo..=hi).contains(&r) {
                    self.counts[slot(r)] += 1;
                }
            }
        }
        // Translation clamps at PPA 0, so when the first point is PPA 0
        // every intercept below its residual predicts it exactly too.
        let exact_at = |counts: &[u16], value: i64| {
            counts[slot(value)] + u16::from(ys[0] == 0 && value < first)
        };
        let mid = (e_min + (e_max - e_min) / 2).clamp(lo, hi);
        let (mut intercept, mut exact) = (mid, exact_at(self.counts, mid));
        for value in lo..=hi {
            let count = exact_at(self.counts, value);
            let closer = (value - mid).abs() < (intercept - mid).abs();
            if count > exact || (count == exact && closer) {
                (intercept, exact) = (value, count);
            }
        }
        self.counts[..=mask as usize].fill(0);
        let intercept = i32::try_from(intercept).ok()?;
        let start = xs[0];
        let segment = Segment::from_parts(start, xs[n - 1] - start, k_bits, intercept);
        Some((segment, usize::from(exact)))
    }

    /// The best segment, checked point by point against the decoder the
    /// lookup path uses ([`Segment::translate`]).
    fn verified(&self) -> Option<Segment> {
        let (segment, _) = self.best?;
        let within = self.xs.iter().zip(self.ys).all(|(&x, &y)| {
            let predicted = segment.translate(x).raw() as i64;
            (predicted - y as i64).unsigned_abs() <= self.gamma as u64
        });
        within.then_some(segment)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fits `points` and collects the pieces as (segment, members).
    fn fit(points: &[(u8, u64)], gamma: u32) -> Vec<OwnedPiece> {
        let (xs, ys): (Vec<u8>, Vec<u64>) = points.iter().copied().unzip();
        super::fit(&xs, &ys, gamma)
            .map(|piece| OwnedPiece {
                segment: piece.segment,
                members: piece.members.to_vec(),
            })
            .collect()
    }

    struct OwnedPiece {
        segment: Segment,
        members: Vec<u8>,
    }

    fn consecutive(start_x: u8, start_y: u64, n: usize) -> Vec<(u8, u64)> {
        (0..n as u64)
            .map(|i| (start_x + i as u8, start_y + i))
            .collect()
    }

    #[test]
    fn sequential_run_learns_one_accurate_segment() {
        let points = consecutive(0, 1000, 100);
        let pieces = fit(&points, 0);
        assert_eq!(pieces.len(), 1);
        let piece = &pieces[0];
        assert!(piece.segment.is_accurate());
        assert_eq!(piece.members.len(), 100);
        for &(x, y) in &points {
            assert_eq!(piece.segment.translate(x).raw(), y);
        }
    }

    #[test]
    fn strided_run_learns_one_accurate_segment() {
        // LPAs 0,3,6,...,60 with consecutive PPAs: slope 1/3.
        let points: Vec<(u8, u64)> = (0..21u64).map(|i| ((3 * i) as u8, 500 + i)).collect();
        let pieces = fit(&points, 0);
        assert_eq!(pieces.len(), 1);
        let piece = &pieces[0];
        assert!(piece.segment.is_accurate());
        assert_eq!(piece.segment.stride(), Some(3));
        for &(x, y) in &points {
            assert_eq!(piece.segment.translate(x).raw(), y);
            assert!(piece.segment.accurate_has_offset(x));
        }
        // Non-members are rejected by the stride test.
        assert!(!piece.segment.accurate_has_offset(1));
        assert!(!piece.segment.accurate_has_offset(4));
    }

    #[test]
    fn paper_figure6_approximate_example() {
        // LPAs [0,1,4,5] -> PPAs [64,65,66,67] learn as one approximate
        // segment when gamma >= 1; the paper's K=0.56, I=64 (gamma=4)
        // translates all four exactly, and so must the stored pair.
        let points = vec![(0u8, 64u64), (1, 65), (4, 66), (5, 67)];
        let pieces = fit(&points, 4);
        assert_eq!(pieces.len(), 1);
        let piece = &pieces[0];
        assert!(piece.segment.is_approximate());
        assert_eq!(piece.members, vec![0, 1, 4, 5]);
        for &(x, y) in &points {
            assert_eq!(
                piece.segment.translate(x).raw(),
                y,
                "{} at x={x}",
                piece.segment
            );
        }
    }

    /// Members of `piece` that `segment` translates exactly.
    fn exact_members(segment: &Segment, xs: &[u8], ys: &[u64]) -> usize {
        xs.iter()
            .zip(ys)
            .filter(|&(&x, &y)| segment.translate(x).raw() == y)
            .count()
    }

    /// Random strictly increasing runs: offset gaps, PPA gaps (mostly
    /// consecutive, with jumps) and first PPAs (PPA 0 included) drawn
    /// per run.
    fn random_runs(seed: u64, count: usize) -> Vec<(Vec<u8>, Vec<u64>)> {
        let mut state = seed;
        let mut next = move |bound: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % bound
        };
        (0..count)
            .map(|_| {
                let max_gap = [1, 2, 3, 5, 12][next(5) as usize];
                let jump_every = [2, 4, 16, 1_000][next(4) as usize];
                let max_jump = [2, 8, 300][next(3) as usize];
                let mut ppa = [0, 3, 40_000, 1 << 24][next(4) as usize];
                let mut offset = next(64);
                let (mut xs, mut ys) = (Vec::new(), Vec::new());
                while offset <= 255 {
                    xs.push(offset as u8);
                    ys.push(ppa);
                    offset += 1 + next(max_gap);
                    ppa += if next(jump_every) == 0 {
                        2 + next(max_jump)
                    } else {
                        1
                    };
                }
                (xs, ys)
            })
            .collect()
    }

    #[test]
    fn scored_pairs_keep_the_midrange_segmentation_and_predict_more_exactly() {
        // γ = 100 spreads residuals wider than the count's ring.
        for gamma in [1u32, 4, 16, 100] {
            let (mut exact, mut oracle_exact) = (0, 0);
            for (xs, ys) in random_runs(0xf1f0 ^ u64::from(gamma), 400) {
                let pieces: Vec<LearnedPiece> = super::fit(&xs, &ys, gamma).collect();
                let oracle = midrange::fit(&xs, &ys, gamma);
                assert_eq!(
                    pieces.len(),
                    oracle.len(),
                    "gamma={gamma} run {xs:?} → {ys:?}"
                );
                let mut at = 0;
                for (piece, &(expected, used)) in pieces.iter().zip(&oracle) {
                    let (px, py) = (&xs[at..at + used], &ys[at..at + used]);
                    at += used;
                    let segment = piece.segment;
                    assert_eq!(piece.members, px, "gamma={gamma}: members of {segment}");
                    assert_eq!(
                        (segment.start(), segment.len(), segment.is_accurate()),
                        (expected.start(), expected.len(), expected.is_accurate()),
                        "gamma={gamma}: {segment} against {expected}"
                    );
                    if segment.is_accurate() {
                        assert_eq!(segment, expected);
                    }
                    for (&x, &y) in px.iter().zip(py) {
                        let err = segment.translate(x).raw().abs_diff(y);
                        assert!(
                            err <= u64::from(gamma),
                            "gamma={gamma} {segment} x={x} err={err}"
                        );
                    }
                    let (got, was) = (
                        exact_members(&segment, px, py),
                        exact_members(&expected, px, py),
                    );
                    assert!(
                        got >= was,
                        "gamma={gamma}: {segment} {got} exact, {expected} {was}"
                    );
                    if segment.is_approximate() {
                        exact += got;
                        oracle_exact += was;
                    }
                }
            }
            assert!(
                exact > oracle_exact,
                "gamma={gamma}: {exact} exact against {oracle_exact}"
            );
        }
    }

    /// The fit as it was before the (K, I) search: the same cone and
    /// shortening, each segment storing the midrange intercept at the
    /// first candidate slope that verifies. Yields (segment, members).
    mod midrange {
        use super::super::{f16, slope_stride, Ppa, Segment};
        use crate::segment::round_product;

        pub(super) fn fit(xs: &[u8], ys: &[u64], gamma: u32) -> Vec<(Segment, usize)> {
            let mut pieces = Vec::new();
            let mut at = 0;
            while at < xs.len() {
                let piece = fit_one(&xs[at..], &ys[at..], gamma);
                at += piece.1;
                pieces.push(piece);
            }
            pieces
        }

        fn fit_one(xs: &[u8], ys: &[u64], gamma: u32) -> (Segment, usize) {
            let (x0, y0) = (xs[0], ys[0]);
            let (mut lo, mut hi) = (0.0_f64, f64::INFINITY);
            let mut m = 1;
            while m < xs.len() {
                let dx = (xs[m] - x0) as f64;
                let dy = ys[m] as f64 - y0 as f64;
                let new_lo = lo.max((dy - gamma as f64) / dx);
                let new_hi = hi.min((dy + gamma as f64) / dx);
                if new_lo > new_hi {
                    break;
                }
                (lo, hi) = (new_lo, new_hi);
                m += 1;
            }
            let k_star = if m == 1 {
                0.0
            } else {
                0.5 * (lo + hi.min(f16::MAX_F16))
            };
            for len in (2..=m).rev() {
                let (xs, ys) = (&xs[..len], &ys[..len]);
                let stride = xs[1] - xs[0];
                let accurate = xs.windows(2).all(|w| w[1] - w[0] == stride)
                    && ys.windows(2).all(|w| w[1] - w[0] == 1);
                let segment = accurate
                    .then(|| {
                        f16::candidates_with_flag(1.0 / stride as f64, false)
                            .into_iter()
                            .filter(|&k| slope_stride(k) == Some(u32::from(stride)))
                            .find_map(|k| verified_segment(xs, ys, k, 0))
                    })
                    .flatten()
                    .or_else(|| {
                        let k_star = k_star.clamp(0.0, f16::MAX_F16);
                        (gamma > 0)
                            .then(|| {
                                f16::candidates_with_flag(k_star, true)
                                    .into_iter()
                                    .filter(|&k| f16::decode(k) >= 0.0)
                                    .find_map(|k| verified_segment(xs, ys, k, gamma))
                            })
                            .flatten()
                    });
                if let Some(segment) = segment {
                    return (segment, len);
                }
            }
            (Segment::single_point(x0, Ppa::new(y0)), 1)
        }

        fn verified_segment(xs: &[u8], ys: &[u64], k_bits: u16, gamma: u32) -> Option<Segment> {
            let k = f16::decode(k_bits);
            let residuals = xs
                .iter()
                .zip(ys)
                .map(|(&x, &y)| y as i64 - round_product(k, x));
            let e_min = residuals.clone().min()?;
            let e_max = residuals.max()?;
            if e_max - e_min > 2 * i64::from(gamma) {
                return None;
            }
            let intercept = i32::try_from(e_min + (e_max - e_min) / 2).ok()?;
            let segment = Segment::from_parts(xs[0], xs[xs.len() - 1] - xs[0], k_bits, intercept);
            xs.iter()
                .zip(ys)
                .all(|(&x, &y)| segment.translate(x).raw().abs_diff(y) <= u64::from(gamma))
                .then_some(segment)
        }
    }

    #[test]
    fn gamma_zero_splits_irregular_pattern() {
        let points = vec![(0u8, 64u64), (1, 65), (4, 66), (5, 67)];
        let pieces = fit(&points, 0);
        // No single exact line exists; expect 2 accurate pieces.
        assert_eq!(pieces.len(), 2);
        assert!(pieces.iter().all(|p| p.segment.is_accurate()));
        for piece in &pieces {
            for &x in &piece.members {
                let y = points.iter().find(|p| p.0 == x).unwrap().1;
                assert_eq!(piece.segment.translate(x).raw(), y);
            }
        }
    }

    #[test]
    fn random_pattern_degrades_to_few_point_segments() {
        // Widely scattered PPAs: nothing is learnable even with gamma=8;
        // only single points (and occasional 2-point strides) emerge.
        let points: Vec<(u8, u64)> = (0..16u64)
            .map(|i| (i as u8, 10_000 + i * 997 % 7919 * 100))
            .collect();
        let points = {
            let mut p = points;
            p.sort_by_key(|&(x, _)| x);
            // Fix monotonicity in y for the contract.
            let mut y = 0u64;
            for item in &mut p {
                y += 1 + item.1 % 500;
                item.1 = y;
            }
            p
        };
        let pieces = fit(&points, 0);
        let total: usize = pieces.iter().map(|p| p.members.len()).sum();
        assert_eq!(total, points.len());
    }

    #[test]
    fn error_bound_holds_for_all_gammas() {
        // Deterministic irregular-but-monotonic pattern.
        let mut points = Vec::new();
        let mut x = 0u32;
        let mut y = 40_000u64;
        let mut state = 0x12345678u64;
        while x <= 255 {
            points.push((x as u8, y));
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x += 1 + (state >> 33) as u32 % 4;
            y += 1;
        }
        for gamma in [0u32, 1, 4, 8, 16] {
            let pieces = fit(&points, gamma);
            let mut covered = 0;
            for piece in &pieces {
                for &x in &piece.members {
                    let y = points.iter().find(|p| p.0 == x).unwrap().1;
                    let err = (piece.segment.translate(x).raw() as i64 - y as i64).unsigned_abs();
                    assert!(err <= gamma as u64, "gamma={gamma} x={x} err={err}");
                    covered += 1;
                }
            }
            assert_eq!(covered, points.len(), "gamma={gamma}");
        }
    }

    #[test]
    fn larger_gamma_never_needs_more_segments() {
        let mut points = Vec::new();
        let mut state = 99u64;
        let mut y = 0u64;
        for x in (0..=255u32).step_by(2) {
            state = state
                .wrapping_mul(2862933555777941757)
                .wrapping_add(3037000493);
            y += 1 + (state >> 60) % 3;
            points.push((x as u8, y));
        }
        let mut last = usize::MAX;
        for gamma in [0u32, 1, 4, 8, 16] {
            let n = fit(&points, gamma).len();
            assert!(n <= last, "gamma={gamma}: {n} > {last}");
            last = n;
        }
    }

    #[test]
    fn single_point_input() {
        let piece = super::fit(&[17], &[4242], 4).next().expect("one piece");
        assert_eq!(piece.member_count(), 1);
        let pieces = fit(&[(17, 4242)], 4);
        assert_eq!(pieces.len(), 1);
        assert_eq!(pieces[0].segment.translate(17).raw(), 4242);
        assert_eq!(pieces[0].members, vec![17]);
        assert!(pieces[0].segment.is_accurate());
    }

    #[test]
    fn empty_input() {
        assert!(fit(&[], 0).is_empty());
    }

    #[test]
    fn members_partition_input() {
        let points: Vec<(u8, u64)> = (0..=255u8).map(|x| (x, 7 + x as u64)).collect();
        for gamma in [0, 4] {
            let pieces = fit(&points, gamma);
            let mut all: Vec<u8> = pieces.iter().flat_map(|p| p.members.clone()).collect();
            all.sort_unstable();
            let expected: Vec<u8> = (0..=255).collect();
            assert_eq!(all, expected);
        }
    }
}
