//! Greedy error-bounded piecewise linear regression (PLR).
//!
//! LeaFTL learns index segments with the maximum-error-bounded greedy
//! PLR of Xie et al. (the paper's reference \[64\]): a segment grows while
//! a line through the anchor point can pass within `±γ` of every point
//! (the feasible-slope *cone*); when the cone empties, the segment is
//! closed and a new one starts.
//!
//! After the real-valued fit, the slope is quantized to half precision
//! with the segment-type flag forced into its LSB, the integer intercept
//! is derived, and **every covered point is re-verified against the
//! quantized integer decoder** ([`Segment::translate`]). If quantization
//! breaks the bound for some point, the segment is shortened at that
//! point. γ = 0 therefore yields exclusively exact (accurate) segments,
//! and γ > 0 segments never exceed the bound — the paper's "guaranteed
//! error bound" enforced by construction.
//!
//! The fit allocates nothing: a run arrives as two parallel slices
//! (offsets, PPAs), [`fit`] yields its pieces one at a time, and each
//! piece's member list is a sub-slice of the run's offsets — what the
//! table's flush path hands straight to `Group::insert_piece`.

use crate::f16;
use crate::segment::{round_product, slope_stride, Segment};
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
    std::iter::from_fn(move || {
        let (xs, ys) = rest;
        if xs.is_empty() {
            return None;
        }
        let (segment, used) = fit_one(xs, ys, gamma);
        rest = (&xs[used..], &ys[used..]);
        Some(LearnedPiece {
            segment,
            members: &xs[..used],
        })
    })
}

/// Fits one maximal segment from the head of the run; returns it with
/// the number of points it indexes.
fn fit_one(xs: &[u8], ys: &[u64], gamma: u32) -> (Segment, usize) {
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
        if let Some(segment) = quantize(&xs[..len], &ys[..len], k_star, gamma) {
            return (segment, len);
        }
        len -= 1;
    }
    (Segment::single_point(x0, Ppa::new(y0)), 1)
}

/// Builds a verified [`Segment`] over the points, or `None` if no
/// half-precision slope honours the bound over all of them.
fn quantize(xs: &[u8], ys: &[u64], k_star: f64, gamma: u32) -> Option<Segment> {
    try_accurate(xs, ys).or_else(|| {
        if gamma > 0 {
            try_approximate(xs, ys, k_star, gamma)
        } else {
            None
        }
    })
}

/// Accurate classification: offsets form an arithmetic sequence with
/// stride `s` and PPAs are consecutive, i.e. the batch wrote a regular
/// stride pattern (slope `1/s`). Verifies exact translation *and* that
/// the stride test `⌈1/K⌉ == s` identifies exactly the members.
fn try_accurate(xs: &[u8], ys: &[u64]) -> Option<Segment> {
    let stride = xs[1] - xs[0];
    let arithmetic =
        xs.windows(2).all(|w| w[1] - w[0] == stride) && ys.windows(2).all(|w| w[1] - w[0] == 1);
    if !arithmetic || stride == 0 {
        return None;
    }
    let k_star = 1.0 / stride as f64;
    f16::candidates_with_flag(k_star, false)
        .into_iter()
        .filter(|&k_bits| slope_stride(k_bits) == Some(u32::from(stride)))
        .find_map(|k_bits| verified_segment(xs, ys, k_bits, 0))
}

/// Approximate classification: any half-precision slope close to the
/// cone midpoint whose integer predictions stay within `±γ`.
fn try_approximate(xs: &[u8], ys: &[u64], k_star: f64, gamma: u32) -> Option<Segment> {
    let k_star = k_star.clamp(0.0, f16::MAX_F16);
    for k_bits in f16::candidates_with_flag(k_star, true) {
        let k = f16::decode(k_bits);
        if k < 0.0 {
            continue;
        }
        if let Some(segment) = verified_segment(xs, ys, k_bits, gamma) {
            return Some(segment);
        }
    }
    None
}

/// Chooses the intercept for slope `k_bits` and verifies every point
/// against the exact [`Segment::translate`] decoder with bound `gamma`.
fn verified_segment(xs: &[u8], ys: &[u64], k_bits: u16, gamma: u32) -> Option<Segment> {
    let k = f16::decode(k_bits);
    let (mut e_min, mut e_max) = (i64::MAX, i64::MIN);
    for (&x, &y) in xs.iter().zip(ys) {
        let residual = y as i64 - round_product(k, x);
        e_min = e_min.min(residual);
        e_max = e_max.max(residual);
    }
    if e_max - e_min > 2 * gamma as i64 {
        return None;
    }
    // Midrange intercept: max deviation is ⌈spread/2⌉ ≤ γ.
    let intercept = e_min + (e_max - e_min) / 2;
    if intercept < i32::MIN as i64 || intercept > i32::MAX as i64 {
        return None;
    }
    if e_max - intercept > gamma as i64 || intercept - e_min > gamma as i64 {
        return None;
    }
    let start = xs[0];
    let end = xs[xs.len() - 1];
    let segment = Segment::from_parts(start, end - start, k_bits, intercept as i32);
    // Final authoritative check against the decoder the lookup path uses.
    for (&x, &y) in xs.iter().zip(ys) {
        let predicted = segment.translate(x).raw() as i64;
        if (predicted - y as i64).unsigned_abs() > gamma as u64 {
            return None;
        }
    }
    Some(segment)
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
        // segment when gamma >= 1 (paper uses K=0.56, I=64, gamma=4).
        let points = vec![(0u8, 64u64), (1, 65), (4, 66), (5, 67)];
        let pieces = fit(&points, 4);
        assert_eq!(pieces.len(), 1);
        let piece = &pieces[0];
        assert!(piece.segment.is_approximate());
        assert_eq!(piece.members, vec![0, 1, 4, 5]);
        for &(x, y) in &points {
            let err = piece.segment.translate(x).raw() as i64 - y as i64;
            assert!(err.unsigned_abs() <= 4, "err {err} at x={x}");
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
