//! The 8-byte learned index segment (§3.2 of the paper).

use crate::f16;
use leaftl_flash::Ppa;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A learned index segment `(S, L, K, I)` covering part of one 256-LPA
/// group.
///
/// * `S` (1 B) — start offset of the covered interval within the group;
/// * `L` (1 B) — interval length: the segment covers offsets `[S, S+L]`;
/// * `K` (2 B) — half-precision slope; its least-significant bit is the
///   segment type flag (0 = accurate, 1 = approximate);
/// * `I` (4 B) — signed integer intercept.
///
/// Translation is `PPA = round(K · x) + I` where `x` is the group offset
/// of the LPA. The paper writes `⌈K · LPA + I⌉`; we use round-to-nearest
/// on the group offset so that half-precision quantization of `K` cannot
/// perturb translations of accurate segments. The learning path
/// verifies every covered point against this exact decode function, so
/// the error contract is enforced by construction.
///
/// The whole struct packs into exactly 8 bytes, matching the paper's
/// memory accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Segment {
    start: u8,
    len: u8,
    k_bits: u16,
    intercept: i32,
}

impl Segment {
    /// Builds a segment from raw parts.
    ///
    /// `start + len` must not exceed 255 (the segment must stay inside
    /// its group).
    ///
    /// # Panics
    ///
    /// Panics if `start as u16 + len as u16 > 255`.
    pub fn from_parts(start: u8, len: u8, k_bits: u16, intercept: i32) -> Self {
        assert!(
            start as u16 + len as u16 <= 255,
            "segment [{start}, {start}+{len}] leaves its 256-LPA group"
        );
        Segment {
            start,
            len,
            k_bits,
            intercept,
        }
    }

    /// A single-point segment: `L = 0`, `K = 0`, `I = PPA` (§3.1).
    ///
    /// Used for random writes; costs the same 8 bytes as one page-level
    /// mapping entry, so LeaFTL never consumes more memory than the
    /// page-level scheme.
    pub fn single_point(offset: u8, ppa: Ppa) -> Self {
        Segment {
            start: offset,
            len: 0,
            k_bits: 0,
            #[expect(
                clippy::expect_used,
                reason = "geometry caps physical page addresses far below i32::MAX; try_from documents the assumption"
            )]
            intercept: i32::try_from(ppa.raw()).expect("ppa fits i32 by geometry construction"),
        }
    }

    /// Start offset `S` within the group.
    #[inline]
    pub fn start(&self) -> u8 {
        self.start
    }

    /// Interval length `L`; the covered interval is `[S, S+L]`.
    #[inline]
    pub fn len(&self) -> u8 {
        self.len
    }

    /// A segment always covers at least its start offset; `is_empty` is
    /// provided for `len`-API symmetry and is always `false`.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Whether this is a single-point segment (`L == 0`, `K == 0`,
    /// `I = PPA` — the §3.1 random-write fallback).
    #[inline]
    pub fn is_single_point(&self) -> bool {
        self.len == 0 && self.k_bits == 0
    }

    /// Last covered offset (`S + L`).
    #[inline]
    pub fn end(&self) -> u8 {
        debug_assert!(self.start as u16 + self.len as u16 <= 255);
        self.start + self.len
    }

    /// Raw half-precision slope bits (LSB = type flag).
    #[inline]
    pub fn k_bits(&self) -> u16 {
        self.k_bits
    }

    /// Decoded slope value.
    #[inline]
    pub fn slope(&self) -> f64 {
        f16::decode(self.k_bits)
    }

    /// Integer intercept `I`.
    #[inline]
    pub fn intercept(&self) -> i32 {
        self.intercept
    }

    /// Whether the segment is accurate (type flag clear, §3.2).
    #[inline]
    pub fn is_accurate(&self) -> bool {
        !f16::flag_of(self.k_bits)
    }

    /// Whether the segment is approximate (type flag set).
    #[inline]
    pub fn is_approximate(&self) -> bool {
        f16::flag_of(self.k_bits)
    }

    /// Whether `offset` falls inside the covered interval `[S, S+L]`.
    #[inline]
    pub fn covers(&self, offset: u8) -> bool {
        offset >= self.start && offset <= self.end()
    }

    /// Whether this segment's interval overlaps `other`'s.
    #[inline]
    pub fn overlaps(&self, other: &Segment) -> bool {
        self.start <= other.end() && other.start <= self.end()
    }

    /// Translates a group offset into a physical page address.
    ///
    /// For offsets that are genuine members this is exact (accurate
    /// segments) or within the configured error bound (approximate
    /// segments). For non-member offsets the result is meaningless; the
    /// caller must check membership first (stride test or CRB).
    #[inline]
    pub fn translate(&self, offset: u8) -> Ppa {
        let raw = round_product(self.slope(), offset) + self.intercept as i64;
        Ppa::new(raw.max(0) as u64)
    }

    /// The LPA stride of an accurate segment: `⌈1/K⌉` (§3.2, Algorithm 2).
    ///
    /// Single-point segments (`K = 0`) have no stride; returns `None`.
    pub fn stride(&self) -> Option<u32> {
        if self.len == 0 {
            return None;
        }
        slope_stride(self.k_bits)
    }

    /// Membership test for accurate segments: the offset must lie in the
    /// interval and on the stride grid anchored at `S`
    /// (`(x − S) mod ⌈1/K⌉ == 0`, Algorithm 2 line 3).
    ///
    /// Must only be called on accurate segments.
    pub fn accurate_has_offset(&self, offset: u8) -> bool {
        debug_assert!(self.is_accurate());
        if !self.covers(offset) {
            return false;
        }
        match self.stride() {
            None => offset == self.start, // single-point
            Some(stride) => ((offset - self.start) as u32).is_multiple_of(stride),
        }
    }

    /// Enumerates the member offsets an accurate segment claims
    /// (Algorithm 2 `get_bitmap` reconstruction).
    pub fn accurate_members(&self) -> Vec<u8> {
        debug_assert!(self.is_accurate());
        match self.stride() {
            None => vec![self.start],
            Some(stride) => (self.start as u32..=self.end() as u32)
                .step_by(stride as usize)
                .map(|x| x as u8)
                .collect(),
        }
    }

    /// Shrinks the covered interval to `[new_start, new_start + new_len]`
    /// after a merge trimmed members (Algorithm 2 line 21). The slope and
    /// intercept are deliberately unchanged — translation does not depend
    /// on `S`.
    pub(crate) fn set_interval(&mut self, new_start: u8, new_len: u8) {
        assert!(new_start as u16 + new_len as u16 <= 255);
        self.start = new_start;
        self.len = new_len;
    }

    /// Packs the segment into its 8-byte wire representation.
    pub fn encode(&self) -> u64 {
        (self.start as u64)
            | (self.len as u64) << 8
            | (self.k_bits as u64) << 16
            | (self.intercept as u32 as u64) << 32
    }

    /// Unpacks a segment from its 8-byte wire representation.
    pub fn decode(word: u64) -> Self {
        Segment {
            start: (word & 0xff) as u8,
            len: ((word >> 8) & 0xff) as u8,
            k_bits: ((word >> 16) & 0xffff) as u16,
            intercept: ((word >> 32) & 0xffff_ffff) as u32 as i32,
        }
    }

    /// The segment's in-memory/on-flash footprint in bytes.
    pub const ENCODED_BYTES: usize = 8;
}

/// `⌈1/K⌉` of the half-float slope `k_bits`, `None` for a zero or
/// negative one: the stride the learner accepts a slope for and the one
/// the stride test walks.
pub(crate) fn slope_stride(k_bits: u16) -> Option<u32> {
    if k_bits == 0 || k_bits >= 0x8000 {
        return None;
    }
    // A positive half is `significand × 2^-scale` — or, from 1024 up, a
    // multiple of the significand — so `⌈1/K⌉` is one integer division,
    // and 1 for every slope of at least 1.
    let exponent = u32::from(k_bits >> 10);
    let mantissa = u32::from(k_bits & 0x3ff);
    let (significand, scale) = match exponent {
        0 => (mantissa, 24),
        _ => (1024 + mantissa, 25u32.saturating_sub(exponent)),
    };
    Some((1u32 << scale).div_ceil(significand))
}

/// A non-negative finite half-float slope as `multiplier × 2^-shift`,
/// exactly: `(multiplier, shift)`.
pub(crate) fn fixed_slope(k_bits: u16) -> (u64, u32) {
    debug_assert!(
        k_bits < 0x7c00,
        "slope {k_bits:#06x} is not non-negative and finite"
    );
    let exponent = u32::from(k_bits >> 10);
    let mantissa = u64::from(k_bits & 0x3ff);
    match exponent {
        0 => (mantissa, 24),
        // From 2^10 up the value is a whole multiple of the significand.
        26.. => ((1024 + mantissa) << (exponent - 25), 0),
        _ => (1024 + mantissa, 25 - exponent),
    }
}

/// `round(slope · offset)` for the slope [`fixed_slope`] gives, in
/// integers: what [`round_product`] computes for a non-negative slope.
#[inline]
pub(crate) fn round_fixed((multiplier, shift): (u64, u32), offset: u8) -> i64 {
    ((multiplier * u64::from(offset) + ((1 << shift) >> 1)) >> shift) as i64
}

/// `round(slope · offset)` as the translation's integer part, without
/// the call `f64::round` costs: a half-float times a byte has at most 19
/// significant bits no finer than 2⁻²⁴, so adding ½ toward its sign is
/// exact and the cast's truncation is round-half-away-from-zero.
#[inline]
pub(crate) fn round_product(slope: f64, offset: u8) -> i64 {
    let product = slope * f64::from(offset);
    (product + 0.5f64.copysign(product)) as i64
}

impl fmt::Display for Segment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}..={}] K={:.4}{} I={}",
            self.start,
            self.end(),
            self.slope(),
            if self.is_accurate() { "a" } else { "~" },
            self.intercept
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `translate` and `stride` against the expressions they replace
    /// (`round()`, `⌈1/K⌉` in floating point), on every finite slope
    /// pattern — and every offset for the rounding.
    #[test]
    fn integer_kernels_equal_the_float_expressions_on_every_pattern() {
        for k_bits in 0..=u16::MAX {
            let slope = f16::decode(k_bits);
            if !slope.is_finite() {
                continue;
            }
            for offset in 0..=255u8 {
                let by_round = (slope * offset as f64).round() as i64;
                assert_eq!(
                    round_product(slope, offset),
                    by_round,
                    "k_bits {k_bits:#06x} offset {offset}"
                );
            }
            let by_division = if k_bits == 0 || slope <= 0.0 {
                None
            } else {
                Some((1.0 / slope).ceil() as u32)
            };
            let segment = Segment::from_parts(0, 255, k_bits, 0);
            assert_eq!(segment.stride(), by_division, "k_bits {k_bits:#06x}");
        }
    }

    /// The learner's integer rounding against [`round_product`] on every
    /// non-negative finite slope and every offset.
    #[test]
    fn fixed_point_rounding_equals_round_product_on_every_slope() {
        for k_bits in 0..0x7c00u16 {
            let slope = fixed_slope(k_bits);
            for offset in 0..=255u8 {
                assert_eq!(
                    round_fixed(slope, offset),
                    round_product(f16::decode(k_bits), offset),
                    "k_bits {k_bits:#06x} offset {offset}"
                );
            }
        }
    }

    #[test]
    fn struct_is_8_bytes() {
        assert_eq!(std::mem::size_of::<Segment>(), 8);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let seg = Segment::from_parts(10, 20, 0x3c00, -42);
        assert_eq!(Segment::decode(seg.encode()), seg);
        let seg2 = Segment::single_point(255, Ppa::new(123456));
        assert_eq!(Segment::decode(seg2.encode()), seg2);
    }

    #[test]
    fn single_point_translation() {
        let seg = Segment::single_point(7, Ppa::new(999));
        assert!(seg.is_accurate());
        assert_eq!(seg.len(), 0);
        assert_eq!(seg.translate(7), Ppa::new(999));
        assert!(seg.accurate_has_offset(7));
        assert!(!seg.accurate_has_offset(8));
        assert_eq!(seg.accurate_members(), vec![7]);
    }

    #[test]
    fn sequential_segment_paper_example() {
        // Paper Fig. 6: LPAs [0,1,2,3] -> PPAs [32,33,34,35]: K=1.0, I=32.
        let seg = Segment::from_parts(0, 3, 0x3c00, 32);
        assert!(seg.is_accurate());
        for x in 0..=3u8 {
            assert_eq!(seg.translate(x), Ppa::new(32 + x as u64));
            assert!(seg.accurate_has_offset(x));
        }
        assert_eq!(seg.stride(), Some(1));
        assert_eq!(seg.accurate_members(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn strided_segment_membership() {
        // LPAs [100, 102, 104, 106] with stride 2: K = 0.5.
        let seg = Segment::from_parts(100, 6, 0x3800, 150 - 50);
        assert_eq!(seg.stride(), Some(2));
        assert!(seg.accurate_has_offset(100));
        assert!(!seg.accurate_has_offset(101));
        assert!(seg.accurate_has_offset(102));
        assert_eq!(seg.accurate_members(), vec![100, 102, 104, 106]);
    }

    #[test]
    fn covers_and_overlaps() {
        let a = Segment::from_parts(10, 5, 0x3c00, 0);
        let b = Segment::from_parts(15, 5, 0x3c00, 0);
        let c = Segment::from_parts(16, 5, 0x3c00, 0);
        assert!(a.covers(10) && a.covers(15) && !a.covers(16));
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
        assert!(b.overlaps(&a));
    }

    #[test]
    fn interval_shrink_keeps_translation() {
        let mut seg = Segment::from_parts(0, 10, 0x3c00, 100);
        let before = seg.translate(8);
        seg.set_interval(4, 6);
        assert_eq!(seg.translate(8), before);
        assert_eq!(seg.start(), 4);
        assert_eq!(seg.end(), 10);
    }

    #[test]
    #[should_panic(expected = "group")]
    fn rejects_interval_leaving_group() {
        let _ = Segment::from_parts(200, 100, 0, 0);
    }

    #[test]
    fn type_flag_from_lsb() {
        let acc = Segment::from_parts(0, 1, 0x3c00, 0);
        assert!(acc.is_accurate() && !acc.is_approximate());
        let approx = Segment::from_parts(0, 1, 0x3c01, 0);
        assert!(approx.is_approximate() && !approx.is_accurate());
    }

    #[test]
    fn display_is_informative() {
        let seg = Segment::from_parts(0, 3, 0x3c00, 32);
        let s = seg.to_string();
        assert!(s.contains("0..=3") && s.contains("32"));
    }
}
