//! Minimal IEEE 754 binary16 (half-precision) codec.
//!
//! LeaFTL stores each learned segment's slope `K` as a 16-bit float so
//! the whole segment packs into 8 bytes (§3.2). The paper additionally
//! overloads the least-significant mantissa bit of `K` as the segment
//! *type flag* (0 = accurate, 1 = approximate), which perturbs the slope
//! by at most one unit in the last place.
//!
//! Only the subset needed by the mapping table is implemented:
//! non-negative finite values, directed rounding, and LSB forcing. No
//! external crate is used (the approved dependency list has no
//! half-float crate).
//!
//! Both directions are bit arithmetic, O(1) and exact: a half-float's
//! exponent and mantissa are placed into an `f64`'s fields (every
//! binary16 value is an `f64` value), and directed rounding reads the
//! `f64`'s fields back — the ten mantissa bits a half keeps are the
//! floor, any bit below them makes the ceiling one pattern higher.
//! Every lookup decodes a slope per covering segment and every fitted
//! segment rounds one twice, so neither may cost a `pow` or a search;
//! the formula and the binary search they replace live on in the tests
//! as the oracle, compared on every bit pattern.

/// Exponent bias of binary16 and of `f64`.
const HALF_BIAS: i32 = 15;
const F64_BIAS: i32 = 1023;
/// Mantissa bits an `f64` holds beyond a half's ten.
const DROPPED_BITS: u32 = 52 - 10;
/// 2²⁴: subnormal halves are the multiples of 2⁻²⁴ below 2⁻¹⁴.
const SUBNORMAL_SCALE: f64 = 16_777_216.0;

/// Decodes an IEEE binary16 bit pattern into `f64`.
///
/// Only the non-negative finite range is meaningful for slopes; negative
/// and non-finite patterns still decode correctly for completeness.
pub fn decode(bits: u16) -> f64 {
    let sign = u64::from(bits & 0x8000) << 48;
    let exponent = u64::from((bits >> 10) & 0x1f);
    let mantissa = u64::from(bits & 0x3ff);
    let magnitude = match exponent {
        // Subnormal (or zero): mantissa × 2⁻²⁴, exact in `f64`.
        0 => (mantissa as f64 / SUBNORMAL_SCALE).to_bits(),
        0x1f if mantissa == 0 => f64::INFINITY.to_bits(),
        0x1f => return f64::NAN,
        _ => (exponent + (F64_BIAS - HALF_BIAS) as u64) << 52 | mantissa << DROPPED_BITS,
    };
    f64::from_bits(sign | magnitude)
}

/// The largest binary16 pattern `<= value` and whether `value` lies
/// strictly above it, read off the `f64`'s exponent and mantissa.
fn floor_and_inexact(value: f64) -> (u16, bool) {
    assert!(
        value.is_finite() && value >= 0.0,
        "half-float rounding expects a non-negative finite value, got {value}"
    );
    if value >= MAX_F16 {
        // Saturated: the ceiling is the same pattern.
        return (MAX_F16_BITS, false);
    }
    let bits = value.to_bits();
    let exponent = (bits >> 52) as i32 - F64_BIAS;
    if exponent < 1 - HALF_BIAS {
        // Below the smallest normal half: count whole 2⁻²⁴ steps
        // (scaling by a power of two is exact).
        let steps = value * SUBNORMAL_SCALE;
        let floor = steps as u16;
        return (floor, f64::from(floor) != steps);
    }
    let kept = (bits >> DROPPED_BITS) as u16 & 0x3ff;
    let dropped = bits & ((1 << DROPPED_BITS) - 1);
    (((exponent + HALF_BIAS) as u16) << 10 | kept, dropped != 0)
}

/// Largest binary16 value that is `<= value` (directed rounding toward
/// negative infinity), for non-negative finite input.
///
/// # Panics
///
/// Panics if `value` is negative, NaN, or infinite.
pub fn encode_floor(value: f64) -> u16 {
    floor_and_inexact(value).0
}

/// Smallest binary16 value that is `>= value`, for non-negative finite
/// input; saturates at the maximum finite half-float.
///
/// # Panics
///
/// Panics if `value` is negative, NaN, or infinite.
pub fn encode_ceil(value: f64) -> u16 {
    let (floor, inexact) = floor_and_inexact(value);
    floor + u16::from(inexact)
}

/// Maximum finite binary16 value (65504.0).
pub const MAX_F16: f64 = 65504.0;
/// Bit pattern of [`MAX_F16`].
pub const MAX_F16_BITS: u16 = 0x7bff;

/// Returns the two closest bit patterns to `value` whose LSB equals
/// `flag` — one from below, one from above — clamped to the non-negative
/// finite range.
///
/// The learning path tries both and keeps whichever satisfies the error
/// bound after integer verification (see `plr`).
pub fn candidates_with_flag(value: f64, flag: bool) -> [u16; 2] {
    let want = flag as u16;
    let (floor, inexact) = floor_and_inexact(value);
    let down = if floor & 1 == want {
        floor
    } else {
        floor.saturating_sub(1) | want
    };
    let ceil = floor + u16::from(inexact);
    let up = if ceil & 1 == want {
        ceil
    } else {
        (ceil.saturating_add(1)).min(MAX_F16_BITS | 1) // keep finite-ish
    };
    // Normalise `up` to carry the requested flag even after clamping.
    let up = if up & 1 == want { up } else { up ^ 1 };
    [down, up]
}

/// Whether the stored slope flags the segment as approximate (LSB = 1).
pub fn flag_of(bits: u16) -> bool {
    bits & 1 == 1
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The formula `decode` replaces.
    fn decode_by_formula(bits: u16) -> f64 {
        let sign = if bits & 0x8000 != 0 { -1.0 } else { 1.0 };
        let exponent = ((bits >> 10) & 0x1f) as i32;
        let mantissa = (bits & 0x3ff) as f64;
        match exponent {
            0 => sign * mantissa * 2f64.powi(-24),
            0x1f => {
                if mantissa == 0.0 {
                    sign * f64::INFINITY
                } else {
                    f64::NAN
                }
            }
            _ => sign * (1.0 + mantissa / 1024.0) * 2f64.powi(exponent - 15),
        }
    }

    /// The binary search over the ordered non-negative patterns that
    /// `encode_floor` replaces.
    fn floor_by_search(value: f64) -> u16 {
        if value >= MAX_F16 {
            return MAX_F16_BITS;
        }
        let mut lo = 0u16;
        let mut hi = MAX_F16_BITS;
        while lo < hi {
            let mid = (lo + hi).div_ceil(2);
            if decode_by_formula(mid) <= value {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        lo
    }

    fn ceil_by_search(value: f64) -> u16 {
        let floor = floor_by_search(value);
        if decode_by_formula(floor) >= value {
            floor
        } else {
            floor.saturating_add(1).min(MAX_F16_BITS)
        }
    }

    fn candidates_by_search(value: f64, flag: bool) -> [u16; 2] {
        let want = flag as u16;
        let floor = floor_by_search(value);
        let down = if floor & 1 == want {
            floor
        } else {
            floor.saturating_sub(1) | want
        };
        let ceil = ceil_by_search(value);
        let up = if ceil & 1 == want {
            ceil
        } else {
            (ceil.saturating_add(1)).min(MAX_F16_BITS | 1)
        };
        let up = if up & 1 == want { up } else { up ^ 1 };
        [down, up]
    }

    fn assert_rounds_as_the_search(value: f64) {
        assert_eq!(
            encode_floor(value),
            floor_by_search(value),
            "floor {value:e}"
        );
        assert_eq!(encode_ceil(value), ceil_by_search(value), "ceil {value:e}");
        for flag in [false, true] {
            assert_eq!(
                candidates_with_flag(value, flag),
                candidates_by_search(value, flag),
                "candidates {value:e} flag {flag}"
            );
        }
    }

    #[test]
    fn decode_equals_the_formula_on_every_pattern() {
        for bits in 0..=u16::MAX {
            let (got, want) = (decode(bits), decode_by_formula(bits));
            if want.is_nan() {
                assert!(got.is_nan(), "bits {bits:#06x}");
            } else {
                assert_eq!(got.to_bits(), want.to_bits(), "bits {bits:#06x}");
            }
        }
    }

    #[test]
    fn rounding_equals_the_search_around_every_representable_value() {
        for bits in 0..=MAX_F16_BITS {
            let value = decode_by_formula(bits);
            assert_rounds_as_the_search(value);
            assert_rounds_as_the_search(f64::from_bits(value.to_bits() + 1));
            if value > 0.0 {
                assert_rounds_as_the_search(f64::from_bits(value.to_bits() - 1));
            }
        }
        // The subnormal/normal boundary, the smallest f64s and the
        // saturated range.
        let smallest_normal = 2f64.powi(-14);
        for value in [
            smallest_normal,
            smallest_normal - 2f64.powi(-24),
            smallest_normal - 2f64.powi(-25),
            smallest_normal + 2f64.powi(-25),
            2f64.powi(-24),
            2f64.powi(-25),
            f64::MIN_POSITIVE,
            f64::from_bits(1),
            MAX_F16,
            MAX_F16 + 1.0,
            65520.0,
            1e9,
            f64::MAX,
        ] {
            assert_rounds_as_the_search(value);
        }
    }

    #[test]
    fn rounding_equals_the_search_on_random_values() {
        // splitmix64 over [0, 70 000): three quarters of the draws are
        // squared toward zero, where the slopes (and the subnormals)
        // live.
        let mut state = 0x05ee_df16_u64;
        for round in 0..2_000_000u32 {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            let unit = (z >> 11) as f64 / (1u64 << 53) as f64;
            let value = match round % 4 {
                0 => unit * 70_000.0,
                1 => unit * unit * 70_000.0,
                2 => unit * unit * unit * 2.0,
                _ => unit * unit * 2f64.powi(-12),
            };
            assert_eq!(encode_floor(value), floor_by_search(value), "{value:e}");
            assert_eq!(encode_ceil(value), ceil_by_search(value), "{value:e}");
            let flag = round & 4 == 0;
            assert_eq!(
                candidates_with_flag(value, flag),
                candidates_by_search(value, flag),
                "{value:e}"
            );
        }
    }

    /// `Segment::stride` rests on `decode`: for every slope the learner
    /// can store in an accurate segment (either candidate around 1/s),
    /// it is what `⌈1/K⌉` read through the old formula.
    #[test]
    fn stride_agrees_with_the_formula_for_every_learnable_slope() {
        use crate::segment::Segment;
        for stride in 1..=255u32 {
            for k_bits in candidates_with_flag(1.0 / stride as f64, false) {
                let by_formula = (1.0 / decode_by_formula(k_bits)).ceil() as u32;
                let segment = Segment::from_parts(0, 255, k_bits, 0);
                assert_eq!(segment.stride(), Some(by_formula), "k_bits {k_bits:#06x}");
            }
        }
    }

    #[test]
    fn decode_known_values() {
        assert_eq!(decode(0x0000), 0.0);
        assert_eq!(decode(0x3c00), 1.0);
        assert_eq!(decode(0x3800), 0.5);
        assert_eq!(decode(0x3400), 0.25);
        assert_eq!(decode(0x7bff), 65504.0);
        // Smallest positive subnormal.
        assert!((decode(0x0001) - 2f64.powi(-24)).abs() < 1e-12);
    }

    #[test]
    fn floor_is_exact_for_representable() {
        for bits in [0x0000u16, 0x3c00, 0x3800, 0x3555, 0x0001, 0x7bff] {
            let v = decode(bits);
            assert_eq!(encode_floor(v), bits, "bits {bits:#06x}");
        }
    }

    #[test]
    fn floor_and_ceil_bracket() {
        for &v in &[0.1, 1.0 / 3.0, 0.9999, 0.0001, 1.5, 0.007, 250.3] {
            let f = decode(encode_floor(v));
            let c = decode(encode_ceil(v));
            assert!(f <= v, "floor {f} > {v}");
            assert!(c >= v, "ceil {c} < {v}");
            // They are adjacent representable values (or equal).
            assert!(encode_ceil(v) - encode_floor(v) <= 1);
        }
    }

    #[test]
    fn floor_saturates_at_max() {
        assert_eq!(encode_floor(1e9), MAX_F16_BITS);
        assert_eq!(encode_ceil(1e9), MAX_F16_BITS);
    }

    #[test]
    fn candidates_carry_flag_and_bracket() {
        for &v in &[0.0, 0.25, 1.0 / 3.0, 0.56, 1.0] {
            for flag in [false, true] {
                let [down, up] = candidates_with_flag(v, flag);
                assert_eq!(flag_of(down), flag);
                assert_eq!(flag_of(up), flag);
                assert!(decode(down) <= v + 2e-3, "down {} v {v}", decode(down));
                assert!(decode(up) >= v - 2e-3, "up {} v {v}", decode(up));
            }
        }
    }

    #[test]
    fn quantization_error_is_small_for_slopes() {
        // Slopes live in (0, 1]; relative error must stay within a few
        // ulp (directed rounding plus the type-flag forcing).
        for s in 1..=255u32 {
            let k = 1.0 / s as f64;
            for flag in [false, true] {
                let [down, up] = candidates_with_flag(k, flag);
                for c in [down, up] {
                    let err = (decode(c) - k).abs();
                    assert!(err <= k * 2f64.powi(-8) + 1e-9, "s={s} err={err}");
                }
            }
        }
    }
}
