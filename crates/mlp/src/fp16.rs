//! IEEE 754 binary16 conversion.
//!
//! The paper's accelerator handles mixed precision: hash-table entries are
//! stored as 32-bit vectors of two FP16 features while computation runs in
//! FP32/INT32 (Sec. IV-A). These conversions model the quantization the
//! storage path introduces, and are used by the accelerator model and by
//! quantization-robustness tests.

/// Converts an `f32` to its nearest IEEE 754 binary16 bit pattern
/// (round-to-nearest-even), with overflow mapping to infinity.
pub fn f32_to_f16_bits(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xff) as i32;
    let frac = bits & 0x007f_ffff;

    if exp == 0xff {
        // Inf or NaN.
        let nan_bit = if frac != 0 { 0x0200 } else { 0 };
        return sign | 0x7c00 | nan_bit;
    }
    // Re-bias exponent: f32 bias 127 → f16 bias 15.
    let unbiased = exp - 127;
    if unbiased > 15 {
        return sign | 0x7c00; // overflow → inf
    }
    if unbiased >= -14 {
        // Normal f16. Round the 23-bit fraction to 10 bits, RNE.
        let mantissa = frac >> 13;
        let round_bits = frac & 0x1fff;
        let mut h = sign | (((unbiased + 15) as u16) << 10) | mantissa as u16;
        if round_bits > 0x1000 || (round_bits == 0x1000 && (mantissa & 1) == 1) {
            h = h.wrapping_add(1); // may carry into exponent — that is correct RNE
        }
        return h;
    }
    if unbiased >= -25 {
        // Subnormal f16. Round the full 24-bit significand in one step:
        // shifting in two stages (first >> 13, then >> shift) discards the
        // low 13 bits before rounding, losing the sticky bits that break
        // round-half-up vs round-half-even ties.
        let sig = frac | 0x0080_0000; // implicit leading 1, 24 bits
        let shift = (13 + (-14 - unbiased)) as u32; // 14..=24
        let mantissa = sig >> shift;
        let rem = sig & ((1 << shift) - 1);
        let half = 1u32 << (shift - 1);
        let mut h = sign | mantissa as u16;
        if rem > half || (rem == half && (mantissa & 1) == 1) {
            h = h.wrapping_add(1);
        }
        return h;
    }
    sign // underflow → signed zero
}

/// Converts an IEEE 754 binary16 bit pattern to `f32` (exact).
fn f16_bits_to_f32(h: u16) -> f32 {
    let sign = ((h & 0x8000) as u32) << 16;
    let exp = ((h >> 10) & 0x1f) as u32;
    let frac = (h & 0x3ff) as u32;
    let bits = if exp == 0x1f {
        // Inf/NaN.
        sign | 0x7f80_0000 | (frac << 13)
    } else if exp == 0 {
        if frac == 0 {
            sign
        } else {
            // Subnormal: value = frac * 2^-24. Normalize around the MSB.
            let k = 31 - frac.leading_zeros(); // MSB position, 0..=9
            let exp_n = 103 + k; // (k - 24) + 127
            let frac_n = (frac << (10 - k)) & 0x3ff; // drop implicit leading 1
            sign | (exp_n << 23) | (frac_n << 13)
        }
    } else {
        sign | ((exp + 127 - 15) << 23) | (frac << 13)
    };
    f32::from_bits(bits)
}

/// Quantizes through FP16 and back — the storage-path round trip.
pub fn quantize_f16(x: f32) -> f32 {
    f16_bits_to_f32(f32_to_f16_bits(x))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn exact_small_integers() {
        for i in -128i32..=128 {
            let x = i as f32;
            assert_eq!(quantize_f16(x), x, "integer {i} must round-trip exactly");
        }
    }

    #[test]
    fn known_bit_patterns() {
        assert_eq!(f32_to_f16_bits(0.0), 0x0000);
        assert_eq!(f32_to_f16_bits(-0.0), 0x8000);
        assert_eq!(f32_to_f16_bits(1.0), 0x3c00);
        assert_eq!(f32_to_f16_bits(-2.0), 0xc000);
        assert_eq!(f32_to_f16_bits(65504.0), 0x7bff); // f16 max
        assert_eq!(f32_to_f16_bits(1e6), 0x7c00); // overflow → inf
        assert_eq!(f16_bits_to_f32(0x3c00), 1.0);
        assert_eq!(f16_bits_to_f32(0x7c00), f32::INFINITY);
    }

    #[test]
    fn subnormals_round_trip() {
        let smallest_subnormal = f16_bits_to_f32(0x0001);
        assert!(smallest_subnormal > 0.0);
        assert_eq!(f32_to_f16_bits(smallest_subnormal), 0x0001);
        let largest_subnormal = f16_bits_to_f32(0x03ff);
        assert_eq!(f32_to_f16_bits(largest_subnormal), 0x03ff);
    }

    #[test]
    fn nan_preserved() {
        let q = quantize_f16(f32::NAN);
        assert!(q.is_nan());
    }

    #[test]
    fn relative_error_bounded_for_normals() {
        // FP16 has 11 significand bits → relative error <= 2^-11.
        for &x in &[
            0.001f32,
            0.1,
            0.5,
            1.0,
            std::f32::consts::PI,
            100.0,
            60000.0,
        ] {
            let q = quantize_f16(x);
            let rel = ((q - x) / x).abs();
            assert!(rel <= 1.0 / 2048.0 + 1e-7, "x={x}: rel err {rel}");
        }
    }

    /// The monotone ladder of positive f16 values, indexed by bit pattern.
    /// The top rung (`0x7c00`, infinity) is replaced by 65536.0 — the next
    /// step after f16::MAX if the exponent range were unbounded — because
    /// IEEE rounds overflow against that virtual value, not against ∞.
    fn f16_value_ladder() -> Vec<f64> {
        let mut ladder: Vec<f64> = (0u16..=0x7c00).map(|h| f16_bits_to_f32(h) as f64).collect();
        *ladder.last_mut().expect("ladder is nonempty") = 65536.0;
        ladder
    }

    /// Reference nearest-even conversion for positive finite `x`: binary
    /// search the ladder for the two bracketing f16 values and pick the
    /// closer one, breaking exact ties toward the even mantissa.
    fn reference_nearest_positive(ladder: &[f64], x: f32) -> u16 {
        assert!(x >= 0.0 && x.is_finite());
        let x = x as f64;
        let above = ladder.partition_point(|&v| v < x); // first index with v >= x
        if above == 0 {
            return 0;
        }
        if above >= ladder.len() {
            return (ladder.len() - 1) as u16; // beyond f16::MAX → inf
        }
        let (lo, hi) = (above - 1, above);
        let (err_lo, err_hi) = (x - ladder[lo], ladder[hi] - x);
        if err_lo < err_hi || (err_lo == err_hi && lo & 1 == 0) {
            lo as u16
        } else {
            hi as u16
        }
    }

    #[test]
    fn subnormal_rounding_uses_sticky_bits() {
        // Regression: the subnormal path used to shift the significand in
        // two stages, dropping the low 13 bits before rounding. A value
        // just above a subnormal tie then rounded to even instead of up.
        //
        // x = 2^-15 * (1 + 2^-10 + 2^-23): as a subnormal multiple of
        // 2^-24 this is 512.5 + 2^-14, so RNE must give 513 (0x201);
        // the sticky-less code returned 512 (0x200).
        let x = f32::from_bits((112 << 23) | 0x2001);
        assert_eq!(f32_to_f16_bits(x), 0x201);
        // The exact tie (drop the +2^-23) still rounds to even.
        let tie = f32::from_bits((112 << 23) | 0x2000);
        assert_eq!(f32_to_f16_bits(tie), 0x200);
    }

    #[test]
    fn subnormal_zero_boundary_rounds_not_flushes() {
        // Regression: inputs below 2^-24 were flushed to zero outright,
        // but values in (2^-25, 2^-24) must round UP to the smallest
        // subnormal 0x0001 under RNE.
        let tiny = 2.0f32.powi(-25);
        assert_eq!(
            f32_to_f16_bits(tiny),
            0x0000,
            "exact tie goes to even (zero)"
        );
        assert_eq!(
            f32_to_f16_bits(tiny * 1.5),
            0x0001,
            "above the tie rounds up"
        );
        assert_eq!(f32_to_f16_bits(f32::from_bits(tiny.to_bits() + 1)), 0x0001);
        assert_eq!(
            f32_to_f16_bits(tiny * 0.99),
            0x0000,
            "below the tie rounds down"
        );
    }

    #[test]
    fn subnormal_range_matches_nearest_even_reference() {
        // Dense sweep across the f16 subnormal range (and the boundary
        // into normals) against the nearest-even reference.
        let ladder = f16_value_ladder();
        for i in 1..=2048u32 {
            // Cover (0, 2^-13]: subnormals end at 2^-14.
            let x = i as f32 * 2.0f32.powi(-24);
            assert_eq!(
                f32_to_f16_bits(x),
                reference_nearest_positive(&ladder, x),
                "x = {i} * 2^-24"
            );
            // Perturb off the exact grid in both directions.
            for delta in [1i32, -1] {
                let y = f32::from_bits(x.to_bits().wrapping_add_signed(delta));
                assert_eq!(
                    f32_to_f16_bits(y),
                    reference_nearest_positive(&ladder, y),
                    "x = {i} * 2^-24 {delta:+} ulp"
                );
            }
        }
    }

    #[test]
    fn all_65536_f16_bit_patterns_roundtrip_exhaustively() {
        // f16 → f32 → f16 must be the identity for every one of the 65536
        // bit patterns (modulo NaN payload canonicalization) — the storage
        // path may never corrupt a committed fp16 parameter.
        for h in 0u16..=0xffff {
            let x = f16_bits_to_f32(h);
            if x.is_nan() {
                assert!(
                    f16_bits_to_f32(f32_to_f16_bits(x)).is_nan(),
                    "NaN pattern {h:#06x} lost NaN-ness"
                );
            } else {
                assert_eq!(f32_to_f16_bits(x), h, "pattern {h:#06x} did not round-trip");
            }
        }
    }

    #[test]
    fn overflow_boundary_rne() {
        // 65520 = (65504 + 65536) / 2 is the tie between f16::MAX and the
        // (unrepresentable) next step; RNE sends it to infinity.
        assert_eq!(f32_to_f16_bits(65520.0), 0x7c00);
        assert_eq!(f32_to_f16_bits(65519.996), 0x7bff);
        assert_eq!(f32_to_f16_bits(-65520.0), 0xfc00);
        // Mantissa carry propagating into the exponent: 2047.75 is halfway
        // between 2047.0 and 2048.0 in the 1024..2048 binade; RNE picks
        // 2048.0, carrying into the next exponent.
        assert_eq!(f16_bits_to_f32(f32_to_f16_bits(2047.75)), 2048.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn matches_nearest_even_reference(bits in 0u32..0x4780_0000) {
            // Uniform over positive f32 bit patterns below 65536.0 covers
            // every f16 binade (subnormal through overflow) including the
            // hard rounding neighbourhoods.
            let ladder = f16_value_ladder();
            let x = f32::from_bits(bits);
            prop_assert_eq!(f32_to_f16_bits(x), reference_nearest_positive(&ladder, x));
        }
    }

    proptest! {
        #[test]
        fn roundtrip_is_idempotent(x in -60000.0f32..60000.0) {
            let q = quantize_f16(x);
            prop_assert_eq!(quantize_f16(q), q);
        }

        #[test]
        fn quantization_error_small(x in -1.0f32..1.0) {
            let q = quantize_f16(x);
            prop_assert!((q - x).abs() <= x.abs() / 1024.0 + 1e-7);
        }
    }
}
