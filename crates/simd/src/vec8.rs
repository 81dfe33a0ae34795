//! The portable eight-lane `f32` vector.
//!
//! `f32x8` is an array-backed value type whose operations are plain
//! lane loops — the only body of every op, whatever flags the build uses.
//! Inside a [`crate::vectorize`] frame LLVM compiles those loops with the
//! frame's target features, so the same source runs as AVX2 vector code at
//! runtime; outside one they compile at the build's baseline features.
//!
//! # Floating-point contract (every backend)
//!
//! * All ops are lane-wise IEEE 754 binary32.
//! * [`f32x8::madd`] performs **two roundings** — `round(round(a*b) + acc)`
//!   — matching the scalar `acc + a * b`. It must never lower to a fused
//!   multiply-add: rustc keeps LLVM fp contraction disabled, so the lane
//!   loop cannot be fused behind our back.
//! * [`f32x8::max`]/[`f32x8::min`] are `f32::max`/`f32::min` per lane and
//!   pinned bitwise for non-NaN inputs only; kernels must not feed NaN
//!   through them (the trainer never does — densities and weights are
//!   finite by construction).
//! * [`f32x8::exp_lanes`] is lane-serial `f32::exp` in every backend so
//!   transcendentals stay bitwise identical to the scalar engine.
//! * Division and [`f32x8::sqrt`] are IEEE-exact (correctly rounded) in
//!   every backend — `vdivps`/`vsqrtps` round exactly like the scalar
//!   `/` and `f32::sqrt` — so they carry the same bitwise guarantee as
//!   `+`/`-`/`*`. Kernels must not produce NaN lanes through them (`0/0`,
//!   `inf/inf`, `sqrt` of a negative): NaN *payloads* are the one place
//!   backends may legally differ.

/// Eight `f32` lanes with value semantics.
#[allow(non_camel_case_types)]
#[derive(Debug, Clone, Copy)]
#[repr(transparent)]
pub struct f32x8([f32; 8]);

impl f32x8 {
    /// Lane count.
    pub const LANES: usize = 8;

    /// All lanes set to `v`.
    #[inline(always)]
    pub fn splat(v: f32) -> Self {
        f32x8([v; 8])
    }

    /// All lanes zero.
    #[inline(always)]
    pub fn zero() -> Self {
        f32x8([0.0; 8])
    }

    /// Builds a vector from an array, lane `i` = `a[i]`.
    #[inline(always)]
    pub fn from_array(a: [f32; 8]) -> Self {
        f32x8(a)
    }

    /// Lane values as an array.
    #[inline(always)]
    pub fn to_array(self) -> [f32; 8] {
        self.0
    }

    /// Loads the first eight elements of `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s.len() < 8`.
    #[inline(always)]
    pub fn from_slice(s: &[f32]) -> Self {
        let mut a = [0.0f32; 8];
        a.copy_from_slice(&s[..8]);
        f32x8(a)
    }

    /// Stores the lanes into the first eight elements of `out`.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() < 8`.
    #[inline(always)]
    pub fn write_to(self, out: &mut [f32]) {
        out[..8].copy_from_slice(&self.0);
    }

    /// Reads lane `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= 8`.
    #[inline(always)]
    pub fn lane(self, i: usize) -> f32 {
        self.0[i]
    }

    /// Two-rounding multiply-add: `self + a * b` per lane, with the product
    /// rounded before the sum exactly like the scalar expression. This is
    /// deliberately **not** a fused multiply-add; see the module docs.
    #[inline(always)]
    pub fn madd(self, a: Self, b: Self) -> Self {
        // Two roundings: the product is a rounded f32 before the add.
        let (acc, a, b) = (self.0, a.0, b.0);
        let mut o = [0.0f32; 8];
        for i in 0..8 {
            o[i] = acc[i] + a[i] * b[i];
        }
        f32x8(o)
    }

    /// Lane-wise maximum (`f32::max` semantics for non-NaN inputs).
    #[inline(always)]
    pub fn max(self, o: Self) -> Self {
        let (a, b) = (self.0, o.0);
        let mut r = [0.0f32; 8];
        for i in 0..8 {
            r[i] = a[i].max(b[i]);
        }
        f32x8(r)
    }

    /// Lane-wise minimum (`f32::min` semantics for non-NaN inputs).
    #[inline(always)]
    pub fn min(self, o: Self) -> Self {
        let (a, b) = (self.0, o.0);
        let mut r = [0.0f32; 8];
        for i in 0..8 {
            r[i] = a[i].min(b[i]);
        }
        f32x8(r)
    }

    /// Branch-free whole-vector select: `on` if `cond`, else `off`,
    /// preserving every lane's exact bit pattern (`-0.0` signs, NaN
    /// payloads). Implemented with integer masking in every backend, so
    /// conditionally-skipped updates (`acc = select(c, acc.madd(..), acc)`)
    /// stay bitwise identical to a scalar `if` *without* a data-dependent
    /// branch — the pattern the batched backward kernels use to skip
    /// zero-gradient terms at full speed.
    #[inline(always)]
    pub fn select(cond: bool, on: Self, off: Self) -> Self {
        let m = (cond as u32).wrapping_neg();
        let mut o = [0.0f32; 8];
        for (i, lane) in o.iter_mut().enumerate() {
            *lane = f32::from_bits((on.0[i].to_bits() & m) | (off.0[i].to_bits() & !m));
        }
        f32x8(o)
    }

    /// Lane-serial `f32::exp` — intentionally scalar per lane in every
    /// backend so results stay bitwise identical to the scalar engine.
    #[inline(always)]
    pub fn exp_lanes(self) -> Self {
        let mut a = self.0;
        for v in &mut a {
            *v = v.exp();
        }
        f32x8(a)
    }

    /// Lane-wise square root — IEEE-exact, bitwise identical to
    /// `f32::sqrt` per lane in every backend. Lanes must be non-negative
    /// (see the module contract on NaN).
    #[inline(always)]
    pub fn sqrt(self) -> Self {
        let a = self.0;
        let mut o = [0.0f32; 8];
        for i in 0..8 {
            o[i] = a[i].sqrt();
        }
        f32x8(o)
    }
}

impl std::ops::Add for f32x8 {
    type Output = f32x8;
    #[inline(always)]
    fn add(self, o: f32x8) -> f32x8 {
        let (a, b) = (self.0, o.0);
        let mut r = [0.0f32; 8];
        for i in 0..8 {
            r[i] = a[i] + b[i];
        }
        f32x8(r)
    }
}

impl std::ops::Sub for f32x8 {
    type Output = f32x8;
    #[inline(always)]
    fn sub(self, o: f32x8) -> f32x8 {
        let (a, b) = (self.0, o.0);
        let mut r = [0.0f32; 8];
        for i in 0..8 {
            r[i] = a[i] - b[i];
        }
        f32x8(r)
    }
}

impl std::ops::Mul for f32x8 {
    type Output = f32x8;
    #[inline(always)]
    fn mul(self, o: f32x8) -> f32x8 {
        let (a, b) = (self.0, o.0);
        let mut r = [0.0f32; 8];
        for i in 0..8 {
            r[i] = a[i] * b[i];
        }
        f32x8(r)
    }
}

impl std::ops::Div for f32x8 {
    type Output = f32x8;
    #[inline(always)]
    fn div(self, o: f32x8) -> f32x8 {
        let (a, b) = (self.0, o.0);
        let mut r = [0.0f32; 8];
        for i in 0..8 {
            r[i] = a[i] / b[i];
        }
        f32x8(r)
    }
}

impl std::ops::Neg for f32x8 {
    type Output = f32x8;
    #[inline(always)]
    fn neg(self) -> f32x8 {
        f32x8::zero() - self
    }
}

impl std::ops::AddAssign for f32x8 {
    #[inline(always)]
    fn add_assign(&mut self, o: f32x8) {
        *self = *self + o;
    }
}

impl std::ops::MulAssign for f32x8 {
    #[inline(always)]
    fn mul_assign(&mut self, o: f32x8) {
        *self = *self * o;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Edge-heavy value pool: zeros of both signs, subnormals, huge and
    /// tiny magnitudes, and plain values. NaN is excluded — `max`/`min`
    /// only contract non-NaN inputs (see module docs).
    const POOL: [f32; 14] = [
        0.0, -0.0, 1.0, -1.0, 0.5, -2.75, 123.456, -9.8e-7, 1.0e-38,
        1.0e-45, // smallest positive subnormal
        -1.0e-45, 3.0e38, -3.0e38, 7.25,
    ];

    fn pairs() -> impl Iterator<Item = (f32, f32)> {
        POOL.iter().flat_map(|&a| POOL.iter().map(move |&b| (a, b)))
    }

    fn vec_of(base: f32) -> [f32; 8] {
        // Distinct lane values so lane-crossing bugs can't cancel out.
        let mut a = [0.0f32; 8];
        for (i, v) in a.iter_mut().enumerate() {
            *v = base + i as f32 * 0.125;
        }
        a
    }

    #[track_caller]
    fn assert_lanes_eq(got: f32x8, want: [f32; 8], what: &str) {
        for (i, w) in want.iter().enumerate() {
            assert_eq!(
                got.lane(i).to_bits(),
                w.to_bits(),
                "{what}: lane {i}: got {}, want {}",
                got.lane(i),
                w,
            );
        }
    }

    #[test]
    fn binary_ops_match_scalar_reference_bitwise() {
        for (a, b) in pairs() {
            let (va, vb) = (vec_of(a), vec_of(b));
            let (xa, xb) = (f32x8::from_array(va), f32x8::from_array(vb));
            let per_lane = |f: fn(f32, f32) -> f32| {
                let mut o = [0.0f32; 8];
                for i in 0..8 {
                    o[i] = f(va[i], vb[i]);
                }
                o
            };
            assert_lanes_eq(xa + xb, per_lane(|x, y| x + y), "add");
            assert_lanes_eq(xa - xb, per_lane(|x, y| x - y), "sub");
            assert_lanes_eq(xa * xb, per_lane(|x, y| x * y), "mul");
            assert_lanes_eq(xa.max(xb), per_lane(f32::max), "max");
            assert_lanes_eq(xa.min(xb), per_lane(f32::min), "min");
            // Division: 0/0 lanes would be NaN, whose payload is outside
            // the contract (see module docs) — skip only those pairs.
            if !(a == 0.0 && b == 0.0) {
                assert_lanes_eq(xa / xb, per_lane(|x, y| x / y), "div");
            }
        }
    }

    #[test]
    fn sqrt_matches_scalar_bitwise() {
        for &v in &POOL {
            // Negative lanes would be NaN (outside the contract): sqrt the
            // magnitudes, which still covers zeros and subnormals.
            let a = vec_of(v).map(f32::abs);
            let got = f32x8::from_array(a).sqrt();
            let mut want = [0.0f32; 8];
            for i in 0..8 {
                want[i] = a[i].sqrt();
            }
            assert_lanes_eq(got, want, "sqrt");
        }
    }

    #[test]
    fn madd_matches_two_rounding_scalar_bitwise() {
        for (a, b) in pairs() {
            for &c in &POOL {
                let (va, vb, vc) = (vec_of(a), vec_of(b), vec_of(c));
                let got = f32x8::from_array(vc).madd(f32x8::from_array(va), f32x8::from_array(vb));
                let mut want = [0.0f32; 8];
                for i in 0..8 {
                    want[i] = vc[i] + va[i] * vb[i];
                }
                assert_lanes_eq(got, want, "madd");
            }
        }
    }

    #[test]
    fn madd_is_not_fused() {
        // (1 + 2^-23)^2 = 1 + 2^-22 + 2^-46; the product rounds to
        // 1 + 2^-22 exactly, so the two-rounding result of
        // madd(-(1 + 2^-22), a, a) is exactly 0.0. A fused multiply-add
        // would keep the 2^-46 term and return it instead.
        let a = 1.0 + f32::EPSILON; // 1 + 2^-23
        let c = -(1.0 + 2.0 * f32::EPSILON); // -(1 + 2^-22)
        let fused = f32::mul_add(a, a, c);
        assert!(fused != 0.0, "sanity: an FMA would be non-zero");
        let got = f32x8::splat(c).madd(f32x8::splat(a), f32x8::splat(a));
        for i in 0..8 {
            assert_eq!(got.lane(i).to_bits(), 0.0f32.to_bits());
        }
    }

    #[test]
    fn select_preserves_exact_lane_bits() {
        for (a, b) in pairs() {
            let (va, vb) = (vec_of(a), vec_of(b));
            let (xa, xb) = (f32x8::from_array(va), f32x8::from_array(vb));
            assert_lanes_eq(f32x8::select(true, xa, xb), va, "select(true)");
            assert_lanes_eq(f32x8::select(false, xa, xb), vb, "select(false)");
        }
        // NaN payloads and zero signs must survive the bit masking in both
        // directions.
        let weird = f32x8::from_array([
            f32::NAN,
            f32::from_bits(0x7FC0_1234), // NaN with payload
            -0.0,
            0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            1.0e-45,
            -1.0e-45,
        ]);
        let other = f32x8::splat(7.0);
        for i in 0..8 {
            assert_eq!(
                f32x8::select(true, weird, other).lane(i).to_bits(),
                weird.lane(i).to_bits(),
                "select(true) lane {i} bits"
            );
            assert_eq!(
                f32x8::select(false, weird, other).lane(i).to_bits(),
                other.lane(i).to_bits(),
                "select(false) lane {i} bits"
            );
        }
    }

    #[test]
    fn exp_lanes_is_lane_serial_f32_exp() {
        for &v in &POOL {
            let a = vec_of(v);
            let got = f32x8::from_array(a).exp_lanes();
            let mut want = [0.0f32; 8];
            for i in 0..8 {
                want[i] = a[i].exp();
            }
            assert_lanes_eq(got, want, "exp");
        }
    }

    #[test]
    fn neg_and_assign_ops() {
        let a = f32x8::from_array(vec_of(1.5));
        assert_lanes_eq(-a, vec_of(1.5).map(|v| 0.0 - v), "neg");
        let mut acc = f32x8::splat(1.0);
        acc += a;
        assert_lanes_eq(acc, vec_of(1.5).map(|v| 1.0 + v), "add_assign");
        let mut prod = f32x8::splat(2.0);
        prod *= a;
        assert_lanes_eq(prod, vec_of(1.5).map(|v| 2.0 * v), "mul_assign");
    }

    #[test]
    fn slice_round_trip_and_splat() {
        let s: Vec<f32> = (0..12).map(|i| i as f32 * 0.5).collect();
        let v = f32x8::from_slice(&s);
        let mut out = vec![0.0f32; 10];
        v.write_to(&mut out);
        assert_eq!(&out[..8], &s[..8]);
        assert_eq!(out[8], 0.0);
        assert_eq!(f32x8::splat(3.25).to_array(), [3.25; 8]);
        assert_eq!(f32x8::zero().to_array(), [0.0; 8]);
        assert_eq!(v.lane(3), 1.5);
    }

    #[test]
    fn ops_bitwise_identical_across_backends() {
        let _guard = crate::tests::BACKEND_LOCK.lock().unwrap();
        let original = crate::backend();
        let inputs: Vec<(f32, f32)> = pairs().collect();
        let run = || {
            let mut bits = Vec::new();
            for &(a, b) in &inputs {
                let (xa, xb) = (f32x8::from_array(vec_of(a)), f32x8::from_array(vec_of(b)));
                let mut ops = vec![
                    xa + xb,
                    xa - xb,
                    xa * xb,
                    xa.max(xb),
                    xa.min(xb),
                    xb.madd(xa, xb),
                    (xa * xb).exp_lanes(),
                    (xa * xa).sqrt(),
                ];
                if !(a == 0.0 && b == 0.0) {
                    ops.push(xa / xb);
                }
                for v in ops {
                    bits.extend(v.to_array().map(f32::to_bits));
                }
            }
            bits
        };
        crate::force_backend(crate::Backend::Scalar);
        let reference = crate::vectorize(run);
        for b in crate::available_backends() {
            crate::force_backend(b);
            let got = crate::vectorize(run);
            assert_eq!(got, reference, "backend {:?} diverges", b);
        }
        crate::force_backend(original);
    }
}
