//! Rays: the fundamental sampling primitive of NeRF training.

use crate::Vec3;

/// A ray `r(t) = origin + t * direction` (paper notation: `r = o + t d`).
///
/// The direction is expected to be a unit vector; [`Ray::new`] normalizes it.
///
/// # Example
///
/// ```
/// use inerf_geom::{Ray, Vec3};
/// let r = Ray::new(Vec3::ZERO, Vec3::new(0.0, 0.0, 2.0));
/// assert_eq!(r.at(3.0), Vec3::new(0.0, 0.0, 3.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ray {
    /// Camera/ray origin `o`.
    pub origin: Vec3,
    /// Unit direction `d`.
    pub direction: Vec3,
}

impl Ray {
    /// Creates a ray, normalizing `direction`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `direction` has zero length.
    pub fn new(origin: Vec3, direction: Vec3) -> Self {
        Ray {
            origin,
            direction: direction.normalized(),
        }
    }

    /// The point at parameter `t` along the ray.
    #[inline]
    pub fn at(&self, t: f32) -> Vec3 {
        self.origin + self.direction * t
    }

    /// Produces `n` sample distances, evenly stratified over `[t_near, t_far]`.
    ///
    /// This is Step (b) of the vanilla NeRF pipeline (Fig. 2 in the paper):
    /// each returned `t_i` is the centre of the `i`-th of `n` equal bins, with
    /// an optional per-bin jitter in `[-0.5, 0.5)` bin widths supplied by the
    /// caller for stratified sampling.
    ///
    /// # Panics
    ///
    /// Panics if `t_far <= t_near`, `n == 0` or `n > i32::MAX`.
    pub fn stratified_ts(
        &self,
        t_near: f32,
        t_far: f32,
        n: usize,
        jitter: Option<&[f32]>,
    ) -> Vec<f32> {
        assert!(
            t_far > t_near,
            "t_far ({t_far}) must exceed t_near ({t_near})"
        );
        assert!(n > 0, "need at least one sample");
        let mut out = Vec::new();
        self.stratified_ts_into(t_near, t_far, n, jitter, &mut out);
        out
    }

    /// [`Ray::stratified_ts`] into a caller-pooled buffer (cleared and
    /// refilled), so per-ray gathering allocates nothing in steady state.
    ///
    /// # Panics
    ///
    /// Panics if `t_far <= t_near`, `n == 0` or `n > i32::MAX`.
    pub fn stratified_ts_into(
        &self,
        t_near: f32,
        t_far: f32,
        n: usize,
        jitter: Option<&[f32]>,
        out: &mut Vec<f32>,
    ) {
        assert!(
            t_far > t_near,
            "t_far ({t_far}) must exceed t_near ({t_near})"
        );
        assert!(n > 0, "need at least one sample");
        let bin = (t_far - t_near) / n as f32;
        out.clear();
        // An `i32` counter: its conversion to f32 vectorizes (four lanes
        // by SSE2), a `usize`'s does not below AVX-512.
        let count = i32::try_from(n).expect("sample count fits an i32");
        out.extend((0..count).map(|i| {
            let j = jitter.map_or(0.0, |js| js[i as usize % js.len()]);
            t_near + bin * (i as f32 + 0.5 + j)
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn at_walks_along_direction() {
        let r = Ray::new(Vec3::new(1.0, 0.0, 0.0), Vec3::new(0.0, 1.0, 0.0));
        assert_eq!(r.at(0.0), r.origin);
        assert_eq!(r.at(2.0), Vec3::new(1.0, 2.0, 0.0));
    }

    #[test]
    fn direction_is_normalized() {
        let r = Ray::new(Vec3::ZERO, Vec3::new(0.0, 0.0, 10.0));
        assert!((r.direction.length() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn stratified_ts_cover_range_in_order() {
        let r = Ray::new(Vec3::ZERO, Vec3::new(1.0, 0.0, 0.0));
        let ts = r.stratified_ts(2.0, 6.0, 8, None);
        assert_eq!(ts.len(), 8);
        for w in ts.windows(2) {
            assert!(w[1] > w[0], "sample distances must be increasing");
        }
        assert!(ts[0] >= 2.0 && ts[7] <= 6.0);
        // Bin centres: first sample is at t_near + bin/2.
        assert!((ts[0] - 2.25).abs() < 1e-6);
    }

    #[test]
    fn stratified_ts_respects_jitter() {
        let r = Ray::new(Vec3::ZERO, Vec3::new(1.0, 0.0, 0.0));
        let base = r.stratified_ts(0.0, 1.0, 4, None);
        let jittered = r.stratified_ts(0.0, 1.0, 4, Some(&[0.25]));
        for (b, j) in base.iter().zip(&jittered) {
            assert!((j - b - 0.25 * 0.25).abs() < 1e-6);
        }
    }

    #[test]
    #[should_panic(expected = "must exceed")]
    fn stratified_ts_rejects_empty_range() {
        let r = Ray::new(Vec3::ZERO, Vec3::new(1.0, 0.0, 0.0));
        let _ = r.stratified_ts(1.0, 1.0, 4, None);
    }
}
