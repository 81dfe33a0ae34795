//! Axis-aligned bounding boxes and ray/box intersection.

use crate::{Ray, Vec3};

/// The entry/exit distances of a ray through an [`Aabb`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RayHit {
    /// Distance along the ray where it enters the box (clamped to 0).
    pub t_near: f32,
    /// Distance along the ray where it exits the box.
    pub t_far: f32,
}

/// An axis-aligned bounding box; the scene bound of NeRF training.
///
/// iNGP normalizes scene coordinates into the unit cube before hashing;
/// [`Aabb::normalize`] performs that mapping.
///
/// # Example
///
/// ```
/// use inerf_geom::{Aabb, Vec3};
/// let b = Aabb::new(Vec3::splat(-1.0), Vec3::splat(1.0));
/// assert_eq!(b.normalize(Vec3::ZERO), Vec3::splat(0.5));
/// assert!(b.contains(Vec3::new(0.9, -0.9, 0.0)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Aabb {
    /// Minimum corner.
    pub min: Vec3,
    /// Maximum corner.
    pub max: Vec3,
}

impl Aabb {
    /// Creates a box from its corners.
    ///
    /// # Panics
    ///
    /// Panics if any component of `min` is not strictly below `max`.
    pub fn new(min: Vec3, max: Vec3) -> Self {
        assert!(
            min.x < max.x && min.y < max.y && min.z < max.z,
            "degenerate AABB: min {min:?} must be strictly below max {max:?}"
        );
        Aabb { min, max }
    }

    /// The unit cube `[0,1]^3`.
    pub fn unit() -> Self {
        Aabb {
            min: Vec3::ZERO,
            max: Vec3::ONE,
        }
    }

    /// Edge lengths of the box.
    #[inline]
    pub fn extent(&self) -> Vec3 {
        self.max - self.min
    }

    /// Centre of the box.
    #[inline]
    pub fn center(&self) -> Vec3 {
        (self.min + self.max) * 0.5
    }

    /// Returns `true` if `p` lies inside or on the boundary.
    #[inline]
    pub fn contains(&self, p: Vec3) -> bool {
        p.x >= self.min.x
            && p.x <= self.max.x
            && p.y >= self.min.y
            && p.y <= self.max.y
            && p.z >= self.min.z
            && p.z <= self.max.z
    }

    /// Maps `p` from box coordinates into `[0,1]^3`.
    #[inline]
    pub fn normalize(&self, p: Vec3) -> Vec3 {
        let e = self.extent();
        Vec3::new(
            (p.x - self.min.x) / e.x,
            (p.y - self.min.y) / e.y,
            (p.z - self.min.z) / e.z,
        )
    }

    /// Slab-test ray intersection.
    ///
    /// Returns `None` if the ray misses the box or the box is entirely behind
    /// the ray origin. `t_near` is clamped to zero so sampling can start at
    /// the origin when it lies inside the box.
    pub fn intersect(&self, ray: &Ray) -> Option<RayHit> {
        let mut t0 = 0.0f32;
        let mut t1 = f32::INFINITY;
        for axis in 0..3 {
            let o = ray.origin[axis];
            let d = ray.direction[axis];
            let (lo, hi) = (self.min[axis], self.max[axis]);
            if d.abs() < 1e-12 {
                if o < lo || o > hi {
                    return None;
                }
                continue;
            }
            let inv = 1.0 / d;
            let (mut ta, mut tb) = ((lo - o) * inv, (hi - o) * inv);
            if ta > tb {
                std::mem::swap(&mut ta, &mut tb);
            }
            t0 = t0.max(ta);
            t1 = t1.min(tb);
            if t0 > t1 {
                return None;
            }
        }
        Some(RayHit {
            t_near: t0,
            t_far: t1,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contains_corners_and_center() {
        let b = Aabb::unit();
        assert!(b.contains(Vec3::ZERO));
        assert!(b.contains(Vec3::ONE));
        assert!(b.contains(Vec3::splat(0.5)));
        assert!(!b.contains(Vec3::splat(1.001)));
    }

    #[test]
    fn normalize_roundtrip() {
        let b = Aabb::new(Vec3::splat(-2.0), Vec3::new(2.0, 4.0, 6.0));
        let p = Vec3::new(0.0, 1.0, 2.0);
        let u = b.normalize(p);
        let q = b.min + u.mul_elem(b.extent());
        assert!((p - q).length() < 1e-5);
    }

    #[test]
    fn intersect_through_center() {
        let b = Aabb::new(Vec3::splat(-1.0), Vec3::splat(1.0));
        let r = Ray::new(Vec3::new(0.0, 0.0, -5.0), Vec3::new(0.0, 0.0, 1.0));
        let h = b.intersect(&r).expect("should hit");
        assert!((h.t_near - 4.0).abs() < 1e-5);
        assert!((h.t_far - 6.0).abs() < 1e-5);
    }

    #[test]
    fn intersect_miss() {
        let b = Aabb::unit();
        let r = Ray::new(Vec3::new(5.0, 5.0, 5.0), Vec3::new(1.0, 0.0, 0.0));
        assert!(b.intersect(&r).is_none());
    }

    #[test]
    fn intersect_box_behind_origin() {
        let b = Aabb::unit();
        let r = Ray::new(Vec3::new(0.5, 0.5, 5.0), Vec3::new(0.0, 0.0, 1.0));
        assert!(b.intersect(&r).is_none());
    }

    #[test]
    fn intersect_origin_inside_clamps_near() {
        let b = Aabb::unit();
        let r = Ray::new(Vec3::splat(0.5), Vec3::new(0.0, 0.0, 1.0));
        let h = b.intersect(&r).expect("origin inside must hit");
        assert_eq!(h.t_near, 0.0);
        assert!((h.t_far - 0.5).abs() < 1e-5);
    }

    #[test]
    fn intersect_parallel_ray_inside_slab() {
        let b = Aabb::unit();
        // Ray parallel to x axis, inside the y/z slabs.
        let r = Ray::new(Vec3::new(-3.0, 0.5, 0.5), Vec3::new(1.0, 0.0, 0.0));
        let h = b.intersect(&r).expect("should hit");
        assert!((h.t_near - 3.0).abs() < 1e-5);
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn degenerate_box_panics() {
        let _ = Aabb::new(Vec3::ONE, Vec3::ONE);
    }
}
