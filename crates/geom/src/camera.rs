//! Pinhole cameras and orbit poses for synthetic dataset generation.

use crate::{Ray, Vec3};

/// A camera pose: position plus an orthonormal look frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pose {
    /// Camera position in world space.
    pub position: Vec3,
    /// Right (+x in camera space) unit vector.
    pub right: Vec3,
    /// Up (+y in camera space) unit vector.
    pub up: Vec3,
    /// Forward (viewing direction) unit vector.
    pub forward: Vec3,
}

impl Pose {
    /// Builds a pose looking from `eye` toward `target` with the given
    /// approximate `up` hint.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `eye == target` or `up` is parallel to the
    /// view direction.
    fn look_at(eye: Vec3, target: Vec3, up_hint: Vec3) -> Self {
        let forward = (target - eye).normalized();
        let right = forward.cross(up_hint).normalized();
        let up = right.cross(forward);
        Pose {
            position: eye,
            right,
            up,
            forward,
        }
    }

    /// A pose on a circular orbit of `radius` around `center`, at azimuth
    /// `theta` (radians, around +y) and elevation `phi` (radians above the
    /// horizon), looking at `center`.
    pub fn orbit(center: Vec3, radius: f32, theta: f32, phi: f32) -> Self {
        let eye = center
            + Vec3::new(
                radius * phi.cos() * theta.cos(),
                radius * phi.sin(),
                radius * phi.cos() * theta.sin(),
            );
        Pose::look_at(eye, center, Vec3::new(0.0, 1.0, 0.0))
    }
}

/// A pinhole camera: a [`Pose`] plus intrinsics.
///
/// # Example
///
/// ```
/// use inerf_geom::{Camera, Pose, Vec3};
/// // Four units down -z, looking at the origin.
/// let pose = Pose::orbit(Vec3::ZERO, 4.0, -std::f32::consts::FRAC_PI_2, 0.0);
/// let cam = Camera::new(pose, 64, 64, 50.0_f32.to_radians());
/// let center_ray = cam.ray_for_pixel(32, 32);
/// // The centre pixel looks (approximately) straight ahead.
/// assert!(center_ray.direction.dot(pose.forward) > 0.99);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Camera {
    /// Extrinsic pose.
    pub pose: Pose,
    /// Image width in pixels.
    pub width: u32,
    /// Image height in pixels.
    pub height: u32,
    /// Vertical field of view in radians.
    pub fov_y: f32,
}

impl Camera {
    /// Creates a camera.
    ///
    /// # Panics
    ///
    /// Panics if `width` or `height` is zero, or `fov_y` is not in `(0, π)`.
    pub fn new(pose: Pose, width: u32, height: u32, fov_y: f32) -> Self {
        assert!(width > 0 && height > 0, "image dimensions must be positive");
        assert!(
            fov_y > 0.0 && fov_y < std::f32::consts::PI,
            "fov_y out of range"
        );
        Camera {
            pose,
            width,
            height,
            fov_y,
        }
    }

    /// Total pixel count.
    #[inline]
    pub fn pixel_count(&self) -> usize {
        self.width as usize * self.height as usize
    }

    /// The world-space ray through the centre of pixel `(px, py)`.
    ///
    /// Pixel `(0, 0)` is the top-left corner; `py` grows downward.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the pixel is out of bounds.
    pub fn ray_for_pixel(&self, px: u32, py: u32) -> Ray {
        debug_assert!(px < self.width && py < self.height, "pixel out of bounds");
        let aspect = self.width as f32 / self.height as f32;
        let half_h = (self.fov_y * 0.5).tan();
        let half_w = half_h * aspect;
        // NDC in [-1, 1] with pixel-centre offsets.
        let u = ((px as f32 + 0.5) / self.width as f32) * 2.0 - 1.0;
        let v = 1.0 - ((py as f32 + 0.5) / self.height as f32) * 2.0;
        let dir = self.pose.forward + self.pose.right * (u * half_w) + self.pose.up * (v * half_h);
        Ray::new(self.pose.position, dir)
    }

    /// The ray for a flattened pixel index (row-major).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `idx >= pixel_count()`.
    pub fn ray_for_index(&self, idx: usize) -> Ray {
        debug_assert!(idx < self.pixel_count());
        let px = (idx % self.width as usize) as u32;
        let py = (idx / self.width as usize) as u32;
        self.ray_for_pixel(px, py)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_pose() -> Pose {
        Pose::look_at(
            Vec3::new(0.0, 0.0, -4.0),
            Vec3::ZERO,
            Vec3::new(0.0, 1.0, 0.0),
        )
    }

    #[test]
    fn look_at_builds_orthonormal_frame() {
        let p = test_pose();
        assert!((p.right.length() - 1.0).abs() < 1e-5);
        assert!((p.up.length() - 1.0).abs() < 1e-5);
        assert!((p.forward.length() - 1.0).abs() < 1e-5);
        assert!(p.right.dot(p.up).abs() < 1e-5);
        assert!(p.right.dot(p.forward).abs() < 1e-5);
        assert!(p.up.dot(p.forward).abs() < 1e-5);
    }

    #[test]
    fn orbit_keeps_radius_and_looks_at_center() {
        let c = Vec3::new(1.0, 2.0, 3.0);
        for i in 0..8 {
            let theta = i as f32 * std::f32::consts::FRAC_PI_4;
            let p = Pose::orbit(c, 2.5, theta, 0.4);
            assert!(((p.position - c).length() - 2.5).abs() < 1e-4);
            let to_center = (c - p.position).normalized();
            assert!(p.forward.dot(to_center) > 0.999);
        }
    }

    #[test]
    fn corner_rays_diverge_symmetrically() {
        let cam = Camera::new(test_pose(), 100, 100, 60.0_f32.to_radians());
        let tl = cam.ray_for_pixel(0, 0);
        let br = cam.ray_for_pixel(99, 99);
        // Symmetric image: corner rays have equal angle to forward.
        let a = tl.direction.dot(cam.pose.forward);
        let b = br.direction.dot(cam.pose.forward);
        assert!((a - b).abs() < 1e-4);
        assert!(a < 1.0);
    }

    #[test]
    fn ray_for_index_matches_pixel() {
        let cam = Camera::new(test_pose(), 10, 5, 1.0);
        assert_eq!(cam.pixel_count(), 50);
        let r1 = cam.ray_for_pixel(7, 3);
        let r2 = cam.ray_for_index(3 * 10 + 7);
        assert_eq!(r1, r2);
    }

    #[test]
    fn all_rays_originate_at_camera() {
        let cam = Camera::new(test_pose(), 4, 4, 1.0);
        for i in 0..cam.pixel_count() {
            assert_eq!(cam.ray_for_index(i).origin, cam.pose.position);
        }
    }
}
