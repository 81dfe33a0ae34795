//! Exact volume rendering of a ground-truth field.
//!
//! The oracle integrates the emission-absorption equation (paper Eq. 1) with
//! dense quadrature over the ray/bounds intersection. It plays the role of
//! the Blender path tracer that produced the Synthetic-NeRF images: the
//! "photographs" the NeRF is trained to reproduce.

use crate::field::{RadianceField, Scene};
use crate::image::Image;
use inerf_geom::{Camera, Ray, Vec3};

/// Renders the ground-truth color of `ray` through `scene` using `n` equal
/// quadrature steps over the ray/bounds overlap.
///
/// Returns black where the ray misses the scene bounds. The composite uses
/// the standard discrete approximation `alpha_i = 1 - exp(-sigma_i * dt)`,
/// identical in form to the training renderer, but with a much denser step
/// count so it serves as ground truth.
fn render_ray(scene: &Scene, ray: &Ray, n: usize) -> Vec3 {
    let Some(hit) = scene.bounds.intersect(ray) else {
        return Vec3::ZERO;
    };
    if hit.t_far - hit.t_near < 1e-6 {
        return Vec3::ZERO;
    }
    let dt = (hit.t_far - hit.t_near) / n as f32;
    let mut transmittance = 1.0f32;
    let mut color = Vec3::ZERO;
    for i in 0..n {
        let t = hit.t_near + dt * (i as f32 + 0.5);
        let s = scene.sample(ray.at(t), ray.direction);
        if s.sigma <= 0.0 {
            continue;
        }
        let alpha = 1.0 - (-s.sigma * dt).exp();
        color += s.color * (transmittance * alpha);
        transmittance *= 1.0 - alpha;
        if transmittance < 1e-4 {
            break;
        }
    }
    color
}

/// Renders a full ground-truth image from `camera`.
///
/// `samples_per_ray` controls quadrature density; 192+ gives oracle-grade
/// accuracy for the procedural scenes, 64 is fine for tests.
pub fn render_image(scene: &Scene, camera: &Camera, samples_per_ray: usize) -> Image {
    let mut img = Image::new(camera.width, camera.height);
    for py in 0..camera.height {
        for px in 0..camera.width {
            let ray = camera.ray_for_pixel(px, py);
            img.set(px, py, render_ray(scene, &ray, samples_per_ray));
        }
    }
    img
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::{Blob, Primitive};
    use crate::zoo::{scene, SceneKind};
    use inerf_geom::{Aabb, Pose};

    fn single_blob_scene() -> Scene {
        Scene::new(
            "blob",
            Aabb::new(Vec3::splat(-1.0), Vec3::splat(1.0)),
            vec![Primitive::Blob(Blob {
                center: Vec3::ZERO,
                radius: 0.3,
                peak: 20.0,
                color: Vec3::new(1.0, 0.0, 0.0),
                sheen: 0.0,
            })],
        )
    }

    #[test]
    fn ray_through_blob_sees_red() {
        let s = single_blob_scene();
        let ray = Ray::new(Vec3::new(0.0, 0.0, -3.0), Vec3::new(0.0, 0.0, 1.0));
        let c = render_ray(&s, &ray, 256);
        assert!(
            c.x > 0.8,
            "dense blob should be nearly opaque red, got {c:?}"
        );
        assert!(c.y < 1e-3 && c.z < 1e-3);
    }

    #[test]
    fn ray_missing_bounds_is_black() {
        let s = single_blob_scene();
        let ray = Ray::new(Vec3::new(5.0, 5.0, -3.0), Vec3::new(0.0, 0.0, 1.0));
        assert_eq!(render_ray(&s, &ray, 64), Vec3::ZERO);
    }

    #[test]
    fn ray_through_empty_corner_is_black() {
        let s = single_blob_scene();
        let ray = Ray::new(Vec3::new(0.9, 0.9, -3.0), Vec3::new(0.0, 0.0, 1.0));
        let c = render_ray(&s, &ray, 128);
        assert!(c.length_squared() < 1e-6);
    }

    #[test]
    fn quadrature_converges() {
        let s = single_blob_scene();
        let ray = Ray::new(Vec3::new(0.05, -0.02, -3.0), Vec3::new(0.0, 0.0, 1.0));
        let coarse = render_ray(&s, &ray, 64);
        let fine = render_ray(&s, &ray, 1024);
        assert!(
            (coarse - fine).length_squared() < 4e-4,
            "64 vs 1024 samples differ too much: {coarse:?} vs {fine:?}"
        );
    }

    #[test]
    fn image_of_lego_is_nonempty_and_bounded() {
        let s = scene(SceneKind::Lego);
        let pose = Pose::orbit(Vec3::ZERO, 3.0, 0.7, 0.5);
        let cam = Camera::new(pose, 24, 24, 0.7);
        let img = render_image(&s, &cam, 64);
        assert!(img.mean() > 0.01, "image should not be black");
        for p in img.pixels() {
            assert!(p.x >= 0.0 && p.x <= 1.0 + 1e-4);
            assert!(p.is_finite());
        }
    }
}
