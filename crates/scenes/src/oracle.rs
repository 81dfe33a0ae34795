//! Exact volume rendering of a ground-truth field.
//!
//! The oracle integrates the emission-absorption equation (paper Eq. 1) with
//! dense quadrature over the ray/bounds intersection. It plays the role of
//! the Blender path tracer that produced the Synthetic-NeRF images: the
//! "photographs" the NeRF is trained to reproduce.
//!
//! The quadrature skips empty space exactly. Each primitive's density
//! vanishes outside a support box (see [`crate::field`]: the boxes, and the
//! relative and absolute margins that absorb the primitive's and the ray's
//! rounding), so a ray is first cut against every box into per-primitive
//! t-spans. The march starts at the first span, stops after the last, and
//! asks each sample only for the primitives whose span holds it; a ray
//! that meets no box is black at once. Every primitive skipped would have
//! added `+0.0` to sums that are never `-0.0`, so each sample, each
//! `sigma <= 0` skip, the composite and the early exit are those of the
//! dense march, bit for bit: the generated images are unchanged.

use crate::field::{Scene, Span};
use crate::image::Image;
use inerf_geom::{Camera, Ray, Vec3};

/// Renders the ground-truth color of `ray` through `scene` using `n` equal
/// quadrature steps over the ray/bounds overlap.
///
/// Returns black where the ray misses the scene bounds. The composite uses
/// the standard discrete approximation `alpha_i = 1 - exp(-sigma_i * dt)`,
/// identical in form to the training renderer, but with a much denser step
/// count so it serves as ground truth. `spans` is scratch space, refilled
/// with the ray's primitive spans.
fn render_ray(scene: &Scene, ray: &Ray, n: usize, spans: &mut Vec<Span>) -> Vec3 {
    let Some(hit) = scene.bounds.intersect(ray) else {
        return Vec3::ZERO;
    };
    if hit.t_far - hit.t_near < 1e-6 {
        return Vec3::ZERO;
    }
    scene.spans_into(ray, spans);
    let Some((first, last)) = spans
        .iter()
        .map(|s| (s.t0, s.t1))
        .reduce(|(a0, a1), (b0, b1)| (a0.min(b0), a1.max(b1)))
    else {
        return Vec3::ZERO;
    };
    let dt = (hit.t_far - hit.t_near) / n as f32;
    let mut transmittance = 1.0f32;
    let mut color = Vec3::ZERO;
    for i in 0..n {
        let t = hit.t_near + dt * (i as f32 + 0.5);
        if t < first {
            continue;
        }
        if t > last {
            break;
        }
        let s = scene.sample_spans(spans, t, ray.at(t), ray.direction);
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
    let mut spans = Vec::with_capacity(scene.primitives().len());
    for py in 0..camera.height {
        for px in 0..camera.width {
            let ray = camera.ray_for_pixel(px, py);
            img.set(px, py, render_ray(scene, &ray, samples_per_ray, &mut spans));
        }
    }
    img
}

/// The dense march, every primitive asked at every step: the reference
/// [`render_ray`] is pinned to, bit for bit.
#[cfg(test)]
fn render_ray_reference(scene: &Scene, ray: &Ray, n: usize) -> Vec3 {
    use crate::field::RadianceField;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetConfig;
    use crate::field::{Blob, Primitive, RadianceField, RadianceSample, SoftBox, SoftTorus};
    use crate::zoo::{scene, SceneKind};
    use inerf_geom::{Aabb, Pose};
    use proptest::prelude::*;

    fn march(scene: &Scene, ray: &Ray, n: usize) -> Vec3 {
        render_ray(scene, ray, n, &mut Vec::new())
    }

    /// A color's bits, every NaN as one value: Rust leaves the sign and
    /// payload of an arithmetic NaN unspecified, so two compilations of the
    /// same sum may differ there (a zero-softness box is NaN inside).
    fn bits(c: Vec3) -> [u32; 3] {
        c.to_array()
            .map(|x| if x.is_nan() { u32::MAX } else { x.to_bits() })
    }

    fn sample_bits(s: RadianceSample) -> ([u32; 3], [u32; 3]) {
        (bits(Vec3::splat(s.sigma)), bits(s.color))
    }

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
        let c = march(&s, &ray, 256);
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
        assert_eq!(march(&s, &ray, 64), Vec3::ZERO);
    }

    #[test]
    fn ray_through_empty_corner_is_black() {
        let s = single_blob_scene();
        let ray = Ray::new(Vec3::new(0.9, 0.9, -3.0), Vec3::new(0.0, 0.0, 1.0));
        let c = march(&s, &ray, 128);
        assert!(c.length_squared() < 1e-6);
    }

    #[test]
    fn quadrature_converges() {
        let s = single_blob_scene();
        let ray = Ray::new(Vec3::new(0.05, -0.02, -3.0), Vec3::new(0.0, 0.0, 1.0));
        let coarse = march(&s, &ray, 64);
        let fine = march(&s, &ray, 1024);
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

    /// The first `views` orbit cameras of `config`, posed as
    /// `DatasetConfig::generate` poses them.
    fn orbit_cameras(config: &DatasetConfig, center: Vec3, views: usize) -> Vec<Camera> {
        let total = config.train_views + config.test_views;
        (0..views)
            .map(|i| {
                let theta = std::f32::consts::TAU * i as f32 / total as f32;
                let phi = 0.35 + 0.25 * ((i % 3) as f32 - 1.0);
                let pose = Pose::orbit(center, config.orbit_radius, theta, phi);
                Camera::new(pose, config.resolution, config.resolution, config.fov_y)
            })
            .collect()
    }

    #[test]
    fn zoo_pixels_match_the_dense_march_bitwise() {
        // The tiny and small configs, and the PSNR experiment's full budget
        // (40 px, 64 oracle samples).
        let configs = [
            DatasetConfig::tiny(),
            DatasetConfig::small(),
            DatasetConfig {
                train_views: 16,
                test_views: 2,
                resolution: 40,
                oracle_samples: 64,
                ..DatasetConfig::small()
            },
        ];
        let mut spans = Vec::new();
        for kind in SceneKind::ALL {
            let s = scene(kind);
            for config in &configs {
                for cam in orbit_cameras(config, s.bounds.center(), 3) {
                    for py in 0..cam.height {
                        for px in 0..cam.width {
                            let ray = cam.ray_for_pixel(px, py);
                            let n = config.oracle_samples;
                            assert_eq!(
                                bits(render_ray(&s, &ray, n, &mut spans)),
                                bits(render_ray_reference(&s, &ray, n)),
                                "{kind} at {}px, pixel ({px}, {py})",
                                config.resolution
                            );
                        }
                    }
                }
            }
        }
    }

    /// SplitMix64: the random scenes and rays of the property below.
    struct Gen(u64);

    impl Gen {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn unit(&mut self) -> f32 {
            (self.next() >> 40) as f32 / (1u64 << 24) as f32
        }

        fn range(&mut self, lo: f32, hi: f32) -> f32 {
            lo + (hi - lo) * self.unit()
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        /// A signed size: exactly zero one time in twelve, negative in
        /// about a third of the rest.
        fn size(&mut self, hi: f32) -> f32 {
            match self.below(12) {
                0 => 0.0,
                1..=4 => -self.range(0.0, hi),
                _ => self.range(0.0, hi),
            }
        }

        /// A half-extent or ring radius: negative one time in eight, which
        /// shrinks the support (to nothing, past the falloff).
        fn extent(&mut self, hi: f32) -> f32 {
            let x = self.range(0.0, hi);
            if self.below(8) == 0 {
                -x
            } else {
                x
            }
        }

        fn vec(&mut self, r: f32) -> Vec3 {
            Vec3::new(self.range(-r, r), self.range(-r, r), self.range(-r, r))
        }

        fn color(&mut self) -> Vec3 {
            Vec3::new(self.unit(), self.unit(), self.unit())
        }

        /// A primitive near `at`; the centers reach past every bounds the
        /// scene can have.
        fn primitive(&mut self, at: Vec3) -> Primitive {
            let center = at + self.vec(3.0);
            let peak = self.range(0.0, 40.0);
            match self.below(3) {
                0 => Primitive::Blob(Blob {
                    center,
                    radius: self.size(0.8),
                    peak,
                    color: self.color(),
                    sheen: if self.below(2) == 0 { 0.0 } else { self.unit() },
                }),
                1 => Primitive::Box(SoftBox {
                    center,
                    half: Vec3::new(self.extent(0.6), self.extent(0.6), self.extent(0.6)),
                    softness: self.size(0.3),
                    peak,
                    color: self.color(),
                }),
                _ => Primitive::Torus(SoftTorus {
                    center,
                    major: self.extent(0.8),
                    minor: self.size(0.3),
                    peak,
                    color: self.color(),
                }),
            }
        }

        /// A direction with each component exactly zero one time in four
        /// (never all three).
        fn direction(&mut self) -> Vec3 {
            loop {
                let mut d = self.vec(1.0).to_array();
                for c in &mut d {
                    if self.below(4) == 0 {
                        *c = 0.0;
                    }
                }
                let d = Vec3::from(d);
                if d.length_squared() > 1e-6 {
                    return d;
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn support_boxes_hold_all_density_and_spans_keep_every_bit(seed in 0u64..u64::MAX) {
            let mut g = Gen(seed);
            // Half the scenes sit up to 1e5 from the origin, where the
            // rounding of the primitive's coordinates outgrows the ray's.
            let at = if g.below(2) == 0 {
                let r = 10f32.powf(g.range(0.0, 5.0));
                g.vec(r)
            } else {
                Vec3::ZERO
            };
            let half = g.range(0.5, 2.0);
            let bounds = Aabb::new(at - Vec3::splat(half), at + Vec3::splat(half));
            let prims: Vec<Primitive> = (0..1 + g.below(30)).map(|_| g.primitive(at)).collect();
            let s = Scene::new("random", bounds, prims.clone());

            // (a) Outside its support box, a primitive is empty. The probes
            // sit on and around the box's face centers (log-uniformly 1e-7
            // to 1e-1 of the reach away), where a box short of the support
            // leaves density outside it, at the ring of a torus, and
            // anywhere in a bigger box.
            for prim in &prims {
                let b = prim.support();
                let c = (b.min + b.max) * 0.5;
                let r = (b.max - b.min) * 0.5;
                for k in 0..48 {
                    let scale = 1.0 + g.range(-1.0, 1.0) * 10f32.powf(-g.range(1.0, 7.0));
                    let axis = k % 3;
                    let mut off = [0.0f32; 3];
                    off[axis] = r[axis] * scale * if k % 2 == 0 { 1.0 } else { -1.0 };
                    let mut p = c + Vec3::from(off);
                    if let Primitive::Torus(t) = prim {
                        if k % 4 == 0 {
                            p = t.center + Vec3::new(t.major, 3.0 * t.minor.abs() * scale, 0.0);
                        }
                    }
                    if k % 6 == 5 {
                        p = c + Vec3::new(g.range(-1.5, 1.5) * r.x, g.range(-1.5, 1.5) * r.y, g.range(-1.5, 1.5) * r.z);
                    }
                    let d = g.direction().normalized();
                    if !b.contains(p) {
                        prop_assert_eq!(prim.eval(p, d), RadianceSample::EMPTY, "{:?} at {:?}", prim, p);
                    }
                }
            }

            // (b) The span march equals the dense march bit for bit, for
            // rays from inside the bounds, from a few units out and from
            // far out (`|t|` up to about 440, where the ray's rounding
            // outgrows the primitive's), some along axes, some aimed at a
            // primitive.
            let mut spans = Vec::new();
            for k in 0..24 {
                let far = k % 3 == 2;
                let origin = at + match k % 3 {
                    0 => g.vec(half),
                    1 => g.vec(5.0),
                    _ => g.vec(250.0),
                };
                let direction = if !far && g.below(2) == 0 {
                    g.direction()
                } else {
                    let target = match prims[g.below(prims.len() as u64) as usize] {
                        Primitive::Blob(b) => b.center,
                        Primitive::Box(b) => b.center,
                        Primitive::Torus(t) => t.center,
                    };
                    let d = target - origin;
                    if d.length_squared() > 1e-6 { d } else { g.direction() }
                };
                let ray = Ray::new(origin, direction);
                let n = 1 + g.below(if far { 1024 } else { 128 }) as usize;
                prop_assert_eq!(
                    bits(render_ray(&s, &ray, n, &mut spans)),
                    bits(render_ray_reference(&s, &ray, n)),
                    "{:?}, {} samples", ray, n
                );

                // (c) At any `t` of the ray, not only the march's, the span
                // filter keeps a sample's bits. The probes straddle every
                // span end at distances from 1e-8 to 1e-3 of `|t|`, where a
                // margin too thin for the rounding shows.
                s.spans_into(&ray, &mut spans);
                for end in spans.iter().flat_map(|sp| [sp.t0, sp.t1]) {
                    let unit = end.abs().max(1.0);
                    let mut x = 1e-8 * unit;
                    while x < 1e-3 * unit {
                        for t in [end - x, end + x].into_iter().filter(|&t| t >= 0.0) {
                            let p = ray.at(t);
                            prop_assert_eq!(
                                sample_bits(s.sample_spans(&spans, t, p, ray.direction)),
                                sample_bits(s.sample(p, ray.direction)),
                                "{:?} at t = {}", ray, t
                            );
                        }
                        x *= 1.25;
                    }
                }
            }
        }
    }
}
