//! Radiance fields: the ground-truth scene representation.
//!
//! A [`RadianceField`] maps a 3D point (and viewing direction) to an
//! emission-absorption sample: a non-negative density `sigma` and an RGB
//! color. The procedural scenes are built from smooth primitives so that a
//! small neural model can actually fit them — mirroring how the Blender
//! scenes are fit by iNGP.
//!
//! Every primitive's density has an analytic support: a blob's vanishes
//! past three radii, a box's past three softnesses beyond its faces, a
//! torus's past three tube radii from its ring. [`Scene::new`] bounds each
//! support with an axis-aligned box, widened by a relative margin for the
//! primitive's rounding and an absolute one for the ray's (`SUPPORT_REL`,
//! `SUPPORT_ABS`), outside which the primitive returns the empty sample
//! exactly. The oracle intersects each ray with those boxes once and asks
//! a sample point only for the primitives whose t-span holds it
//! (`Scene::sample_spans`). A primitive left out would have added `+0.0`
//! to both accumulators of [`RadianceField::sample`], and a sum that
//! starts at `+0.0` is never `-0.0` (round-to-nearest gives `-0.0` only
//! for `-0.0 + -0.0`), so adding `+0.0` to it changes no bit and leaves a
//! NaN a NaN: the twin returns `sample`'s result bit for bit.

use inerf_geom::{Aabb, Ray, Vec3};

/// Relative widening of a support box along each axis, in units of that
/// axis's coordinate scale `|center| + |extent|`: the primitive's side of
/// the rounding.
///
/// Three roundings separate a point `eval` accepts from the exact support,
/// each relative to that scale: `eval`'s own arithmetic (differences,
/// squares, sums, a square root and a quotient, under 8 ulp), the extent
/// and the box corners `center ± reach` (an ulp and a half) and the sum
/// `origin + direction * t` of a sample position (half an ulp of a point
/// inside the box). That is under `16ε` with `ε = 2^-24`; `2^-18 = 64ε`
/// keeps a factor of four in hand, and a box 1 % short of the support
/// leaves density outside it.
const SUPPORT_REL: f32 = 1.0 / 262_144.0;

/// Absolute widening of a support box along each axis: the ray's side of
/// the rounding, taken as a distance.
///
/// A sample's product `direction * t` moves it by up to `ε|t|` along an
/// axis, and `Aabb::intersect` rounds each slab end three times (a
/// difference, a reciprocal, a product: `3ε|t|`). Growing a box by `δ`
/// grows every span of a unit-direction ray through it by at least `δ` at
/// both ends, so `2^-12 = 8ε·512` absorbs both, with a factor of two in
/// hand, for every `|t| ≤ 512`: far beyond the rays of a scene whose
/// cameras orbit a few units out. The margin sits on the box, not on the
/// span, because `intersect` reports a ray whose rounded span came out
/// empty as a miss before a span margin could widen it. It also covers the
/// squares in `eval` that underflow below about `1e-19`.
const SUPPORT_ABS: f32 = 1.0 / 4096.0;

/// One sample of a radiance field: density and color at a point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RadianceSample {
    /// Volume density `σ ≥ 0` (absorption/emission coefficient).
    pub sigma: f32,
    /// Emitted RGB color, each channel in `[0, 1]`.
    pub color: Vec3,
}

impl RadianceSample {
    /// A fully transparent sample.
    pub(crate) const EMPTY: RadianceSample = RadianceSample {
        sigma: 0.0,
        color: Vec3::ZERO,
    };
}

/// A continuous density + color field over 3D space.
///
/// Directions allow mild view dependence (specular tint), exercising the same
/// color-MLP input path the paper's pipeline uses.
pub trait RadianceField: Send + Sync {
    /// Samples the field at world-space point `p` viewed along unit
    /// direction `d`.
    fn sample(&self, p: Vec3, d: Vec3) -> RadianceSample;
}

/// A smooth blob: Gaussian-falloff density around a center.
#[derive(Debug, Clone, Copy)]
pub struct Blob {
    /// Center of the blob.
    pub center: Vec3,
    /// Radius at which density has fallen to ~60%.
    pub radius: f32,
    /// Peak density.
    pub peak: f32,
    /// Base albedo.
    pub color: Vec3,
    /// View-dependent tint strength in `[0, 1]`.
    pub sheen: f32,
}

impl Blob {
    fn eval(&self, p: Vec3, d: Vec3) -> RadianceSample {
        let r2 = (p - self.center).length_squared() / (self.radius * self.radius);
        if r2 > 9.0 {
            return RadianceSample::EMPTY;
        }
        let sigma = self.peak * (-r2).exp();
        // View-dependent sheen: brighter when looking along the outward normal.
        let color = if self.sheen > 0.0 && r2 > 1e-8 {
            let n = (p - self.center).normalized();
            let facing = (-d.dot(n)).max(0.0);
            (self.color * (1.0 - self.sheen) + Vec3::ONE * (self.sheen * facing))
                .clamp_scalar(0.0, 1.0)
        } else {
            self.color
        };
        RadianceSample { sigma, color }
    }
}

/// A soft box: density fading smoothly near the surface of a cuboid.
#[derive(Debug, Clone, Copy)]
pub struct SoftBox {
    /// Box center.
    pub center: Vec3,
    /// Half-extents along each axis.
    pub half: Vec3,
    /// Edge softness (distance over which density decays outside).
    pub softness: f32,
    /// Peak density.
    pub peak: f32,
    /// Albedo.
    pub color: Vec3,
}

impl SoftBox {
    fn eval(&self, p: Vec3) -> RadianceSample {
        let q = p - self.center;
        let ex = (q.x.abs() - self.half.x).max(0.0);
        let ey = (q.y.abs() - self.half.y).max(0.0);
        let ez = (q.z.abs() - self.half.z).max(0.0);
        let outside = (ex * ex + ey * ey + ez * ez).sqrt();
        if outside > 3.0 * self.softness {
            return RadianceSample::EMPTY;
        }
        let t = outside / self.softness;
        let sigma = self.peak * (-t * t).exp();
        RadianceSample {
            sigma,
            color: self.color,
        }
    }
}

/// A smooth torus lying in the XZ plane.
#[derive(Debug, Clone, Copy)]
pub struct SoftTorus {
    /// Torus center.
    pub center: Vec3,
    /// Major radius (ring radius).
    pub major: f32,
    /// Minor radius (tube radius, Gaussian falloff scale).
    pub minor: f32,
    /// Peak density.
    pub peak: f32,
    /// Albedo.
    pub color: Vec3,
}

impl SoftTorus {
    fn eval(&self, p: Vec3) -> RadianceSample {
        let q = p - self.center;
        let ring = (q.x * q.x + q.z * q.z).sqrt() - self.major;
        let d2 = (ring * ring + q.y * q.y) / (self.minor * self.minor);
        if d2 > 9.0 {
            return RadianceSample::EMPTY;
        }
        RadianceSample {
            sigma: self.peak * (-d2).exp(),
            color: self.color,
        }
    }
}

/// One primitive of a [`Scene`].
#[derive(Debug, Clone, Copy)]
pub enum Primitive {
    /// Gaussian blob.
    Blob(Blob),
    /// Soft-edged box.
    Box(SoftBox),
    /// Soft torus.
    Torus(SoftTorus),
}

impl Primitive {
    pub(crate) fn eval(&self, p: Vec3, d: Vec3) -> RadianceSample {
        match self {
            Primitive::Blob(b) => b.eval(p, d),
            Primitive::Box(b) => b.eval(p),
            Primitive::Torus(t) => t.eval(p),
        }
    }

    /// A box outside which [`Primitive::eval`] returns
    /// [`RadianceSample::EMPTY`].
    ///
    /// The extents are where `eval`'s cut-off tests fire: a blob's
    /// `r² > 9` at `3·|radius|`, a box's `outside > 3·softness` at
    /// `half + 3·|softness|` (a negative softness cuts everything off), a
    /// torus's `d² > 9` at `major + 3·|minor|` in its plane and `3·|minor|`
    /// across it. A negative half-extent or major radius only shrinks the
    /// support, and a box whose extent is negative holds no support at
    /// all; such a box may come out inverted, so it is built by hand, not
    /// through the asserting [`Aabb::new`].
    pub(crate) fn support(&self) -> Aabb {
        let (center, extent, scale) = match self {
            Primitive::Blob(b) => {
                let r = 3.0 * b.radius.abs();
                (b.center, [r; 3], [r; 3])
            }
            Primitive::Box(b) => {
                let s = 3.0 * b.softness.abs();
                let half: [f32; 3] = b.half.into();
                (b.center, half.map(|h| h + s), half.map(|h| h.abs() + s))
            }
            Primitive::Torus(t) => {
                let tube = 3.0 * t.minor.abs();
                let ring = t.major + tube;
                let scale = t.major.abs() + tube;
                (t.center, [ring, tube, ring], [scale, tube, scale])
            }
        };
        let c: [f32; 3] = center.into();
        let reach: [f32; 3] = std::array::from_fn(|i| {
            extent[i] + SUPPORT_REL * (c[i].abs() + scale[i]) + SUPPORT_ABS
        });
        Aabb {
            min: Vec3::new(c[0] - reach[0], c[1] - reach[1], c[2] - reach[2]),
            max: Vec3::new(c[0] + reach[0], c[1] + reach[1], c[2] + reach[2]),
        }
    }
}

/// The stretch `[t0, t1]` of one ray through one primitive's support box.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Span {
    prim: usize,
    pub(crate) t0: f32,
    pub(crate) t1: f32,
}

/// A named procedural scene: a set of primitives plus a bounding box.
///
/// Densities add; colors are density-weighted averages, the standard way to
/// compose emission-absorption media.
#[derive(Debug, Clone)]
pub struct Scene {
    /// Human-readable name (matches the paper's dataset names).
    pub name: String,
    /// Scene bounds; cameras orbit just outside, and training normalizes
    /// coordinates into this box.
    pub bounds: Aabb,
    primitives: Vec<Primitive>,
    /// Per primitive, in scene order: its [`Primitive::support`].
    supports: Vec<Aabb>,
}

impl Scene {
    /// Creates a scene from primitives.
    ///
    /// # Panics
    ///
    /// Panics if `primitives` is empty.
    pub fn new(name: impl Into<String>, bounds: Aabb, primitives: Vec<Primitive>) -> Self {
        assert!(
            !primitives.is_empty(),
            "a scene needs at least one primitive"
        );
        let supports = primitives.iter().map(Primitive::support).collect();
        Scene {
            name: name.into(),
            bounds,
            primitives,
            supports,
        }
    }

    /// The primitives composing the scene.
    pub fn primitives(&self) -> &[Primitive] {
        &self.primitives
    }

    /// Refills `spans`, in scene order, with the t-span of `ray` through
    /// each support box it meets. A sample of the ray at `0 ≤ t ≤ 512`
    /// outside a primitive's span lies outside its support (`intersect`
    /// clamps a span at 0, which no sample precedes).
    pub(crate) fn spans_into(&self, ray: &Ray, spans: &mut Vec<Span>) {
        spans.clear();
        for (prim, support) in self.supports.iter().enumerate() {
            if let Some(hit) = support.intersect(ray) {
                spans.push(Span {
                    prim,
                    t0: hit.t_near,
                    t1: hit.t_far,
                });
            }
        }
    }

    /// [`RadianceField::sample`] at `p = ray.at(t)` of the ray `spans` was
    /// filled for, evaluating only the primitives whose span holds `t`, in
    /// the same order: bit for bit the same sample (module doc).
    pub(crate) fn sample_spans(&self, spans: &[Span], t: f32, p: Vec3, d: Vec3) -> RadianceSample {
        let mut sigma = 0.0f32;
        let mut color_acc = Vec3::ZERO;
        for span in spans.iter().filter(|s| s.t0 <= t && t <= s.t1) {
            let s = self.primitives[span.prim].eval(p, d);
            sigma += s.sigma;
            color_acc += s.color * s.sigma;
        }
        mix(sigma, color_acc)
    }
}

/// The composed sample of summed density `sigma` and density-weighted
/// color `color_acc`.
fn mix(sigma: f32, color_acc: Vec3) -> RadianceSample {
    if sigma <= 1e-9 {
        return RadianceSample::EMPTY;
    }
    RadianceSample {
        sigma,
        color: color_acc / sigma,
    }
}

impl RadianceField for Scene {
    fn sample(&self, p: Vec3, d: Vec3) -> RadianceSample {
        let mut sigma = 0.0f32;
        let mut color_acc = Vec3::ZERO;
        for prim in &self.primitives {
            let s = prim.eval(p, d);
            sigma += s.sigma;
            color_acc += s.color * s.sigma;
        }
        mix(sigma, color_acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blob_peaks_at_center_and_decays() {
        let b = Blob {
            center: Vec3::ZERO,
            radius: 0.5,
            peak: 4.0,
            color: Vec3::ONE,
            sheen: 0.0,
        };
        let at_center = b.eval(Vec3::ZERO, Vec3::new(0.0, 0.0, 1.0));
        let off = b.eval(Vec3::new(0.5, 0.0, 0.0), Vec3::new(0.0, 0.0, 1.0));
        assert!((at_center.sigma - 4.0).abs() < 1e-5);
        assert!(off.sigma < at_center.sigma);
        let far = b.eval(Vec3::new(10.0, 0.0, 0.0), Vec3::new(0.0, 0.0, 1.0));
        assert_eq!(far.sigma, 0.0);
    }

    #[test]
    fn blob_sheen_is_view_dependent() {
        let b = Blob {
            center: Vec3::ZERO,
            radius: 0.5,
            peak: 1.0,
            color: Vec3::new(1.0, 0.0, 0.0),
            sheen: 0.8,
        };
        let p = Vec3::new(0.4, 0.0, 0.0);
        let head_on = b.eval(p, Vec3::new(-1.0, 0.0, 0.0));
        let grazing = b.eval(p, Vec3::new(0.0, 0.0, 1.0));
        // Looking straight at the outward normal brightens all channels.
        assert!(head_on.color.y > grazing.color.y);
    }

    #[test]
    fn soft_box_full_inside_zero_far() {
        let b = SoftBox {
            center: Vec3::ZERO,
            half: Vec3::splat(0.5),
            softness: 0.1,
            peak: 2.0,
            color: Vec3::ONE,
        };
        assert!((b.eval(Vec3::ZERO).sigma - 2.0).abs() < 1e-5);
        assert!((b.eval(Vec3::new(0.49, 0.0, 0.0)).sigma - 2.0).abs() < 1e-5);
        assert_eq!(b.eval(Vec3::new(5.0, 0.0, 0.0)).sigma, 0.0);
    }

    #[test]
    fn torus_peaks_on_ring() {
        let t = SoftTorus {
            center: Vec3::ZERO,
            major: 0.5,
            minor: 0.1,
            peak: 3.0,
            color: Vec3::ONE,
        };
        let on_ring = t.eval(Vec3::new(0.5, 0.0, 0.0));
        assert!((on_ring.sigma - 3.0).abs() < 1e-4);
        let at_center = t.eval(Vec3::ZERO);
        assert!(at_center.sigma < 1e-3);
    }

    #[test]
    fn scene_composes_density_weighted_colors() {
        let red = Blob {
            center: Vec3::ZERO,
            radius: 1.0,
            peak: 1.0,
            color: Vec3::new(1.0, 0.0, 0.0),
            sheen: 0.0,
        };
        let blue = Blob {
            center: Vec3::ZERO,
            radius: 1.0,
            peak: 3.0,
            color: Vec3::new(0.0, 0.0, 1.0),
            sheen: 0.0,
        };
        let scene = Scene::new(
            "mix",
            Aabb::new(Vec3::splat(-1.0), Vec3::splat(1.0)),
            vec![Primitive::Blob(red), Primitive::Blob(blue)],
        );
        let s = scene.sample(Vec3::ZERO, Vec3::new(0.0, 0.0, 1.0));
        assert!((s.sigma - 4.0).abs() < 1e-5);
        // Color is 1/4 red + 3/4 blue.
        assert!((s.color.x - 0.25).abs() < 1e-5);
        assert!((s.color.z - 0.75).abs() < 1e-5);
    }

    #[test]
    fn empty_region_is_empty_sample() {
        let scene = Scene::new(
            "one",
            Aabb::unit(),
            vec![Primitive::Blob(Blob {
                center: Vec3::splat(0.5),
                radius: 0.05,
                peak: 1.0,
                color: Vec3::ONE,
                sheen: 0.0,
            })],
        );
        let s = scene.sample(Vec3::new(100.0, 0.0, 0.0), Vec3::new(0.0, 0.0, 1.0));
        assert_eq!(s, RadianceSample::EMPTY);
    }
}
