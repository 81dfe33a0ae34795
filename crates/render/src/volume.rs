//! The volume-rendering composite and its analytic gradient.

use inerf_geom::Vec3;
use inerf_simd::f32x8;

/// One queried sample along a ray: the model's density and color outputs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SamplePoint {
    /// Predicted density `σ_i ≥ 0`.
    pub sigma: f32,
    /// Predicted RGB color `c_i`.
    pub color: Vec3,
}

/// The result of compositing one ray.
#[derive(Debug, Clone, PartialEq)]
pub struct CompositeOutput {
    /// The rendered pixel color `Ĉ(r)`.
    pub color: Vec3,
    /// Per-sample blend weights `w_i = T_i α_i` (sum ≤ 1).
    pub weights: Vec<f32>,
    /// Transmittance *after* each sample: `T_{i+1} = Π_{j ≤ i} (1 - α_j)`.
    pub transmittance_after: Vec<f32>,
    /// Residual transmittance past the last sample (background weight).
    pub background_weight: f32,
}

/// Composites samples along a ray (paper Eq. 1).
///
/// `dts[i]` is the segment length `δ_i = t_{i+1} - t_i` attributed to sample
/// `i`. Negative densities are clamped to zero (the density head normally
/// guarantees non-negativity; the clamp keeps the renderer total).
///
/// # Panics
///
/// Panics if `samples` and `dts` differ in length.
pub fn composite(samples: &[SamplePoint], dts: &[f32]) -> CompositeOutput {
    assert_eq!(samples.len(), dts.len(), "samples/dts length mismatch");
    composite_with(samples, |i| dts[i])
}

/// [`composite`] for the common uniform-step case (`δ_i = dt` for all
/// samples), avoiding the per-ray `dts` allocation.
pub fn composite_uniform(samples: &[SamplePoint], dt: f32) -> CompositeOutput {
    composite_with(samples, |_| dt)
}

fn composite_with(samples: &[SamplePoint], dt_at: impl Fn(usize) -> f32) -> CompositeOutput {
    let n = samples.len();
    let mut weights = vec![0.0; n];
    let mut trans_after = vec![0.0; n];
    let (color, background_weight) = composite_core(
        n,
        |i| (samples[i].sigma, samples[i].color),
        dt_at,
        &mut weights,
        &mut trans_after,
    );
    CompositeOutput {
        color,
        weights,
        transmittance_after: trans_after,
        background_weight,
    }
}

/// The forward recurrence shared by every composite entry point. Writes the
/// per-sample blend weights and post-sample transmittances into the caller's
/// buffers and returns `(ray color, background weight)`.
#[inline]
fn composite_core(
    n: usize,
    sample_at: impl Fn(usize) -> (f32, Vec3),
    dt_at: impl Fn(usize) -> f32,
    weights: &mut [f32],
    trans_after: &mut [f32],
) -> (Vec3, f32) {
    let mut color = Vec3::ZERO;
    let mut transmittance = 1.0f32;
    for i in 0..n {
        let (sigma, c) = sample_at(i);
        let sigma = sigma.max(0.0);
        let alpha = 1.0 - (-sigma * dt_at(i)).exp();
        let w = transmittance * alpha;
        color += c * w;
        transmittance *= 1.0 - alpha;
        weights[i] = w;
        trans_after[i] = transmittance;
    }
    (color, transmittance)
}

/// Per-sample gradients of the composite.
#[derive(Debug, Clone, PartialEq)]
pub struct CompositeGradients {
    /// `∂L/∂σ_i`.
    pub d_sigma: Vec<f32>,
    /// `∂L/∂c_i`.
    pub d_color: Vec<Vec3>,
}

/// Backward pass of [`composite`]: given `d_color_out = ∂L/∂Ĉ`, returns the
/// gradients w.r.t. every sample's density and color.
///
/// Derivation: with `w_i = T_i α_i` and `T_{i+1} = T_i (1 - α_i)`,
///
/// ```text
/// ∂Ĉ/∂c_i = w_i
/// ∂Ĉ/∂σ_i = δ_i ( T_{i+1} c_i  −  Σ_{j>i} w_j c_j )
/// ```
///
/// The suffix sum is accumulated in a single reverse sweep, so the whole
/// backward is `O(n)`.
///
/// # Panics
///
/// Panics if the argument lengths disagree with `out`.
pub fn composite_backward(
    samples: &[SamplePoint],
    dts: &[f32],
    out: &CompositeOutput,
    d_color_out: Vec3,
) -> CompositeGradients {
    assert_eq!(dts.len(), samples.len(), "samples/dts length mismatch");
    composite_backward_with(samples, |i| dts[i], out, d_color_out)
}

/// [`composite_backward`] for a uniform step size, pairing with
/// [`composite_uniform`].
pub fn composite_backward_uniform(
    samples: &[SamplePoint],
    dt: f32,
    out: &CompositeOutput,
    d_color_out: Vec3,
) -> CompositeGradients {
    composite_backward_with(samples, |_| dt, out, d_color_out)
}

fn composite_backward_with(
    samples: &[SamplePoint],
    dt_at: impl Fn(usize) -> f32,
    out: &CompositeOutput,
    d_color_out: Vec3,
) -> CompositeGradients {
    let n = samples.len();
    assert_eq!(
        out.weights.len(),
        n,
        "composite output does not match samples"
    );
    let mut d_sigma = vec![0.0f32; n];
    let mut d_color = vec![Vec3::ZERO; n];
    composite_backward_core(
        n,
        |i| (samples[i].sigma, samples[i].color),
        dt_at,
        &out.weights,
        &out.transmittance_after,
        d_color_out,
        &mut d_sigma,
        &mut d_color,
    );
    CompositeGradients { d_sigma, d_color }
}

/// The backward sweep shared by every entry point: a single reverse pass
/// accumulating the suffix sum of `w_j c_j`, writing `∂L/∂σ_i` and
/// `∂L/∂c_i` into the caller's buffers.
#[inline]
#[allow(clippy::too_many_arguments)]
fn composite_backward_core(
    n: usize,
    sample_at: impl Fn(usize) -> (f32, Vec3),
    dt_at: impl Fn(usize) -> f32,
    weights: &[f32],
    trans_after: &[f32],
    d_color_out: Vec3,
    d_sigma: &mut [f32],
    d_color: &mut [Vec3],
) {
    // Suffix sum of w_j * c_j for j > i, per channel.
    let mut suffix = Vec3::ZERO;
    for i in (0..n).rev() {
        let (sigma, c) = sample_at(i);
        let w = weights[i];
        d_color[i] = d_color_out * w;
        let g = c * trans_after[i] - suffix;
        // The clamp σ ← max(σ, 0) has zero slope for negative inputs.
        d_sigma[i] = if sigma < 0.0 {
            0.0
        } else {
            dt_at(i) * d_color_out.dot(g)
        };
        suffix += c * w;
    }
}

/// One ray's slice of a flat structure-of-arrays sample batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RaySpan {
    /// Index of the ray's first sample in the flat arrays.
    pub start: usize,
    /// Number of samples on the ray.
    pub len: usize,
    /// Step size `δ` of every sample on the ray. Only a caller-supplied
    /// [`RayBatch::dts`] overrides it.
    pub dt: f32,
}

/// A batch of rays in structure-of-arrays layout: flat per-sample density
/// and color arrays, plus one [`RaySpan`] per ray. `sample_base` rebases the
/// spans' absolute `start` indices when a caller processes a chunk of a
/// larger batch: the *output* buffers passed to [`composite_spans`] /
/// [`composite_backward_spans`] cover samples `sample_base..` only, while
/// `sigmas`/`colors`/`dts` always cover the whole batch.
#[derive(Debug, Clone, Copy)]
pub struct RayBatch<'a> {
    /// Per-sample densities for the whole batch.
    pub sigmas: &'a [f32],
    /// Per-sample colors for the whole batch.
    pub colors: &'a [Vec3],
    /// Per-ray sample spans (absolute indices into the flat arrays).
    pub spans: &'a [RaySpan],
    /// Optional per-sample step sizes (whole batch); when `Some`, overrides
    /// the spans' `dt`.
    pub dts: Option<&'a [f32]>,
    /// First sample index covered by the per-sample *output* buffers.
    pub sample_base: usize,
}

impl RayBatch<'_> {
    /// Total samples covered by `spans`.
    pub fn sample_count(&self) -> usize {
        self.spans.iter().map(|s| s.len).sum()
    }
}

/// Composites every span of a [`RayBatch`], writing per-ray results into
/// `ray_colors`/`backgrounds` and per-sample blend weights/transmittances
/// into `weights`/`trans_after` (indexed relative to `batch.sample_base`).
///
/// Each span is composited with exactly the [`composite`] recurrence, so
/// per-ray results are bitwise-identical to the scalar reference. Spans are
/// independent: disjoint chunks of a batch can run concurrently.
///
/// # Panics
///
/// Panics if the output buffer lengths disagree with `batch.spans`.
pub fn composite_spans(
    batch: &RayBatch<'_>,
    ray_colors: &mut [Vec3],
    backgrounds: &mut [f32],
    weights: &mut [f32],
    trans_after: &mut [f32],
) {
    let rays = batch.spans.len();
    assert_eq!(ray_colors.len(), rays, "ray color buffer mismatch");
    assert_eq!(backgrounds.len(), rays, "background buffer mismatch");
    let total = batch.sample_count();
    assert_eq!(weights.len(), total, "weight buffer mismatch");
    assert_eq!(trans_after.len(), total, "transmittance buffer mismatch");
    inerf_simd::vectorize(
        #[inline(always)]
        || {
            // Runs of equal-length spans (the common case: every ray in a
            // training chunk carries `samples_per_ray` samples) go through the
            // wide lane-per-ray kernel, up to 8 rays at a time; ragged
            // leftovers fall back to the scalar recurrence.
            let mut ri = 0;
            while ri < rays {
                let len = batch.spans[ri].len;
                let mut run = 1;
                while ri + run < rays && batch.spans[ri + run].len == len {
                    run += 1;
                }
                let mut g = 0;
                while g < run {
                    let group = (run - g).min(8);
                    if group >= 2 {
                        composite_group_wide(
                            batch,
                            &batch.spans[ri + g..ri + g + group],
                            &mut ray_colors[ri + g..ri + g + group],
                            &mut backgrounds[ri + g..ri + g + group],
                            weights,
                            trans_after,
                        );
                    } else {
                        let span = &batch.spans[ri + g];
                        let local = span.start - batch.sample_base;
                        let (color, background) = composite_core(
                            span.len,
                            |i| (batch.sigmas[span.start + i], batch.colors[span.start + i]),
                            |i| batch.dts.map_or(span.dt, |d| d[span.start + i]),
                            &mut weights[local..local + span.len],
                            &mut trans_after[local..local + span.len],
                        );
                        ray_colors[ri + g] = color;
                        backgrounds[ri + g] = background;
                    }
                    g += group;
                }
                ri += run;
            }
        },
    );
}

/// Wide composite kernel: one [`f32x8`] lane per ray, for 2–8 equal-length
/// spans, sweeping samples in lockstep. Every lane executes exactly the
/// [`composite_core`] recurrence — the density clamp and negation happen
/// scalar at gather time (the very ops the scalar path runs), `exp` is
/// lane-serial, and the blend arithmetic is lane-wise two-rounding — so
/// each ray's results are bitwise-identical to the scalar reference.
/// Inlined into [`composite_spans`]' `vectorize` frame.
#[inline(always)]
fn composite_group_wide(
    batch: &RayBatch<'_>,
    spans: &[RaySpan],
    ray_colors: &mut [Vec3],
    backgrounds: &mut [f32],
    weights: &mut [f32],
    trans_after: &mut [f32],
) {
    let group = spans.len();
    let len = spans[0].len;
    debug_assert!((2..=8).contains(&group));
    let mut dt_arr = [0.0f32; 8];
    if batch.dts.is_none() {
        for (r, span) in spans.iter().enumerate() {
            dt_arr[r] = span.dt;
        }
    }
    let mut dt_v = f32x8::from_array(dt_arr);
    let one = f32x8::splat(1.0);
    let mut trans = one;
    let mut col_x = f32x8::zero();
    let mut col_y = f32x8::zero();
    let mut col_z = f32x8::zero();
    for i in 0..len {
        let mut neg_sig = [0.0f32; 8];
        let mut cx = [0.0f32; 8];
        let mut cy = [0.0f32; 8];
        let mut cz = [0.0f32; 8];
        for (r, span) in spans.iter().enumerate() {
            let idx = span.start + i;
            // Scalar clamp-and-negate, exactly as the scalar recurrence
            // computes `(-sigma.max(0.0)) * dt`.
            neg_sig[r] = -batch.sigmas[idx].max(0.0);
            let c = batch.colors[idx];
            cx[r] = c.x;
            cy[r] = c.y;
            cz[r] = c.z;
        }
        if let Some(dts) = batch.dts {
            for (r, span) in spans.iter().enumerate() {
                dt_arr[r] = dts[span.start + i];
            }
            dt_v = f32x8::from_array(dt_arr);
        }
        let alpha = one - (f32x8::from_array(neg_sig) * dt_v).exp_lanes();
        let w = trans * alpha;
        col_x = col_x.madd(f32x8::from_array(cx), w);
        col_y = col_y.madd(f32x8::from_array(cy), w);
        col_z = col_z.madd(f32x8::from_array(cz), w);
        trans *= one - alpha;
        let w_arr = w.to_array();
        let t_arr = trans.to_array();
        for (r, span) in spans.iter().enumerate() {
            let local = span.start - batch.sample_base + i;
            weights[local] = w_arr[r];
            trans_after[local] = t_arr[r];
        }
    }
    for r in 0..group {
        ray_colors[r] = Vec3::new(col_x.lane(r), col_y.lane(r), col_z.lane(r));
        backgrounds[r] = trans.lane(r);
    }
}

/// Backward pass of [`composite_spans`]: given the per-ray loss gradients
/// `d_ray_colors` and the forward pass's `weights`/`trans_after`, writes
/// `∂L/∂σ` and `∂L/∂c` for every sample (buffers indexed relative to
/// `batch.sample_base`).
///
/// # Panics
///
/// Panics if any buffer length disagrees with `batch.spans`.
pub fn composite_backward_spans(
    batch: &RayBatch<'_>,
    weights: &[f32],
    trans_after: &[f32],
    d_ray_colors: &[Vec3],
    d_sigmas: &mut [f32],
    d_colors: &mut [Vec3],
) {
    let rays = batch.spans.len();
    assert_eq!(d_ray_colors.len(), rays, "ray gradient buffer mismatch");
    let total = batch.sample_count();
    assert_eq!(weights.len(), total, "weight buffer mismatch");
    assert_eq!(trans_after.len(), total, "transmittance buffer mismatch");
    assert_eq!(d_sigmas.len(), total, "sigma gradient buffer mismatch");
    assert_eq!(d_colors.len(), total, "color gradient buffer mismatch");
    // The reverse sweep is a sequential suffix recurrence per ray, so it
    // stays scalar per span; the vectorize frame still lets the compiler
    // use the wider instruction set for the element-independent pieces
    // without touching evaluation order.
    inerf_simd::vectorize(
        #[inline(always)]
        || {
            for (ri, span) in batch.spans.iter().enumerate() {
                let local = span.start - batch.sample_base;
                composite_backward_core(
                    span.len,
                    |i| (batch.sigmas[span.start + i], batch.colors[span.start + i]),
                    |i| batch.dts.map_or(span.dt, |d| d[span.start + i]),
                    &weights[local..local + span.len],
                    &trans_after[local..local + span.len],
                    d_ray_colors[ri],
                    &mut d_sigmas[local..local + span.len],
                    &mut d_colors[local..local + span.len],
                );
            }
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn sp(sigma: f32, r: f32, g: f32, b: f32) -> SamplePoint {
        SamplePoint {
            sigma,
            color: Vec3::new(r, g, b),
        }
    }

    #[test]
    fn empty_ray_is_black_with_full_background() {
        let out = composite(&[], &[]);
        assert_eq!(out.color, Vec3::ZERO);
        assert_eq!(out.background_weight, 1.0);
    }

    #[test]
    fn opaque_first_sample_blocks_rest() {
        let samples = [sp(1e5, 1.0, 0.0, 0.0), sp(1e5, 0.0, 1.0, 0.0)];
        let out = composite(&samples, &[0.1, 0.1]);
        assert!(out.color.x > 0.999);
        assert!(out.color.y < 1e-4);
        assert!(out.background_weight < 1e-6);
    }

    #[test]
    fn zero_density_passes_through() {
        let samples = [sp(0.0, 1.0, 1.0, 1.0); 4];
        let out = composite(&samples, &[0.25; 4]);
        assert_eq!(out.color, Vec3::ZERO);
        assert!((out.background_weight - 1.0).abs() < 1e-6);
    }

    #[test]
    fn matches_closed_form_for_uniform_medium() {
        // Uniform σ over total length D: C = c (1 - e^{-σD}).
        let sigma = 2.0f32;
        let n = 200;
        let d = 1.0f32;
        let dt = d / n as f32;
        let samples: Vec<SamplePoint> = (0..n).map(|_| sp(sigma, 0.8, 0.4, 0.2)).collect();
        let dts = vec![dt; n];
        let out = composite(&samples, &dts);
        let expect = 1.0 - (-sigma * d).exp();
        assert!((out.color.x - 0.8 * expect).abs() < 1e-3);
        assert!((out.color.y - 0.4 * expect).abs() < 1e-3);
        assert!((out.background_weight - (-sigma * d).exp()).abs() < 1e-3);
    }

    #[test]
    fn weights_sum_with_background_to_one() {
        let samples = [
            sp(0.5, 1.0, 0.0, 0.0),
            sp(3.0, 0.0, 1.0, 0.0),
            sp(1.0, 0.0, 0.0, 1.0),
        ];
        let out = composite(&samples, &[0.3, 0.5, 0.2]);
        let total: f32 = out.weights.iter().sum::<f32>() + out.background_weight;
        assert!((total - 1.0).abs() < 1e-6);
    }

    #[test]
    fn transmittance_is_monotone_nonincreasing() {
        let mut rng = SmallRng::seed_from_u64(4);
        let samples: Vec<SamplePoint> = (0..32)
            .map(|_| sp(rng.gen_range(0.0..5.0), 0.5, 0.5, 0.5))
            .collect();
        let dts = vec![0.05f32; 32];
        let out = composite(&samples, &dts);
        let mut prev = 1.0f32;
        for &t in &out.transmittance_after {
            assert!(t <= prev + 1e-7);
            prev = t;
        }
    }

    #[test]
    fn backward_matches_finite_difference() {
        let mut rng = SmallRng::seed_from_u64(11);
        let n = 8;
        let samples: Vec<SamplePoint> = (0..n)
            .map(|_| sp(rng.gen_range(0.1..4.0), rng.gen(), rng.gen(), rng.gen()))
            .collect();
        let dts: Vec<f32> = (0..n).map(|_| rng.gen_range(0.05..0.2)).collect();
        let d_out = Vec3::new(0.7, -1.3, 0.4);
        let out = composite(&samples, &dts);
        let grads = composite_backward(&samples, &dts, &out, d_out);

        let loss = |s: &[SamplePoint]| -> f32 {
            let o = composite(s, &dts);
            d_out.dot(o.color)
        };
        let eps = 1e-3;
        for i in 0..n {
            // Sigma gradient.
            let mut pert = samples.clone();
            pert[i].sigma += eps;
            let up = loss(&pert);
            pert[i].sigma -= 2.0 * eps;
            let down = loss(&pert);
            let numeric = (up - down) / (2.0 * eps);
            assert!(
                (numeric - grads.d_sigma[i]).abs() < 2e-2,
                "sigma {i}: numeric {numeric} vs analytic {}",
                grads.d_sigma[i]
            );
            // Color gradient (x channel).
            let mut pert = samples.clone();
            pert[i].color.x += eps;
            let up = loss(&pert);
            pert[i].color.x -= 2.0 * eps;
            let down = loss(&pert);
            let numeric = (up - down) / (2.0 * eps);
            assert!(
                (numeric - grads.d_color[i].x).abs() < 2e-2,
                "color {i}: numeric {numeric} vs analytic {}",
                grads.d_color[i].x
            );
        }
    }

    #[test]
    fn negative_density_clamped_with_zero_gradient() {
        let samples = [sp(-1.0, 1.0, 1.0, 1.0), sp(2.0, 0.5, 0.5, 0.5)];
        let dts = [0.1, 0.1];
        let out = composite(&samples, &dts);
        assert_eq!(out.weights[0], 0.0);
        let grads = composite_backward(&samples, &dts, &out, Vec3::ONE);
        assert_eq!(grads.d_sigma[0], 0.0);
        assert!(grads.d_sigma[1].abs() > 0.0);
    }

    #[test]
    fn uniform_variant_matches_vec_dts() {
        let mut rng = SmallRng::seed_from_u64(7);
        let samples: Vec<SamplePoint> = (0..12)
            .map(|_| sp(rng.gen_range(0.0..4.0), rng.gen(), rng.gen(), rng.gen()))
            .collect();
        let dt = 0.08f32;
        let reference = composite(&samples, &vec![dt; samples.len()]);
        let uniform = composite_uniform(&samples, dt);
        assert_eq!(reference, uniform);
        let d_out = Vec3::new(0.3, -0.2, 1.1);
        let g_ref = composite_backward(&samples, &vec![dt; samples.len()], &reference, d_out);
        let g_uni = composite_backward_uniform(&samples, dt, &uniform, d_out);
        assert_eq!(g_ref, g_uni);
    }

    #[test]
    fn spans_match_per_ray_composites() {
        // Three rays of different lengths in one flat SoA batch.
        let mut rng = SmallRng::seed_from_u64(19);
        let lens = [5usize, 1, 9];
        let n: usize = lens.iter().sum();
        let sigmas: Vec<f32> = (0..n).map(|_| rng.gen_range(-0.5..5.0)).collect();
        let colors: Vec<Vec3> = (0..n)
            .map(|_| Vec3::new(rng.gen(), rng.gen(), rng.gen()))
            .collect();
        let mut spans = Vec::new();
        let mut start = 0;
        for (ri, &len) in lens.iter().enumerate() {
            spans.push(RaySpan {
                start,
                len,
                dt: 0.05 + 0.01 * ri as f32,
            });
            start += len;
        }
        let batch = RayBatch {
            sigmas: &sigmas,
            colors: &colors,
            spans: &spans,
            dts: None,
            sample_base: 0,
        };
        let mut ray_colors = vec![Vec3::ZERO; 3];
        let mut backgrounds = vec![0.0; 3];
        let mut weights = vec![0.0; n];
        let mut trans = vec![0.0; n];
        composite_spans(
            &batch,
            &mut ray_colors,
            &mut backgrounds,
            &mut weights,
            &mut trans,
        );

        let d_rays = [
            Vec3::ONE,
            Vec3::new(0.5, -1.0, 0.2),
            Vec3::new(-0.3, 0.7, 0.9),
        ];
        let mut d_sigmas = vec![0.0; n];
        let mut d_colors = vec![Vec3::ZERO; n];
        composite_backward_spans(
            &batch,
            &weights,
            &trans,
            &d_rays,
            &mut d_sigmas,
            &mut d_colors,
        );

        for (ri, span) in spans.iter().enumerate() {
            let samples: Vec<SamplePoint> = (span.start..span.start + span.len)
                .map(|i| SamplePoint {
                    sigma: sigmas[i],
                    color: colors[i],
                })
                .collect();
            let reference = composite_uniform(&samples, span.dt);
            assert_eq!(ray_colors[ri], reference.color, "ray {ri} color");
            assert_eq!(backgrounds[ri], reference.background_weight);
            assert_eq!(
                &weights[span.start..span.start + span.len],
                reference.weights.as_slice()
            );
            let g = composite_backward_uniform(&samples, span.dt, &reference, d_rays[ri]);
            assert_eq!(
                &d_sigmas[span.start..span.start + span.len],
                g.d_sigma.as_slice()
            );
            assert_eq!(
                &d_colors[span.start..span.start + span.len],
                g.d_color.as_slice()
            );
        }
    }

    #[test]
    fn spans_respect_sample_base_and_per_sample_dts() {
        // A chunked caller passes full input arrays but rebased outputs.
        let sigmas = [1.0f32, 2.0, 3.0, 0.5, 0.7];
        let colors = [Vec3::splat(0.2); 5];
        let dts = [0.1f32, 0.2, 0.1, 0.3, 0.2];
        // Chunk covering only the second ray (samples 2..5).
        let spans = [RaySpan {
            start: 2,
            len: 3,
            dt: f32::NAN, // must be ignored: per-sample dts take precedence
        }];
        let batch = RayBatch {
            sigmas: &sigmas,
            colors: &colors,
            spans: &spans,
            dts: Some(&dts),
            sample_base: 2,
        };
        let mut ray_colors = [Vec3::ZERO];
        let mut backgrounds = [0.0];
        let mut weights = [0.0; 3];
        let mut trans = [0.0; 3];
        composite_spans(
            &batch,
            &mut ray_colors,
            &mut backgrounds,
            &mut weights,
            &mut trans,
        );
        let samples: Vec<SamplePoint> = (2..5)
            .map(|i| SamplePoint {
                sigma: sigmas[i],
                color: colors[i],
            })
            .collect();
        let reference = composite(&samples, &dts[2..5]);
        assert_eq!(ray_colors[0], reference.color);
        assert_eq!(weights.as_slice(), reference.weights.as_slice());
    }

    #[test]
    fn wide_span_groups_match_per_ray_composites_bitwise() {
        // 11 equal-length rays exercise the 8-lane wide kernel (one full
        // group of 8 plus a leftover group of 3), on every available
        // backend; each ray must be bitwise-identical to the per-ray
        // scalar reference.
        let mut rng = SmallRng::seed_from_u64(77);
        let rays = 11usize;
        let len = 7usize;
        let n = rays * len;
        let sigmas: Vec<f32> = (0..n).map(|_| rng.gen_range(-0.5..5.0)).collect();
        let colors: Vec<Vec3> = (0..n)
            .map(|_| Vec3::new(rng.gen(), rng.gen(), rng.gen()))
            .collect();
        let spans: Vec<RaySpan> = (0..rays)
            .map(|ri| RaySpan {
                start: ri * len,
                len,
                dt: 0.03 + 0.007 * ri as f32,
            })
            .collect();
        let batch = RayBatch {
            sigmas: &sigmas,
            colors: &colors,
            spans: &spans,
            dts: None,
            sample_base: 0,
        };
        for backend in inerf_simd::available_backends() {
            let prev = inerf_simd::force_backend(backend);
            let mut ray_colors = vec![Vec3::ZERO; rays];
            let mut backgrounds = vec![0.0; rays];
            let mut weights = vec![0.0; n];
            let mut trans = vec![0.0; n];
            composite_spans(
                &batch,
                &mut ray_colors,
                &mut backgrounds,
                &mut weights,
                &mut trans,
            );
            inerf_simd::force_backend(prev);
            for (ri, span) in spans.iter().enumerate() {
                let samples: Vec<SamplePoint> = (span.start..span.start + span.len)
                    .map(|i| SamplePoint {
                        sigma: sigmas[i],
                        color: colors[i],
                    })
                    .collect();
                let reference = composite_uniform(&samples, span.dt);
                let name = backend.name();
                assert_eq!(ray_colors[ri], reference.color, "{name} ray {ri} color");
                assert_eq!(
                    backgrounds[ri].to_bits(),
                    reference.background_weight.to_bits(),
                    "{name} ray {ri} background"
                );
                for i in 0..span.len {
                    assert_eq!(
                        weights[span.start + i].to_bits(),
                        reference.weights[i].to_bits(),
                        "{name} ray {ri} weight {i}"
                    );
                    assert_eq!(
                        trans[span.start + i].to_bits(),
                        reference.transmittance_after[i].to_bits(),
                        "{name} ray {ri} transmittance {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn wide_kernel_honors_sample_base_and_per_sample_dts() {
        // Four equal-length rays (wide group) in a rebased chunk with
        // per-sample dts; span.dt must be ignored.
        let mut rng = SmallRng::seed_from_u64(41);
        let rays = 4usize;
        let len = 5usize;
        let base = 6usize; // samples before this chunk
        let n = base + rays * len;
        let sigmas: Vec<f32> = (0..n).map(|_| rng.gen_range(0.0..4.0)).collect();
        let colors: Vec<Vec3> = (0..n)
            .map(|_| Vec3::new(rng.gen(), rng.gen(), rng.gen()))
            .collect();
        let dts: Vec<f32> = (0..n).map(|_| rng.gen_range(0.01..0.3)).collect();
        let spans: Vec<RaySpan> = (0..rays)
            .map(|ri| RaySpan {
                start: base + ri * len,
                len,
                dt: f32::NAN,
            })
            .collect();
        let batch = RayBatch {
            sigmas: &sigmas,
            colors: &colors,
            spans: &spans,
            dts: Some(&dts),
            sample_base: base,
        };
        let mut ray_colors = vec![Vec3::ZERO; rays];
        let mut backgrounds = vec![0.0; rays];
        let mut weights = vec![0.0; rays * len];
        let mut trans = vec![0.0; rays * len];
        composite_spans(
            &batch,
            &mut ray_colors,
            &mut backgrounds,
            &mut weights,
            &mut trans,
        );
        for (ri, span) in spans.iter().enumerate() {
            let samples: Vec<SamplePoint> = (span.start..span.start + span.len)
                .map(|i| SamplePoint {
                    sigma: sigmas[i],
                    color: colors[i],
                })
                .collect();
            let reference = composite(&samples, &dts[span.start..span.start + span.len]);
            assert_eq!(ray_colors[ri], reference.color, "ray {ri} color");
            let local = span.start - base;
            assert_eq!(
                &weights[local..local + span.len],
                reference.weights.as_slice()
            );
            assert_eq!(
                &trans[local..local + span.len],
                reference.transmittance_after.as_slice()
            );
        }
    }

    proptest! {
        #[test]
        fn color_stays_in_convex_hull(
            seed in 0u64..500, n in 1usize..24
        ) {
            // With colors in [0,1]^3 the composite is a sub-convex
            // combination, so output channels stay in [0,1].
            let mut rng = SmallRng::seed_from_u64(seed);
            let samples: Vec<SamplePoint> = (0..n)
                .map(|_| sp(rng.gen_range(0.0..10.0), rng.gen(), rng.gen(), rng.gen()))
                .collect();
            let dts: Vec<f32> = (0..n).map(|_| rng.gen_range(0.01..0.3)).collect();
            let out = composite(&samples, &dts);
            for ch in [out.color.x, out.color.y, out.color.z] {
                prop_assert!((-1e-6..=1.0 + 1e-6).contains(&ch));
            }
            let wsum: f32 = out.weights.iter().sum();
            prop_assert!(wsum <= 1.0 + 1e-5);
            prop_assert!(out.background_weight >= -1e-6);
        }
    }
}
