//! Baseline NeRF algorithms for the Tab. IV comparison.
//!
//! Compact reimplementations of the three algorithm baselines the paper
//! compares against (see DESIGN.md for the substitution rationale):
//!
//! * [`NerfLite`] — vanilla NeRF (Mildenhall et al. 2020): frequency
//!   positional encoding feeding an MLP. High quality per parameter but slow
//!   to converge — with a fixed iteration budget it underfits relative to
//!   hash-grid methods.
//! * [`TensorfLite`] — TensoRF (Chen et al. 2022): tri-plane factorized
//!   feature grids (the VM decomposition restricted to planes) with the same
//!   small MLP heads.
//! * [`FastNerfLite`] — FastNeRF (Garbin et al. 2021): position/direction
//!   factorized radiance `color = Σ_k β_k(d) · uvw_k(p)`, built for
//!   cacheability rather than fidelity — the weakest fit.

use crate::model::{direction_encoding, TrainableField};
use inerf_geom::Vec3;
use inerf_mlp::{Activation, AdamState, Mlp, MlpActivations};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The density of a raw baseline output: `exp(x)` with `x` clamped to
/// `[-15, 15]` so it cannot overflow.
#[inline]
fn exp_density(x: f32) -> f32 {
    x.clamp(-15.0, 15.0).exp()
}

/// Shared density/color MLP heads (the iNGP head structure) reused by the
/// encoder-style baselines.
#[derive(Debug, Clone)]
struct Heads {
    density_mlp: Mlp,
    color_mlp: Mlp,
    density_out: usize,
}

#[derive(Debug, Clone)]
struct HeadsCache {
    density_acts: MlpActivations,
    color_acts: MlpActivations,
    sigma: f32,
}

impl Heads {
    fn new(feat_dim: usize, hidden: usize, density_out: usize, seed: u64) -> Self {
        let density_mlp = Mlp::new(
            &[feat_dim, hidden, density_out],
            Activation::Relu,
            Activation::Identity,
            seed ^ 0xAA,
        );
        let color_mlp = Mlp::new(
            &[(density_out - 1) + 9, hidden, 3],
            Activation::Relu,
            Activation::Sigmoid,
            seed ^ 0xBB,
        );
        Heads {
            density_mlp,
            color_mlp,
            density_out,
        }
    }

    fn forward(&self, feats: &[f32], d: Vec3) -> (HeadsCache, f32, Vec3) {
        let density_acts = self.density_mlp.forward(feats);
        let raw = density_acts.output();
        let sigma = exp_density(raw[0]);
        let mut color_in = Vec::with_capacity(self.density_out - 1 + 9);
        color_in.extend_from_slice(&raw[1..]);
        color_in.extend_from_slice(&direction_encoding(d));
        let color_acts = self.color_mlp.forward(&color_in);
        let o = color_acts.output();
        let rgb = Vec3::new(o[0], o[1], o[2]);
        (
            HeadsCache {
                density_acts,
                color_acts,
                sigma,
            },
            sigma,
            rgb,
        )
    }

    /// Returns the gradient w.r.t. the input features.
    fn backward(&mut self, cache: &HeadsCache, d_sigma: f32, d_color: Vec3) -> Vec<f32> {
        let d_color_in = self
            .color_mlp
            .backward(&cache.color_acts, &[d_color.x, d_color.y, d_color.z]);
        let mut d_raw = vec![0.0f32; self.density_out];
        d_raw[0] = d_sigma * cache.sigma;
        d_raw[1..].copy_from_slice(&d_color_in[..self.density_out - 1]);
        self.density_mlp.backward(&cache.density_acts, &d_raw)
    }

    fn zero_grad(&mut self) {
        self.density_mlp.zero_grad();
        self.color_mlp.zero_grad();
    }

    fn parameter_count(&self) -> usize {
        self.density_mlp.parameter_count() + self.color_mlp.parameter_count()
    }

    fn step(&mut self, density_adam: &mut AdamState, color_adam: &mut AdamState) {
        step_mlp(&mut self.density_mlp, density_adam);
        step_mlp(&mut self.color_mlp, color_adam);
    }
}

fn step_mlp(mlp: &mut Mlp, adam: &mut AdamState) {
    adam.begin_step();
    let mut idx = 0usize;
    mlp.for_each_param_mut(|p, g| {
        adam.update_one(idx, p, g);
        idx += 1;
    });
}

/// Frequency positional encoding: `[sin(2^k π x), cos(2^k π x)]` per axis.
pub fn positional_encoding(p: Vec3, bands: usize) -> Vec<f32> {
    let mut out = Vec::with_capacity(3 + 6 * bands);
    out.extend_from_slice(&[p.x, p.y, p.z]);
    for k in 0..bands {
        let f = (1 << k) as f32 * std::f32::consts::PI;
        for v in [p.x, p.y, p.z] {
            out.push((f * v).sin());
            out.push((f * v).cos());
        }
    }
    out
}

/// Vanilla-NeRF baseline: positional encoding + MLP heads.
#[derive(Debug, Clone)]
pub struct NerfLite {
    bands: usize,
    heads: Heads,
    density_adam: AdamState,
    color_adam: AdamState,
    cache: Vec<(Vec3, HeadsCache)>,
}

impl NerfLite {
    /// Creates the baseline. `bands` frequency bands, `hidden` MLP width.
    pub fn new(bands: usize, hidden: usize, seed: u64) -> Self {
        let feat_dim = 3 + 6 * bands;
        let heads = Heads::new(feat_dim, hidden, 8, seed);
        let density_adam = AdamState::new(heads.density_mlp.parameter_count(), 5e-3);
        let color_adam = AdamState::new(heads.color_mlp.parameter_count(), 5e-3);
        NerfLite {
            bands,
            heads,
            density_adam,
            color_adam,
            cache: Vec::new(),
        }
    }
}

impl TrainableField for NerfLite {
    fn begin_batch(&mut self) {
        self.cache.clear();
        self.heads.zero_grad();
    }

    fn query(&mut self, p: Vec3, d: Vec3) -> (f32, Vec3) {
        let feats = positional_encoding(p, self.bands);
        let (cache, sigma, rgb) = self.heads.forward(&feats, d);
        self.cache.push((p, cache));
        (sigma, rgb)
    }

    fn backward(&mut self, idx: usize, d_sigma: f32, d_color: Vec3) {
        let cache = self.cache[idx].1.clone();
        // The encoding has no parameters; discard the feature gradient.
        let _ = self.heads.backward(&cache, d_sigma, d_color);
    }

    fn apply_gradients(&mut self) {
        self.heads
            .step(&mut self.density_adam, &mut self.color_adam);
    }

    fn query_eval(&self, p: Vec3, d: Vec3) -> (f32, Vec3) {
        let feats = positional_encoding(p, self.bands);
        let (_, sigma, rgb) = self.heads.forward(&feats, d);
        (sigma, rgb)
    }

    fn parameter_count(&self) -> usize {
        self.heads.parameter_count()
    }
}

/// One factor plane of the TensoRF-style tri-plane grid, with `R` channels
/// at `res × res` resolution and bilinear interpolation.
#[derive(Debug, Clone)]
struct FactorPlane {
    res: usize,
    channels: usize,
    values: Vec<f32>,
    grads: Vec<f32>,
}

impl FactorPlane {
    fn new(res: usize, channels: usize, rng: &mut SmallRng) -> Self {
        let n = res * res * channels;
        FactorPlane {
            res,
            channels,
            values: (0..n).map(|_| rng.gen_range(-0.05f32..0.05)).collect(),
            grads: vec![0.0; n],
        }
    }

    /// Bilinear sample of all channels at `(u, v)` in `[0,1]²`; appends to `out`.
    fn sample_into(&self, u: f32, v: f32, out: &mut Vec<f32>) {
        let (i0, j0, fu, fv) = self.cell(u, v);
        for c in 0..self.channels {
            let g = |i: usize, j: usize| self.values[(j * self.res + i) * self.channels + c];
            let a = g(i0, j0) * (1.0 - fu) + g(i0 + 1, j0) * fu;
            let b = g(i0, j0 + 1) * (1.0 - fu) + g(i0 + 1, j0 + 1) * fu;
            out.push(a * (1.0 - fv) + b * fv);
        }
    }

    fn backward(&mut self, u: f32, v: f32, d_out: &[f32]) {
        let (i0, j0, fu, fv) = self.cell(u, v);
        for (c, &d) in d_out.iter().enumerate() {
            let mut add = |i: usize, j: usize, w: f32| {
                self.grads[(j * self.res + i) * self.channels + c] += w * d;
            };
            add(i0, j0, (1.0 - fu) * (1.0 - fv));
            add(i0 + 1, j0, fu * (1.0 - fv));
            add(i0, j0 + 1, (1.0 - fu) * fv);
            add(i0 + 1, j0 + 1, fu * fv);
        }
    }

    fn cell(&self, u: f32, v: f32) -> (usize, usize, f32, f32) {
        let s = (self.res - 1) as f32;
        let x = (u.clamp(0.0, 1.0) * s).min(s - 1e-4);
        let y = (v.clamp(0.0, 1.0) * s).min(s - 1e-4);
        (x.floor() as usize, y.floor() as usize, x.fract(), y.fract())
    }
}

/// TensoRF-style baseline: three factor planes (xy, xz, yz) concatenated
/// into a feature vector feeding the shared MLP heads.
#[derive(Debug, Clone)]
pub struct TensorfLite {
    planes: [FactorPlane; 3],
    heads: Heads,
    plane_adam: AdamState,
    density_adam: AdamState,
    color_adam: AdamState,
    cache: Vec<(Vec3, HeadsCache)>,
}

impl TensorfLite {
    /// Creates the baseline with `res × res` planes of `channels` components.
    pub fn new(res: usize, channels: usize, hidden: usize, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let planes = [
            FactorPlane::new(res, channels, &mut rng),
            FactorPlane::new(res, channels, &mut rng),
            FactorPlane::new(res, channels, &mut rng),
        ];
        let heads = Heads::new(3 * channels, hidden, 8, seed);
        let plane_n: usize = planes.iter().map(|p| p.values.len()).sum();
        TensorfLite {
            plane_adam: AdamState::new(plane_n, 2e-2),
            density_adam: AdamState::new(heads.density_mlp.parameter_count(), 5e-3),
            color_adam: AdamState::new(heads.color_mlp.parameter_count(), 5e-3),
            planes,
            heads,
            cache: Vec::new(),
        }
    }

    fn features(&self, p: Vec3) -> Vec<f32> {
        let mut f = Vec::with_capacity(3 * self.planes[0].channels);
        self.planes[0].sample_into(p.x, p.y, &mut f);
        self.planes[1].sample_into(p.x, p.z, &mut f);
        self.planes[2].sample_into(p.y, p.z, &mut f);
        f
    }
}

impl TrainableField for TensorfLite {
    fn begin_batch(&mut self) {
        self.cache.clear();
        self.heads.zero_grad();
        for plane in &mut self.planes {
            plane.grads.fill(0.0);
        }
    }

    fn query(&mut self, p: Vec3, d: Vec3) -> (f32, Vec3) {
        let feats = self.features(p);
        let (cache, sigma, rgb) = self.heads.forward(&feats, d);
        self.cache.push((p, cache));
        (sigma, rgb)
    }

    fn backward(&mut self, idx: usize, d_sigma: f32, d_color: Vec3) {
        let (p, cache) = self.cache[idx].clone();
        let d_feats = self.heads.backward(&cache, d_sigma, d_color);
        let c = self.planes[0].channels;
        self.planes[0].backward(p.x, p.y, &d_feats[..c]);
        self.planes[1].backward(p.x, p.z, &d_feats[c..2 * c]);
        self.planes[2].backward(p.y, p.z, &d_feats[2 * c..]);
    }

    fn apply_gradients(&mut self) {
        self.plane_adam.begin_step();
        let mut idx = 0usize;
        for plane in &mut self.planes {
            for (v, g) in plane.values.iter_mut().zip(&plane.grads) {
                self.plane_adam.update_one(idx, v, *g);
                idx += 1;
            }
        }
        self.heads
            .step(&mut self.density_adam, &mut self.color_adam);
    }

    fn query_eval(&self, p: Vec3, d: Vec3) -> (f32, Vec3) {
        let (_, sigma, rgb) = self.heads.forward(&self.features(p), d);
        (sigma, rgb)
    }

    fn parameter_count(&self) -> usize {
        self.planes.iter().map(|p| p.values.len()).sum::<usize>() + self.heads.parameter_count()
    }
}

/// FastNeRF-style baseline: `color(p, d) = sigmoid(Σ_k β_k(d) · uvw_k(p))`
/// with the density from the position branch. The factorization enables
/// caching in the original paper; here it simply limits capacity.
#[derive(Debug, Clone)]
pub struct FastNerfLite {
    components: usize,
    pos_mlp: Mlp, // PE(p) -> [raw_sigma, K*3 uvw]
    dir_mlp: Mlp, // dir-enc(d) -> K betas
    bands: usize,
    pos_adam: AdamState,
    dir_adam: AdamState,
    cache: Vec<FastCache>,
}

#[derive(Debug, Clone)]
struct FastCache {
    pos_acts: MlpActivations,
    dir_acts: MlpActivations,
    sigma: f32,
    rgb_pre: Vec3,
}

impl FastNerfLite {
    /// Creates the baseline with `components` factorized color components.
    pub fn new(components: usize, hidden: usize, bands: usize, seed: u64) -> Self {
        let pe_dim = 3 + 6 * bands;
        let pos_mlp = Mlp::new(
            &[pe_dim, hidden, 1 + components * 3],
            Activation::Relu,
            Activation::Identity,
            seed ^ 0x11,
        );
        let dir_mlp = Mlp::new(
            &[9, hidden / 2, components],
            Activation::Relu,
            Activation::Identity,
            seed ^ 0x22,
        );
        FastNerfLite {
            components,
            pos_adam: AdamState::new(pos_mlp.parameter_count(), 5e-3),
            dir_adam: AdamState::new(dir_mlp.parameter_count(), 5e-3),
            pos_mlp,
            dir_mlp,
            bands,
            cache: Vec::new(),
        }
    }

    fn forward_parts(&self, p: Vec3, d: Vec3) -> (MlpActivations, MlpActivations, f32, Vec3, Vec3) {
        let pos_acts = self.pos_mlp.forward(&positional_encoding(p, self.bands));
        let dir_acts = self.dir_mlp.forward(&direction_encoding(d));
        let pos_out = pos_acts.output();
        let betas = dir_acts.output();
        let sigma = exp_density(pos_out[0]);
        let mut pre = Vec3::ZERO;
        for k in 0..self.components {
            let uvw = Vec3::new(
                pos_out[1 + 3 * k],
                pos_out[1 + 3 * k + 1],
                pos_out[1 + 3 * k + 2],
            );
            pre += uvw * betas[k];
        }
        let rgb = Vec3::new(
            Activation::Sigmoid.apply(pre.x),
            Activation::Sigmoid.apply(pre.y),
            Activation::Sigmoid.apply(pre.z),
        );
        (pos_acts, dir_acts, sigma, pre, rgb)
    }
}

impl TrainableField for FastNerfLite {
    fn begin_batch(&mut self) {
        self.cache.clear();
        self.pos_mlp.zero_grad();
        self.dir_mlp.zero_grad();
    }

    fn query(&mut self, p: Vec3, d: Vec3) -> (f32, Vec3) {
        let (pos_acts, dir_acts, sigma, pre, rgb) = self.forward_parts(p, d);
        self.cache.push(FastCache {
            pos_acts,
            dir_acts,
            sigma,
            rgb_pre: pre,
        });
        (sigma, rgb)
    }

    fn backward(&mut self, idx: usize, d_sigma: f32, d_color: Vec3) {
        let cache = self.cache[idx].clone();
        // Chain through the sigmoid on each channel.
        let sig = |x: f32| Activation::Sigmoid.apply(x);
        let d_pre = Vec3::new(
            d_color.x * sig(cache.rgb_pre.x) * (1.0 - sig(cache.rgb_pre.x)),
            d_color.y * sig(cache.rgb_pre.y) * (1.0 - sig(cache.rgb_pre.y)),
            d_color.z * sig(cache.rgb_pre.z) * (1.0 - sig(cache.rgb_pre.z)),
        );
        let pos_out = cache.pos_acts.output().to_vec();
        let betas = cache.dir_acts.output().to_vec();
        // d/d(uvw_k) = beta_k * d_pre ; d/d(beta_k) = uvw_k . d_pre.
        let mut d_pos = vec![0.0f32; pos_out.len()];
        d_pos[0] = d_sigma * cache.sigma;
        let mut d_betas = vec![0.0f32; self.components];
        for k in 0..self.components {
            let uvw = Vec3::new(
                pos_out[1 + 3 * k],
                pos_out[1 + 3 * k + 1],
                pos_out[1 + 3 * k + 2],
            );
            d_pos[1 + 3 * k] = betas[k] * d_pre.x;
            d_pos[1 + 3 * k + 1] = betas[k] * d_pre.y;
            d_pos[1 + 3 * k + 2] = betas[k] * d_pre.z;
            d_betas[k] = uvw.dot(d_pre);
        }
        let _ = self.pos_mlp.backward(&cache.pos_acts, &d_pos);
        let _ = self.dir_mlp.backward(&cache.dir_acts, &d_betas);
    }

    fn apply_gradients(&mut self) {
        step_mlp(&mut self.pos_mlp, &mut self.pos_adam);
        step_mlp(&mut self.dir_mlp, &mut self.dir_adam);
    }

    fn query_eval(&self, p: Vec3, d: Vec3) -> (f32, Vec3) {
        let (_, _, sigma, _, rgb) = self.forward_parts(p, d);
        (sigma, rgb)
    }

    fn parameter_count(&self) -> usize {
        self.pos_mlp.parameter_count() + self.dir_mlp.parameter_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train::{TrainConfig, Trainer};
    use inerf_scenes::{zoo, DatasetConfig};

    fn check_basic_contract<M: TrainableField>(mut m: M) {
        m.begin_batch();
        let p = Vec3::new(0.4, 0.5, 0.6);
        let d = Vec3::new(0.0, 0.0, 1.0);
        let (sigma, rgb) = m.query(p, d);
        assert!(sigma >= 0.0 && sigma.is_finite());
        assert!(rgb.is_finite());
        assert!((0.0..=1.0).contains(&rgb.x));
        let (s2, c2) = m.query_eval(p, d);
        assert_eq!(sigma, s2);
        assert_eq!(rgb, c2);
        m.backward(0, 0.5, Vec3::ONE);
        let before = m.query_eval(p, d);
        m.apply_gradients();
        let after = m.query_eval(p, d);
        assert!(
            before.0 != after.0 || before.1 != after.1,
            "gradient step should change predictions"
        );
        assert!(m.parameter_count() > 0);
    }

    #[test]
    fn nerf_lite_contract() {
        check_basic_contract(NerfLite::new(4, 16, 3));
    }

    #[test]
    fn tensorf_lite_contract() {
        check_basic_contract(TensorfLite::new(16, 4, 16, 3));
    }

    #[test]
    fn fast_nerf_lite_contract() {
        check_basic_contract(FastNerfLite::new(4, 16, 4, 3));
    }

    #[test]
    fn per_point_model_trains_identically_under_either_engine() {
        // A baseline has no chunk phases, so the trainer's one step runs
        // it per point, and wrapping it in `PerPoint` changes nothing:
        // every loss bit and the trained field agree, with and without
        // empty-space skipping. On the trace bus a model without a hash
        // table streams no lookups, only the one `end_batch` per
        // iteration, and trains the same.
        use crate::model::PerPoint;
        use inerf_encoding::CountingSink;
        use inerf_scenes::Dataset;
        fn bits(losses: &[f64]) -> Vec<u64> {
            losses.iter().map(|l| l.to_bits()).collect()
        }
        fn run<M: TrainableField>(
            model: impl Fn() -> M,
            dataset: &Dataset,
            with_grid: bool,
        ) -> (Vec<f64>, M) {
            let fresh = || {
                let trainer = Trainer::new(model(), TrainConfig::tiny(), 2);
                // Between the densities the untrained model predicts, so
                // the refreshed grid culls some cells and keeps others.
                if with_grid {
                    trainer.with_occupancy_grid(8, 0.7, 2)
                } else {
                    trainer
                }
            };
            let mut trainer = fresh();
            let losses = trainer.train(dataset, 3).losses;
            if with_grid {
                let occupied = trainer.occupancy_grid().expect("enabled").occupancy();
                assert!(occupied > 0.0 && occupied < 1.0, "grid is {occupied}");
            }
            let mut sink = CountingSink::default();
            let sunk = fresh().train_with_sink(dataset, 3, &mut sink).losses;
            assert_eq!(bits(&sunk), bits(&losses), "{with_grid}");
            assert_eq!((sink.cubes, sink.points, sink.batches), (0, 0, 3));
            (losses, trainer.into_model())
        }
        let scene = zoo::scene(zoo::SceneKind::Chair);
        let dataset = DatasetConfig::tiny().generate(&scene);
        for with_grid in [false, true] {
            let nerf = || NerfLite::new(4, 16, 1);
            let (batched_losses, batched) = run(nerf, &dataset, with_grid);
            let (scalar_losses, PerPoint(scalar)) = run(|| PerPoint(nerf()), &dataset, with_grid);
            assert_eq!(bits(&batched_losses), bits(&scalar_losses), "{with_grid}");
            for i in 0..12 {
                let t = i as f32 + 0.5;
                let p = Vec3::new((t * 0.17).fract(), (t * 0.29).fract(), (t * 0.41).fract());
                let d = Vec3::new(t.sin(), t.cos(), 0.3).normalized();
                let (bs, bc) = batched.query_eval(p, d);
                let (ss, sc) = scalar.query_eval(p, d);
                assert_eq!(bs.to_bits(), ss.to_bits(), "sigma at probe {i}");
                assert_eq!(
                    [bc.x, bc.y, bc.z].map(f32::to_bits),
                    [sc.x, sc.y, sc.z].map(f32::to_bits),
                    "rgb at probe {i}"
                );
            }
        }
    }

    #[test]
    fn positional_encoding_dimensions_and_values() {
        let e = positional_encoding(Vec3::new(0.5, 0.0, 1.0), 2);
        assert_eq!(e.len(), 3 + 6 * 2);
        assert_eq!(e[0], 0.5);
        // sin(pi * 0.5) = 1 for band 0, x axis.
        assert!((e[3] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn baselines_train_on_tiny_scene() {
        // Every baseline must reduce loss on a tiny dataset — a smoke test
        // that forward/backward wiring is consistent.
        let scene = zoo::scene(zoo::SceneKind::Chair);
        let dataset = DatasetConfig::tiny().generate(&scene);
        let cfg = TrainConfig::tiny();

        let mut t1 = Trainer::new(NerfLite::new(4, 16, 1), cfg, 2);
        let r1 = t1.train(&dataset, 30);
        assert!(
            r1.losses[25..].iter().sum::<f64>() < r1.losses[..5].iter().sum::<f64>(),
            "NerfLite did not learn: {:?}",
            &r1.losses[..5]
        );

        let mut t2 = Trainer::new(TensorfLite::new(16, 4, 16, 1), cfg, 2);
        let r2 = t2.train(&dataset, 30);
        assert!(r2.losses[25..].iter().sum::<f64>() < r2.losses[..5].iter().sum::<f64>());

        let mut t3 = Trainer::new(FastNerfLite::new(4, 16, 4, 1), cfg, 2);
        let r3 = t3.train(&dataset, 30);
        assert!(r3.losses[25..].iter().sum::<f64>() < r3.losses[..5].iter().sum::<f64>());
    }

    #[test]
    fn fast_nerf_gradient_check() {
        // Verify the hand-derived factorized-color backward against finite
        // differences through the full query.
        let mut m = FastNerfLite::new(3, 8, 2, 7);
        let p = Vec3::new(0.3, 0.7, 0.2);
        let d = Vec3::new(0.0, 1.0, 0.0);
        let d_color = Vec3::new(1.0, -0.5, 0.25);
        let d_sigma = 0.3f32;
        m.begin_batch();
        m.query(p, d);
        m.backward(0, d_sigma, d_color);
        // Probe: perturb one pos_mlp parameter and compare loss slope.
        let loss = |m: &FastNerfLite| {
            let (s, c) = m.query_eval(p, d);
            d_sigma * s + d_color.dot(c)
        };
        let eps = 1e-3f32;
        // Snapshot the analytic gradients accumulated by backward().
        let grads: Vec<f32> = {
            let mut m2 = m.clone();
            let mut gs = Vec::new();
            m2.pos_mlp.for_each_param_mut(|_, g| gs.push(g));
            gs
        };
        let base = m.clone();
        let mut failures = Vec::new();
        for target in [0usize, 7, 23] {
            let analytic = grads[target];
            let mut up_m = base.clone();
            let mut i = 0usize;
            up_m.pos_mlp.for_each_param_mut(|pm, _| {
                if i == target {
                    *pm += eps;
                }
                i += 1;
            });
            let mut down_m = base.clone();
            let mut i = 0usize;
            down_m.pos_mlp.for_each_param_mut(|pm, _| {
                if i == target {
                    *pm -= eps;
                }
                i += 1;
            });
            let numeric = (loss(&up_m) - loss(&down_m)) / (2.0 * eps);
            if (numeric - analytic).abs() > 2e-2 {
                failures.push((target, numeric, analytic));
            }
        }
        assert!(failures.is_empty(), "gradient mismatches: {failures:?}");
    }
}
