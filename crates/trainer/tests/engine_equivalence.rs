//! Chunk-phases-vs-per-point equivalence and thread-count determinism.
//!
//! Training an `IngpModel` through its chunk phases must be a pure
//! *execution-strategy* change against training it as `PerPoint(model)`:
//! same sampled points, same lookup traffic, losses and gradients within
//! 1e-5 of the per-point reference, and bitwise-identical trajectories at
//! any thread count.

use inerf_encoding::requests::{RegisterCacheSink, StreamStats};
use inerf_encoding::CountingSink;
use inerf_geom::{Aabb, Ray, Vec3};
use inerf_scenes::{zoo, DatasetConfig};
use inerf_simd::Backend;
use inerf_trainer::{IngpModel, ModelConfig, PerPoint, TrainConfig, Trainer};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Mutex;

/// Serializes tests that mutate the process-global SIMD backend choice.
static BACKEND_GUARD: Mutex<()> = Mutex::new(());

fn with_backend<R>(backend: Backend, f: impl FnOnce() -> R) -> R {
    let prev = inerf_simd::force_backend(backend);
    let out = f();
    inerf_simd::force_backend(prev);
    out
}

fn bounds() -> Aabb {
    Aabb::new(Vec3::splat(-1.0), Vec3::splat(1.0))
}

/// Random rays shot from a sphere of radius 2.5 toward random targets
/// inside the bounds, plus random target colors.
fn random_rays(seed: u64, count: usize) -> (Vec<Ray>, Vec<Vec3>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut rays = Vec::with_capacity(count);
    let mut targets = Vec::with_capacity(count);
    for _ in 0..count {
        let origin = Vec3::new(
            rng.gen_range(-1.0f32..1.0),
            rng.gen_range(-1.0f32..1.0),
            rng.gen_range(-1.0f32..1.0),
        )
        .normalized()
            * 2.5;
        let aim = Vec3::new(
            rng.gen_range(-0.8f32..0.8),
            rng.gen_range(-0.8f32..0.8),
            rng.gen_range(-0.8f32..0.8),
        );
        rays.push(Ray::new(origin, (aim - origin).normalized()));
        targets.push(Vec3::new(rng.gen(), rng.gen(), rng.gen()));
    }
    (rays, targets)
}

fn assert_close(label: &str, a: &[f32], b: &[f32]) {
    assert_eq!(a.len(), b.len(), "{label}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert!(
            (x - y).abs() <= 1e-5 * x.abs().max(1.0),
            "{label}[{i}]: scalar {x} vs batched {y}"
        );
    }
}

fn trainer_pair(
    model_seed: u64,
    trainer_seed: u64,
) -> (Trainer<PerPoint<IngpModel>>, Trainer<IngpModel>) {
    let scalar = Trainer::new(
        PerPoint(IngpModel::new(ModelConfig::tiny(), model_seed)),
        TrainConfig::tiny(),
        trainer_seed,
    );
    let batched = Trainer::new(
        IngpModel::new(ModelConfig::tiny(), model_seed),
        TrainConfig::tiny(),
        trainer_seed,
    )
    .with_threads(4);
    (scalar, batched)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For random ray batches, the two surfaces must sample identical point
    /// streams (same model-query and lookup-trace counts) and agree on the
    /// loss and on every parameter gradient to 1e-5.
    #[test]
    fn batched_engine_matches_scalar_reference(seed in 0u64..1000) {
        let (rays, targets) = random_rays(seed, 24);
        let (mut scalar, mut batched) = trainer_pair(seed ^ 0xAB, seed ^ 0x5150);
        let mut sink_s = CountingSink::default();
        let mut sink_b = CountingSink::default();
        let loss_s = scalar.train_on_rays_with_sink(&rays, &targets, &bounds(), Some(&mut sink_s));
        let loss_b = batched.train_on_rays_with_sink(&rays, &targets, &bounds(), Some(&mut sink_b));
        // The fused batched pipeline must put exactly the same lookup (and
        // therefore DRAM request) stream on the cosim bus as the unfused
        // per-point reference.
        prop_assert_eq!(sink_s, sink_b);
        prop_assert!(
            (loss_s - loss_b).abs() <= 1e-5 * loss_s.abs().max(1.0),
            "loss diverged: scalar {loss_s} vs batched {loss_b}"
        );
        // Identical sampled-point counts — and, because both surfaces encode
        // the same points in the same order, identical hash-table lookup
        // (and therefore DRAM request) counts: one cube per level per point.
        prop_assert_eq!(scalar.points_queried(), batched.points_queried());
        assert_close(
            "grid gradients",
            scalar.model().0.grid().gradients(),
            batched.model().grid().gradients(),
        );
        assert_close(
            "density MLP gradients",
            &scalar.model().0.density_mlp().gradient_vec(),
            &batched.model().density_mlp().gradient_vec(),
        );
        assert_close(
            "color MLP gradients",
            &scalar.model().0.color_mlp().gradient_vec(),
            &batched.model().color_mlp().gradient_vec(),
        );
        // A second iteration exercises the post-optimizer-step state.
        let loss_s2 = scalar.train_on_rays(&rays, &targets, &bounds());
        let loss_b2 = batched.train_on_rays(&rays, &targets, &bounds());
        prop_assert!(
            (loss_s2 - loss_b2).abs() <= 1e-4 * loss_s2.abs().max(1.0),
            "second-iteration loss diverged: {loss_s2} vs {loss_b2}"
        );
    }
}

#[test]
fn engines_agree_under_occupancy_filtering() {
    // A grid that culls samples cuts rays into spans of different lengths.
    // An untrained field is near-uniform (σ ≈ 0.693 everywhere), so no
    // threshold splits its grid: both trainers first train gridless, then
    // train with a grid `train_on_rays` refreshes every other round.
    let (rays, targets) = random_rays(77, 32);
    let (mut scalar, mut batched) = trainer_pair(3, 9);
    for _ in 0..16 {
        scalar.train_on_rays(&rays, &targets, &bounds());
        batched.train_on_rays(&rays, &targets, &bounds());
    }
    let mut scalar = scalar.with_occupancy_grid(8, 0.7, 2);
    let mut batched = batched.with_occupancy_grid(8, 0.7, 2);
    let dense = (rays.len() * TrainConfig::tiny().samples_per_ray) as u64;
    for round in 0..3 {
        let queried = scalar.points_queried();
        let loss_s = scalar.train_on_rays(&rays, &targets, &bounds());
        let loss_b = batched.train_on_rays(&rays, &targets, &bounds());
        assert!(
            (loss_s - loss_b).abs() <= 1e-4 * loss_s.abs().max(1.0),
            "round {round}: scalar {loss_s} vs batched {loss_b}"
        );
        assert_eq!(scalar.points_queried(), batched.points_queried());
        let kept = scalar.points_queried() - queried;
        assert!(kept < dense, "round {round}: the grid culled nothing");
    }
}

#[test]
fn same_seed_same_trajectory_at_1_2_and_8_threads() {
    let scene = zoo::scene(zoo::SceneKind::Mic);
    let dataset = DatasetConfig::tiny().generate(&scene);
    let run = |threads: usize| -> Vec<f64> {
        let mut trainer = Trainer::new(
            IngpModel::new(ModelConfig::tiny(), 11),
            TrainConfig::tiny(),
            4,
        )
        .with_threads(threads);
        assert_eq!(trainer.threads(), threads);
        trainer.train(&dataset, 8).losses
    };
    let one = run(1);
    let two = run(2);
    let eight = run(8);
    // Bitwise equality: chunk boundaries and reduction orders are fixed, so
    // the worker count must not influence a single bit of the trajectory.
    assert_eq!(one, two, "1-thread vs 2-thread trajectories diverged");
    assert_eq!(one, eight, "1-thread vs 8-thread trajectories diverged");
}

/// Everything a training run can observably produce, bit-exact: loss
/// trajectories, final-iteration gradients, an evaluation render, and the
/// DRAM-side statistics of the streamed lookup trace.
#[derive(Debug, PartialEq)]
struct BackendFingerprint {
    losses: Vec<u64>,
    occ_losses: Vec<u64>,
    psnr: u64,
    trace_points: u64,
    trace_cubes: u64,
    dram: StreamStats,
    grid_grads: Vec<u32>,
    density_grads: Vec<u32>,
    color_grads: Vec<u32>,
}

/// One fixed training workload (dense + occupancy-filtered + eval render)
/// executed under whatever SIMD backend is currently forced.
fn backend_fingerprint(ds: &inerf_scenes::Dataset) -> BackendFingerprint {
    let levels = ModelConfig::tiny().grid.levels;
    let mut plain = Trainer::new(
        IngpModel::new(ModelConfig::tiny(), 8),
        TrainConfig::tiny(),
        3,
    )
    .with_threads(2);
    let mut sinks = (CountingSink::default(), RegisterCacheSink::new(levels));
    let report = plain.train_with_sink(ds, 4, &mut sinks);
    let psnr = plain.eval_psnr(ds);
    let mut occ = Trainer::new(
        IngpModel::new(ModelConfig::tiny(), 8),
        TrainConfig::tiny(),
        3,
    )
    .with_occupancy_grid(8, 0.02, 2);
    let occ_report = occ.train(ds, 4);
    BackendFingerprint {
        losses: report.losses.iter().map(|l| l.to_bits()).collect(),
        occ_losses: occ_report.losses.iter().map(|l| l.to_bits()).collect(),
        psnr: psnr.to_bits(),
        trace_points: sinks.0.points,
        trace_cubes: sinks.0.cubes,
        dram: sinks.1.stats(),
        grid_grads: plain
            .model()
            .grid()
            .gradients()
            .iter()
            .map(|g| g.to_bits())
            .collect(),
        density_grads: plain
            .model()
            .density_mlp()
            .gradient_vec()
            .iter()
            .map(|g| g.to_bits())
            .collect(),
        color_grads: plain
            .model()
            .color_mlp()
            .gradient_vec()
            .iter()
            .map(|g| g.to_bits())
            .collect(),
    }
}

#[test]
fn every_simd_backend_matches_the_scalar_backend_bitwise() {
    // The SIMD kernels promise *bitwise* equality, not closeness: same
    // losses, same gradients, same render, same DRAM request statistics,
    // on every backend the host can run.
    let _guard = BACKEND_GUARD.lock().unwrap();
    let ds = DatasetConfig::tiny().generate(&zoo::scene(zoo::SceneKind::Mic));
    let reference = with_backend(Backend::Scalar, || backend_fingerprint(&ds));
    assert!(reference.trace_points > 0, "workload must stream lookups");
    for backend in inerf_simd::available_backends() {
        let fp = with_backend(backend, || backend_fingerprint(&ds));
        assert_eq!(
            fp, reference,
            "{backend:?} diverged bitwise from the scalar backend"
        );
    }
}

#[test]
fn trajectories_identical_across_threads_for_every_backend() {
    let _guard = BACKEND_GUARD.lock().unwrap();
    let scene = zoo::scene(zoo::SceneKind::Mic);
    let dataset = DatasetConfig::tiny().generate(&scene);
    for backend in inerf_simd::available_backends() {
        with_backend(backend, || {
            let run = |threads: usize| -> Vec<f64> {
                let mut trainer = Trainer::new(
                    IngpModel::new(ModelConfig::tiny(), 11),
                    TrainConfig::tiny(),
                    4,
                )
                .with_threads(threads);
                trainer.train(&dataset, 6).losses
            };
            let one = run(1);
            assert_eq!(one, run(2), "{backend:?}: 2-thread trajectory diverged");
            assert_eq!(one, run(8), "{backend:?}: 8-thread trajectory diverged");
        });
    }
}

#[test]
fn arena_allocation_free_in_steady_state() {
    // Warm the arena with a full-size batch (every ray hits the bounds, so
    // every pooled buffer reaches its steady-state high-water mark; with a
    // grid it runs the first refresh — its first probe visits every cell,
    // so its blocks are full) and one `train_step` (which fills the pooled
    // pixel batch), then train on random dataset batches: no pooled
    // buffer may grow again, through three more refreshes.
    let scene = zoo::scene(zoo::SceneKind::Mic);
    let dataset = DatasetConfig::tiny().generate(&scene);
    let config = TrainConfig::tiny();
    let (rays, targets) = random_rays(5, config.rays_per_batch);
    for with_grid in [false, true] {
        let mut trainer = Trainer::new(IngpModel::new(ModelConfig::tiny(), 3), config, 9);
        if with_grid {
            trainer = trainer.with_occupancy_grid(16, 0.05, 2);
        }
        trainer.train_on_rays(&rays, &targets, &bounds());
        let cold = trainer.arena_growth_events();
        assert!(cold >= 1, "the first iteration must populate the arena");
        trainer.train_step(&dataset);
        let warm = trainer.arena_growth_events();
        assert_eq!(
            warm,
            cold + 1,
            "the first train_step must populate the pixel batch (grid: {with_grid})"
        );
        for _ in 0..6 {
            trainer.train_step(&dataset);
        }
        assert_eq!(
            trainer.arena_growth_events(),
            warm,
            "steady-state iterations must not grow any pooled buffer (grid: {with_grid})"
        );
    }
}

#[test]
fn render_views_identical_across_thread_counts() {
    let scene = zoo::scene(zoo::SceneKind::Hotdog);
    let dataset = DatasetConfig::tiny().generate(&scene);
    let render = |threads: usize| {
        let mut trainer = Trainer::new(
            IngpModel::new(ModelConfig::tiny(), 5),
            TrainConfig::tiny(),
            2,
        )
        .with_threads(threads);
        trainer.train(&dataset, 5);
        trainer
            .render_view(&dataset.test_views[0].camera, &dataset.bounds)
            .pixels()
            .to_vec()
    };
    assert_eq!(render(1), render(8));
}
