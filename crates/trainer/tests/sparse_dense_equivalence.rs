//! Sparse-optimizer vs dense-reference equivalence.
//!
//! The sparse gradient path (`OptPath::Sparse`, the default) promises
//! *bitwise* equality with the dense reference sweep: same loss
//! trajectory, same evaluation render, same DRAM request statistics, and
//! — after a final sync — the same master and working parameter bits,
//! trained per point and through the chunk phases, at both storage
//! precisions, at any thread count.

use inerf_encoding::requests::{RegisterCacheSink, StreamStats};
use inerf_encoding::CountingSink;
use inerf_mlp::AdamState;
use inerf_scenes::{zoo, Dataset, DatasetConfig};
use inerf_trainer::{
    IngpModel, ModelConfig, OptPath, PerPoint, Precision, TrainConfig, TrainableField, Trainer,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::borrow::Borrow;

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Everything one optimizer path observably produces over a fixed
/// workload, bit-exact.
#[derive(Debug, PartialEq)]
struct PathFingerprint {
    losses: Vec<u64>,
    occ_losses: Vec<u64>,
    psnr: u64,
    trace_points: u64,
    trace_cubes: u64,
    dram: StreamStats,
    /// Final f32 master weights of the hash grid, post-sync.
    master: Vec<u32>,
    /// Final working (compute-visible) values — fp16-quantized for Fp16.
    working: Vec<u32>,
}

/// A fixed training workload (plain + occupancy-filtered + eval render)
/// executed under one (surface, precision, threads, opt) combination.
fn path_fingerprint(
    ds: &Dataset,
    per_point: bool,
    precision: Precision,
    threads: usize,
    opt: OptPath,
) -> PathFingerprint {
    let cfg = TrainConfig::tiny().with_precision(precision).with_opt(opt);
    let model = || IngpModel::for_config(ModelConfig::tiny(), &cfg, 8);
    if per_point {
        surface_fingerprint(ds, || PerPoint(model()), cfg, threads)
    } else {
        surface_fingerprint(ds, model, cfg, threads)
    }
}

/// [`path_fingerprint`] on the models `model` builds.
fn surface_fingerprint<M: TrainableField + Borrow<IngpModel>>(
    ds: &Dataset,
    model: impl Fn() -> M,
    cfg: TrainConfig,
    threads: usize,
) -> PathFingerprint {
    let levels = ModelConfig::tiny().grid.levels;
    let mut plain = Trainer::new(model(), cfg, 3).with_threads(threads);
    let mut sinks = (CountingSink::default(), RegisterCacheSink::new(levels));
    let report = plain.train_with_sink(ds, 4, &mut sinks);
    let psnr = plain.eval_psnr(ds);
    // The occupancy refresh reads the full grid mid-training — the one
    // consumer that forces a sync of entries the current batch never
    // touched.
    let mut occ = Trainer::new(model(), cfg, 3)
        .with_threads(threads)
        .with_occupancy_grid(8, 0.02, 2);
    let occ_report = occ.train(ds, 4);
    let model = plain.into_model();
    let model: &IngpModel = model.borrow();
    PathFingerprint {
        losses: report.losses.iter().map(|l| l.to_bits()).collect(),
        occ_losses: occ_report.losses.iter().map(|l| l.to_bits()).collect(),
        psnr: psnr.to_bits(),
        trace_points: sinks.0.points,
        trace_cubes: sinks.0.cubes,
        dram: sinks.1.stats(),
        master: bits(model.grid().parameter_store().master()),
        working: bits(model.grid().parameters()),
    }
}

#[test]
fn sparse_matches_dense_bitwise_for_every_engine_precision_and_thread_count() {
    let ds = DatasetConfig::tiny().generate(&zoo::scene(zoo::SceneKind::Mic));
    for per_point in [true, false] {
        for precision in [Precision::F32, Precision::Fp16] {
            let dense = path_fingerprint(&ds, per_point, precision, 1, OptPath::Dense);
            assert!(dense.trace_points > 0, "workload must stream lookups");
            for threads in [1usize, 2, 8] {
                let sparse = path_fingerprint(&ds, per_point, precision, threads, OptPath::Sparse);
                assert_eq!(
                    sparse,
                    dense,
                    "per point {per_point}/{}/{threads}t: sparse diverged bitwise from dense",
                    precision.label()
                );
            }
        }
    }
}

/// Losses, then master, working and moment bits of the grid after a
/// run long enough for abandoned entries to leave the replay's active
/// regime, decay into the subnormals and park there.
fn long_horizon_fingerprint(
    early: &Dataset,
    late: &Dataset,
    precision: Precision,
    opt: OptPath,
) -> (Vec<u64>, [Vec<u32>; 4]) {
    let cfg = TrainConfig::tiny().with_precision(precision).with_opt(opt);
    // The refresh syncs the whole table every 16 iterations, so every
    // abandoned chain is cut into 16-step replays, as in a real run.
    let mut trainer = Trainer::new(IngpModel::for_config(ModelConfig::tiny(), &cfg, 8), cfg, 3)
        .with_threads(1)
        .with_occupancy_grid(8, 0.02, 16);
    let mut losses = trainer.train(early, 6).losses;
    losses.extend(trainer.train(late, 1_600).losses);
    let model = trainer.into_model();
    let column = |i: usize| {
        model
            .grid_adam()
            .records()
            .map(|r| r[i])
            .collect::<Vec<_>>()
    };
    (
        losses.iter().map(|l| l.to_bits()).collect(),
        [
            bits(model.grid().parameter_store().master()),
            bits(model.grid().parameters()),
            column(0),
            column(1),
        ],
    )
}

#[test]
fn sparse_matches_dense_bitwise_long_after_a_region_is_abandoned() {
    // Six iterations on Lego touch entries that Mic — a thin object in a
    // mostly culled volume — never reads again: their chains run
    // untouched for 1 600 steps, which the 16-step property test below
    // cannot reach (first moments go subnormal near step 700 and park
    // near 950).
    let lego = DatasetConfig::tiny().generate(&zoo::scene(zoo::SceneKind::Lego));
    let mic = DatasetConfig::tiny().generate(&zoo::scene(zoo::SceneKind::Mic));
    for precision in [Precision::F32, Precision::Fp16] {
        let dense = long_horizon_fingerprint(&lego, &mic, precision, OptPath::Dense);
        let sparse = long_horizon_fingerprint(&lego, &mic, precision, OptPath::Sparse);
        let parked = dense.1[2].iter().filter(|&&m| m & 0x7fff_ffff == 4).count();
        assert!(
            parked > 0,
            "no first moment reached its subnormal fixed point"
        );
        assert!(
            sparse == dense,
            "{}: sparse diverged bitwise from dense",
            precision.label()
        );
    }
}

#[test]
fn opt_path_defaults_to_sparse_and_with_opt_overrides() {
    // The labels are what the throughput bench records.
    assert_eq!(OptPath::Sparse.label(), "sparse");
    assert_eq!(OptPath::Dense.label(), "dense");
    for cfg in [
        TrainConfig::paper(),
        TrainConfig::tiny(),
        TrainConfig::small(),
    ] {
        assert_eq!(cfg.opt, OptPath::Sparse);
    }
    assert_eq!(
        IngpModel::new(ModelConfig::tiny(), 1).opt_path(),
        OptPath::Sparse
    );
    let cfg = TrainConfig::tiny().with_opt(OptPath::Dense);
    let model = IngpModel::for_config(ModelConfig::tiny(), &cfg, 1);
    assert_eq!(model.opt_path(), OptPath::Dense);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Lazy-replay Adam under *random* touch schedules must land every
    /// parameter on the dense reference bits after a final sync —
    /// including entries touched with an exactly-zero gradient, entries
    /// touched once and then abandoned, and entries never touched at all.
    #[test]
    fn lazy_adam_matches_dense_for_random_touch_patterns(seed in 0u64..10_000) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let n = rng.gen_range(4usize..24);
        let steps = rng.gen_range(1usize..16);
        let mut dense_p: Vec<f32> = (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let mut sparse_p = dense_p.clone();
        let mut dense = AdamState::new(n, 0.01);
        let mut sparse = AdamState::new(n, 0.01);
        sparse.enable_lazy();
        for _ in 0..steps {
            let mut grads = vec![0.0f32; n];
            let mut touched: Vec<u32> = Vec::new();
            for (i, g) in grads.iter_mut().enumerate() {
                if rng.gen_bool(0.4) {
                    *g = rng.gen_range(-1.0f32..1.0);
                    touched.push(i as u32);
                } else if rng.gen_bool(0.1) {
                    // Touched but with an exactly-zero gradient: must take
                    // a *real* decay step, not be skipped.
                    touched.push(i as u32);
                }
            }
            let scale = if rng.gen_bool(0.5) {
                1.0
            } else {
                rng.gen_range(0.1f32..1.0)
            };
            dense.step_scaled(&mut dense_p, &grads, scale);
            sparse.step_sparse(&mut sparse_p, &grads, &touched, scale);
        }
        sparse.sync_all(&mut sparse_p);
        prop_assert_eq!(bits(&dense_p), bits(&sparse_p));
    }
}
