//! The mixed-precision refactor's equivalence anchor.
//!
//! The `ParamStore` refactor moved every trainable parameter group (hash
//! table, MLP weights) behind a precision-selectable store. Its contract:
//! the f32 backend is **bit-identical** to the pre-refactor code path.
//! The constants below were captured by running the pre-refactor seed
//! (commit `bf30d7a`) on the Tab. II small workload — per-iteration loss
//! bit patterns, a grid-gradient checksum, and the online co-simulation's
//! DRAM statistics, for a model trained per point (`PerPoint`) and
//! through its chunk phases. Any drift in the f32 path fails this suite.

use instant_nerf::accel::{CosimSink, PipelineModel};
use instant_nerf::encoding::HashFunction;
use instant_nerf::prelude::*;
use instant_nerf::trainer::{OptPath, PerPoint, Precision};
use std::borrow::Borrow;

struct GoldenRun {
    /// Trained as `PerPoint(model)`, or through the chunk phases.
    per_point: bool,
    /// Exact bit patterns of the three per-iteration losses.
    loss_bits: [u64; 3],
    /// Exact bit pattern of the summed (f64) grid gradients after the
    /// last iteration.
    grad_sum_bits: u64,
}

/// Pre-refactor capture: Lego tiny dataset, `ModelConfig::small(Morton)`,
/// `TrainConfig::small()`, model seed `9 ^ 0xA1`, trainer seed 9,
/// 3 iterations, online co-simulation via `CosimSink`.
const GOLDEN: [GoldenRun; 2] = [
    GoldenRun {
        per_point: true,
        loss_bits: [0x3fd200f58c44cb24, 0x3fcdcecdc07e785a, 0x3fcb1532456269a7],
        grad_sum_bits: 0xbfa56af498e0eeac,
    },
    GoldenRun {
        per_point: false,
        loss_bits: [0x3fd200f58c44cb24, 0x3fcdcecdbf38187a, 0x3fcb153246477df8],
        grad_sum_bits: 0xbfa56af4aa7a250b,
    },
];

/// DRAM-side golden numbers (identical for both surfaces: the gathered
/// point stream depends only on the trainer rng).
const GOLDEN_POINTS_QUERIED: u64 = 24000;
const GOLDEN_DRAM_REQUESTS: u64 = 122162;
const GOLDEN_HT_ROW_HITS: u64 = 19316;
const GOLDEN_HT_ROW_MISSES: u64 = 138;
const GOLDEN_HT_BANK_CONFLICTS: u64 = 41198;
const GOLDEN_PIPELINED_BITS: u64 = 0x3f3cfe22b02e3095;
const GOLDEN_ENERGY_BITS: u64 = 0x419f0177fa97b0c8;

/// One (surface, precision) pair of the occupancy-culled capture. Both
/// optimizer paths must reproduce it: `Dense` is bitwise `Sparse`.
struct CulledGolden {
    per_point: bool,
    precision: Precision,
    /// Exact bit patterns of the four per-iteration losses.
    loss_bits: [u64; 4],
    points_queried: u64,
    /// [`master_checksum`] of the grid's f32 master weights after training.
    master_checksum: u64,
}

/// Culled-path capture (commit `fc7182d`): Lego tiny dataset,
/// `ModelConfig::small(Morton)`, `TrainConfig::tiny()`, model seed
/// `9 ^ 0xA1`, trainer seed 9. [`CULLED_WARMUP`] gridless iterations,
/// then 4 with an 8³ occupancy grid at threshold 0.3 refreshed every 2
/// iterations; the grid keeps 73 % and then 63 % of its cells, so about
/// 42 % of the 2 016 candidate samples are culled.
const GOLDEN_CULLED: [CulledGolden; 4] = [
    CulledGolden {
        per_point: true,
        precision: Precision::F32,
        loss_bits: [
            0x3fc0469542360000,
            0x3fc3c4deb1338e39,
            0x3fb9c5ffc87b13b1,
            0x3fc49b817c7286bd,
        ],
        points_queried: 1164,
        master_checksum: 0x6a97a65d69a8f837,
    },
    CulledGolden {
        per_point: false,
        precision: Precision::F32,
        loss_bits: [
            0x3fc046955180aaab,
            0x3fc3c4deaae425ed,
            0x3fb9c5ffdba4ec4f,
            0x3fc49b816b50d794,
        ],
        points_queried: 1164,
        master_checksum: 0x75b47adf6df5e427,
    },
    CulledGolden {
        per_point: true,
        precision: Precision::Fp16,
        loss_bits: [
            0x3fc0466430c95555,
            0x3fc3cc8daa1684be,
            0x3fb8d1375cf12f68,
            0x3fc49d1d86000000,
        ],
        points_queried: 1183,
        master_checksum: 0xd5698e5f68e14780,
    },
    CulledGolden {
        per_point: false,
        precision: Precision::Fp16,
        loss_bits: [
            0x3fc04664c1eeaaab,
            0x3fc3cc8d8eee38e4,
            0x3fb8d13429c1c71c,
            0x3fc49d1d2e835e51,
        ],
        points_queried: 1183,
        master_checksum: 0x587944cf14760ad5,
    },
];

/// Gridless iterations before the culled capture's four.
const CULLED_WARMUP: usize = 24;

/// Order-sensitive FNV-1a-style fold of every weight's bit pattern.
fn master_checksum(weights: &[f32]) -> u64 {
    weights.iter().fold(0xcbf2_9ce4_8422_2325, |h, &w| {
        (h ^ u64::from(w.to_bits())).wrapping_mul(0x0100_0000_01b3)
    })
}

type F32Run = (Vec<f64>, f64, u64, instant_nerf::accel::CosimStats);

fn run_f32(per_point: bool) -> F32Run {
    let model_cfg = ModelConfig::small(HashFunction::Morton);
    let config = TrainConfig::small().with_precision(Precision::F32);
    let model = IngpModel::for_config(model_cfg, &config, 9 ^ 0xA1);
    if per_point {
        train_f32(PerPoint(model), config, model_cfg)
    } else {
        train_f32(model, config, model_cfg)
    }
}

fn train_f32<M: TrainableField + Borrow<IngpModel>>(
    model: M,
    config: TrainConfig,
    model_cfg: ModelConfig,
) -> F32Run {
    let scene = zoo::scene(SceneKind::Lego);
    let dataset = DatasetConfig::tiny().generate(&scene);
    let batch_points = config.points_per_iteration() as u64;
    let mut cosim = CosimSink::new(PipelineModel::paper(model_cfg), batch_points);
    let mut trainer = Trainer::new(model, config, 9);
    let report = trainer.train_with_sink(&dataset, 3, &mut cosim);
    let model: &IngpModel = trainer.model().borrow();
    let grad_sum: f64 = model.grid().gradients().iter().map(|&g| g as f64).sum();
    let points = trainer.points_queried();
    (report.losses, grad_sum, points, cosim.stats().clone())
}

#[test]
fn f32_store_reproduces_pre_refactor_losses_and_grads_bitwise() {
    for golden in &GOLDEN {
        let (losses, grad_sum, points, _) = run_f32(golden.per_point);
        assert_eq!(losses.len(), 3);
        for (i, (&loss, &bits)) in losses.iter().zip(&golden.loss_bits).enumerate() {
            assert_eq!(
                loss.to_bits(),
                bits,
                "per point {}, iteration {i}: loss {loss} drifted from the \
                 pre-refactor capture",
                golden.per_point
            );
        }
        assert_eq!(
            grad_sum.to_bits(),
            golden.grad_sum_bits,
            "per point {}: grid gradient checksum drifted",
            golden.per_point
        );
        assert_eq!(points, GOLDEN_POINTS_QUERIED);
    }
}

#[test]
fn f32_store_reproduces_pre_refactor_dram_stats_bitwise() {
    for golden in &GOLDEN {
        let (_, _, _, stats) = run_f32(golden.per_point);
        assert_eq!(stats.iterations, 3);
        assert_eq!(
            stats.dram_requests, GOLDEN_DRAM_REQUESTS,
            "per point {}",
            golden.per_point
        );
        assert_eq!(stats.ht_row_hits, GOLDEN_HT_ROW_HITS);
        assert_eq!(stats.ht_row_misses, GOLDEN_HT_ROW_MISSES);
        assert_eq!(stats.ht_bank_conflicts, GOLDEN_HT_BANK_CONFLICTS);
        assert_eq!(
            stats.pipelined_seconds.to_bits(),
            GOLDEN_PIPELINED_BITS,
            "per point {}: simulated iteration time drifted",
            golden.per_point
        );
        assert_eq!(
            stats.dram_energy_pj.to_bits(),
            GOLDEN_ENERGY_BITS,
            "per point {}: simulated DRAM energy drifted",
            golden.per_point
        );
    }
}

#[test]
fn culled_training_reproduces_its_capture_bitwise() {
    let scene = zoo::scene(SceneKind::Lego);
    let dataset = DatasetConfig::tiny().generate(&scene);
    let model_cfg = ModelConfig::small(HashFunction::Morton);
    for golden in &GOLDEN_CULLED {
        for opt in [OptPath::Sparse, OptPath::Dense] {
            let config = TrainConfig::tiny()
                .with_precision(golden.precision)
                .with_opt(opt);
            let case = format!(
                "per point {} / {:?} / {:?}",
                golden.per_point, golden.precision, opt
            );
            let model = IngpModel::for_config(model_cfg, &config, 9 ^ 0xA1);
            let (loss_bits, points, checksum) = if golden.per_point {
                train_culled(PerPoint(model), config, &dataset)
            } else {
                train_culled(model, config, &dataset)
            };
            assert_eq!(loss_bits, golden.loss_bits, "{case}: losses drifted");
            assert_eq!(points, golden.points_queried, "{case}: culling drifted");
            assert_eq!(checksum, golden.master_checksum, "{case}: weights drifted");
        }
    }
}

/// The culled capture's run of `model`: loss bits, points queried and
/// the grid's [`master_checksum`].
fn train_culled<M: TrainableField + Borrow<IngpModel>>(
    model: M,
    config: TrainConfig,
    dataset: &Dataset,
) -> (Vec<u64>, u64, u64) {
    // An untrained field is near-uniform, so no threshold splits its
    // grid; warm it up first, then train with the grid on.
    let mut warm = Trainer::new(model, config, 9);
    warm.train(dataset, CULLED_WARMUP);
    let mut trainer = Trainer::new(warm.into_model(), config, 9).with_occupancy_grid(8, 0.3, 2);
    let losses = trainer.train(dataset, 4).losses;
    let loss_bits: Vec<u64> = losses.iter().map(|l| l.to_bits()).collect();
    let points = trainer.points_queried();
    let model = trainer.into_model();
    let model: &IngpModel = model.borrow();
    let checksum = master_checksum(model.grid().parameter_store().master());
    (loss_bits, points, checksum)
}

#[test]
fn fp16_model_halves_storage_against_the_f32_twin() {
    let model_cfg = ModelConfig::small(HashFunction::Morton);
    let full = IngpModel::new(model_cfg, 5);
    let fp16 = TrainConfig::small().with_precision(Precision::Fp16);
    let half = IngpModel::for_config(model_cfg, &fp16, 5);
    assert_eq!(full.precision(), Precision::F32);
    assert_eq!(half.precision(), Precision::Fp16);
    assert_eq!(full.parameter_count(), half.parameter_count());
    assert_eq!(2 * half.grid().storage_bytes(), full.grid().storage_bytes());
    assert_eq!(
        2 * half.parameter_storage_bytes(),
        full.parameter_storage_bytes()
    );
    assert_eq!(half.grid().entry_bytes(), 4);
    assert_eq!(full.grid().entry_bytes(), 8);
}

#[test]
fn fp16_training_trajectory_tracks_f32_loss() {
    // Both precisions sample identical points (the rng never sees the
    // model), so the loss trajectories must stay close while the fp16
    // working copies round every commit.
    let scene = zoo::scene(SceneKind::Lego);
    let dataset = DatasetConfig::tiny().generate(&scene);
    let model_cfg = ModelConfig::small(HashFunction::Morton);
    let mut losses = Vec::new();
    for precision in [Precision::F32, Precision::Fp16] {
        let config = TrainConfig::small().with_precision(precision);
        let mut trainer = Trainer::new(
            IngpModel::for_config(model_cfg, &config, 9 ^ 0xA1),
            config,
            9,
        );
        losses.push(trainer.train(&dataset, 5).losses);
    }
    for (i, (a, b)) in losses[0].iter().zip(&losses[1]).enumerate() {
        assert!(
            (a - b).abs() < 0.05 * a.abs().max(1e-3),
            "iteration {i}: f32 loss {a} vs fp16 loss {b} diverged"
        );
    }
    // fp16 must actually quantize: trajectories are close, not identical.
    assert_ne!(losses[0], losses[1]);
}
