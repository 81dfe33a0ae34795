//! Checkpoint/resume bitwise-equivalence.
//!
//! The headline guarantee of the snapshot subsystem: training 2N
//! iterations straight is *bitwise* identical to training N, writing a
//! checkpoint, dropping the trainer entirely, resuming from the
//! checkpoint bytes, and training N more — same loss bits, same
//! evaluation render, same DRAM request statistics for the second half,
//! same master and working parameter bits at the end. Pinned across
//! both storage precisions, both optimizer paths, and at 1/2/8 threads (a
//! snapshot written at any parallelism resumes at any other).

use inerf_encoding::requests::{RegisterCacheSink, StreamStats};
use inerf_encoding::CountingSink;
use inerf_geom::{Aabb, Ray, Vec3};
use inerf_scenes::{zoo, Dataset, DatasetConfig};
use inerf_snapshot::{MemIo, SnapshotError};
use inerf_trainer::{IngpModel, ModelConfig, OptPath, Precision, TrainConfig, Trainer};

const N: usize = 4;

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

fn tiny_config(precision: Precision, opt: OptPath) -> TrainConfig {
    TrainConfig::tiny().with_precision(precision).with_opt(opt)
}

fn fresh_trainer(cfg: TrainConfig, threads: usize) -> Trainer<IngpModel> {
    Trainer::new(IngpModel::for_config(ModelConfig::tiny(), &cfg, 8), cfg, 3).with_threads(threads)
}

/// Everything the *second half* of a 2N-iteration run observably
/// produces, bit-exact, plus the final parameter state.
#[derive(Debug, PartialEq)]
struct SecondHalf {
    losses: Vec<u64>,
    psnr: u64,
    steps: u64,
    dram: StreamStats,
    trace_points: u64,
    master: Vec<u32>,
    working: Vec<u32>,
}

fn second_half(trainer: &mut Trainer<IngpModel>, ds: &Dataset) -> SecondHalf {
    let levels = ModelConfig::tiny().grid.levels;
    let mut sinks = (CountingSink::default(), RegisterCacheSink::new(levels));
    let report = trainer.train_with_sink(ds, N, &mut sinks);
    let psnr = trainer.eval_psnr(ds);
    SecondHalf {
        losses: report.losses.iter().map(|l| l.to_bits()).collect(),
        psnr: psnr.to_bits(),
        steps: trainer.global_step(),
        dram: sinks.1.stats(),
        trace_points: sinks.0.points,
        master: bits(trainer.model().grid().parameter_store().master()),
        working: bits(trainer.model().grid().parameters()),
    }
}

/// Train 2N straight (discarding the first half's trace) at 1 thread.
fn straight(ds: &Dataset, cfg: TrainConfig) -> SecondHalf {
    let mut trainer = fresh_trainer(cfg, 1);
    trainer.train(ds, N);
    second_half(&mut trainer, ds)
}

/// Train N, checkpoint to memory, drop the trainer, resume from the
/// checkpoint bytes alone, then train N more at `threads`.
fn resumed(ds: &Dataset, cfg: TrainConfig, threads: usize) -> SecondHalf {
    let mut io = MemIo::default();
    {
        let mut first = fresh_trainer(cfg, threads);
        first.train(ds, N);
        first.save_checkpoint_to(&mut io, 2).unwrap();
        // `first` dropped here — the resumed run sees only `io`'s bytes.
    }
    let mut trainer = Trainer::resume_from_io(&io, cfg)
        .unwrap()
        .with_threads(threads);
    assert_eq!(trainer.global_step(), N as u64);
    second_half(&mut trainer, ds)
}

#[test]
fn resume_matches_straight_bitwise_for_every_engine_precision_thread_count_and_opt() {
    let ds = DatasetConfig::tiny().generate(&zoo::scene(zoo::SceneKind::Mic));
    for precision in [Precision::F32, Precision::Fp16] {
        for opt in [OptPath::Sparse, OptPath::Dense] {
            let cfg = tiny_config(precision, opt);
            let reference = straight(&ds, cfg);
            assert!(reference.trace_points > 0, "workload must stream lookups");
            assert_eq!(reference.steps, 2 * N as u64);
            for threads in [1usize, 2, 8] {
                let restored = resumed(&ds, cfg, threads);
                assert_eq!(
                    restored,
                    reference,
                    "{}/{}/{threads}t: resume diverged bitwise from straight",
                    precision.label(),
                    opt.label()
                );
            }
        }
    }
}

/// `OptPath::Sparse` picks each iteration's grid sweep from the density
/// of the step before; a resumed trainer starts lazy. Saved right after a
/// dense iteration, and right after a lazy one dense enough to call for
/// a dense sweep next, the resumed trainer's next iteration runs lazy
/// where the straight one runs dense — and the losses stay bit-equal.
#[test]
fn resume_across_a_sweep_boundary_matches_straight_bitwise() {
    const ITERS: usize = 5;
    let bounds = Aabb::new(Vec3::splat(-1.0), Vec3::splat(1.0));
    // Enough rays that about half the table's gradients are nonzero.
    let (rays, targets): (Vec<Ray>, Vec<Vec3>) = (0..192)
        .map(|i| {
            let f = (i as f32 + 0.5) / 192.0;
            let origin = Vec3::new(-2.5, 1.8 * f - 0.9, 0.9 * (37.0 * f + 1.1).sin());
            let dir = Vec3::new(1.0, 0.4 * (13.0 * f).sin(), 0.4 * (11.0 * f + 1.1).cos());
            (
                Ray::new(origin, dir.normalized()),
                Vec3::new(f, 1.0 - f, 0.5),
            )
        })
        .unzip();
    // Loss bits, and whether every Adam record stood at the step count
    // afterwards — true right after a dense sweep, false after a lazy one.
    let step = |trainer: &mut Trainer<IngpModel>| {
        let loss = trainer.train_on_rays(&rays, &targets, &bounds).to_bits();
        let t = trainer.global_step() as u32;
        let current = trainer.model().grid_adam().records().all(|r| r[2] == t);
        (loss, current)
    };
    for precision in [Precision::F32, Precision::Fp16] {
        let cfg = TrainConfig {
            samples_per_ray: 24,
            ..tiny_config(precision, OptPath::Sparse)
        };
        let mut reference = fresh_trainer(cfg, 1);
        let straight: Vec<_> = (0..ITERS).map(|_| step(&mut reference)).collect();
        let sweeps: Vec<bool> = straight.iter().map(|s| s.1).collect();
        assert_eq!(sweeps, [false, true, true, true, true], "{precision:?}");
        for save_after in [1, 2] {
            let mut io = MemIo::default();
            {
                let mut first = fresh_trainer(cfg, 1);
                for _ in 0..save_after {
                    step(&mut first);
                }
                first.save_checkpoint_to(&mut io, 2).unwrap();
            }
            let mut restored = Trainer::resume_from_io(&io, cfg).unwrap();
            let rest: Vec<_> = (save_after..ITERS).map(|_| step(&mut restored)).collect();
            let label = format!("{precision:?}: saved after {save_after}");
            assert!(!rest[0].1, "{label}: the resumed trainer must start lazy");
            let losses = |s: &[(u64, bool)]| s.iter().map(|s| s.0).collect::<Vec<_>>();
            assert_eq!(losses(&rest), losses(&straight[save_after..]), "{label}");
        }
    }
}

#[test]
fn resume_preserves_occupancy_grid_state_bitwise() {
    // The occupancy grid refreshes on a fixed cadence keyed to its own
    // iteration counter; a resume must restore the counter, the bitset,
    // and the refresh parameters or the filtered trajectory diverges.
    let ds = DatasetConfig::tiny().generate(&zoo::scene(zoo::SceneKind::Mic));
    let cfg = tiny_config(Precision::F32, OptPath::Sparse);

    let mut reference = fresh_trainer(cfg, 1).with_occupancy_grid(8, 0.02, 2);
    let straight_report = reference.train(&ds, 2 * N);
    let straight_losses: Vec<u64> = straight_report.losses[N..]
        .iter()
        .map(|l| l.to_bits())
        .collect();
    let straight_master = bits(reference.model().grid().parameter_store().master());

    let mut io = MemIo::default();
    {
        let mut first = fresh_trainer(cfg, 1).with_occupancy_grid(8, 0.02, 2);
        first.train(&ds, N);
        first.save_checkpoint_to(&mut io, 2).unwrap();
    }
    let mut restored = Trainer::resume_from_io(&io, cfg).unwrap();
    let resumed_report = restored.train(&ds, N);
    let resumed_losses: Vec<u64> = resumed_report.losses.iter().map(|l| l.to_bits()).collect();

    assert_eq!(resumed_losses, straight_losses);
    assert_eq!(
        bits(restored.model().grid().parameter_store().master()),
        straight_master
    );
}

#[test]
fn resume_past_step_1000_rebuilds_the_bias_table_and_matches_straight() {
    // The per-step bias table is derived state a snapshot does not
    // carry: a trainer resumed at step 1 040 rebuilds it from `t`, and
    // its replays — of chains already hundreds of steps old, some past
    // the subnormal boundary — must land on the straight run's bits.
    const FIRST: usize = 1_040;
    let ds = DatasetConfig::tiny().generate(&zoo::scene(zoo::SceneKind::Mic));
    let cfg = tiny_config(Precision::Fp16, OptPath::Sparse);
    let with_grid = |t: Trainer<IngpModel>| t.with_occupancy_grid(8, 0.02, 16);
    let fingerprint = |losses: &[f64], trainer: Trainer<IngpModel>| {
        let model = trainer.into_model();
        let column = |i: usize| {
            model
                .grid_adam()
                .records()
                .map(|r| r[i])
                .collect::<Vec<_>>()
        };
        (
            losses.iter().map(|l| l.to_bits()).collect::<Vec<_>>(),
            bits(model.grid().parameter_store().master()),
            bits(model.grid().parameters()),
            column(0),
            column(1),
        )
    };

    let mut reference = with_grid(fresh_trainer(cfg, 1));
    let straight_losses = reference.train(&ds, FIRST + 40).losses;
    let straight = fingerprint(&straight_losses[FIRST..], reference);

    let mut io = MemIo::default();
    {
        let mut first = with_grid(fresh_trainer(cfg, 1));
        first.train(&ds, FIRST);
        first.save_checkpoint_to(&mut io, 2).unwrap();
    }
    let mut restored = Trainer::resume_from_io(&io, cfg).unwrap();
    assert_eq!(restored.global_step(), FIRST as u64);
    let resumed_losses = restored.train(&ds, 40).losses;
    assert!(fingerprint(&resumed_losses, restored) == straight);
}

#[test]
fn resume_with_mismatched_config_is_a_typed_error() {
    let ds = DatasetConfig::tiny().generate(&zoo::scene(zoo::SceneKind::Mic));
    let cfg = tiny_config(Precision::F32, OptPath::Sparse);
    let mut io = MemIo::default();
    let mut trainer = fresh_trainer(cfg, 1);
    trainer.train(&ds, 2);
    trainer.save_checkpoint_to(&mut io, 2).unwrap();

    for wrong in [
        cfg.with_precision(Precision::Fp16),
        cfg.with_opt(OptPath::Dense),
    ] {
        match Trainer::resume_from_io(&io, wrong) {
            Err(SnapshotError::ConfigMismatch(msg)) => {
                assert!(msg.contains("resume requested"), "unhelpful message: {msg}");
            }
            other => panic!("expected ConfigMismatch, got {other:?}"),
        }
    }
}

#[test]
fn resume_from_empty_store_is_no_snapshot() {
    let cfg = tiny_config(Precision::F32, OptPath::Sparse);
    let io = MemIo::default();
    assert!(matches!(
        Trainer::<IngpModel>::resume_from_io(&io, cfg),
        Err(SnapshotError::NoSnapshot)
    ));
}

#[test]
fn checkpoints_rotate_and_latest_wins() {
    let ds = DatasetConfig::tiny().generate(&zoo::scene(zoo::SceneKind::Mic));
    let cfg = tiny_config(Precision::F32, OptPath::Sparse);
    let mut io = MemIo::default();
    let mut trainer = fresh_trainer(cfg, 1);
    for _ in 0..3 {
        trainer.train(&ds, 2);
        trainer.save_checkpoint_to(&mut io, 2).unwrap();
    }
    // keep_last = 2 → exactly two snapshot files, newest named step 6.
    let steps = inerf_snapshot::list_snapshots(&io).unwrap();
    assert_eq!(steps.len(), 2);
    let restored = Trainer::resume_from_io(&io, cfg).unwrap();
    assert_eq!(restored.global_step(), 6);
}
