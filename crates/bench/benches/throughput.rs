//! Training throughput benchmark: the per-point reference (`PerPoint`) vs
//! the chunk phases on the SIMD kernels, in sampled points per second, on the Tab. II "small" workload
//! (`TrainConfig::small`: 256 rays × 32 samples = 8 K points/iteration,
//! `ModelConfig::small`). Each rate is the median of several timing
//! windows after a warm-up, so a single noisy window cannot skew the
//! recorded baseline; the scalar and single-thread batched windows
//! alternate, and their speedup is the median of the paired ratios. Also
//! measures the grid optimizer at paper scale (dense vs sparse) and the
//! lazy-Adam replay kernel by chain age, with its two cliff gates. The
//! per-stage ns/point of a training step are not here: `inerf-bench run
//! --workload train_lego --trace 1` records them reconciled against the
//! real step. Writes `BENCH_throughput.json` at the repo root so the perf
//! trajectory is recorded run over run; CI runs it in quick mode
//! (`INERF_BENCH_QUICK=1`).

use inerf_bench::{median, quick_mode, write_record};
use inerf_encoding::{HashFunction, HashGrid, HashGridConfig};
use inerf_geom::Vec3;
use inerf_mlp::{AdamState, ParamStore};
use inerf_scenes::{zoo, Dataset, DatasetConfig};
use inerf_trainer::{
    engine, IngpModel, ModelConfig, PerPoint, Precision, TrainConfig, TrainableField, Trainer,
};
use serde::Serialize;
use std::time::Instant;

/// Dense vs sparse grid-optimizer cost at the paper's table size
/// (`L=16, T=2^19, F=2` — 16.7 M parameter scalars), fp16 storage, over
/// the touched set of one tab2-small-shaped batch of 8 K points. This is
/// the per-iteration cost the sparse path removes: the dense reference
/// sweeps (and re-quantizes) every scalar, the sparse path only the
/// touched ones.
#[derive(Debug, Serialize)]
struct OptimizerMicrobench {
    levels: u32,
    table_size_log2: u32,
    features: u32,
    param_scalars: usize,
    touched_scalars: usize,
    dense_ms_per_iter: f64,
    sparse_ms_per_iter: f64,
    speedup_sparse_vs_dense: f64,
}

/// Cost of the lazy-replay kernel by the age of the chains it replays,
/// on a table shaped like `train_mic_cosim`'s (262 144 fp16 scalars,
/// 43 % of them ever touched): the live scalars take one gradient at
/// step 1, then nothing, and the whole table is synced every 16 steps as
/// an occupancy-grid refresh does. The four ages sample the kernel's
/// regimes: active, quiescent, first moments decaying through the
/// subnormals, first moments parked.
#[derive(Debug, Serialize)]
struct OptimizerReplay {
    param_scalars: usize,
    live_scalars: usize,
    sync_every: usize,
    /// Rounds (fresh state each) behind every median below.
    rounds: usize,
    /// What `OptPath::Dense` pays to carry the same table through one
    /// zero-gradient step — clip-norm, `step_scaled`, fp16 commit — in
    /// ns per scalar-step, measured in the same rounds at age < 16.
    dense_ns_per_scalar_step: f64,
    /// `sync_store` time over `param_scalars × sync_every`, the same
    /// unit, for the sync that ends at each age.
    replay_ns_per_scalar_step: Vec<ReplayAtAge>,
}

#[derive(Debug, Serialize)]
struct ReplayAtAge {
    age: usize,
    ns: f64,
    /// The same time over the live scalars only: ns per step actually
    /// replayed (never-touched scalars are stamped, not replayed).
    ns_per_live_step: f64,
}

#[derive(Debug, Serialize)]
struct ThroughputReport {
    workload: String,
    rays_per_batch: usize,
    samples_per_ray: usize,
    /// Training iterations per timing window.
    timed_iterations: usize,
    /// Timing windows per engine; the recorded rate is their median.
    /// Scalar and batched x1 windows alternate.
    timing_windows: usize,
    threads: usize,
    /// Grid-optimizer path of the timed runs.
    opt_path: String,
    /// Active SIMD backend (`INERF_SIMD` / runtime detection).
    backend: String,
    simd_lanes: usize,
    scalar_points_per_sec: f64,
    batched_1_thread_points_per_sec: f64,
    batched_points_per_sec: f64,
    speedup_batched_vs_scalar: f64,
    /// Median over the paired windows of batched x1 / scalar.
    speedup_batched_1_thread_vs_scalar: f64,
    optimizer_paper_scale: OptimizerMicrobench,
    optimizer_replay: OptimizerReplay,
}

/// A warmed trainer behind a timing entry: called with `iters`, it trains
/// that many iterations and returns the points it sampled.
type Timed<'a> = Box<dyn FnMut(usize) -> u64 + 'a>;

/// The timed model: `ModelConfig::small` (Morton hash), seed 7.
fn small_model() -> IngpModel {
    IngpModel::new(ModelConfig::small(HashFunction::Morton), 7)
}

/// A trainer of `model` on `threads` workers, after a warm-up that fills
/// every cache, the thread pool, and the engine's buffer arena.
fn warmed<'a, M: TrainableField + 'a>(dataset: &'a Dataset, model: M, threads: usize) -> Timed<'a> {
    let mut trainer = Trainer::new(model, TrainConfig::small(), 3).with_threads(threads);
    trainer.train(dataset, 2);
    Box::new(move |iters| {
        let queried_before = trainer.points_queried();
        trainer.train(dataset, iters);
        trainer.points_queried() - queried_before
    })
}

/// Sampled points per second of each warmed trainer in `runs`, one rate
/// per timing window of `iters` iterations. The trainers take turns
/// window by window, so slow machine-wide drift (co-tenants, thermal
/// throttling) hits every entry alike.
fn window_rates(mut runs: Vec<Timed<'_>>, iters: usize, windows: usize) -> Vec<Vec<f64>> {
    let mut rates = vec![Vec::with_capacity(windows); runs.len()];
    for _ in 0..windows {
        for (run, rates) in runs.iter_mut().zip(&mut rates) {
            let start = Instant::now();
            let points = run(iters);
            rates.push(points as f64 / start.elapsed().as_secs_f64());
        }
    }
    rates
}

/// A deterministic batch of ray-segment samples in the unit cube: `rays`
/// random segments, `samples` evenly spaced points each — the spatial
/// structure of a real training batch (adjacent samples share cells, so
/// coarse levels deduplicate heavily), without an RNG dependency in the
/// bench crate.
fn lcg_ray_samples(rays: usize, samples: usize) -> Vec<Vec3> {
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 40) as f32 / (1u64 << 24) as f32
    };
    let mut points = Vec::with_capacity(rays * samples);
    for _ in 0..rays {
        let a = Vec3::new(next(), next(), next());
        let b = Vec3::new(next(), next(), next());
        for s in 0..samples {
            let t = (s as f32 + 0.5) / samples as f32;
            points.push(a + (b - a) * t);
        }
    }
    points
}

/// Times the dense reference sweep vs the sparse path at the paper's
/// `L=16, T=2^19, F=2` table size on an fp16 store: per iteration,
/// clip-norm accumulation, the Adam step and the fp16 working-copy
/// re-quantization. The touched set comes from a real paper-scale
/// [`HashGrid`] collecting a tab2-small-shaped batch of 256 rays × 32
/// samples (8 corners × 16 levels, deduplicated), so per-level dedup is
/// as in training. Each path's per-iteration time is the median over its
/// iterations, which keeps a single scheduler hiccup out of the recorded
/// ratio.
fn optimizer_microbench(dense_iters: usize, sparse_iters: usize) -> OptimizerMicrobench {
    let grid_cfg = ModelConfig::paper(HashFunction::Morton).grid;
    let (init, touched) = {
        let mut grid = HashGrid::with_precision(grid_cfg, 7, Precision::Fp16);
        grid.enable_touch_tracking();
        grid.begin_touch_batch();
        grid.collect_touched_batch(&lcg_ray_samples(256, 32));
        grid.mark_touched_synced();
        grid.finalize_touched();
        let (scalars, _, _) = grid.touched_scalars_master_grads();
        let touched = scalars.to_vec();
        (grid.parameter_store().master().to_vec(), touched)
    };
    let n = init.len();
    let mut grads = vec![0.0f32; n];
    for &i in &touched {
        grads[i as usize] = 1e-4 * ((i % 997) as f32 - 498.0);
    }
    let clip = 32.0f64;
    let scale_of = |norm_sq: f64| {
        let norm = norm_sq.sqrt();
        if norm > clip {
            (clip / norm) as f32
        } else {
            1.0
        }
    };

    let mut dense_store = ParamStore::new(Precision::Fp16, init.clone());
    let mut dense_adam = AdamState::new(n, 0.01);
    let mut sparse_store = ParamStore::new(Precision::Fp16, init);
    let mut sparse_adam = AdamState::new(n, 0.01);
    sparse_adam.enable_lazy();
    // Interleave the two paths round-robin so slow machine-wide drift
    // (thermal throttling, co-tenants) hits both sides of the recorded
    // ratio equally instead of whichever path happened to run second.
    let mut dense_samples = Vec::with_capacity(dense_iters);
    let mut sparse_samples = Vec::with_capacity(sparse_iters);
    let sparse_per_round = sparse_iters.div_ceil(dense_iters);
    let mut gathered = vec![0.0f32; touched.len()];
    for _ in 0..dense_iters {
        let t0 = Instant::now();
        let norm_sq: f64 = grads.iter().map(|&g| (g as f64) * (g as f64)).sum();
        dense_adam.step_scaled(dense_store.master_mut(), &grads, scale_of(norm_sq));
        dense_store.commit();
        dense_samples.push(t0.elapsed().as_secs_f64() * 1e3);
        for _ in 0..sparse_per_round {
            let t0 = Instant::now();
            // Clip-norm pass gathers the touched gradients compactly;
            // the fused step then streams them and re-quantizes each
            // fp16 scalar in place, exactly as the trainer does.
            let mut norm_sq = 0.0f64;
            for (j, &i) in touched.iter().enumerate() {
                let g = grads[i as usize];
                gathered[j] = g;
                norm_sq += (g as f64) * (g as f64);
            }
            sparse_adam.step_sparse_gathered(
                &mut sparse_store,
                &gathered,
                &touched,
                scale_of(norm_sq),
            );
            sparse_samples.push(t0.elapsed().as_secs_f64() * 1e3);
        }
    }
    let dense_ms = median(dense_samples);
    let sparse_ms = median(sparse_samples);

    OptimizerMicrobench {
        levels: grid_cfg.levels,
        table_size_log2: grid_cfg.table_size_log2,
        features: HashGridConfig::FEATURES,
        param_scalars: n,
        touched_scalars: touched.len(),
        dense_ms_per_iter: dense_ms,
        sparse_ms_per_iter: sparse_ms,
        speedup_sparse_vs_dense: dense_ms / sparse_ms,
    }
}

/// Ages (steps since the one touch) whose sync is recorded.
const REPLAY_AGES: [usize; 4] = [16, 304, 800, 1504];

/// See [`OptimizerReplay`].
///
/// # Panics
///
/// Panics — failing the bench — if the replay costs more than 3× as much
/// per step at age 1 504 as at age 16 (the subnormal cliff is back), or
/// if carrying the table by replay at age 16 is not at least 3× cheaper
/// than the dense sweep. Age 16 is the active regime — the dense
/// arithmetic itself, on the live 43 % and without the per-step fp16
/// commit — which lands near 5×; a per-scalar `powi` in the chain, as
/// before the bias table, lands near 1×.
fn optimizer_replay_microbench(rounds: usize) -> OptimizerReplay {
    const N: usize = 262_144;
    const SYNC_EVERY: usize = 16;
    // Scattered, not strided: the fp16 commit's cost depends on how
    // predictable the moved/unmoved pattern is.
    let live: Vec<u32> = (0..N as u32)
        .filter(|i| (i.wrapping_mul(0x9E37_79B1) >> 8) % 100 < 43)
        .collect();
    // Grid-initialisation-sized parameters, training-sized gradients.
    let init: Vec<f32> = (0..N).map(|i| 2e-7 * ((i % 991) as f32 - 495.5)).collect();
    let gathered: Vec<f32> = live
        .iter()
        .map(|&i| 1e-6 * ((i % 997) as f32 - 498.5))
        .collect();
    let mut touch = vec![0.0f32; N];
    for (&i, &g) in live.iter().zip(&gathered) {
        touch[i as usize] = g;
    }
    let zeros = vec![0.0f32; N];

    let mut dense_ns = Vec::with_capacity(rounds);
    let mut replay_ns: Vec<Vec<f64>> = vec![Vec::with_capacity(rounds); REPLAY_AGES.len()];
    for _ in 0..rounds {
        let mut dense_store = ParamStore::new(Precision::Fp16, init.clone());
        let mut dense_adam = AdamState::new(N, 0.01);
        dense_adam.step_scaled(dense_store.master_mut(), &touch, 1.0);
        dense_store.commit();
        let sweeps = (0..SYNC_EVERY - 1)
            .map(|_| {
                let t0 = Instant::now();
                let norm_sq: f64 = zeros.iter().map(|&g| (g as f64) * (g as f64)).sum();
                let scale = if norm_sq.sqrt() > 32.0 { 0.5 } else { 1.0 };
                dense_adam.step_scaled(dense_store.master_mut(), &zeros, scale);
                dense_store.commit();
                t0.elapsed().as_secs_f64() * 1e9 / N as f64
            })
            .collect();
        dense_ns.push(median(sweeps));

        let mut store = ParamStore::new(Precision::Fp16, init.clone());
        let mut adam = AdamState::new(N, 0.01);
        adam.enable_lazy();
        adam.step_sparse_gathered(&mut store, &gathered, &live, 1.0);
        for age in 1..=REPLAY_AGES[REPLAY_AGES.len() - 1] {
            adam.step_sparse_gathered(&mut store, &[], &[], 1.0);
            if age % SYNC_EVERY == 0 {
                let t0 = Instant::now();
                adam.sync_store(&mut store);
                let ns = t0.elapsed().as_secs_f64() * 1e9 / (N * SYNC_EVERY) as f64;
                if let Some(row) = REPLAY_AGES.iter().position(|&a| a == age) {
                    replay_ns[row].push(ns);
                }
            }
        }
    }

    let dense = median(dense_ns);
    let rows: Vec<ReplayAtAge> = REPLAY_AGES
        .iter()
        .zip(replay_ns)
        .map(|(&age, ns)| {
            let ns = median(ns);
            ReplayAtAge {
                age,
                ns,
                ns_per_live_step: ns * N as f64 / live.len() as f64,
            }
        })
        .collect();
    let (young, old) = (rows[0].ns, rows[rows.len() - 1].ns);
    assert!(
        old <= 3.0 * young,
        "replay cliff: {old:.2} ns/step at age {} vs {young:.2} at age {}",
        REPLAY_AGES[REPLAY_AGES.len() - 1],
        REPLAY_AGES[0]
    );
    assert!(
        dense >= 3.0 * young,
        "replay at age {} costs {young:.2} ns/step, dense sweep {dense:.2}",
        REPLAY_AGES[0]
    );
    OptimizerReplay {
        param_scalars: N,
        live_scalars: live.len(),
        sync_every: SYNC_EVERY,
        rounds,
        dense_ns_per_scalar_step: dense,
        replay_ns_per_scalar_step: rows,
    }
}

fn main() {
    let (iters, windows) = if quick_mode() { (4, 3) } else { (12, 5) };
    let threads = engine::default_threads();
    let scene = zoo::scene(zoo::SceneKind::Lego);
    let dataset = DatasetConfig::tiny().generate(&scene);

    // The gated ratio comes from paired windows: the per-point reference
    // and the chunk phases on one thread alternate, and each pair's ratio
    // is taken before the median.
    let scalar_run = warmed(&dataset, PerPoint(small_model()), threads);
    let batched_run = warmed(&dataset, small_model(), 1);
    let paired = window_rates(vec![scalar_run, batched_run], iters, windows);
    let paired_speedup = median(
        paired[1]
            .iter()
            .zip(&paired[0])
            .map(|(b, s)| b / s)
            .collect(),
    );
    let (scalar, batched_1) = (median(paired[0].clone()), median(paired[1].clone()));
    let batched_run = warmed(&dataset, small_model(), threads);
    let batched = median(window_rates(vec![batched_run], iters, windows).remove(0));
    let (dense_iters, sparse_iters) = if quick_mode() { (3, 30) } else { (12, 240) };
    let paper_opt = optimizer_microbench(dense_iters, sparse_iters);
    let replay = optimizer_replay_microbench(if quick_mode() { 3 } else { 9 });

    let cfg = TrainConfig::small();
    let report = ThroughputReport {
        workload: "tab2-small".to_string(),
        rays_per_batch: cfg.rays_per_batch,
        samples_per_ray: cfg.samples_per_ray,
        timed_iterations: iters,
        timing_windows: windows,
        threads,
        opt_path: cfg.opt.label().to_string(),
        backend: inerf_simd::backend().name().to_string(),
        simd_lanes: inerf_simd::f32x8::LANES,
        scalar_points_per_sec: scalar,
        batched_1_thread_points_per_sec: batched_1,
        batched_points_per_sec: batched,
        speedup_batched_vs_scalar: batched / scalar,
        speedup_batched_1_thread_vs_scalar: paired_speedup,
        optimizer_paper_scale: paper_opt,
        optimizer_replay: replay,
    };
    println!(
        "\nthroughput (tab2-small, median of {windows}x{iters} iterations, backend {}): \
         scalar {:.0} pts/s | batched x1 {:.0} pts/s ({:.2}x paired) | batched x{threads} {:.0} pts/s ({:.2}x)",
        report.backend,
        scalar,
        batched_1,
        paired_speedup,
        batched,
        batched / scalar,
    );
    println!(
        "paper-scale optimizer (L={}, T=2^{}, {:.1}M scalars, {:.0}K touched): \
         dense {:.1} ms/iter | sparse {:.3} ms/iter | {:.0}x",
        report.optimizer_paper_scale.levels,
        report.optimizer_paper_scale.table_size_log2,
        report.optimizer_paper_scale.param_scalars as f64 / 1e6,
        report.optimizer_paper_scale.touched_scalars as f64 / 1e3,
        report.optimizer_paper_scale.dense_ms_per_iter,
        report.optimizer_paper_scale.sparse_ms_per_iter,
        report.optimizer_paper_scale.speedup_sparse_vs_dense,
    );
    println!(
        "optimizer replay ({}K scalars, {}K live, sync every {}): dense sweep {:.2} ns/scalar-step | replay {}",
        report.optimizer_replay.param_scalars / 1000,
        report.optimizer_replay.live_scalars / 1000,
        report.optimizer_replay.sync_every,
        report.optimizer_replay.dense_ns_per_scalar_step,
        report
            .optimizer_replay
            .replay_ns_per_scalar_step
            .iter()
            .map(|r| format!("{:.2} @ age {}", r.ns, r.age))
            .collect::<Vec<_>>()
            .join(" | "),
    );
    write_record("throughput", &report);
}
