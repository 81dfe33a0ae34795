//! The per-layer pass: every fine-grained call into the library lives in
//! this file, so the API surface the benchmark pins is short and listed
//! (README, "Pinned API surface"). The library records no spans yet, so
//! each layer's cost is measured by re-enacting its stage through the same
//! public entry points the engines use, inside a span opened here.
//!
//! Training stages run on a *clone* of the workload's trained model over
//! batches of the workload's shape (the approach of
//! `benches/throughput.rs::stage_timings`, lifted). The simulator is
//! staged — points → cube events → DRAM requests → bank timing — and must
//! reproduce the streamed simulator's statistics bit for bit.

use crate::run::Run;
use crate::stats::{median, sub_seed, summarize, SplitMix64};
use crate::trace::Tracer;
use inerf_accel::{
    AccelConfig, HashTableMapping, IterationEstimate, MappingScheme, PipelineModel, RequestSink,
    RequestStream,
};
use inerf_dram::{DramSim, Request, SimStats};
use inerf_encoding::{BufferSink, CountingSink, HashGrid, LookupCache, TraceSink};
use inerf_geom::{Aabb, Ray, Vec3};
use inerf_gpu::{GpuSpec, TrainingCost};
use inerf_mlp::{AdamState, Mlp, MlpBatchActivations, MlpGradients, ParamStore, Precision};
use inerf_render::l2_loss;
use inerf_render::volume::{composite_backward_spans, composite_spans, RayBatch, RaySpan};
use inerf_scenes::Dataset;
use inerf_simd::f32x8;
use inerf_snapshot::{load_latest, write_snapshot, MemIo, StdIo};
use inerf_trainer::workload::{step_ops_at, Step};
use inerf_trainer::{
    engine, IngpModel, ModelConfig, OccupancyGrid, RenderStats, TrainConfig, TrainableField,
    Trainer,
};
use std::path::Path;

/// Seed streams of this file (the workloads own the low numbers).
const STREAM_STAGE_RAYS: u64 = 100;
const STREAM_STAGE_JITTER: u64 = 101;

/// Points of the batch the kernel-level metrics run on.
const KERNEL_POINTS: usize = 8192;

// ---------------------------------------------------------------------
// simd: the machine-drift witness.

/// `simd.calib_madd_gflops`: half a second of dependent-free
/// `f32x8::madd` chains. It measures the machine, not the repo; printed
/// beside every traced timing so drift between two runs is visible.
pub fn calibrate(run: &mut Run) {
    const CHAINS: usize = 8;
    const INNER: usize = 4096;
    let budget = if run.quick { 0.05 } else { 0.5 };
    let a = f32x8::splat(1.000_000_1);
    let b = f32x8::splat(1e-7);
    let mut acc = [f32x8::zero(); CHAINS];
    let mut madds = 0u64;
    let ((), secs) = run.tracer.span("simd.calibrate", 0, |_| {
        let t0 = std::time::Instant::now();
        while t0.elapsed().as_secs_f64() < budget {
            inerf_simd::vectorize(|| {
                for _ in 0..INNER {
                    for c in &mut acc {
                        *c = c.madd(a, b);
                    }
                }
            });
            madds += (INNER * CHAINS) as u64;
        }
    });
    std::hint::black_box(&acc);
    let flops = madds as f64 * 2.0 * f32x8::LANES as f64;
    run.results
        .set_exact("simd.calib_madd_gflops", flops / secs / 1e9);
}

// ---------------------------------------------------------------------
// Training stages.

/// One gathered training batch in the engine's structure-of-arrays shape.
#[derive(Default)]
struct StageBatch {
    points: Vec<Vec3>,
    dirs: Vec<Vec3>,
    spans: Vec<RaySpan>,
    dts: Vec<f32>,
    targets: Vec<Vec3>,
}

/// Step (b) as `Trainer::gather_batch` performs it: intersect, jittered
/// stratified sampling, optional occupancy filter, normalization.
fn gather(
    rays: &[Ray],
    targets: &[Vec3],
    bounds: &Aabb,
    samples: usize,
    grid: Option<&OccupancyGrid>,
    jitter_rng: &mut SplitMix64,
    out: &mut StageBatch,
) {
    let (mut jitter, mut ts, mut kept) = (Vec::new(), Vec::new(), Vec::new());
    out.points.clear();
    out.dirs.clear();
    out.spans.clear();
    out.dts.clear();
    out.targets.clear();
    for (ray, &target) in rays.iter().zip(targets) {
        let Some(hit) = bounds.intersect(ray) else {
            continue;
        };
        if hit.t_far - hit.t_near < 1e-5 {
            continue;
        }
        jitter.clear();
        jitter.extend((0..samples).map(|_| jitter_rng.next_f32() - 0.5));
        let near = hit.t_near.max(1e-4);
        ray.stratified_ts_into(near, hit.t_far, samples, Some(&jitter), &mut ts);
        let dt = (hit.t_far - near) / samples as f32;
        let live: &[f32] = match grid {
            Some(g) => {
                g.filter_ts_into(ray, bounds, &ts, &mut kept);
                &kept
            }
            None => &ts,
        };
        if live.is_empty() {
            continue;
        }
        let start = out.points.len();
        for &t in live {
            out.points.push(bounds.normalize(ray.at(t)));
            out.dirs.push(ray.direction);
        }
        if grid.is_some() {
            out.dts.resize(out.dts.len() + live.len(), dt);
        }
        out.spans.push(RaySpan {
            start,
            len: live.len(),
            dt,
        });
        out.targets.push(target);
    }
}

/// A random pixel batch of the dataset, as `Trainer::train_step` draws it.
fn pixel_batch(dataset: &Dataset, n: usize, rng: &mut SplitMix64) -> (Vec<Ray>, Vec<Vec3>) {
    let pixels = dataset.train_pixel_count() as u32;
    (0..n)
        .map(|_| {
            let (vi, px, py, color) = dataset.train_pixel(rng.below(pixels) as usize);
            (dataset.train_views[vi].camera.ray_for_pixel(px, py), color)
        })
        .unzip()
}

/// Re-enacts the batched training pipeline stage by stage on a clone of
/// `trainer`'s model, then runs the real `train_step` on a clone of the
/// trainer and reports how much of it the stages explain. Returns the
/// sample points of every re-enacted batch, in gather order, for the
/// kernel-level metrics. `refresh_threshold` is the occupancy threshold the
/// workload trains with (the trainer does not expose it).
pub fn training_stages(
    run: &mut Run,
    dataset: &Dataset,
    trainer: &Trainer<IngpModel>,
    refresh_threshold: f32,
) -> Vec<Vec3> {
    let cfg: TrainConfig = *trainer.config();
    let grid = trainer.occupancy_grid();
    let pool = engine::build_pool(1);
    let reps = run.scaled(10);
    let mut model = trainer.model().clone();
    let mut rays_rng = SplitMix64::new(sub_seed(run.seed, STREAM_STAGE_RAYS));
    let mut jitter_rng = SplitMix64::new(sub_seed(run.seed, STREAM_STAGE_JITTER));
    let mut batch = StageBatch::default();
    let mut all_points = Vec::new();
    // Seconds per stage, summed over the repetitions, and sampled points.
    let mut stage = [0.0f64; 7];
    let mut points_total = 0usize;
    let (mut sigmas, mut rgbs, mut live) = (Vec::new(), Vec::new(), Vec::new());
    let (mut ray_colors, mut backgrounds) = (Vec::new(), Vec::new());
    let (mut weights, mut trans_after) = (Vec::new(), Vec::new());
    let (mut d_sigmas, mut d_colors) = (Vec::new(), Vec::new());
    for rep in 0..reps {
        let op = rep as u64;
        let (rays, targets) = pixel_batch(dataset, cfg.rays_per_batch, &mut rays_rng);
        run.tracer.span("trainer.step.reenacted", op, |t| {
            model.begin_batch();
            stage[0] += t
                .span("geom.gather", op, |_| {
                    gather(
                        &rays,
                        &targets,
                        &dataset.bounds,
                        cfg.samples_per_ray,
                        grid,
                        &mut jitter_rng,
                        &mut batch,
                    )
                })
                .1;
            let (n, m) = (batch.points.len(), batch.spans.len());
            if n == 0 {
                return;
            }
            points_total += n;
            all_points.extend_from_slice(&batch.points);
            sigmas.resize(n, 0.0);
            rgbs.resize(n, Vec3::ZERO);
            ray_colors.resize(m, Vec3::ZERO);
            backgrounds.resize(m, 0.0);
            weights.resize(n, 0.0);
            trans_after.resize(n, 0.0);
            d_sigmas.resize(n, 0.0);
            d_colors.resize(n, Vec3::ZERO);
            stage[1] += t
                .span("trainer.model.encode_density", op, |_| {
                    model.query_batch_density(&batch.points, &mut sigmas, &pool)
                })
                .1;
            // The engine compacts samples behind a ray's termination
            // point; its scan is crate-private, so the re-enactment pays
            // the color MLP for every sample (an upper bound).
            live.clear();
            live.extend(0..n as u32);
            stage[2] += t
                .span("trainer.model.color", op, |_| {
                    model.query_batch_color_compacted(&batch.dirs, &live, &mut rgbs, &pool)
                })
                .1;
            let ray_batch = RayBatch {
                sigmas: &sigmas,
                colors: &rgbs,
                spans: &batch.spans,
                dts: grid.map(|_| batch.dts.as_slice()),
                sample_base: 0,
            };
            stage[3] += t
                .span("render.composite", op, |_| {
                    composite_spans(
                        &ray_batch,
                        &mut ray_colors,
                        &mut backgrounds,
                        &mut weights,
                        &mut trans_after,
                    )
                })
                .1;
            let loss = l2_loss(&ray_colors, &batch.targets);
            stage[4] += t
                .span("render.composite_bwd", op, |_| {
                    composite_backward_spans(
                        &ray_batch,
                        &weights,
                        &trans_after,
                        &loss.d_predictions,
                        &mut d_sigmas,
                        &mut d_colors,
                    )
                })
                .1;
            stage[5] += t
                .span("trainer.model.backward", op, |_| {
                    model.backward_batch_compacted(&d_sigmas, &d_colors, &pool)
                })
                .1;
            stage[6] += t
                .span("trainer.model.optimizer", op, |_| model.apply_gradients())
                .1;
        });
    }
    let per_pt = |secs: f64| secs * 1e9 / points_total.max(1) as f64;
    for (name, secs) in [
        "geom.gather_ns_per_pt",
        "trainer.model.encode_density_ns_per_pt",
        "trainer.model.color_ns_per_pt",
        "render.composite_ns_per_pt",
        "render.composite_bwd_ns_per_pt",
        "trainer.model.backward_ns_per_pt",
        "trainer.model.optimizer_ns_per_pt",
    ]
    .into_iter()
    .zip(stage)
    {
        run.results.set_exact(name, per_pt(secs));
    }

    // The real step, on a clone of the whole trainer. With a grid, sixteen
    // consecutive iterations hold exactly one refresh, whatever the phase.
    let mut real = trainer.clone();
    let real_iters = if grid.is_some() { 16 } else { reps };
    let queried0 = real.points_queried();
    let ((), real_secs) = run.tracer.span("trainer.train_step", 0, |_| {
        for _ in 0..real_iters {
            real.train_step(dataset);
        }
    });
    let real_points = (real.points_queried() - queried0) as f64;
    let step_ns = real_secs * 1e9 / real_points.max(1.0);
    run.results.set_exact("trainer.step_ns_per_pt", step_ns);
    run.results
        .set_exact("trainer.points_per_iter", real_points / real_iters as f64);
    run.results.set_exact(
        "trainer.live_fraction",
        real_points / (real_iters * cfg.points_per_iteration()) as f64,
    );
    run.results.set_exact(
        "trainer.arena_growth_events",
        real.arena_growth_events() as f64,
    );

    let mut stage_sum_ns = per_pt(stage.iter().sum());
    if let Some(grid) = grid {
        run.results
            .set_exact("trainer.occupancy.fraction", grid.occupancy());
        let mut synced = trainer.model().clone();
        synced.sync_parameters();
        let mut scratch = grid.clone();
        let refresh: Vec<f64> = (0..run.scaled(3))
            .map(|i| {
                run.tracer
                    .span("trainer.occupancy.refresh", i as u64, |_| {
                        scratch.refresh(&synced, refresh_threshold, 2)
                    })
                    .1
            })
            .collect();
        let refresh_secs = median(&refresh);
        run.results
            .set_exact("trainer.occupancy.refresh_ms", refresh_secs * 1e3);
        stage_sum_ns += refresh_secs * 1e9 / real_points.max(1.0);
    }
    run.results
        .set_exact("trainer.stage_sum_ratio", stage_sum_ns / step_ns);
    all_points
}

/// Kernel-level metrics under the training stages, on one batch of up to
/// [`KERNEL_POINTS`] of the workload's own sample points: the cached-tile
/// hash-grid encode and its backward scatter, both MLPs forward and
/// backward, the sparse Adam step at the paper's table size, and the fp16
/// commit — with computed (not measured) flops and bytes per point.
pub fn training_kernels(run: &mut Run, model: &IngpModel, stage_points: &[Vec3]) {
    let n = stage_points.len().min(KERNEL_POINTS);
    if n == 0 {
        return;
    }
    let points = &stage_points[..n];
    let mcfg: ModelConfig = *model.config();
    let reps = run.scaled(10).max(3);
    let per_pt = |secs: &[f64]| median(secs) * 1e9 / n as f64;

    // encoding: tile-by-tile cached encode, then the cached scatter.
    const TILE: usize = 16;
    let dim = mcfg.grid.feature_dim();
    let mut grid: HashGrid = model.grid().clone();
    let mut cache = LookupCache::default();
    let mut features = vec![0.0f32; n * dim];
    let mut tile = vec![0.0f32; dim * TILE];
    let encode: Vec<f64> = (0..reps)
        .map(|i| {
            run.tracer
                .span("encoding.encode_tiles", i as u64, |_| {
                    grid.prepare_cache(&mut cache, n);
                    inerf_simd::vectorize(|| {
                        for base in (0..n).step_by(TILE) {
                            let bn = TILE.min(n - base);
                            grid.encode_tile_bt_cached(
                                points,
                                base,
                                bn,
                                TILE,
                                &mut features,
                                &mut tile,
                                &mut cache,
                            );
                        }
                    })
                })
                .1
        })
        .collect();
    run.results
        .set_exact("encoding.encode_ns_per_pt", per_pt(&encode));
    let d_features: Vec<f32> = (0..n * dim)
        .map(|i| 1e-4 * ((i % 13) as f32 - 6.0))
        .collect();
    let scatter: Vec<f64> = (0..reps)
        .map(|i| {
            run.tracer
                .span("encoding.backward_cached", i as u64, |_| {
                    grid.backward_batch_cached(&cache, &d_features)
                })
                .1
        })
        .collect();
    run.results
        .set_exact("encoding.backward_ns_per_pt", per_pt(&scatter));

    // mlp: both networks, forward and backward, on the encoded features.
    let time_mlp =
        |t: &mut Tracer, mlp: &Mlp, inputs: &[f32], fwd: &'static str, bwd: &'static str| {
            let mut acts = MlpBatchActivations::default();
            let d_out: Vec<f32> = (0..n * mlp.out_dim())
                .map(|i| 1e-3 * ((i % 7) as f32 - 3.0))
                .collect();
            let mut d_in = vec![0.0f32; n * mlp.in_dim()];
            let mut grads = MlpGradients::zeros(mlp);
            let (mut f, mut b) = (Vec::new(), Vec::new());
            for i in 0..reps {
                f.push(
                    t.span(fwd, i as u64, |_| mlp.forward_batch(inputs, &mut acts))
                        .1,
                );
                b.push(
                    t.span(bwd, i as u64, |_| {
                        mlp.backward_batch(inputs, &acts, &d_out, &mut d_in, &mut grads)
                    })
                    .1,
                );
            }
            (per_pt(&f), per_pt(&b))
        };
    let (f, b) = time_mlp(
        &mut run.tracer,
        model.density_mlp(),
        &features,
        "mlp.density_fwd",
        "mlp.density_bwd",
    );
    run.results.set_exact("mlp.density_fwd_ns_per_pt", f);
    run.results.set_exact("mlp.density_bwd_ns_per_pt", b);
    let color_in = model.color_mlp().in_dim();
    let color_inputs: Vec<f32> = (0..n * color_in)
        .map(|i| 0.05 * ((i % 19) as f32 - 9.0))
        .collect();
    let (f, b) = time_mlp(
        &mut run.tracer,
        model.color_mlp(),
        &color_inputs,
        "mlp.color_fwd",
        "mlp.color_bwd",
    );
    run.results.set_exact("mlp.color_fwd_ns_per_pt", f);
    run.results.set_exact("mlp.color_bwd_ns_per_pt", b);

    // Computed, not measured: the model's own operation counts.
    let precision = model.precision();
    let flops: u64 = [Step::MlpD, Step::MlpC, Step::MlpCB, Step::MlpDB]
        .iter()
        .map(|&s| step_ops_at(&mcfg, s, precision).fp_ops)
        .sum();
    run.results.set_exact("mlp.flops_per_pt", flops as f64);
    let bytes = step_ops_at(&mcfg, Step::Ht, precision).dram_bytes
        + step_ops_at(&mcfg, Step::HtB, precision).dram_bytes;
    run.results.set_exact("encoding.bytes_per_pt", bytes as f64);

    // encoding/mlp: the touched set of this batch on the workload's table
    // (fraction, fp16 commit) …
    let mut fp16_grid = HashGrid::with_precision(mcfg.grid, 7, Precision::Fp16);
    let touched_small = collect_touched(&mut fp16_grid, points);
    run.results.set_exact(
        "encoding.touched_fraction",
        touched_small.len() as f64 / fp16_grid.parameter_store().len() as f64,
    );
    let commit: Vec<f64> = (0..reps)
        .map(|i| {
            run.tracer
                .span("mlp.fp16_commit", i as u64, |_| fp16_grid.commit_touched())
                .1
        })
        .collect();
    run.results
        .set_exact("mlp.fp16_commit_ns_per_pt", per_pt(&commit));
    drop(fp16_grid);

    // … and on the paper-scale table, where the sparse Adam step earns its
    // keep (16.7 M scalars; a dense sweep would touch all of them).
    let paper = ModelConfig::paper(mcfg.grid.hash).grid;
    let (init, touched) = {
        let mut big = HashGrid::with_precision(paper, 7, Precision::Fp16);
        let touched = collect_touched(&mut big, points);
        (big.parameter_store().master().to_vec(), touched)
    };
    let gathered: Vec<f32> = touched
        .iter()
        .map(|&i| 1e-4 * ((i % 997) as f32 - 498.0))
        .collect();
    let mut store = ParamStore::new(Precision::Fp16, init);
    let mut adam = AdamState::new(store.len(), IngpModel::LEARNING_RATE);
    adam.enable_lazy();
    let steps: Vec<f64> = (0..run.scaled(20).max(3))
        .map(|i| {
            run.tracer
                .span("mlp.adam_sparse", i as u64, |_| {
                    adam.step_sparse_gathered(&mut store, &gathered, &touched, 1.0)
                })
                .1
        })
        .collect();
    run.results
        .set_exact("mlp.adam_sparse_ms_per_step", median(&steps) * 1e3);
}

/// The ascending touched scalar indices of `points` on `grid`.
fn collect_touched(grid: &mut HashGrid, points: &[Vec3]) -> Vec<u32> {
    grid.enable_touch_tracking();
    grid.begin_touch_batch();
    grid.collect_touched_batch(points);
    grid.mark_touched_synced();
    grid.finalize_touched();
    grid.touched_scalars_master_grads().0.to_vec()
}

/// `accel.cosim_overhead_ratio`: windows of `train_with_sink` against
/// windows of plain `train`, interleaved so machine drift hits both sides,
/// on two clones of the trainer that follow the same trajectory.
pub fn cosim_overhead(
    run: &mut Run,
    dataset: &Dataset,
    trainer: &Trainer<IngpModel>,
    sink: &(impl TraceSink + Clone),
    window: usize,
) {
    let mut plain = trainer.clone();
    let mut sunk = trainer.clone();
    let mut sink = sink.clone();
    let (mut with, mut without) = (Vec::new(), Vec::new());
    for i in 0..run.scaled(4).max(2) {
        let op = i as u64;
        without.push(
            run.tracer
                .span("trainer.train", op, |_| plain.train(dataset, window))
                .1,
        );
        with.push(
            run.tracer
                .span("trainer.train_with_sink", op, |_| {
                    sunk.train_with_sink(dataset, window, &mut sink)
                })
                .1,
        );
    }
    run.results.set_exact(
        "accel.cosim_overhead_ratio",
        median(&with) / median(&without),
    );
}

// ---------------------------------------------------------------------
// Render engine stages.

/// Per-stage cost of the render engine from its own `RenderStats` (one per
/// measured view), plus the occupancy filter on the same views' rays.
pub fn render_stages(
    run: &mut Run,
    stats: &[RenderStats],
    growth_events: u64,
    dataset: &Dataset,
    grid: Option<&OccupancyGrid>,
    samples_per_ray: usize,
) {
    let px = |f: &dyn Fn(&RenderStats) -> u64| -> f64 {
        let per_view: Vec<f64> = stats
            .iter()
            .map(|s| f(s) as f64 / s.pixels.max(1) as f64)
            .collect();
        median(&per_view)
    };
    run.results
        .set_exact("trainer.render.gen_ns_per_px", px(&|s| s.gen_ns));
    run.results
        .set_exact("trainer.render.density_ns_per_px", px(&|s| s.density_ns));
    run.results
        .set_exact("trainer.render.scan_ns_per_px", px(&|s| s.scan_ns));
    run.results
        .set_exact("trainer.render.color_ns_per_px", px(&|s| s.color_ns));
    run.results
        .set_exact("trainer.render.blend_ns_per_px", px(&|s| s.blend_ns));
    run.results.set_exact(
        "trainer.render.density_samples_per_px",
        px(&|s| s.samples_density),
    );
    run.results.set_exact(
        "trainer.render.color_samples_per_px",
        px(&|s| s.samples_color),
    );
    let culled: Vec<f64> = stats.iter().map(RenderStats::culled_fraction).collect();
    run.results
        .set_exact("trainer.render.culled_fraction", median(&culled));
    run.results
        .set_exact("trainer.render.growth_events", growth_events as f64);

    let Some(grid) = grid else {
        return;
    };
    // The filter alone: all sample distances of a view are laid out first,
    // so the span holds nothing but `filter_ts_into`.
    let mut per_sample = Vec::new();
    let (mut ts, mut kept) = (Vec::new(), Vec::new());
    for (vi, view) in dataset.test_views.iter().enumerate() {
        let mut rays = Vec::new();
        let mut all_ts: Vec<f32> = Vec::new();
        for idx in 0..view.camera.pixel_count() {
            let ray = view.camera.ray_for_index(idx);
            let Some(hit) = dataset.bounds.intersect(&ray) else {
                continue;
            };
            if hit.t_far - hit.t_near < 1e-5 {
                continue;
            }
            ray.stratified_ts_into(
                hit.t_near.max(1e-4),
                hit.t_far,
                samples_per_ray,
                None,
                &mut ts,
            );
            all_ts.extend_from_slice(&ts);
            rays.push(ray);
        }
        let ((), secs) = run.tracer.span("trainer.occupancy.filter", vi as u64, |_| {
            for (ray, ts) in rays.iter().zip(all_ts.chunks_exact(samples_per_ray)) {
                grid.filter_ts_into(ray, &dataset.bounds, ts, &mut kept);
            }
        });
        per_sample.push(secs * 1e9 / all_ts.len().max(1) as f64);
    }
    run.results.set_exact(
        "trainer.occupancy.filter_ns_per_sample",
        median(&per_sample),
    );
}

// ---------------------------------------------------------------------
// Simulator stages.

/// The DRAM-side statistics of one simulated batch: the hash-table read
/// sweep (HT) and the backward read + write-back sweep (HT_b).
#[derive(Debug, Clone, PartialEq)]
pub struct SimPair {
    pub ht: SimStats,
    pub htb: SimStats,
}

/// Counts and host times of one staged simulation.
pub struct Staged {
    pub stats: SimPair,
    pub points: u64,
    pub cubes: u64,
    /// Host seconds of address generation, request mapping, bank timing.
    pub secs: [f64; 3],
}

/// The accelerator's memory system as `PipelineModel::paper` assembles it
/// (its own mapping and DRAM configuration are private): clustered
/// mapping, 32 subarrays, entries at `precision`.
fn paper_memory(
    mcfg: &ModelConfig,
    precision: Precision,
) -> (HashTableMapping, inerf_dram::DramConfig) {
    const SUBARRAYS: u32 = 32;
    let mapping = HashTableMapping::paper(MappingScheme::Clustered, SUBARRAYS)
        .with_entry_bytes(mcfg.grid.entry_bytes(precision));
    (mapping, AccelConfig::paper().nmp_dram(SUBARRAYS))
}

/// Staged simulation of `points`: cube events are materialized, mapped to
/// request vectors, then replayed through the bank-timing simulator — each
/// stage inside its own span.
pub fn staged_sim(
    tracer: &mut Tracer,
    op: u64,
    grid: &HashGrid,
    points: &[Vec3],
    mcfg: &ModelConfig,
    precision: Precision,
) -> Staged {
    let (mapping, dram) = paper_memory(mcfg, precision);
    // Address generation alone (nothing stored) is what gets timed …
    let mut counted = CountingSink::default();
    let ((), address_secs) = tracer.span("encoding.address_gen", op, |_| {
        grid.stream_batch(points, &mut counted)
    });
    // … the materialized copy feeds the next stage.
    let mut trace = BufferSink::new();
    grid.stream_batch(points, &mut trace);
    let (mut ht_reqs, mut htb_reqs): (Vec<Request>, Vec<Request>) = (Vec::new(), Vec::new());
    let ((), map_secs) = tracer.span("accel.map_requests", op, |_| {
        for (write_back, reqs) in [(false, &mut ht_reqs), (true, &mut htb_reqs)] {
            let mut stream = RequestStream::new(&mapping, &dram, write_back);
            for cube in trace.cubes() {
                stream.push_cube(cube, |r| reqs.push(r));
            }
            stream.end_batch(|r| reqs.push(r));
        }
    });
    let (stats, dram_secs) = tracer.span("dram.push_requests", op, |_| {
        let replay = |reqs: &[Request]| {
            let mut sim = DramSim::new(dram);
            for r in reqs {
                sim.push_request(r);
            }
            sim.drain_stats()
        };
        SimPair {
            ht: replay(&ht_reqs),
            htb: replay(&htb_reqs),
        }
    });
    Staged {
        stats,
        points: counted.points,
        cubes: counted.cubes,
        secs: [address_secs, map_secs, dram_secs],
    }
}

/// The same batch through the streaming sinks: no cube or request is ever
/// stored. Returns the raw statistics and the iteration estimate the
/// product path (`iteration_sink` + `estimate_streamed`) derives.
fn streamed_sim(
    grid: &HashGrid,
    points: &[Vec3],
    pipeline: &PipelineModel,
    mcfg: &ModelConfig,
    batch_points: u64,
) -> (SimPair, IterationEstimate) {
    let (mapping, dram) = paper_memory(mcfg, pipeline.precision());
    let mut sinks = (
        RequestSink::new(
            RequestStream::new(&mapping, &dram, false),
            DramSim::new(dram),
        ),
        RequestSink::new(
            RequestStream::new(&mapping, &dram, true),
            DramSim::new(dram),
        ),
    );
    grid.stream_batch(points, &mut sinks);
    sinks.end_batch();
    let pair = SimPair {
        ht: sinks.0.consumer_mut().drain_stats(),
        htb: sinks.1.consumer_mut().drain_stats(),
    };
    let mut sink = pipeline.iteration_sink();
    grid.stream_batch(points, &mut sink);
    (pair, pipeline.estimate_streamed(&mut sink, batch_points))
}

/// Staged and streamed simulation of the same points must agree bit for
/// bit: in the raw `SimStats`, and in the iteration estimate built from
/// them. Returns the staged run and whether it agreed.
pub fn staged_matches_streamed(
    tracer: &mut Tracer,
    op: u64,
    grid: &HashGrid,
    points: &[Vec3],
    pipeline: &PipelineModel,
    mcfg: &ModelConfig,
    batch_points: u64,
) -> (Staged, bool) {
    let staged = staged_sim(tracer, op, grid, points, mcfg, pipeline.precision());
    let (streamed, estimate) = streamed_sim(grid, points, pipeline, mcfg, batch_points);
    let from_staged = pipeline.estimate_iteration_from_stats(
        &staged.stats.ht,
        &staged.stats.htb,
        staged.points.max(1),
        batch_points,
    );
    let ok = staged.stats == streamed && from_staged == estimate && staged.stats.ht.requests > 0;
    (staged, ok)
}

/// Simulator metrics from the staged runs of one workload: host time per
/// unit of each stage, and the exact modeled rates of the HT sweep.
pub fn sim_stages(run: &mut Run, staged: &[Staged]) {
    let Some(last) = staged.last() else {
        return;
    };
    let per = |stage: usize, unit: &dyn Fn(&Staged) -> u64| -> f64 {
        let v: Vec<f64> = staged
            .iter()
            .map(|s| s.secs[stage] * 1e9 / unit(s).max(1) as f64)
            .collect();
        median(&v)
    };
    run.results
        .set_exact("encoding.address_gen_ns_per_pt", per(0, &|s| s.points));
    // Every cube is mapped twice: once per sweep.
    run.results
        .set_exact("accel.map_ns_per_cube", per(1, &|s| 2 * s.cubes));
    run.results.set_exact(
        "dram.push_request_ns",
        per(2, &|s| s.stats.ht.requests + s.stats.htb.requests),
    );
    let ht = &last.stats.ht;
    run.results.set_exact(
        "accel.requests_per_cube",
        ht.requests as f64 / last.cubes.max(1) as f64,
    );
    run.results.set_exact(
        "dram.requests_per_pt",
        (ht.requests + last.stats.htb.requests) as f64 / last.points.max(1) as f64,
    );
    run.results.set_exact("dram.row_hit_rate", ht.hit_rate());
    run.results
        .set_exact("dram.bank_conflict_rate", ht.conflict_rate());
    run.results.set_exact(
        "dram.sim_cycles_per_request",
        ht.total_cycles as f64 / ht.requests.max(1) as f64,
    );
}

/// The modeled per-step seconds of one iteration estimate, and the
/// accelerator's modeled speed-up over the Xavier NX cost model for the
/// same batch. The repo holds no measured reference for either: the only
/// yardstick is the paper's reported 22.0–49.3x band (Fig. 11), so the
/// model is unvalidated and no error figure is given.
pub fn modeled_steps(run: &mut Run, estimate: &IterationEstimate, batch_points: u64) {
    for (name, step) in [
        ("accel.step_s.ht", Step::Ht),
        ("accel.step_s.mlp_d", Step::MlpD),
        ("accel.step_s.mlp_c", Step::MlpC),
        ("accel.step_s.mlp_cb", Step::MlpCB),
        ("accel.step_s.mlp_db", Step::MlpDB),
        ("accel.step_s.htb", Step::HtB),
    ] {
        run.results.set_exact(name, estimate.step_seconds(step));
    }
    // The GPU baseline runs iNGP's original hash, as in Fig. 11.
    let gpu_model = ModelConfig::paper(inerf_encoding::HashFunction::Original);
    let xnx = TrainingCost::estimate(&GpuSpec::xnx(), &gpu_model, batch_points, 1, 1.0);
    run.results.set_exact(
        "gpu.speedup_vs_xnx",
        xnx.iteration_seconds / estimate.pipelined_seconds,
    );
}

// ---------------------------------------------------------------------
// Checkpoint stages.

/// Splits a checkpoint save and a resume into their stages: state capture,
/// container encode + atomic write to memory, newest-snapshot load +
/// validation, trainer restore — and, reported but not gated, a save to
/// real disk (fsync included) under the benchmark's own scratch directory.
pub fn checkpoint_stages(run: &mut Run, trainer: &mut Trainer<IngpModel>, scratch_dir: &Path) {
    let cfg: TrainConfig = *trainer.config();
    let reps = run.scaled(5).max(2);
    let (mut capture, mut write, mut load, mut restore) = (vec![], vec![], vec![], vec![]);
    let mut bytes = 0usize;
    for i in 0..reps {
        let op = i as u64;
        let mut io = MemIo::new();
        let (snap, secs) = run.tracer.span("trainer.checkpoint.capture", op, |_| {
            trainer.capture_snapshot()
        });
        capture.push(secs);
        let (written, secs) = run.tracer.span("snapshot.write_mem", op, |_| {
            write_snapshot(&mut io, trainer.global_step(), &snap, 1)
        });
        write.push(secs);
        bytes = io.files().values().map(Vec::len).sum();
        let (loaded, secs) = run.tracer.span("snapshot.load", op, |_| load_latest(&io));
        load.push(secs);
        let (restored, secs) = run.tracer.span("trainer.checkpoint.restore", op, |_| {
            loaded.and_then(|(_, snap)| Trainer::restore_snapshot(&snap, cfg))
        });
        restore.push(secs);
        let ok = written.is_ok() && restored.is_ok();
        run.attempt(
            1,
            u64::from(!ok),
            "staged checkpoint save/load/restore returned an error",
        );
    }
    let ms = |v: &[f64]| summarize(v).map_or(0.0, |s| s.median * 1e3);
    run.results
        .set_exact("trainer.checkpoint.capture_ms", ms(&capture));
    run.results.set_exact("snapshot.write_mem_ms", ms(&write));
    run.results
        .set_exact("snapshot.mb_per_s", bytes as f64 / 1e6 / median(&write));
    run.results.set_exact("snapshot.load_ms", ms(&load));
    run.results
        .set_exact("trainer.checkpoint.restore_ms", ms(&restore));

    let mut disk = Vec::new();
    let mut io = StdIo::new(scratch_dir);
    for i in 0..run.scaled(3).max(2) {
        let (saved, secs) = run.tracer.span("snapshot.disk_save", i as u64, |_| {
            trainer.save_checkpoint_to(&mut io, 1)
        });
        if saved.is_ok() {
            disk.push(secs);
        }
    }
    drop(io);
    // Scratch only: nothing the run leaves behind may depend on it.
    let _ = std::fs::remove_dir_all(scratch_dir);
    run.results.set_exact("snapshot.disk_save_ms", ms(&disk));
}
