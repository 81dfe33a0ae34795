//! The training loop: batches, loss, backprop; evaluation through the
//! render engine.

pub mod checkpoint;

use crate::engine;
use crate::model::{OptPath, TrainableField};
use crate::occupancy::OccupancyGrid;
use crate::render::{RenderEngine, RenderOpts};
use inerf_encoding::TraceSink;
use inerf_geom::{Aabb, Camera, Ray, Vec3};
use inerf_mlp::Precision;
use inerf_render::volume::{
    composite_backward_spans, composite_backward_uniform, composite_spans, composite_uniform,
    RayBatch, SamplePoint,
};
use inerf_render::{l2_loss, l2_loss_into};
use inerf_scenes::{Dataset, Image};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rayon::ThreadPool;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Which implementation drives the training/inference hot path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Engine {
    /// The per-point reference implementation: one `query`/`backward` call
    /// per sample. Kept as the equivalence baseline for the batched engine.
    Scalar,
    /// The batched structure-of-arrays engine: all sample points are
    /// gathered first, then each stage (encode → MLPs → composite →
    /// backward) runs over flat buffers with fixed-chunk thread-pool
    /// parallelism. Deterministic for a fixed seed at any thread count.
    Batched,
}

/// Training hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Rays (pixels) per iteration batch — Step (a) of the pipeline.
    pub rays_per_batch: usize,
    /// Stratified samples per ray — Step (b).
    pub samples_per_ray: usize,
    /// Samples per ray used when rendering evaluation images.
    pub eval_samples_per_ray: usize,
    /// Hot-path implementation (batched SoA engine by default).
    pub engine: Engine,
    /// Parameter-storage precision of the model this run trains (hash
    /// table and MLP weights). Selects the [`ParamStore`] backend when a
    /// model is built for this config (see
    /// [`crate::model::IngpModel::for_config`]) and the entry width the
    /// hardware models assume; both engines read the same store, so the
    /// choice applies to `Scalar` and `Batched` identically.
    ///
    /// [`ParamStore`]: inerf_mlp::ParamStore
    pub precision: Precision,
    /// Grid-optimizer execution path of the model this run trains: the
    /// O(touched) sparse path with lazy-replay Adam (the default) or the
    /// dense O(table) reference. Both are bitwise-identical; the field
    /// exists so the equivalence suites can run the reference
    /// ([`TrainConfig::with_opt`]).
    pub opt: OptPath,
}

impl TrainConfig {
    /// The paper's workload shape: 256 K sampled points per iteration
    /// (2 K rays × 128 samples).
    pub fn paper() -> Self {
        TrainConfig {
            rays_per_batch: 2048,
            samples_per_ray: 128,
            eval_samples_per_ray: 128,
            engine: Engine::Batched,
            precision: Precision::F32,
            opt: OptPath::Sparse,
        }
    }

    /// A tiny configuration for unit tests.
    pub fn tiny() -> Self {
        TrainConfig {
            rays_per_batch: 32,
            samples_per_ray: 16,
            eval_samples_per_ray: 24,
            engine: Engine::Batched,
            precision: Precision::F32,
            opt: OptPath::Sparse,
        }
    }

    /// A small configuration for examples and PSNR runs.
    pub fn small() -> Self {
        TrainConfig {
            rays_per_batch: 256,
            samples_per_ray: 32,
            eval_samples_per_ray: 48,
            engine: Engine::Batched,
            precision: Precision::F32,
            opt: OptPath::Sparse,
        }
    }

    /// The same configuration with a different [`Engine`].
    pub fn with_engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// The same configuration with a different parameter-storage
    /// [`Precision`].
    pub fn with_precision(mut self, precision: Precision) -> Self {
        self.precision = precision;
        self
    }

    /// The same configuration with a different grid-optimizer [`OptPath`].
    pub fn with_opt(mut self, opt: OptPath) -> Self {
        self.opt = opt;
        self
    }

    /// Sampled points per iteration (the paper's "batch size" unit).
    pub fn points_per_iteration(&self) -> usize {
        self.rays_per_batch * self.samples_per_ray
    }
}

/// Summary of a training run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainReport {
    /// Iterations executed.
    pub iterations: usize,
    /// Loss after the first iteration.
    pub first_loss: f64,
    /// Loss after the last iteration.
    pub last_loss: f64,
    /// Per-iteration losses.
    pub losses: Vec<f64>,
}

/// Optional empty-space skipping state.
#[derive(Debug, Clone)]
struct OccupancyState {
    grid: OccupancyGrid,
    threshold: f32,
    refresh_every: usize,
    iteration: usize,
}

/// Where and how often [`Trainer::train_checkpointed`] writes snapshots.
/// Plain data (no live IO handle), so the trainer stays `Clone`.
#[derive(Debug, Clone)]
struct CheckpointPolicy {
    dir: std::path::PathBuf,
    every_n: usize,
    keep_last: usize,
}

/// Drives a [`TrainableField`] through the six-step NeRF training pipeline.
///
/// Every per-iteration structure-of-arrays buffer (the gathered batch and
/// all batched-engine stage buffers) lives in a pooled batch arena
/// (`engine::BatchArena`), so steady-state iterations reuse capacity
/// instead of allocating; see [`Trainer::arena_growth_events`].
#[derive(Debug, Clone)]
pub struct Trainer<M> {
    model: M,
    config: TrainConfig,
    rng: SmallRng,
    occupancy: Option<OccupancyState>,
    points_queried: u64,
    /// Completed training iterations — the step counter snapshots carry
    /// and checkpoint file names are keyed on.
    steps: u64,
    checkpoint: Option<CheckpointPolicy>,
    pool: Arc<ThreadPool>,
    arena: engine::BatchArena,
    /// The no-gradient render engine (pure scratch — never checkpointed).
    render: RenderEngine,
}

impl<M: TrainableField> Trainer<M> {
    /// Creates a trainer. `seed` drives batch selection and jitter. The
    /// batched engine uses the process-wide thread pool (sized by the
    /// `INERF_THREADS` environment variable, default all cores); see
    /// [`Trainer::with_threads`].
    pub fn new(model: M, config: TrainConfig, seed: u64) -> Self {
        debug_assert_eq!(
            model.precision(),
            config.precision,
            "model parameter store and TrainConfig::precision disagree — \
             build the model with IngpModel::for_config (or match the \
             config), or precision-keyed hardware models will not match \
             the training that actually runs"
        );
        Trainer {
            model,
            config,
            rng: SmallRng::seed_from_u64(seed),
            occupancy: None,
            points_queried: 0,
            steps: 0,
            checkpoint: None,
            pool: engine::default_pool(),
            arena: engine::BatchArena::default(),
            render: RenderEngine::default(),
        }
    }

    /// Replaces the shared thread pool with a dedicated one of exactly
    /// `threads` workers. Training results are identical at any thread
    /// count (fixed chunking, ordered reductions); only wall-clock changes.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.pool = engine::build_pool(threads);
        self
    }

    /// Worker threads used by the batched engine.
    pub fn threads(&self) -> usize {
        self.pool.current_num_threads()
    }

    /// Enables iNGP-style empty-space skipping: a `resolution`^3 occupancy
    /// grid refreshed from the model every `refresh_every` iterations;
    /// samples in cells whose density stays below `threshold` are skipped.
    pub fn with_occupancy_grid(
        mut self,
        resolution: u32,
        threshold: f32,
        refresh_every: usize,
    ) -> Self {
        self.occupancy = Some(OccupancyState {
            grid: OccupancyGrid::new(resolution),
            threshold,
            refresh_every: refresh_every.max(1),
            iteration: 0,
        });
        self
    }

    /// Enables periodic crash-safe checkpoints for
    /// [`Trainer::train_checkpointed`]: every `every_n` completed
    /// iterations a snapshot is written atomically under `dir`, keeping
    /// the newest `keep_last` (see `inerf_snapshot` for the protocol).
    pub fn checkpoint_every_n(
        mut self,
        dir: impl Into<std::path::PathBuf>,
        every_n: usize,
        keep_last: usize,
    ) -> Self {
        self.checkpoint = Some(CheckpointPolicy {
            dir: dir.into(),
            every_n: every_n.max(1),
            keep_last: keep_last.max(1),
        });
        self
    }

    /// The occupancy grid, if enabled.
    pub fn occupancy_grid(&self) -> Option<&OccupancyGrid> {
        self.occupancy.as_ref().map(|o| &o.grid)
    }

    /// Completed training iterations (survives snapshot/resume).
    pub fn global_step(&self) -> u64 {
        self.steps
    }

    /// Total model queries issued so far (the quantity empty-space skipping
    /// reduces).
    pub fn points_queried(&self) -> u64 {
        self.points_queried
    }

    /// Iterations that forced some pooled engine buffer to grow its
    /// capacity. After one warm-up iteration at the steady-state batch
    /// shape this stays flat — the allocation-counting hook the arena
    /// tests and the throughput bench assert on. (Per-task rayon spawn
    /// boxes and model-internal chunk scratch warm-up are outside the
    /// arena; the model scratch likewise reaches a fixed size after
    /// warm-up.)
    pub fn arena_growth_events(&self) -> u64 {
        self.arena.growth_events()
    }

    /// The wrapped model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// The training configuration.
    pub fn config(&self) -> &TrainConfig {
        &self.config
    }

    /// Consumes the trainer, returning the trained model with every
    /// parameter brought up to date (lazily deferred optimizer updates are
    /// flushed first).
    pub fn into_model(mut self) -> M {
        self.model.sync_parameters();
        self.model
    }

    /// Runs one training iteration on a random pixel batch; returns the
    /// batch loss.
    pub fn train_step(&mut self, dataset: &Dataset) -> f64 {
        self.train_step_with_sink(dataset, None)
    }

    /// [`Trainer::train_step`] with the trace-bus slot filled: the
    /// iteration's hash-table access stream is pushed into `sink` (cube
    /// events in gathered point order, then one `end_batch`) while the
    /// iteration executes — the hook online hardware co-simulation plugs
    /// into. Identical for both engines, which share the gathered batch.
    pub fn train_step_with_sink(
        &mut self,
        dataset: &Dataset,
        sink: Option<&mut (dyn TraceSink + '_)>,
    ) -> f64 {
        self.arena.begin_iteration();
        if let Some(occ) = &mut self.occupancy {
            if occ.iteration % occ.refresh_every == 0 {
                // The refresh probes model densities outside the training
                // read set — flush any lazily deferred parameter updates
                // first (no-op for dense-optimizer models).
                self.model.sync_parameters();
                occ.grid.refresh_with(
                    &self.model,
                    occ.threshold,
                    2,
                    &mut self.arena.refresh,
                    &self.pool,
                );
            }
            occ.iteration += 1;
        }
        let n_pixels = dataset.train_pixel_count();
        assert!(n_pixels > 0, "dataset has no training pixels");
        // Step (a): random pixel batch, into the arena's pooled buffers
        // (taken out for the iteration, which borrows the trainer).
        let mut rays = std::mem::take(&mut self.arena.pixel_rays);
        let mut targets = std::mem::take(&mut self.arena.pixel_targets);
        rays.clear();
        targets.clear();
        for _ in 0..self.config.rays_per_batch {
            let idx = self.rng.gen_range(0..n_pixels);
            let (vi, px, py, color) = dataset.train_pixel(idx);
            rays.push(dataset.train_views[vi].camera.ray_for_pixel(px, py));
            targets.push(color);
        }
        let loss = self.run_iteration(&rays, &targets, &dataset.bounds, sink);
        self.arena.pixel_rays = rays;
        self.arena.pixel_targets = targets;
        self.arena.end_iteration();
        loss
    }

    /// Runs one iteration on explicit rays/targets (used by tests).
    ///
    /// Both engines consume the same gathered sample batch: Step (b) is
    /// shared, so the scalar reference and the batched SoA engine see
    /// byte-identical sample points, and only Steps (c)–(f) differ in
    /// execution strategy.
    pub fn train_on_rays(&mut self, rays: &[Ray], targets: &[Vec3], bounds: &Aabb) -> f64 {
        self.train_on_rays_with_sink(rays, targets, bounds, None)
    }

    /// [`Trainer::train_on_rays`] with the trace-bus slot filled: before
    /// the engine executes, the model streams the gathered batch's
    /// hash-table access events into `sink` (cubes per point, `end_point`
    /// per point), then the iteration is closed with one `end_batch`. The
    /// stream depends only on the gathered points, so Scalar and Batched
    /// engines emit byte-identical event sequences for the same seed.
    pub fn train_on_rays_with_sink(
        &mut self,
        rays: &[Ray],
        targets: &[Vec3],
        bounds: &Aabb,
        sink: Option<&mut (dyn TraceSink + '_)>,
    ) -> f64 {
        self.arena.begin_iteration();
        let loss = self.run_iteration(rays, targets, bounds, sink);
        self.arena.end_iteration();
        loss
    }

    /// One iteration's Steps (b)–(f) plus the optimizer step; the callers
    /// bracket it with the arena's growth accounting.
    fn run_iteration(
        &mut self,
        rays: &[Ray],
        targets: &[Vec3],
        bounds: &Aabb,
        sink: Option<&mut (dyn TraceSink + '_)>,
    ) -> f64 {
        self.steps += 1;
        self.model.begin_batch();
        self.gather_batch(rays, targets, bounds);
        if self.arena.batch.spans.is_empty() {
            if let Some(sink) = sink {
                sink.end_batch(); // an empty iteration still closes a batch
            }
            return 0.0;
        }
        self.points_queried += self.arena.batch.points.len() as u64;
        if let Some(sink) = sink {
            self.model.stream_lookups(&self.arena.batch.points, sink);
            sink.end_batch();
        }
        let loss = match self.config.engine {
            Engine::Scalar => self.step_scalar(),
            Engine::Batched => self.step_batched(),
        };
        self.model.apply_gradients();
        loss
    }

    /// Step (b): samples every ray's points into the arena's
    /// structure-of-arrays batch. Consumes the rng identically regardless
    /// of engine.
    fn gather_batch(&mut self, rays: &[Ray], targets: &[Vec3], bounds: &Aabb) {
        let s = self.config.samples_per_ray;
        let Trainer {
            rng,
            occupancy,
            arena,
            ..
        } = self;
        arena.clear_gather();
        let grid = occupancy.as_ref().map(|occ| &occ.grid);
        for (ray, &target) in rays.iter().zip(targets) {
            let jitter = Some(|| rng.gen_range(-0.5..0.5));
            if arena.batch.march(ray, bounds, s, grid, jitter) {
                arena.targets.push(target);
            }
        }
    }

    /// Steps (c)–(f), per-point reference implementation: one model
    /// `query`/`backward` call per sample, one composite per ray. Keeps
    /// its own local buffers (only the gathered batch comes from the
    /// arena): this path is the untouched equivalence anchor for the
    /// batched engine, not a throughput target.
    fn step_scalar(&mut self) -> f64 {
        let n = self.arena.batch.points.len();
        // Step (c): query the model point by point, in streaming order.
        let mut samples = Vec::with_capacity(n);
        for (&p, &d) in self.arena.batch.points.iter().zip(&self.arena.batch.dirs) {
            let (sigma, rgb) = self.model.query(p, d);
            samples.push(SamplePoint { sigma, color: rgb });
        }
        // Step (d): volume rendering.
        let outputs: Vec<_> = self
            .arena
            .batch
            .spans
            .iter()
            .map(|span| composite_uniform(&samples[span.start..span.start + span.len], span.dt))
            .collect();
        // Step (e): loss.
        let predictions: Vec<Vec3> = outputs.iter().map(|o| o.color).collect();
        let loss = l2_loss(&predictions, &self.arena.targets);
        // Step (f): backward through rendering, MLPs and the hash table.
        for ((span, out), d_pred) in self
            .arena
            .batch
            .spans
            .iter()
            .zip(&outputs)
            .zip(&loss.d_predictions)
        {
            let ray_samples = &samples[span.start..span.start + span.len];
            let grads = composite_backward_uniform(ray_samples, span.dt, out, *d_pred);
            for i in 0..span.len {
                self.model
                    .backward(span.start + i, grads.d_sigma[i], grads.d_color[i]);
            }
        }
        loss.value
    }

    /// Steps (c)–(f), batched SoA engine: every stage runs over flat
    /// buffers, parallelized over fixed-size chunks on the thread pool.
    /// Chunk boundaries and reduction orders are thread-count-independent,
    /// so a fixed seed gives a bitwise-identical trajectory at any pool
    /// size.
    ///
    /// A per-point model (its density phase returns `false`: the Tab. IV
    /// baselines) takes [`Trainer::step_scalar`] instead — this engine over
    /// per-point `query`/`backward` loops would be that one bit for bit
    /// (`composite_spans` ≡ `composite_uniform` per ray, `l2_loss_into` ≡
    /// `l2_loss`).
    fn step_batched(&mut self) -> f64 {
        let n = self.arena.batch.points.len();
        // Stage buffers come from the arena: `resize` reuses capacity, and
        // every stage fully overwrites its buffer, so stale prefixes from a
        // previous iteration are never read.
        self.arena.sigmas.resize(n, 0.0);
        // Step (c): batched model query (encode → MLPs), chunk-parallel
        // inside the model. The density phase runs first, so compaction can
        // drop samples past each ray's termination point (where
        // transmittance is exactly 0.0) before the color pipeline runs;
        // `scan_live_samples` proves the drop is bitwise-free (see
        // DESIGN.md).
        if !self.model.query_batch_density(
            &self.arena.batch.points,
            &mut self.arena.sigmas,
            &self.pool,
        ) {
            return self.step_scalar();
        }
        let Trainer {
            model, arena, pool, ..
        } = self;
        let m = arena.batch.spans.len();
        arena.rgbs.resize(n, Vec3::ZERO);
        arena.ray_colors.resize(m, Vec3::ZERO);
        arena.backgrounds.resize(m, 0.0);
        arena.weights.resize(n, 0.0);
        arena.trans_after.resize(n, 0.0);
        arena.d_sigmas.resize(n, 0.0);
        arena.d_colors.resize(n, Vec3::ZERO);
        engine::scan_live_samples(&arena.sigmas, &arena.batch.spans, &mut arena.live);
        model.query_batch_color_compacted(&arena.batch.dirs, &arena.live, &mut arena.rgbs, pool);
        // Step (d): volume rendering, parallel over fixed ray chunks. The
        // per-chunk output slices are carved off the arena buffers in chunk
        // order (no per-iteration slice vectors).
        {
            let sigmas = &arena.sigmas[..];
            let rgbs = &arena.rgbs[..];
            let mut rc = &mut arena.ray_colors[..];
            let mut bg = &mut arena.backgrounds[..];
            let mut wc = &mut arena.weights[..];
            let mut tc = &mut arena.trans_after[..];
            pool.scope(|s| {
                for spans in arena.batch.spans.chunks(engine::RAY_CHUNK) {
                    let samples: usize = spans.iter().map(|sp| sp.len).sum();
                    let (rc_head, rc_rest) = std::mem::take(&mut rc).split_at_mut(spans.len());
                    rc = rc_rest;
                    let (bg_head, bg_rest) = std::mem::take(&mut bg).split_at_mut(spans.len());
                    bg = bg_rest;
                    let (wc_head, wc_rest) = std::mem::take(&mut wc).split_at_mut(samples);
                    wc = wc_rest;
                    let (tc_head, tc_rest) = std::mem::take(&mut tc).split_at_mut(samples);
                    tc = tc_rest;
                    s.spawn(move |_| {
                        let batch = RayBatch {
                            sigmas,
                            colors: rgbs,
                            spans,
                            dts: None,
                            sample_base: spans[0].start,
                        };
                        composite_spans(&batch, rc_head, bg_head, wc_head, tc_head);
                    });
                }
            });
        }
        // Step (e): loss, into the pooled gradient buffer.
        let loss = l2_loss_into(&arena.ray_colors, &arena.targets, &mut arena.d_predictions);
        // Step (f): backward — composite backward in parallel over the same
        // chunks, then the model's chunked backward with ordered reduction.
        {
            let sigmas = &arena.sigmas[..];
            let rgbs = &arena.rgbs[..];
            let weights = &arena.weights[..];
            let trans_after = &arena.trans_after[..];
            let mut ds = &mut arena.d_sigmas[..];
            let mut dc = &mut arena.d_colors[..];
            pool.scope(|s| {
                for (spans, dp) in arena
                    .batch
                    .spans
                    .chunks(engine::RAY_CHUNK)
                    .zip(arena.d_predictions.chunks(engine::RAY_CHUNK))
                {
                    let samples: usize = spans.iter().map(|sp| sp.len).sum();
                    let (ds_head, ds_rest) = std::mem::take(&mut ds).split_at_mut(samples);
                    ds = ds_rest;
                    let (dc_head, dc_rest) = std::mem::take(&mut dc).split_at_mut(samples);
                    dc = dc_rest;
                    s.spawn(move |_| {
                        let base = spans[0].start;
                        let count = ds_head.len();
                        let batch = RayBatch {
                            sigmas,
                            colors: rgbs,
                            spans,
                            dts: None,
                            sample_base: base,
                        };
                        composite_backward_spans(
                            &batch,
                            &weights[base..base + count],
                            &trans_after[base..base + count],
                            dp,
                            ds_head,
                            dc_head,
                        );
                    });
                }
            });
        }
        model.backward_batch_compacted(&arena.d_sigmas, &arena.d_colors, pool);
        loss
    }

    /// Trains for `iterations` steps, returning the loss trajectory.
    pub fn train(&mut self, dataset: &Dataset, iterations: usize) -> TrainReport {
        self.train_loop(dataset, iterations, None)
    }

    /// [`Trainer::train`] with the trace-bus slot filled: every iteration
    /// streams its access events into `sink` and closes with `end_batch`,
    /// so a hardware co-simulation (e.g. `inerf_accel`'s `CosimSink`) runs
    /// online over the whole training run at constant memory.
    pub fn train_with_sink(
        &mut self,
        dataset: &Dataset,
        iterations: usize,
        sink: &mut dyn TraceSink,
    ) -> TrainReport {
        self.train_loop(dataset, iterations, Some(sink))
    }

    fn train_loop(
        &mut self,
        dataset: &Dataset,
        iterations: usize,
        mut sink: Option<&mut dyn TraceSink>,
    ) -> TrainReport {
        let mut losses = Vec::with_capacity(iterations);
        for _ in 0..iterations {
            losses.push(self.train_step_with_sink(dataset, sink.as_deref_mut()));
        }
        TrainReport {
            iterations,
            first_loss: losses.first().copied().unwrap_or(0.0),
            last_loss: losses.last().copied().unwrap_or(0.0),
            losses,
        }
    }

    /// Renders an image from the trained model (no gradient tracking)
    /// through the inference fast path — occupancy culling against this
    /// trainer's own grid (when enabled) plus early ray termination
    /// ([`RenderOpts::default`]); use [`Trainer::render_view_opts`] with
    /// [`RenderOpts::reference`] for the pinned bitwise-exact semantics.
    /// Flushes lazily deferred optimizer updates first, so the render sees
    /// exactly the parameters a dense-optimizer run would hold.
    pub fn render_view(&mut self, camera: &Camera, bounds: &Aabb) -> Image {
        self.render_view_opts(camera, bounds, &RenderOpts::default())
    }

    /// [`Trainer::render_view`] with explicit fast-path switches.
    pub fn render_view_opts(&mut self, camera: &Camera, bounds: &Aabb, opts: &RenderOpts) -> Image {
        self.model.sync_parameters();
        self.render.render_view(
            &self.model,
            camera,
            bounds,
            self.config.eval_samples_per_ray,
            self.occupancy.as_ref().map(|o| &o.grid),
            opts,
            &self.pool,
        )
    }

    /// Mean PSNR over the dataset's held-out test views, rendered through
    /// the inference fast path (see [`Trainer::render_view`]). Flushes
    /// lazily deferred optimizer updates first.
    pub fn eval_psnr(&mut self, dataset: &Dataset) -> f64 {
        self.eval_psnr_opts(dataset, &RenderOpts::default())
    }

    /// [`Trainer::eval_psnr`] with explicit fast-path switches.
    pub fn eval_psnr_opts(&mut self, dataset: &Dataset, opts: &RenderOpts) -> f64 {
        self.model.sync_parameters();
        self.render.eval_psnr(
            &self.model,
            dataset,
            self.config.eval_samples_per_ray,
            self.occupancy.as_ref().map(|o| &o.grid),
            opts,
            &self.pool,
        )
    }

    /// Work and stage-time accounting of the most recent render (or of
    /// the last view of the most recent [`Trainer::eval_psnr`]).
    pub fn render_stats(&self) -> &crate::render::RenderStats {
        self.render.last_stats()
    }

    /// Render blocks (since construction) that grew some pooled render
    /// buffer's capacity — the render-side analogue of
    /// [`Trainer::arena_growth_events`].
    pub fn render_growth_events(&self) -> u64 {
        self.render.growth_events()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{IngpModel, ModelConfig};
    use inerf_scenes::{zoo, DatasetConfig};

    fn tiny_setup() -> (Dataset, Trainer<IngpModel>) {
        let scene = zoo::scene(zoo::SceneKind::Mic);
        let dataset = DatasetConfig::tiny().generate(&scene);
        let model = IngpModel::new(ModelConfig::tiny(), 11);
        (dataset, Trainer::new(model, TrainConfig::tiny(), 4))
    }

    #[test]
    fn paper_config_points_per_iteration() {
        assert_eq!(TrainConfig::paper().points_per_iteration(), 256 * 1024);
    }

    #[test]
    fn training_reduces_loss() {
        let (dataset, mut trainer) = tiny_setup();
        let report = trainer.train(&dataset, 40);
        assert_eq!(report.iterations, 40);
        // Average the first and last few losses to smooth batch noise.
        let early: f64 = report.losses[..5].iter().sum::<f64>() / 5.0;
        let late: f64 = report.losses[35..].iter().sum::<f64>() / 5.0;
        assert!(
            late < early * 0.8,
            "training loss should drop: early {early:.5} vs late {late:.5}"
        );
    }

    #[test]
    fn training_improves_psnr_over_untrained() {
        let scene = zoo::scene(zoo::SceneKind::Hotdog);
        let dataset = DatasetConfig::tiny().generate(&scene);
        let model = IngpModel::new(ModelConfig::tiny(), 11);
        let mut trainer = Trainer::new(model, TrainConfig::tiny(), 4);
        let before = trainer.eval_psnr(&dataset);
        trainer.train(&dataset, 60);
        let after = trainer.eval_psnr(&dataset);
        assert!(
            after > before + 1.0,
            "PSNR should improve by >1 dB: {before:.2} -> {after:.2}"
        );
    }

    #[test]
    fn render_view_dimensions_and_range() {
        let (dataset, mut trainer) = tiny_setup();
        let cam = &dataset.test_views[0].camera;
        let img = trainer.render_view(cam, &dataset.bounds);
        assert_eq!(img.width(), cam.width);
        assert_eq!(img.height(), cam.height);
        for p in img.pixels() {
            assert!(p.is_finite());
            assert!(p.x >= 0.0 && p.x <= 1.0 + 1e-5);
        }
    }

    #[test]
    fn rays_missing_bounds_yield_zero_loss() {
        let (_, mut trainer) = tiny_setup();
        let rays = vec![Ray::new(
            Vec3::new(0.0, 10.0, 0.0),
            Vec3::new(0.0, 1.0, 0.0),
        )];
        let loss = trainer.train_on_rays(
            &rays,
            &[Vec3::ZERO],
            &Aabb::new(Vec3::splat(-1.0), Vec3::splat(1.0)),
        );
        assert_eq!(loss, 0.0);
    }

    #[test]
    fn gather_goes_through_the_marcher_with_the_hand_rolled_loops_bits() {
        use crate::occupancy::gather_by_hand;
        let (dataset, trainer) = tiny_setup();
        let mut gridded = trainer.clone().with_occupancy_grid(16, 0.3, 10);
        gridded.train(&dataset, 31); // refreshed from a trained model: a mixed grid
        let camera = &dataset.train_views[0].camera;
        let rays: Vec<Ray> = (0..camera.pixel_count())
            .step_by(3)
            .map(|i| camera.ray_for_index(i))
            .collect();
        let targets: Vec<Vec3> = (0..rays.len()).map(|i| Vec3::splat(i as f32)).collect();
        let s = trainer.config.samples_per_ray;
        for mut trainer in [trainer, gridded] {
            let grid = trainer.occupancy_grid().cloned();
            let mut rng = trainer.rng.clone();
            let jitter = Some(|| rng.gen_range(-0.5..0.5));
            let by_hand = gather_by_hand(&rays, &dataset.bounds, s, grid.as_ref(), jitter);
            trainer.gather_batch(&rays, &targets, &dataset.bounds);
            let arena = &trainer.arena;
            assert!(!by_hand.points.is_empty());
            assert_eq!(arena.batch.points, by_hand.points);
            assert_eq!(arena.batch.dirs, by_hand.dirs);
            assert_eq!(arena.batch.spans, by_hand.spans);
            let kept: Vec<Vec3> = by_hand.kept_rays.iter().map(|&r| targets[r]).collect();
            assert_eq!(arena.targets, kept);
            let dense = by_hand.rays_hit as usize * s;
            assert_eq!(grid.is_some(), by_hand.points.len() < dense, "culled");
            // All `s` jitter values per hit ray, whatever the grid dropped.
            assert_eq!(trainer.rng.state(), rng.state());
        }
    }

    #[test]
    fn train_report_records_trajectory() {
        let (dataset, mut trainer) = tiny_setup();
        let report = trainer.train(&dataset, 5);
        assert_eq!(report.losses.len(), 5);
        assert_eq!(report.first_loss, report.losses[0]);
        assert_eq!(report.last_loss, report.losses[4]);
    }
}

#[cfg(test)]
mod compaction_tests {
    use super::*;

    /// A deterministic analytic field dense enough that rays terminate
    /// (transmittance reaches exactly 0.0) partway through their samples.
    /// It implements both the per-point and the phased entry points and
    /// records the gradients the engine feeds back, so the test
    /// below can prove occupancy-driven compaction is a bitwise no-op while
    /// actually skipping color work.
    #[derive(Debug, Clone, Default)]
    struct PhasedProbe {
        phased: bool,
        points: Vec<Vec3>,
        color_evals: u64,
        d_sigmas_seen: Vec<f32>,
        d_colors_seen: Vec<Vec3>,
    }

    fn probe_sigma(p: Vec3) -> f32 {
        60.0 + 25.0 * (4.0 * p.x).sin().abs() + 40.0 * p.y.abs()
    }

    fn probe_rgb(p: Vec3, d: Vec3) -> Vec3 {
        Vec3::new(
            0.5 + 0.5 * (3.0 * p.x + d.y).sin(),
            0.5 + 0.5 * (2.0 * p.y - d.z).cos(),
            0.5 + 0.5 * (4.0 * p.z + d.x).sin(),
        )
    }

    impl TrainableField for PhasedProbe {
        fn begin_batch(&mut self) {
            self.points.clear();
            self.d_sigmas_seen.clear();
            self.d_colors_seen.clear();
        }

        fn query(&mut self, p: Vec3, d: Vec3) -> (f32, Vec3) {
            self.color_evals += 1;
            (probe_sigma(p), probe_rgb(p, d))
        }

        fn backward(&mut self, idx: usize, d_sigma: f32, d_color: Vec3) {
            if self.d_sigmas_seen.len() <= idx {
                self.d_sigmas_seen.resize(idx + 1, 0.0);
                self.d_colors_seen.resize(idx + 1, Vec3::ZERO);
            }
            self.d_sigmas_seen[idx] = d_sigma;
            self.d_colors_seen[idx] = d_color;
        }

        fn apply_gradients(&mut self) {}

        fn query_eval(&self, p: Vec3, d: Vec3) -> (f32, Vec3) {
            (probe_sigma(p), probe_rgb(p, d))
        }

        fn parameter_count(&self) -> usize {
            0
        }

        fn query_batch_density(
            &mut self,
            points: &[Vec3],
            sigmas: &mut [f32],
            _pool: &ThreadPool,
        ) -> bool {
            self.points = points.to_vec();
            for (s, &p) in sigmas.iter_mut().zip(points) {
                *s = probe_sigma(p);
            }
            self.phased
        }

        fn query_batch_color_compacted(
            &mut self,
            dirs: &[Vec3],
            live: &[u32],
            rgbs: &mut [Vec3],
            _pool: &ThreadPool,
        ) {
            rgbs.fill(Vec3::ZERO);
            for &i in live {
                let i = i as usize;
                self.color_evals += 1;
                rgbs[i] = probe_rgb(self.points[i], dirs[i]);
            }
        }

        fn backward_batch_compacted(
            &mut self,
            d_sigmas: &[f32],
            d_colors: &[Vec3],
            _pool: &ThreadPool,
        ) {
            for (i, (&ds, &dc)) in d_sigmas.iter().zip(d_colors).enumerate() {
                self.backward(i, ds, dc);
            }
        }
    }

    #[test]
    fn compaction_is_bitwise_free_and_skips_dead_color_work() {
        // Rays through a wall of density ≥ 60 with dt ≈ 0.2: transmittance
        // underflows to exactly 0.0 a handful of samples in, so roughly
        // half of every ray is dead. The compacted run must reproduce the
        // dense run bit for bit while evaluating strictly fewer colors.
        let bounds = Aabb::new(Vec3::splat(-1.0), Vec3::splat(1.0));
        let mut rays = Vec::new();
        let mut targets = Vec::new();
        for i in 0..24 {
            let f = i as f32 / 24.0;
            let origin = Vec3::new(
                2.5 * (6.3 * f).cos(),
                0.4 * (12.0 * f).sin(),
                2.5 * (6.3 * f).sin(),
            );
            let aim = Vec3::new(0.3 * (9.0 * f).sin(), 0.2 * (7.0 * f).cos(), 0.0);
            rays.push(Ray::new(origin, (aim - origin).normalized()));
            targets.push(Vec3::new(f, 1.0 - f, 0.5));
        }
        let run = |phased: bool| {
            let probe = PhasedProbe {
                phased,
                ..PhasedProbe::default()
            };
            let mut trainer = Trainer::new(probe, TrainConfig::tiny(), 7).with_threads(2);
            let loss = trainer.train_on_rays(&rays, &targets, &bounds);
            let queried = trainer.points_queried();
            (loss, queried, trainer.into_model())
        };
        let (dense_loss, dense_queried, dense) = run(false);
        let (compact_loss, compact_queried, compact) = run(true);
        assert_eq!(
            dense_loss.to_bits(),
            compact_loss.to_bits(),
            "loss must be bitwise identical: {dense_loss} vs {compact_loss}"
        );
        assert_eq!(dense_queried, compact_queried);
        assert_eq!(dense.d_sigmas_seen.len(), compact.d_sigmas_seen.len());
        for (i, (a, b)) in dense
            .d_sigmas_seen
            .iter()
            .zip(&compact.d_sigmas_seen)
            .enumerate()
        {
            assert_eq!(a.to_bits(), b.to_bits(), "d_sigma[{i}]: {a} vs {b}");
        }
        for (i, (a, b)) in dense
            .d_colors_seen
            .iter()
            .zip(&compact.d_colors_seen)
            .enumerate()
        {
            assert_eq!(
                [a.x.to_bits(), a.y.to_bits(), a.z.to_bits()],
                [b.x.to_bits(), b.y.to_bits(), b.z.to_bits()],
                "d_color[{i}]: {a:?} vs {b:?}"
            );
        }
        assert!(
            compact.color_evals < dense.color_evals,
            "compaction must skip dead color evaluations: compact {} vs dense {}",
            compact.color_evals,
            dense.color_evals
        );
        assert!(compact.color_evals > 0, "live samples still need colors");
    }
}

#[cfg(test)]
mod occupancy_tests {
    use super::*;
    use crate::model::{IngpModel, ModelConfig};
    use inerf_scenes::{zoo, DatasetConfig};

    #[test]
    fn occupancy_grid_cuts_queries_without_hurting_quality() {
        let scene = zoo::scene(zoo::SceneKind::Mic); // sparse scene: big skips
        let dataset = DatasetConfig::tiny().generate(&scene);
        let iterations = 50;

        let mut dense = Trainer::new(
            IngpModel::new(ModelConfig::tiny(), 5),
            TrainConfig::tiny(),
            9,
        );
        dense.train(&dataset, iterations);
        let dense_queries = dense.points_queried();
        let dense_psnr = dense.eval_psnr(&dataset);

        // Warm up briefly so the grid refresh sees real densities, matching
        // iNGP's schedule of enabling skipping after early iterations.
        let mut skipping = Trainer::new(
            IngpModel::new(ModelConfig::tiny(), 5),
            TrainConfig::tiny(),
            9,
        );
        skipping.train(&dataset, 20);
        let mut skipping = {
            // Rebuild with the grid enabled, keeping the warmed model.
            let model = skipping.into_model();
            Trainer::new(model, TrainConfig::tiny(), 9).with_occupancy_grid(16, 0.05, 10)
        };
        skipping.train(&dataset, iterations - 20);
        let skip_queries = skipping.points_queried();
        let skip_psnr = skipping.eval_psnr(&dataset);

        assert!(
            (skip_queries as f64) < 0.9 * dense_queries as f64,
            "skipping should cut queries: {skip_queries} vs {dense_queries}"
        );
        assert!(
            skip_psnr > dense_psnr - 3.0,
            "quality must not collapse: {skip_psnr:.2} vs {dense_psnr:.2} dB"
        );
    }

    #[test]
    fn occupancy_grid_accessor() {
        let t = Trainer::new(
            IngpModel::new(ModelConfig::tiny(), 1),
            TrainConfig::tiny(),
            1,
        );
        assert!(t.occupancy_grid().is_none());
        let t = t.with_occupancy_grid(8, 0.1, 5);
        assert!(t.occupancy_grid().is_some());
    }
}
