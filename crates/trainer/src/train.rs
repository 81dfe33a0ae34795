//! The training loop: batches, loss, backprop; evaluation through the
//! render engine.

pub mod checkpoint;

use crate::engine::{self, chunk_samples, run_tasks, POINT_CHUNK, RAY_CHUNK};
use crate::model::{OptPath, TrainableField};
use crate::occupancy::OccupancyGrid;
use crate::render::{RenderEngine, RenderOpts};
use inerf_encoding::TraceSink;
use inerf_geom::{Aabb, Camera, Ray, Vec3};
use inerf_mlp::Precision;
use inerf_render::volume::{
    composite_backward_spans, composite_backward_uniform, composite_spans, composite_uniform,
    RayBatch, RaySpan, SamplePoint,
};
use inerf_render::{l2_loss, l2_loss_value, l2_ray_gradient};
use inerf_scenes::{Dataset, Image};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rayon::ThreadPool;
use std::ops::Range;
use std::sync::Arc;

/// Training hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Rays (pixels) per iteration batch — Step (a) of the pipeline.
    pub rays_per_batch: usize,
    /// Stratified samples per ray — Step (b).
    pub samples_per_ray: usize,
    /// Samples per ray used when rendering evaluation images.
    pub eval_samples_per_ray: usize,
    /// Parameter-storage precision of the model this run trains (hash
    /// table and MLP weights). Selects the [`ParamStore`] backend when a
    /// model is built for this config (see
    /// [`crate::model::IngpModel::for_config`]) and the entry width the
    /// hardware models assume; the chunk phases and the per-point surface
    /// read the same store, so the choice applies to both alike.
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
            precision: Precision::F32,
            opt: OptPath::Sparse,
        }
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
#[derive(Debug, Clone, PartialEq)]
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

/// Drives a [`TrainableField`] through the six-step NeRF training pipeline.
///
/// Every per-iteration structure-of-arrays buffer (the gathered batch and
/// all chunk-step stage buffers) lives in a pooled batch arena
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
    pool: Arc<ThreadPool>,
    arena: engine::BatchArena,
    /// The no-gradient render engine (pure scratch — never checkpointed).
    render: RenderEngine,
}

impl<M: TrainableField> Trainer<M> {
    /// Creates a trainer. `seed` drives batch selection and jitter. The
    /// chunk phases run on the process-wide thread pool (sized by the
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

    /// Worker threads the chunk phases run on.
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
    /// boxes and the model's ring of chunk records are outside the arena;
    /// the ring holds at most one wave plus `2⌈(L − 1) / 256⌉` records for
    /// a longest span of `L`, and a repeated batch shape grows neither its
    /// length nor its buffers — pinned by a model test.)
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
    /// into. The stream depends only on the gathered batch, so a model
    /// trained per point emits the same events as its chunk phases.
    fn train_step_with_sink(
        &mut self,
        dataset: &Dataset,
        sink: Option<&mut (dyn TraceSink + '_)>,
    ) -> f64 {
        self.arena.begin_iteration();
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

    /// Runs one iteration on explicit rays/targets (used by tests),
    /// refreshing an enabled occupancy grid on its schedule exactly as
    /// [`Trainer::train_step`] does.
    pub fn train_on_rays(&mut self, rays: &[Ray], targets: &[Vec3], bounds: &Aabb) -> f64 {
        self.train_on_rays_with_sink(rays, targets, bounds, None)
    }

    /// [`Trainer::train_on_rays`] with the trace-bus slot filled: before
    /// the engine executes, the model streams the gathered batch's
    /// hash-table access events into `sink` (cubes per point, `end_point`
    /// per point), then the iteration is closed with one `end_batch`. The
    /// stream depends only on the gathered points, so the chunk phases
    /// and the per-point surface emit byte-identical event sequences for
    /// the same seed.
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

    /// One iteration: the occupancy refresh when it is due, Steps (b)–(f)
    /// and the optimizer step; the callers bracket it with the arena's
    /// growth accounting. The refresh draws no random numbers, so where it
    /// runs relative to Step (a) moves no bit.
    fn run_iteration(
        &mut self,
        rays: &[Ray],
        targets: &[Vec3],
        bounds: &Aabb,
        sink: Option<&mut (dyn TraceSink + '_)>,
    ) -> f64 {
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
        let loss = self.step();
        self.model.apply_gradients();
        loss
    }

    /// Step (b): samples every ray's points into the arena's
    /// structure-of-arrays batch. Consumes the rng identically whatever
    /// the model.
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

    /// Steps (c)–(f) of a per-point model: one model `query`/`backward`
    /// call per sample, one composite per ray. Keeps its own local buffers
    /// (only the gathered batch comes from the arena): this path trains
    /// the Tab. IV baselines and is the equivalence anchor of the chunk
    /// phases ([`crate::model::PerPoint`]), not a throughput target.
    fn step_per_point(&mut self) -> f64 {
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

    /// Steps (c)–(f), the one training step, chunk-streamed: each fixed
    /// [`POINT_CHUNK`]-sample chunk goes density → color → composite and
    /// composite backward of its rays → MLP backward and scatter as soon as
    /// the rays through it allow, while its training record is still in
    /// cache, in a small ring of records ([`engine::ring_size`]); on a
    /// multi-thread pool, waves of chunks run in parallel. Every per-chunk
    /// and per-ray computation is the whole-batch stage order's, and every
    /// cross-chunk reduction (touched-set collection, scatter, MLP gradient
    /// fold, loss value) still runs serially in chunk or ray order, so the
    /// bits are too — at any pool size.
    ///
    /// A per-point model (no [`TrainableField::chunked`]: the Tab. IV
    /// baselines and [`crate::model::PerPoint`]) takes
    /// [`Trainer::step_per_point`] instead — this step over per-point
    /// `query`/`backward` loops would be that one bit for bit
    /// (`composite_spans` ≡ `composite_uniform` per ray, `l2_ray_gradient`
    /// and `l2_loss_value` ≡ `l2_loss`). The model's surface is the only
    /// step selector.
    fn step(&mut self) -> f64 {
        let n = self.arena.batch.points.len();
        let wave = engine::wave_chunks(self.pool.current_num_threads());
        let ring = engine::ring_size(&self.arena.batch.spans, n, wave);
        let Trainer {
            model, arena, pool, ..
        } = self;
        let Some(model) = model.chunked() else {
            return self.step_per_point();
        };
        model.begin_chunks(n, ring);
        let m = arena.batch.spans.len();
        // Stage buffers come from the arena: `resize` reuses capacity, and
        // every stage fully overwrites its part of a buffer before reading
        // it, so stale values from a previous iteration are never read.
        arena.sigmas.resize(n, 0.0);
        arena.rgbs.resize(n, Vec3::ZERO);
        arena.ray_colors.resize(m, Vec3::ZERO);
        arena.weights.resize(n, 0.0);
        arena.trans_after.resize(n, 0.0);
        arena.d_sigmas.resize(n, 0.0);
        arena.d_colors.resize(n, Vec3::ZERO);
        arena.live.clear();
        let chunks = n.div_ceil(POINT_CHUNK);
        // Chunks whose samples all belong to the first `r` rays.
        let chunks_within =
            |s: &[RaySpan], r: usize| s.get(r).map_or(chunks, |ray| ray.start / POINT_CHUNK);
        // Rays from `first` on whose samples all lie in the first `chunks`.
        let rays_within = |spans: &[RaySpan], first: usize, chunks: usize| {
            let end = chunk_samples(0..chunks, n).end;
            first + spans[first..].partition_point(|s| s.start + s.len <= end)
        };
        // Frontiers: chunks with densities, rays scanned, chunks with
        // colors, rays rendered (composited and back-propagated), chunks
        // back-propagated; and live samples handed to the color phase.
        let (mut dense, mut scanned, mut colored, mut rendered, mut freed) = (0, 0, 0, 0, 0);
        let mut live_colored = 0;
        while freed < chunks {
            // Step (c): the next density wave, then the colors of every
            // chunk whose rays are all scanned: compaction drops samples
            // past a ray's termination point (transmittance exactly 0.0),
            // bitwise-free (`scan_live_samples`, DESIGN.md).
            let next = (dense + wave).min(chunks);
            model.density_chunks(&arena.batch.points, dense..next, &mut arena.sigmas, pool);
            dense = next;
            let first = scanned;
            scanned = rays_within(&arena.batch.spans, first, dense);
            let spans = &arena.batch.spans[first..scanned];
            engine::scan_live_samples(&arena.sigmas, spans, &mut arena.live);
            let next = chunks_within(&arena.batch.spans, scanned);
            if next > colored {
                let end = chunk_samples(0..next, n).end;
                let live = &arena.live[live_colored..];
                let live = &live[..live.partition_point(|&i| (i as usize) < end)];
                let dirs = &arena.batch.dirs;
                model.color_chunks(dirs, colored..next, live, &mut arena.rgbs, pool);
                (colored, live_colored) = (next, live_colored + live.len());
            }
            // Steps (d)–(e) and the composite backward of every ray whose
            // colors are all in.
            let first = rendered;
            rendered = rays_within(&arena.batch.spans, first, colored);
            render_rays(arena, first..rendered, pool);
            // Step (f): back-propagate every chunk whose rays are rendered.
            let next = chunks_within(&arena.batch.spans, rendered);
            if next > freed {
                model.backward_chunks(freed..next, &arena.d_sigmas, &arena.d_colors, pool);
                freed = next;
            }
        }
        l2_loss_value(&arena.ray_colors, &arena.targets)
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

/// Composites `rays` (whole rays, in order), forms each one's L2 loss
/// gradient and back-propagates it through the composite, parallel over
/// fixed [`RAY_CHUNK`]-ray groups; each group runs forward →
/// gradient → backward while its samples are hot. Every ray's results are
/// bitwise the same under any grouping.
fn render_rays(arena: &mut engine::BatchArena, rays: Range<usize>, pool: &ThreadPool) {
    let m = arena.batch.spans.len();
    let spans = &arena.batch.spans[rays.clone()];
    let (Some(first), Some(last)) = (spans.first(), spans.last()) else {
        return;
    };
    let samples = first.start..last.start + last.len;
    let (sigmas, colors) = (&arena.sigmas[..], &arena.rgbs[..]);
    let mut targets = &arena.targets[rays.clone()];
    let mut ray_colors = &mut arena.ray_colors[rays];
    let mut weights = &mut arena.weights[samples.clone()];
    let mut trans_after = &mut arena.trans_after[samples.clone()];
    let mut d_sigmas = &mut arena.d_sigmas[samples.clone()];
    let mut d_colors = &mut arena.d_colors[samples];
    let groups = spans.chunks(RAY_CHUNK).map(|spans| {
        let (r, k) = (spans.len(), spans.iter().map(|s| s.len).sum());
        let (group_targets, rest) = targets.split_at(r);
        targets = rest;
        let rays = (spans, group_targets, take(&mut ray_colors, r));
        let samples = [&mut weights, &mut trans_after, &mut d_sigmas].map(|b| take(b, k));
        (rays, samples, take(&mut d_colors, k))
    });
    run_tasks(pool, groups, |(rays, samples, d_colors)| {
        let ((spans, targets, ray_colors), [weights, trans_after, d_sigmas]) = (rays, samples);
        let (r, sample_base) = (spans.len(), spans[0].start);
        let batch = RayBatch {
            sigmas,
            colors,
            spans,
            dts: None,
            sample_base,
        };
        let (mut backgrounds, mut d_preds) = ([0.0; RAY_CHUNK], [Vec3::ZERO; RAY_CHUNK]);
        let (bgs, d_preds) = (&mut backgrounds[..r], &mut d_preds[..r]);
        composite_spans(&batch, ray_colors, bgs, weights, trans_after);
        for ((d, &c), &t) in d_preds.iter_mut().zip(&*ray_colors).zip(targets) {
            *d = l2_ray_gradient(c, t, m);
        }
        composite_backward_spans(&batch, weights, trans_after, d_preds, d_sigmas, d_colors);
    });
}

/// Splits the first `k` elements off `rest`.
fn take<'a, T>(rest: &mut &'a mut [T], k: usize) -> &'a mut [T] {
    let (head, tail) = std::mem::take(rest).split_at_mut(k);
    *rest = tail;
    head
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
    use crate::model::{ChunkedField, EvalScratch};

    /// A deterministic analytic field dense enough that rays terminate
    /// (transmittance reaches exactly 0.0) partway through their samples.
    /// It implements both the per-point surface and the training chunk
    /// phases (handed out only when `phased` is set), and records the
    /// gradients the engine feeds back, so the test below can prove
    /// occupancy-driven compaction is a bitwise no-op while actually
    /// skipping color work.
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

        fn chunked(&mut self) -> Option<&mut dyn ChunkedField> {
            if self.phased {
                Some(self)
            } else {
                None
            }
        }
    }

    impl ChunkedField for PhasedProbe {
        fn begin_chunks(&mut self, _n: usize, _ring: usize) {}

        fn density_chunks(
            &mut self,
            points: &[Vec3],
            chunks: Range<usize>,
            sigmas: &mut [f32],
            _pool: &ThreadPool,
        ) {
            self.points = points.to_vec();
            for i in chunk_samples(chunks, points.len()) {
                sigmas[i] = probe_sigma(points[i]);
            }
        }

        fn color_chunks(
            &mut self,
            dirs: &[Vec3],
            chunks: Range<usize>,
            live: &[u32],
            rgbs: &mut [Vec3],
            _pool: &ThreadPool,
        ) {
            rgbs[chunk_samples(chunks, dirs.len())].fill(Vec3::ZERO);
            for &i in live {
                let i = i as usize;
                self.color_evals += 1;
                rgbs[i] = probe_rgb(self.points[i], dirs[i]);
            }
        }

        fn backward_chunks(
            &mut self,
            chunks: Range<usize>,
            d_sigmas: &[f32],
            d_colors: &[Vec3],
            _pool: &ThreadPool,
        ) {
            for i in chunk_samples(chunks, d_sigmas.len()) {
                self.backward(i, d_sigmas[i], d_colors[i]);
            }
        }

        fn query_eval_batch_density(
            &self,
            _points: &[Vec3],
            _sigmas: &mut [f32],
            _scratch: &mut EvalScratch,
            _pool: &ThreadPool,
        ) {
            unreachable!("the probe hands out no evaluation phases");
        }

        fn query_eval_batch_color_compacted(
            &self,
            _dirs: &[Vec3],
            _live: &[u32],
            _rgbs: &mut [Vec3],
            _scratch: &mut EvalScratch,
            _pool: &ThreadPool,
        ) {
            unreachable!("the probe hands out no evaluation phases");
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

/// Bitwise pins of the batched engine at the edges of its fixed
/// `POINT_CHUNK` decomposition: rays one under, on and one over a chunk,
/// rays spanning several chunks, a batch that is one partial chunk, rays
/// ending exactly on a chunk edge, and grid-culled one-sample spans mixed
/// with full ones. Every (optimizer path × thread count) combination must
/// reproduce the same recorded loss bits, query count and master /
/// working parameter checksums; the values were recorded with the
/// whole-batch stage order, so any schedule change that moves a bit fails
/// here.
#[cfg(test)]
mod schedule_pins {
    use super::*;
    use crate::model::{IngpModel, ModelConfig};
    use crate::occupancy::OccupancyGrid;

    const ITERS: usize = 3;

    /// One edge case: `rays` rays along +x with `samples` samples each;
    /// `culled` installs a fixed occupancy grid: a one-cell slab every ray
    /// crosses once, plus a full block the lowest rays run through.
    struct Shape {
        name: &'static str,
        rays: usize,
        samples: usize,
        culled: bool,
    }

    #[rustfmt::skip]
    const SHAPES: [Shape; 8] = [
        Shape { name: "span255", rays: 6, samples: 255, culled: false },
        Shape { name: "span256", rays: 5, samples: 256, culled: false },
        Shape { name: "span257", rays: 5, samples: 257, culled: false },
        Shape { name: "span300", rays: 5, samples: 300, culled: false },
        Shape { name: "span700", rays: 4, samples: 700, culled: false },
        Shape { name: "one_partial_chunk", rays: 3, samples: 16, culled: false },
        Shape { name: "ray_ends_on_chunk_edge", rays: 9, samples: 64, culled: false },
        Shape { name: "culled_one_sample", rays: 256, samples: 24, culled: true },
    ];

    /// FNV-1a over the bit patterns of `values`.
    fn checksum<'a>(values: impl IntoIterator<Item = &'a f32>) -> u64 {
        values.into_iter().fold(0xcbf2_9ce4_8422_2325, |h: u64, v| {
            (h ^ u64::from(v.to_bits())).wrapping_mul(0x0100_0000_01b3)
        })
    }

    fn rays(count: usize) -> (Vec<Ray>, Vec<Vec3>) {
        (0..count)
            .map(|i| {
                let f = (i as f32 + 0.5) / count as f32;
                let origin = Vec3::new(-2.5, 1.6 * f - 0.8, 0.7 * (7.0 * f).sin());
                let dir = Vec3::new(1.0, 0.05 * (5.0 * f).cos(), 0.04).normalized();
                (Ray::new(origin, dir), Vec3::new(f, 0.5 * f, 1.0 - f))
            })
            .unzip()
    }

    fn culling_grid() -> OccupancyGrid {
        let res = 16u32;
        let mut grid = OccupancyGrid::from_words(res, vec![0; (res as usize).pow(3).div_ceil(64)]);
        let cell = |i: u32| (i as f32 + 0.5) / res as f32;
        for a in 0..res {
            for b in 0..res {
                grid.set(Vec3::new(cell(9), cell(a), cell(b)), true);
                for c in 0..3 {
                    grid.set(Vec3::new(cell(a), cell(c), cell(b)), true);
                }
            }
        }
        grid
    }

    /// `(loss bits per iteration, points queried, master checksum, working
    /// checksum)` of one training run, and the span lengths it trained on.
    fn run(
        shape: &Shape,
        precision: Precision,
        opt: OptPath,
        pool: &Arc<ThreadPool>,
    ) -> ((Vec<u64>, u64, u64, u64), Vec<usize>) {
        let config = TrainConfig {
            samples_per_ray: shape.samples,
            ..TrainConfig::tiny()
        }
        .with_precision(precision)
        .with_opt(opt);
        let mut model = IngpModel::for_config(ModelConfig::tiny(), &config, 23);
        // A dense field (σ ≈ 150): the long rays' transmittance reaches
        // exactly zero partway, so compaction drops their tails.
        let density = model.mlps_mut().0.layers_mut().last_mut().unwrap();
        density.bias_mut().master_mut()[0] = 150.0;
        density.bias_mut().commit();
        let mut trainer = Trainer::new(model, config, 5);
        trainer.pool = Arc::clone(pool);
        if shape.culled {
            trainer = trainer.with_occupancy_grid(16, 0.0, usize::MAX);
            let occ = trainer.occupancy.as_mut().unwrap();
            occ.grid = culling_grid();
            occ.iteration = 1; // never refreshed: the grid stays as set
        }
        let (rays, targets) = rays(shape.rays);
        let bounds = Aabb::new(Vec3::splat(-1.0), Vec3::splat(1.0));
        let losses = (0..ITERS)
            .map(|_| trainer.train_on_rays(&rays, &targets, &bounds).to_bits())
            .collect();
        let spans = trainer.arena.batch.spans.iter().map(|s| s.len).collect();
        let queried = trainer.points_queried();
        let model = trainer.into_model();
        let grid = model.grid();
        let mlps = [model.density_mlp(), model.color_mlp()];
        let layers = || mlps.into_iter().flat_map(|m| m.layers());
        let master =
            checksum(grid.parameter_store().master().iter().chain(
                layers().flat_map(|l| l.weights().master().iter().chain(l.bias().master())),
            ));
        let working = checksum(
            grid.parameters()
                .iter()
                .chain(layers().flat_map(|l| l.parameters())),
        );
        ((losses, queried, master, working), spans)
    }

    /// What one run must reproduce.
    #[derive(Debug, PartialEq)]
    struct Pin {
        losses: [u64; ITERS],
        queried: u64,
        master: u64,
        working: u64,
    }

    /// Per shape, `[f32, fp16]`.
    #[rustfmt::skip]
    const PINS: [[Pin; 2]; 8] = [
        [
            // span255, f32
            Pin { losses: [0x3fd2459c49555555, 0x3fd07bf812aaaaab, 0x3fce614469555555], queried: 4590, master: 0x29b74df1b384c339, working: 0x29b74df1b384c339 },
            // span255, fp16
            Pin { losses: [0x3fd245dddaaaaaab, 0x3fd07c157eaaaaab, 0x3fce610080000000], queried: 4590, master: 0x397a167ca09961f7, working: 0x81ca5ff3204de317 },
        ],
        [
            // span256, f32
            Pin { losses: [0x3fd220dcfe666666, 0x3fd0540d6999999a, 0x3fce120c18000000], queried: 3840, master: 0x261e53630e5cca14, working: 0x261e53630e5cca14 },
            // span256, fp16
            Pin { losses: [0x3fd2211d64cccccd, 0x3fd05446be666666, 0x3fce11fd4199999a], queried: 3840, master: 0x15c539c3580300a5, working: 0xe8e1e3d7c9b8a317 },
        ],
        [
            // span257, f32
            Pin { losses: [0x3fd220dd3b333333, 0x3fd0540626666666, 0x3fce121223333333], queried: 3855, master: 0x74c8a8d17d163ad3, working: 0x74c8a8d17d163ad3 },
            // span257, fp16
            Pin { losses: [0x3fd2211d68000000, 0x3fd05440a0000000, 0x3fce12049199999a], queried: 3855, master: 0x1003ef4d484dd76c, working: 0xe475ba3f509e4317 },
        ],
        [
            // span300, f32
            Pin { losses: [0x3fd220dd04cccccd, 0x3fd0540cee666666, 0x3fce1206ae666666], queried: 4500, master: 0x08e05989400196d7, working: 0x08e05989400196d7 },
            // span300, fp16
            Pin { losses: [0x3fd2211d4e666666, 0x3fd054465199999a, 0x3fce11f99199999a], queried: 4500, master: 0x2dde286c83150644, working: 0x5d0830ec7dd88317 },
        ],
        [
            // span700, f32
            Pin { losses: [0x3fd1dc2b44000000, 0x3fd01301dc000000, 0x3fcd82c716000000], queried: 8400, master: 0x77c2f0b14a044a1d, working: 0x77c2f0b14a044a1d },
            // span700, fp16
            Pin { losses: [0x3fd1dc69ea000000, 0x3fd01344d8000000, 0x3fcd829036000000], queried: 8400, master: 0x50bfd041106e8a47, working: 0x8654436eda796317 },
        ],
        [
            // one_partial_chunk, f32
            Pin { losses: [0x3fd1450dad555555, 0x3fcef84c6aaaaaab, 0x3fcc5d2ffd555555], queried: 144, master: 0xad1ac73bb0006ba0, working: 0xad1ac73bb0006ba0 },
            // one_partial_chunk, fp16
            Pin { losses: [0x3fd145485aaaaaab, 0x3fcef8d220000000, 0x3fcc5cf938000000], queried: 144, master: 0xe7688f342d2b61e5, working: 0x317130090cbd6317 },
        ],
        [
            // ray_ends_on_chunk_edge, f32
            Pin { losses: [0x3fd275b5eaaaaaab, 0x3fd0a6b8f0000000, 0x3fcead6f29c71c72], queried: 1728, master: 0x3e14bb87804c16f9, working: 0x3e14bb87804c16f9 },
            // ray_ends_on_chunk_edge, fp16
            Pin { losses: [0x3fd275f4e8e38e39, 0x3fd0a6f288000000, 0x3fcead6be5555555], queried: 1728, master: 0x46c65eee060da87f, working: 0x786ade7446a16317 },
        ],
        [
            // culled_one_sample, f32
            Pin { losses: [0x3fd29b7dfaf80000, 0x3fd0d724c2f80000, 0x3fcf04b94c600000], queried: 1708, master: 0xbc47c1cf05ae494d, working: 0xbc47c1cf05ae494d },
            // culled_one_sample, fp16
            Pin { losses: [0x3fd29bbca8980000, 0x3fd0d765db280000, 0x3fcf0479a4400000], queried: 1708, master: 0xfb30ab976a1842cd, working: 0xc6bf54dc8f6a6317 },
        ],
    ];

    #[test]
    fn batched_engine_reproduces_its_pinned_bits_at_every_chunk_edge() {
        let pools = [1, 2, 8].map(engine::build_pool);
        for (shape, pins) in SHAPES.iter().zip(&PINS) {
            for (precision, pin) in [Precision::F32, Precision::Fp16].into_iter().zip(pins) {
                for opt in [OptPath::Sparse, OptPath::Dense] {
                    for pool in &pools {
                        let ((losses, queried, master, working), spans) =
                            run(shape, precision, opt, pool);
                        let got = Pin {
                            losses: losses.try_into().unwrap(),
                            queried,
                            master,
                            working,
                        };
                        let label = format!(
                            "{} {}/{}/{}t",
                            shape.name,
                            precision.label(),
                            opt.label(),
                            pool.current_num_threads()
                        );
                        assert_eq!(&got, pin, "{label}");
                        if shape.culled {
                            assert!(spans.contains(&1), "{label}: one-sample spans");
                            assert!(spans.iter().any(|&l| l > 8), "{label}: long spans");
                        } else {
                            assert!(spans.iter().all(|&l| l == shape.samples), "{label}");
                        }
                    }
                }
            }
        }
    }
}
