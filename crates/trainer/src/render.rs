//! No-gradient render engine: occupancy-culled, early-terminating,
//! allocation-free view rendering.
//!
//! Rendering used to be the naive spine in `train.rs`: every ray densely
//! sampled across the full AABB, every sample paying both MLPs, six fresh
//! `Vec`s per 2048-pixel block, serial ray generation. This module replaces
//! it with a five-stage block pipeline whose cost tracks *visible* work:
//!
//! 1. **Parallel ray generation** — fixed `GEN_CHUNK`-pixel tasks on the
//!    pool, each marching its rays through its own pooled [`RayMarcher`]
//!    (the sampler training's gather uses too), spliced in task order (so
//!    the block layout is identical at any thread count). With
//!    [`RenderOpts::culling`] and an [`OccupancyGrid`], samples in empty
//!    cells are dropped here and never reach the model — most of them a
//!    clear run at a time, without being looked at.
//! 2. **Density phase** — the fused encode→density-MLP eval path
//!    (`query_eval_batch_density` of [`TrainableField::chunked_eval`]) over
//!    every surviving sample, into engine-owned [`EvalScratch`]. Per-point
//!    models fall back to a [`TrainableField::query_eval`] loop.
//! 3. **Transmittance scan** — a scalar sweep replicating the composite
//!    recurrence operation for operation (`σ.max(0)`, `α = 1 − e^{−σ·δ}`,
//!    `w = T·α`, `T ← T·(1−α)`), recording each sample's blend weight and
//!    truncating the ray where `T` reaches exactly `0.0` (always — bitwise
//!    neutral, see below) or falls under
//!    [`RenderOpts::early_term_threshold`] (when
//!    [`RenderOpts::early_term`] is set).
//! 4. **Color phase** — the compacted color MLP
//!    (`query_eval_batch_color_compacted`, same model) over surviving
//!    samples only.
//! 5. **Blend** — `color += rgb[i] · w[i]` per ray in sample order, then
//!    one pixel write per ray.
//!
//! # Determinism and the bitwise reference contract
//!
//! With [`RenderOpts::reference`] (culling and early termination off) the
//! output is **bitwise-identical** to the pre-engine `render_view`:
//!
//! * Blocks regroup pixels (fixed raw-pixel blocks instead of hit-pixel
//!   blocks), but all math is per-ray/per-sample, so regrouping cannot
//!   change any bit.
//! * The scan performs exactly the composite recurrence's per-sample
//!   float operations in the same order; deferring the color accumulation
//!   to stage 5 is bitwise-free because the weight/transmittance chain
//!   never reads the color accumulator.
//! * Truncating a ray once `T` reaches exactly `0.0` drops only samples
//!   whose weight is `+0.0`; colors are sigmoid outputs (never negative,
//!   never NaN), so each dropped term contributes `+0.0` and the
//!   accumulator is never `-0.0` — the sum's bits cannot change. This is
//!   the same argument (and machinery) the training path proved with
//!   `compaction_is_bitwise_free_and_skips_dead_color_work`.
//!
//! Every stage uses fixed chunk boundaries (`GEN_CHUNK` pixels here, the
//! model's point chunks inside the query) and ordered serial reductions,
//! so results are independent of the pool's thread count, and the SIMD
//! backend contract (every backend bitwise-identical) carries over
//! unchanged.
//!
//! Steady-state renders are allocation-free in the engine: every buffer
//! lives in a persistent arena ([`RenderEngine`] mirrors the trainer's
//! `BatchArena` growth-event accounting, see
//! [`RenderEngine::growth_events`]).

use crate::model::{eval_density_batch, EvalScratch, TrainableField};
use crate::occupancy::{OccupancyGrid, RayMarcher};
use inerf_geom::{Aabb, Camera, Vec3};
use inerf_render::volume::RaySpan;
use inerf_scenes::{psnr_from_mse, Dataset, Image};
use rayon::ThreadPool;
use std::time::Instant;

/// Pixels per render block: bounds the SoA buffers to block-sized batches
/// (a whole-frame batch would be `width × height × samples_per_ray`
/// samples — gigabytes for a production-size view) while keeping each
/// block large enough to fill the model's point chunks.
const BLOCK_PIXELS: usize = 2048;

/// Pixels per ray-generation task. Fixed (not derived from the worker
/// count) so the task decomposition — and with it the spliced block
/// layout — is identical at any thread count.
const GEN_CHUNK: usize = 256;

/// Default transmittance floor for early ray termination: once a ray's
/// remaining transmittance falls below this, every further sample could
/// contribute less than `1e-4` per channel — under half a quantization
/// step of 8-bit output — so the ray stops sampling.
const EARLY_TERM_THRESHOLD: f32 = 1e-4;

/// Inference fast-path switches. The default enables everything; use
/// [`RenderOpts::reference`] for the pinned bitwise-exact semantics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RenderOpts {
    /// Skip samples in cells an [`OccupancyGrid`] marks empty (requires a
    /// grid at the call site; without one this switch is inert).
    pub culling: bool,
    /// Stop sampling a ray once its transmittance falls below
    /// `early_term_threshold`.
    pub early_term: bool,
    /// Transmittance floor for `early_term`
    /// (default `1e-4`).
    pub early_term_threshold: f32,
}

impl RenderOpts {
    /// Exact reference semantics: no culling, no early termination.
    /// Output is bitwise-identical to the pre-engine `render_view`
    /// (pinned by the golden render-equivalence tests).
    pub fn reference() -> Self {
        RenderOpts {
            culling: false,
            early_term: false,
            early_term_threshold: 0.0,
        }
    }

    /// The full fast path: occupancy culling plus early termination at a
    /// transmittance of `1e-4`.
    pub fn fast() -> Self {
        RenderOpts {
            culling: true,
            early_term: true,
            early_term_threshold: EARLY_TERM_THRESHOLD,
        }
    }
}

impl Default for RenderOpts {
    fn default() -> Self {
        RenderOpts::fast()
    }
}

/// Work and stage-time accounting of the last
/// [`RenderEngine::render_view_into`] call — the attribution record behind
/// `BENCH_render.json` (culling wins vs kernel wins).
#[derive(Debug, Clone, Copy, Default)]
pub struct RenderStats {
    /// Total pixels in the rendered view.
    pub pixels: u64,
    /// Rays whose AABB intersection is non-degenerate (what the reference
    /// path samples densely).
    pub rays_hit: u64,
    /// Rays that kept at least one sample after culling.
    pub rays_rendered: u64,
    /// Samples the reference path would evaluate:
    /// `rays_hit × samples_per_ray`.
    pub samples_dense: u64,
    /// Samples dropped by occupancy culling before reaching the model.
    pub samples_culled: u64,
    /// Samples evaluated by the density MLP.
    pub samples_density: u64,
    /// Samples evaluated by the color MLP (early termination and the
    /// exact-zero cut skip the rest).
    pub samples_color: u64,
    /// Wall-clock of the parallel ray-generation + splice stage.
    pub gen_ns: u64,
    /// Wall-clock of the density (or per-point fallback) query stage.
    pub density_ns: u64,
    /// Wall-clock of the transmittance scan.
    pub scan_ns: u64,
    /// Wall-clock of the compacted color query stage.
    pub color_ns: u64,
    /// Wall-clock of the blend-and-write stage.
    pub blend_ns: u64,
}

impl RenderStats {
    /// Fraction of dense samples that occupancy culling removed.
    pub fn culled_fraction(&self) -> f64 {
        if self.samples_dense == 0 {
            return 0.0;
        }
        self.samples_culled as f64 / self.samples_dense as f64
    }

    /// Color-MLP samples actually paid per pixel — the "effective"
    /// sampling rate after culling and early termination.
    pub fn samples_per_pixel_effective(&self) -> f64 {
        if self.pixels == 0 {
            return 0.0;
        }
        self.samples_color as f64 / self.pixels as f64
    }
}

/// Per-task scratch of the parallel ray-generation stage. Each task owns
/// one, so generation shares nothing and the splice (serial, task order)
/// fixes the block layout.
#[derive(Debug, Clone, Default)]
struct GenScratch {
    /// The task's samples; span starts are task-relative, rebased during
    /// the splice.
    batch: RayMarcher,
    pixels: Vec<(u32, u32)>,
}

impl GenScratch {
    fn capacity_sum(&self) -> usize {
        self.batch.capacity_sum() + self.pixels.capacity()
    }

    /// Marches the rays of raw pixel indices `lo..hi` (row-major),
    /// unjittered. Culling only removes samples, never moves them; a pixel
    /// whose samples all fell in marked-empty space keeps the background
    /// (black) without touching the model — what compositing all-empty
    /// samples would produce.
    fn generate(
        &mut self,
        camera: &Camera,
        bounds: &Aabb,
        samples_per_ray: usize,
        grid: Option<&OccupancyGrid>,
        lo: usize,
        hi: usize,
    ) {
        let GenScratch { batch, pixels } = self;
        batch.clear();
        pixels.clear();
        let no_jitter = None::<fn() -> f32>;
        for idx in lo..hi {
            let (px, py) = (idx as u32 % camera.width, idx as u32 / camera.width);
            let ray = camera.ray_for_pixel(px, py);
            if batch.march(&ray, bounds, samples_per_ray, grid, no_jitter) {
                pixels.push((px, py));
            }
        }
    }
}

/// Pooled per-block buffers of the render engine: every
/// structure-of-arrays buffer the pipeline fills lives here and is reused
/// across blocks and renders, so steady-state rendering performs no
/// per-block heap allocation in the engine itself. (The remaining
/// per-block allocations are the thread-pool spawn closures boxed inside
/// the vendored rayon — a fixed per-task cost, same caveat as the training
/// arena.)
#[derive(Debug, Clone, Default)]
struct RenderArena {
    /// Per-task ray-generation scratch (grows monotonically — a block with
    /// fewer tasks never drops the surplus).
    gen: Vec<GenScratch>,
    points: Vec<Vec3>,
    dirs: Vec<Vec3>,
    spans: Vec<RaySpan>,
    pixels: Vec<(u32, u32)>,
    sigmas: Vec<f32>,
    rgbs: Vec<Vec3>,
    /// Per-sample blend weights from the scan (valid up to each span's
    /// cut).
    weights: Vec<f32>,
    /// Per-span survivor count (samples before the termination cut).
    cuts: Vec<u32>,
    /// Ascending global indices of samples the color phase must evaluate.
    live: Vec<u32>,
}

impl RenderArena {
    /// Total capacity across every pooled buffer, in elements. Capacities
    /// never shrink (nothing here calls `shrink_to_fit`), so the sum grows
    /// if and only if some buffer reallocated.
    fn capacity_sum(&self) -> usize {
        self.gen.capacity()
            + self.gen.iter().map(GenScratch::capacity_sum).sum::<usize>()
            + self.points.capacity()
            + self.dirs.capacity()
            + self.spans.capacity()
            + self.pixels.capacity()
            + self.sigmas.capacity()
            + self.rgbs.capacity()
            + self.weights.capacity()
            + self.cuts.capacity()
            + self.live.capacity()
    }
}

/// Borrowed per-view inputs threaded through the block pipeline.
struct ViewCtx<'a> {
    camera: &'a Camera,
    bounds: &'a Aabb,
    samples_per_ray: usize,
    /// Occupancy grid, already gated on [`RenderOpts::culling`].
    grid: Option<&'a OccupancyGrid>,
    opts: &'a RenderOpts,
    pool: &'a ThreadPool,
}

/// The persistent no-gradient render engine: a `RenderArena`, the
/// model-side [`EvalScratch`], and the work/stage-time stats of the last
/// render. One engine per `Trainer` (or per serving tenant); construct
/// with `Default` and reuse — reuse is what makes steady-state renders
/// allocation-free.
#[derive(Debug, Clone, Default)]
pub struct RenderEngine {
    arena: RenderArena,
    scratch: EvalScratch,
    stats: RenderStats,
    growth_events: u64,
    cap_mark: usize,
}

impl RenderEngine {
    /// Renders `camera`'s view of the model into a fresh image. See
    /// [`RenderEngine::render_view_into`].
    #[allow(clippy::too_many_arguments)]
    pub fn render_view<M: TrainableField>(
        &mut self,
        model: &M,
        camera: &Camera,
        bounds: &Aabb,
        samples_per_ray: usize,
        grid: Option<&OccupancyGrid>,
        opts: &RenderOpts,
        pool: &ThreadPool,
    ) -> Image {
        let mut img = Image::new(camera.width, camera.height);
        self.render_view_into(
            model,
            camera,
            bounds,
            samples_per_ray,
            grid,
            opts,
            pool,
            &mut img,
        );
        img
    }

    /// Renders into a caller-pooled image (cleared to black first), so
    /// render loops reuse one buffer instead of allocating per view.
    ///
    /// Takes the model read-only: callers holding a model with lazily
    /// deferred optimizer updates must flush them first
    /// ([`TrainableField::sync_parameters`]); models from
    /// [`crate::train::Trainer::into_model`] are already synced.
    ///
    /// # Panics
    ///
    /// Panics if `img`'s dimensions disagree with the camera's.
    #[allow(clippy::too_many_arguments)]
    pub fn render_view_into<M: TrainableField>(
        &mut self,
        model: &M,
        camera: &Camera,
        bounds: &Aabb,
        samples_per_ray: usize,
        grid: Option<&OccupancyGrid>,
        opts: &RenderOpts,
        pool: &ThreadPool,
        img: &mut Image,
    ) {
        assert_eq!(img.width(), camera.width, "image width mismatch");
        assert_eq!(img.height(), camera.height, "image height mismatch");
        img.pixels_mut().fill(Vec3::ZERO);
        self.stats = RenderStats::default();
        let total = camera.width as usize * camera.height as usize;
        self.stats.pixels = total as u64;
        let ctx = ViewCtx {
            camera,
            bounds,
            samples_per_ray,
            grid: if opts.culling { grid } else { None },
            opts,
            pool,
        };
        let mut lo = 0;
        while lo < total {
            let hi = (lo + BLOCK_PIXELS).min(total);
            self.cap_mark = self.arena.capacity_sum() + self.scratch.capacity_sum();
            self.render_block(model, &ctx, lo, hi, img);
            if self.arena.capacity_sum() + self.scratch.capacity_sum() > self.cap_mark {
                self.growth_events += 1;
            }
            lo = hi;
        }
        self.stats.samples_dense = self.stats.rays_hit * samples_per_ray as u64;
        self.stats.samples_culled = self.stats.samples_dense - self.stats.samples_density;
    }

    /// Mean PSNR over the dataset's held-out test views, rendered through
    /// this engine (views in order, per-view MSE accumulated serially for
    /// determinism; within each view every stage is pool-parallel). The
    /// image buffer is reused across same-sized views, and
    /// [`RenderEngine::last_stats`] afterwards describes the final view.
    ///
    /// # Panics
    ///
    /// Panics if the dataset has no test views.
    pub fn eval_psnr<M: TrainableField>(
        &mut self,
        model: &M,
        dataset: &Dataset,
        samples_per_ray: usize,
        grid: Option<&OccupancyGrid>,
        opts: &RenderOpts,
        pool: &ThreadPool,
    ) -> f64 {
        assert!(!dataset.test_views.is_empty(), "dataset has no test views");
        let first = &dataset.test_views[0].camera;
        let mut img = Image::new(first.width, first.height);
        let mut total_mse = 0.0f64;
        for view in &dataset.test_views {
            if img.width() != view.camera.width || img.height() != view.camera.height {
                img = Image::new(view.camera.width, view.camera.height);
            }
            self.render_view_into(
                model,
                &view.camera,
                &dataset.bounds,
                samples_per_ray,
                grid,
                opts,
                pool,
                &mut img,
            );
            total_mse += inerf_scenes::mse(&img, &view.image);
        }
        psnr_from_mse(total_mse / dataset.test_views.len() as f64)
    }

    /// Blocks (since construction) that grew some pooled buffer's
    /// capacity. Flat across steady-state renders — the zero-allocation
    /// test hook, mirroring the training arena's accounting.
    pub fn growth_events(&self) -> u64 {
        self.growth_events
    }

    /// Work and stage-time accounting of the most recent render.
    pub fn last_stats(&self) -> &RenderStats {
        &self.stats
    }

    /// One block of the pipeline: generate → density → scan → color →
    /// blend, over raw pixel indices `lo..hi`.
    fn render_block<M: TrainableField>(
        &mut self,
        model: &M,
        ctx: &ViewCtx<'_>,
        lo: usize,
        hi: usize,
        img: &mut Image,
    ) {
        let arena = &mut self.arena;
        // inerf-lint: allow(wall-clock) -- stage telemetry only: feeds RenderStats/BENCH_render.json, never a simulated statistic
        let t_gen = Instant::now();
        let n_tasks = (hi - lo).div_ceil(GEN_CHUNK);
        if arena.gen.len() < n_tasks {
            arena.gen.resize_with(n_tasks, GenScratch::default);
        }
        let (camera, bounds, spp, grid) = (ctx.camera, ctx.bounds, ctx.samples_per_ray, ctx.grid);
        ctx.pool.scope(|s| {
            for (k, g) in arena.gen[..n_tasks].iter_mut().enumerate() {
                let task_lo = lo + k * GEN_CHUNK;
                let task_hi = (task_lo + GEN_CHUNK).min(hi);
                s.spawn(move |_| g.generate(camera, bounds, spp, grid, task_lo, task_hi));
            }
        });
        // Splice task outputs in task order: fixed GEN_CHUNK boundaries
        // plus ordered concatenation make the block layout — and with it
        // every downstream result — thread-count-independent.
        arena.points.clear();
        arena.dirs.clear();
        arena.spans.clear();
        arena.pixels.clear();
        for g in &arena.gen[..n_tasks] {
            let base = arena.points.len();
            arena.points.extend_from_slice(&g.batch.points);
            arena.dirs.extend_from_slice(&g.batch.dirs);
            arena.spans.extend(g.batch.spans.iter().map(|s| RaySpan {
                start: base + s.start,
                ..*s
            }));
            arena.pixels.extend_from_slice(&g.pixels);
            self.stats.rays_hit += g.batch.rays_hit;
        }
        self.stats.gen_ns += t_gen.elapsed().as_nanos() as u64;
        if arena.spans.is_empty() {
            return;
        }
        let n = arena.points.len();
        self.stats.samples_density += n as u64;

        // inerf-lint: allow(wall-clock) -- stage telemetry only: feeds RenderStats/BENCH_render.json, never a simulated statistic
        let t_density = Instant::now();
        arena.sigmas.resize(n, 0.0);
        // Per-point baseline models take the `query_eval` fallback (density
        // and color of every sample up front); culling and the scan's
        // truncation still shape the composite below.
        let phased = eval_density_batch(
            model,
            &arena.points,
            &arena.dirs,
            &mut arena.sigmas,
            &mut arena.rgbs,
            &mut self.scratch,
            ctx.pool,
        );
        self.stats.density_ns += t_density.elapsed().as_nanos() as u64;

        // inerf-lint: allow(wall-clock) -- stage telemetry only: feeds RenderStats/BENCH_render.json, never a simulated statistic
        let t_scan = Instant::now();
        scan_spans(
            &arena.sigmas,
            &arena.spans,
            ctx.opts,
            &mut arena.weights,
            &mut arena.cuts,
            &mut arena.live,
        );
        self.stats.scan_ns += t_scan.elapsed().as_nanos() as u64;

        // inerf-lint: allow(wall-clock) -- stage telemetry only: feeds RenderStats/BENCH_render.json, never a simulated statistic
        let t_color = Instant::now();
        if let Some(model) = phased {
            arena.rgbs.resize(n, Vec3::ZERO);
            model.query_eval_batch_color_compacted(
                &arena.dirs,
                &arena.live,
                &mut arena.rgbs,
                &mut self.scratch,
                ctx.pool,
            );
            self.stats.samples_color += arena.live.len() as u64;
        } else {
            self.stats.samples_color += n as u64;
        }
        self.stats.color_ns += t_color.elapsed().as_nanos() as u64;

        // inerf-lint: allow(wall-clock) -- stage telemetry only: feeds RenderStats/BENCH_render.json, never a simulated statistic
        let t_blend = Instant::now();
        for (r, span) in arena.spans.iter().enumerate() {
            let cut = arena.cuts[r] as usize;
            let mut color = Vec3::ZERO;
            for i in span.start..span.start + cut {
                color += arena.rgbs[i] * arena.weights[i];
            }
            let (px, py) = arena.pixels[r];
            img.set(px, py, color);
        }
        self.stats.rays_rendered += arena.spans.len() as u64;
        self.stats.blend_ns += t_blend.elapsed().as_nanos() as u64;
    }
}

/// Transmittance scan over a block's spans: replicates the composite
/// recurrence operation for operation, recording each sample's blend
/// weight, appending survivors to `live` (ascending global indices), and
/// cutting each span where transmittance reaches exactly `0.0` (always —
/// every later weight is `+0.0`, so dropping those terms is bitwise-free)
/// or falls below the early-termination threshold (opt-in, approximate).
///
/// Unlike the training-path scan this must not take the conservative
/// optical-depth shortcut: the early-termination cut is threshold-based,
/// not exact-zero-based, so every span walks the real recurrence.
fn scan_spans(
    sigmas: &[f32],
    spans: &[RaySpan],
    opts: &RenderOpts,
    weights: &mut Vec<f32>,
    cuts: &mut Vec<u32>,
    live: &mut Vec<u32>,
) {
    weights.resize(sigmas.len(), 0.0);
    cuts.clear();
    live.clear();
    for span in spans {
        let mut transmittance = 1.0f32;
        let mut cut = span.len;
        for i in 0..span.len {
            let idx = span.start + i;
            let sigma = sigmas[idx].max(0.0);
            let alpha = 1.0 - (-sigma * span.dt).exp();
            weights[idx] = transmittance * alpha;
            transmittance *= 1.0 - alpha;
            live.push(idx as u32);
            if transmittance == 0.0
                || (opts.early_term && transmittance < opts.early_term_threshold)
            {
                cut = i + 1;
                break;
            }
        }
        cuts.push(cut as u32);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine;

    #[test]
    fn reference_opts_disable_everything() {
        let r = RenderOpts::reference();
        assert!(!r.culling && !r.early_term);
        // A threshold of 0.0 is inert even if early_term were set:
        // transmittance is never negative.
        assert_eq!(r.early_term_threshold, 0.0);
    }

    #[test]
    fn default_opts_are_the_fast_path() {
        let d = RenderOpts::default();
        assert!(d.culling && d.early_term);
        assert_eq!(d.early_term_threshold, EARLY_TERM_THRESHOLD);
    }

    #[test]
    fn generate_goes_through_the_marcher_with_the_hand_rolled_loops_bits() {
        use crate::occupancy::gather_by_hand;
        use inerf_geom::{Pose, Ray};
        let bounds = Aabb::new(Vec3::splat(-1.0), Vec3::new(1.0, 1.5, 1.0));
        let camera = Camera::new(Pose::orbit(Vec3::ZERO, 3.0, 0.7, 0.4), 24, 20, 0.9);
        let mut grid = OccupancyGrid::new(16);
        for i in 0..16u32.pow(3) {
            let c = [i % 16, i / 16 % 16, i / 256].map(|c| (c as f32 + 0.5) / 16.0);
            let p = Vec3::new(c[0], c[1], c[2]);
            grid.set(p, (p - Vec3::splat(0.5)).length_squared() < 0.04);
        }
        let grid = OccupancyGrid::from_words(16, grid.words().to_vec());
        let (lo, hi) = (37, 441);
        let rays: Vec<Ray> = (lo..hi).map(|i| camera.ray_for_index(i)).collect();
        // `None` is what `RenderOpts::reference()` leaves of a grid.
        for grid in [None, Some(&grid)] {
            let by_hand = gather_by_hand(&rays, &bounds, 32, grid, None::<fn() -> f32>);
            let mut gen = GenScratch::default();
            gen.generate(&camera, &bounds, 32, grid, lo, hi);
            assert!(!by_hand.points.is_empty());
            assert_eq!(gen.batch.points, by_hand.points);
            assert_eq!(gen.batch.dirs, by_hand.dirs);
            assert_eq!(gen.batch.spans, by_hand.spans);
            let pixels: Vec<(u32, u32)> = by_hand
                .kept_rays
                .iter()
                .map(|&r| ((lo + r) as u32 % 24, (lo + r) as u32 / 24))
                .collect();
            assert_eq!(gen.pixels, pixels);
            assert_eq!(gen.batch.rays_hit, by_hand.rays_hit);
            let dense = by_hand.rays_hit as usize * 32;
            assert_eq!(grid.is_some(), by_hand.points.len() < dense);
        }
    }

    #[test]
    fn eval_scratch_stays_flat_and_keeps_no_per_sample_activations() {
        use crate::model::{IngpModel, ModelConfig};
        use inerf_encoding::HashFunction;
        use inerf_geom::Pose;
        let model = IngpModel::new(ModelConfig::small(HashFunction::Morton), 3);
        let pool = engine::build_pool(2);
        // 48² pixels: one full 2048-pixel block, then a 256-pixel one.
        let pose = Pose::orbit(Vec3::splat(0.5), 2.4, 0.7, 1.1);
        let camera = Camera::new(pose, 48, 48, 0.7);
        let spp = 16;
        let mut img = Image::new(48, 48);
        let mut engine = RenderEngine::default();
        let mut render = |engine: &mut RenderEngine| {
            engine.render_view_into(
                &model,
                &camera,
                &Aabb::unit(),
                spp,
                None,
                &RenderOpts::reference(),
                &pool,
                &mut img,
            )
        };
        render(&mut engine);
        let warm = engine.growth_events();
        assert!(warm >= 1, "the first view must populate the arena");
        render(&mut engine);
        assert_eq!(
            engine.growth_events(),
            warm,
            "same-shape view grew a buffer"
        );
        // The guard against per-sample activation matrices coming back: at
        // `ModelConfig::small` a sample keeps its 8-value raw density row
        // (32 B) and shares a 4 KB tile pair with its 256-sample task; the
        // training forward's record is ≈ 1.3 KB per sample.
        let bytes = engine.scratch.capacity_sum() * std::mem::size_of::<f32>();
        let block_samples = BLOCK_PIXELS * spp;
        assert!(engine.stats.samples_density as usize > block_samples / 2);
        assert!(
            bytes <= 64 * block_samples + 16 * 1024,
            "eval scratch holds {bytes} B for {block_samples}-sample blocks"
        );
    }

    #[test]
    fn scan_matches_composite_weights_and_cuts_on_early_term() {
        // Moderate densities: no exact-zero cut, so reference opts keep
        // everything; a loose threshold cuts early.
        let sigmas = vec![1.5f32; 8];
        let spans = [RaySpan {
            start: 0,
            len: 8,
            dt: 0.5,
        }];
        let mut weights = Vec::new();
        let mut cuts = Vec::new();
        let mut live = Vec::new();
        scan_spans(
            &sigmas,
            &spans,
            &RenderOpts::reference(),
            &mut weights,
            &mut cuts,
            &mut live,
        );
        assert_eq!(cuts, vec![8]);
        assert_eq!(live.len(), 8);
        let samples: Vec<inerf_render::volume::SamplePoint> = sigmas
            .iter()
            .map(|&sigma| inerf_render::volume::SamplePoint {
                sigma,
                color: Vec3::ONE,
            })
            .collect();
        let out = inerf_render::volume::composite_uniform(&samples, 0.5);
        for (i, &w) in weights.iter().enumerate() {
            assert_eq!(w.to_bits(), out.weights[i].to_bits(), "weight {i}");
        }
        // T after k samples is (1-α)^k with α = 1-e^{-0.75} ≈ 0.5276;
        // a 0.05 floor is crossed after 4 samples.
        let opts = RenderOpts {
            culling: false,
            early_term: true,
            early_term_threshold: 0.05,
        };
        scan_spans(&sigmas, &spans, &opts, &mut weights, &mut cuts, &mut live);
        assert!(cuts[0] < 8, "threshold must cut the ray");
        assert_eq!(live.len(), cuts[0] as usize);
        let t_after = out.transmittance_after[cuts[0] as usize - 1];
        assert!(t_after < 0.05, "cut only once T crossed the floor");
        assert!(
            out.transmittance_after[cuts[0] as usize - 2] >= 0.05,
            "no earlier sample may already be under the floor"
        );
    }

    #[test]
    fn scan_cut_at_exact_zero_is_always_on() {
        // A wall of enormous density: T underflows to exactly 0.0; even
        // reference opts cut there (bitwise-free, the dropped weights are
        // all +0.0).
        let sigmas: Vec<f32> = (0..12).map(|i| 40.0 + 5.0 * i as f32).collect();
        let spans = [RaySpan {
            start: 0,
            len: 12,
            dt: 1.0,
        }];
        let mut weights = Vec::new();
        let mut cuts = Vec::new();
        let mut live = Vec::new();
        scan_spans(
            &sigmas,
            &spans,
            &RenderOpts::reference(),
            &mut weights,
            &mut cuts,
            &mut live,
        );
        assert!(cuts[0] < 12);
        assert_eq!(live.len(), cuts[0] as usize);
    }
}
