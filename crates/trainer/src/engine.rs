//! Thread-pool plumbing for the batched SoA execution engine.
//!
//! The batched hot path (see [`crate::train`] and [`crate::model`]) splits
//! every stage into *fixed-size* chunks — [`RAY_CHUNK`] rays for the
//! compositing stages, [`POINT_CHUNK`] points inside the model — and runs
//! the chunks on a [`rayon::ThreadPool`]. Chunk boundaries never depend on
//! the worker count and all cross-chunk reductions happen sequentially in
//! chunk order, so training is bitwise-deterministic for a fixed seed at
//! *any* thread count; the knob only changes wall-clock time.
//!
//! The pool size comes from the `INERF_THREADS` environment variable
//! (default: all available cores); [`crate::train::Trainer::with_threads`]
//! overrides it per trainer, which is what the determinism tests use.

use crate::occupancy::{RayMarcher, RefreshScratch};
use inerf_geom::{Ray, Vec3};
use inerf_render::volume::RaySpan;
use rayon::{ThreadPool, ThreadPoolBuilder};
use std::ops::Range;
use std::sync::{Arc, OnceLock};

/// Points per chunk of the model's batched phases. Fixed (not derived from
/// the worker count) so chunk boundaries — and therefore every gradient
/// accumulation order — are identical at any thread count.
pub const POINT_CHUNK: usize = 256;

/// Rays per task in the parallel composite / composite-backward stages.
///
/// Fixed (instead of derived from the worker count) so that the chunk
/// decomposition — and with it every floating-point reduction order — is
/// identical at 1, 2, or 64 threads.
pub const RAY_CHUNK: usize = 16;

/// The samples of point chunks `chunks` in a batch of `n` samples.
pub fn chunk_samples(chunks: Range<usize>, n: usize) -> Range<usize> {
    (chunks.start * POINT_CHUNK).min(n)..(chunks.end * POINT_CHUNK).min(n)
}

/// Runs `task` on every item: inline on a one-worker pool; else the first
/// item on the calling thread, which would otherwise only wait for the
/// pool, and one pool task for each of the rest.
pub(crate) fn run_tasks<T: Send>(
    pool: &ThreadPool,
    mut items: impl Iterator<Item = T>,
    task: impl Fn(T) + Sync,
) {
    if pool.current_num_threads() == 1 {
        return items.for_each(task);
    }
    let Some(first) = items.next() else { return };
    let task = &task;
    pool.scope(|s| {
        for item in items {
            s.spawn(move |_| task(item));
        }
        task(first);
    });
}

/// Parses an `INERF_THREADS` value: a positive integer. Anything else is
/// a hard error naming the value — a typo must not silently run on all
/// cores under a benchmark that claims a fixed thread count.
fn parse_threads(raw: &str) -> Result<usize, String> {
    match raw.trim().parse::<usize>() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(format!(
            "INERF_THREADS={:?} is not a positive integer thread count",
            raw.trim()
        )),
    }
}

/// The thread count requested via `INERF_THREADS`, or all available cores.
///
/// # Panics
///
/// Panics if `INERF_THREADS` is set to anything but a positive integer
/// (see `parse_threads`) — configuration typos fail loudly.
pub fn default_threads() -> usize {
    match std::env::var("INERF_THREADS") {
        Ok(v) => match parse_threads(&v) {
            Ok(n) => n,
            Err(msg) => panic!("{msg}"),
        },
        Err(std::env::VarError::NotPresent) => {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        }
        Err(std::env::VarError::NotUnicode(v)) => {
            panic!("INERF_THREADS={v:?} is not valid Unicode")
        }
    }
}

/// Builds a dedicated pool with exactly `threads` workers.
pub fn build_pool(threads: usize) -> Arc<ThreadPool> {
    Arc::new(
        ThreadPoolBuilder::new()
            .num_threads(threads.max(1))
            .build()
            .expect("thread pool construction cannot fail"),
    )
}

/// The process-wide default pool, sized by [`default_threads`] on first use
/// and shared by every trainer that doesn't request its own size.
pub fn default_pool() -> Arc<ThreadPool> {
    static POOL: OnceLock<Arc<ThreadPool>> = OnceLock::new();
    Arc::clone(POOL.get_or_init(|| build_pool(default_threads())))
}

/// Pooled per-iteration buffers of the batched engine: the random pixel
/// batch `train_step` draws, every structure-of-arrays buffer
/// `gather_batch`/`step` fills, and the occupancy refresh's block
/// scratch live here and are reused across iterations, so steady-state
/// training performs no per-iteration heap allocation in the engine
/// itself. (The remaining per-iteration allocations are the thread-pool
/// spawn closures boxed inside the vendored rayon — a per-task fixed cost
/// outside the arena's reach — and any model-internal scratch, which
/// [`crate::model::IngpModel`] pools separately per chunk.)
///
/// The arena tracks its own *capacity-growth events*: an iteration that
/// forces any pooled buffer to grow its capacity counts as one event.
/// After a warm-up iteration sized like the steady state, the count must
/// stay flat — the allocation hook the arena tests and the throughput
/// bench assert on.
#[derive(Debug, Clone, Default)]
pub(crate) struct BatchArena {
    // Step (a): the random pixel batch of `train_step`.
    pub pixel_rays: Vec<Ray>,
    pub pixel_targets: Vec<Vec3>,
    /// Block scratch of the periodic occupancy-grid refresh.
    pub refresh: RefreshScratch,
    /// Gather output: the iteration's sample batch (SoA), with the marcher
    /// that fills it.
    pub batch: RayMarcher,
    pub targets: Vec<Vec3>,
    // Forward/backward stage buffers.
    pub sigmas: Vec<f32>,
    pub rgbs: Vec<Vec3>,
    pub ray_colors: Vec<Vec3>,
    pub weights: Vec<f32>,
    pub trans_after: Vec<f32>,
    pub d_sigmas: Vec<f32>,
    pub d_colors: Vec<Vec3>,
    /// Ascending global indices of live (non-compacted) samples.
    pub live: Vec<u32>,
    growth_events: u64,
    cap_mark: usize,
}

impl BatchArena {
    /// Total capacity across every pooled buffer, in elements. Capacities
    /// never shrink (the arena never calls `shrink_to_fit`), so the sum
    /// grows if and only if some buffer reallocated.
    fn capacity_sum(&self) -> usize {
        self.pixel_rays.capacity()
            + self.pixel_targets.capacity()
            + self.refresh.capacity_sum()
            + self.batch.capacity_sum()
            + self.targets.capacity()
            + self.sigmas.capacity()
            + self.rgbs.capacity()
            + self.ray_colors.capacity()
            + self.weights.capacity()
            + self.trans_after.capacity()
            + self.d_sigmas.capacity()
            + self.d_colors.capacity()
            + self.live.capacity()
    }

    /// Marks the start of an iteration for growth accounting.
    pub(crate) fn begin_iteration(&mut self) {
        self.cap_mark = self.capacity_sum();
    }

    /// Closes an iteration: if any pooled buffer grew its capacity since
    /// [`BatchArena::begin_iteration`], records one growth event.
    pub(crate) fn end_iteration(&mut self) {
        if self.capacity_sum() > self.cap_mark {
            self.growth_events += 1;
        }
    }

    /// Iterations (since construction) that grew some pooled buffer. Flat
    /// across steady-state iterations — the zero-allocation test hook.
    pub(crate) fn growth_events(&self) -> u64 {
        self.growth_events
    }

    /// Clears the gather-stage buffers for refilling (capacity retained).
    pub(crate) fn clear_gather(&mut self) {
        self.batch.clear();
        self.targets.clear();
    }
}

/// Occupancy-driven compaction scan: appends to `live` the ascending global
/// indices of every sample the MLP color stage must evaluate. A sample is
/// dead exactly when it lies *strictly after* the sample at which its ray's
/// transmittance reaches exactly `0.0` — from there the forward
/// contributions multiply `+0.0` and the backward gradients are `±0.0`, so
/// skipping the color pipeline for those rows is bitwise-identical to
/// evaluating it (see DESIGN.md).
///
/// The transmittance recurrence mirrors the composite kernel operation for
/// operation (`σ.max(0)`, `α = 1 − e^{−σ·dt}`, `T ← T·(1−α)`), so the
/// termination point found here is the composite's, bit for bit. A cheap
/// conservative pre-check skips the `exp` sweep for rays whose total
/// optical depth `Σ σ·dt` cannot underflow `T` to zero (`T ≈ e^{−Σσ·dt}`;
/// even with per-step rounding, a depth below 80 leaves `T` dozens of
/// orders of magnitude above the smallest subnormal).
pub(crate) fn scan_live_samples(sigmas: &[f32], spans: &[RaySpan], live: &mut Vec<u32>) {
    for span in spans {
        let ray = &sigmas[span.start..span.start + span.len];
        let depth: f64 = ray
            .iter()
            .fold(0.0, |d, &s| d + f64::from(s.max(0.0)) * f64::from(span.dt));
        if depth < 80.0 {
            live.extend((span.start..span.start + span.len).map(|i| i as u32));
            continue;
        }
        let mut transmittance = 1.0f32;
        for (idx, &sigma) in (span.start..).zip(ray) {
            let sigma = sigma.max(0.0);
            let alpha = 1.0 - (-sigma * span.dt).exp();
            transmittance *= 1.0 - alpha;
            live.push(idx as u32);
            if transmittance == 0.0 {
                break;
            }
        }
    }
}

/// Chunks per density wave of the streamed training step: one on a
/// one-worker pool, where every phase runs inline; else eight per worker,
/// so that each hand-off to the pool's sleeping workers carries enough
/// work to pay for waking them (at one chunk per worker, two workers
/// trained no faster than one).
pub(crate) fn wave_chunks(threads: usize) -> usize {
    let per_worker = if threads == 1 { 1 } else { 8 };
    per_worker * threads
}

/// Chunk records the streamed training step keeps in flight for a batch of
/// `n` samples over `spans`, with density waves of `wave` chunks. A chunk's
/// backward waits for every ray through it to be composited, such a ray
/// for the colors of every chunk it crosses, and a chunk's color phase
/// for all densities of every ray through it (`scan_live_samples` decides
/// liveness per whole ray). So with `reach(c)` the last chunk of the last
/// ray through chunk `c`, chunk `c` is held until chunk `reach(reach(c))`
/// has densities: a window of at most `2⌈(L − 1) / POINT_CHUNK⌉ + 1`
/// chunks for a longest span of `L`. One wave more never stalls a wave.
pub(crate) fn ring_size(spans: &[RaySpan], n: usize, wave: usize) -> usize {
    let chunks = n.div_ceil(POINT_CHUNK);
    // `ray` is a cursor: the last ray through a chunk never moves back as
    // the chunk advances.
    let reach = |c: usize, ray: &mut usize| {
        let last = ((c + 1) * POINT_CHUNK).min(n) - 1;
        while spans[*ray].start + spans[*ray].len <= last {
            *ray += 1;
        }
        (spans[*ray].start + spans[*ray].len - 1) / POINT_CHUNK
    };
    let (mut first, mut second) = (0, 0);
    let window = (0..chunks)
        .map(|c| {
            let d = reach(c, &mut first);
            reach(d, &mut second) + 1 - c
        })
        .max()
        .unwrap_or(1);
    (window + wave - 1).min(chunks).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn parse_threads_accepts_positive_integers_only() {
        assert_eq!(parse_threads("1"), Ok(1));
        assert_eq!(parse_threads(" 8 "), Ok(8));
        for bad in ["0", "-2", "four", "2.5", ""] {
            let err = parse_threads(bad).unwrap_err();
            assert!(
                err.contains("INERF_THREADS") && err.contains(bad.trim()),
                "error must name the variable and the offending value: {err}"
            );
        }
    }

    #[test]
    fn build_pool_respects_request() {
        assert_eq!(build_pool(3).current_num_threads(), 3);
    }

    #[test]
    fn arena_counts_growth_only_when_capacity_grows() {
        let mut arena = BatchArena::default();
        arena.begin_iteration();
        arena.batch.points.extend_from_slice(&[Vec3::ZERO; 64]);
        arena.end_iteration();
        assert_eq!(arena.growth_events(), 1);
        // Same-sized refill reuses the capacity: no new event.
        for _ in 0..3 {
            arena.begin_iteration();
            arena.clear_gather();
            arena.batch.points.extend_from_slice(&[Vec3::ZERO; 64]);
            arena.end_iteration();
        }
        assert_eq!(arena.growth_events(), 1);
        // A bigger batch grows again.
        arena.begin_iteration();
        arena.clear_gather();
        arena.batch.points.extend_from_slice(&[Vec3::ZERO; 4096]);
        arena.end_iteration();
        assert_eq!(arena.growth_events(), 2);
    }

    #[test]
    fn ring_covers_the_widest_dependency_window() {
        let uniform = |len: usize, rays: usize| -> Vec<RaySpan> {
            (0..rays)
                .map(|r| RaySpan {
                    start: r * len,
                    len,
                    dt: 0.1,
                })
                .collect()
        };
        // (span length, rays, widest window): 48-sample rays reach one
        // chunk on, whose last ray reaches one more; 256-sample rays fill
        // chunks exactly; a 700-sample ray through chunk 2 ends in chunk
        // 5, and the last ray through chunk 5 ends in chunk 8.
        for (len, rays, window) in [(48usize, 512usize, 3usize), (256, 9, 1), (700, 12, 7)] {
            let spans = uniform(len, rays);
            let n = len * rays;
            let bound = 2 * (len - 1).div_ceil(POINT_CHUNK) + 1;
            assert!(window <= bound, "{len}: the documented bound");
            for wave in [1usize, 2, 8] {
                assert_eq!(
                    ring_size(&spans, n, wave),
                    window + wave - 1,
                    "{len} x{wave}"
                );
            }
        }
        // A batch of one partial chunk needs one record at any wave.
        assert_eq!(ring_size(&uniform(16, 3), 48, 8), 1);
    }

    #[test]
    fn scan_keeps_everything_below_termination_depth() {
        let sigmas = vec![2.0f32; 32];
        let spans = [
            RaySpan {
                start: 0,
                len: 16,
                dt: 0.1,
            },
            RaySpan {
                start: 16,
                len: 16,
                dt: 0.1,
            },
        ];
        let mut live = Vec::new();
        scan_live_samples(&sigmas, &spans, &mut live);
        assert_eq!(live.len(), 32);
        assert!(live.iter().enumerate().all(|(i, &v)| v == i as u32));
    }

    #[test]
    fn scan_cuts_exactly_where_composite_transmittance_hits_zero() {
        // A wall of enormous density: transmittance underflows to exactly
        // 0.0 partway down the ray. The scan's cut must agree with the
        // composite kernel's trans_after sample for sample.
        let n = 12usize;
        let sigmas: Vec<f32> = (0..n).map(|i| 40.0 + 5.0 * i as f32).collect();
        let spans = [RaySpan {
            start: 0,
            len: n,
            dt: 1.0,
        }];
        let mut live = Vec::new();
        scan_live_samples(&sigmas, &spans, &mut live);
        assert!(live.len() < n, "this ray must terminate");
        let samples: Vec<inerf_render::volume::SamplePoint> = sigmas
            .iter()
            .map(|&sigma| inerf_render::volume::SamplePoint {
                sigma,
                color: Vec3::ONE,
            })
            .collect();
        let out = inerf_render::volume::composite_uniform(&samples, 1.0);
        let cut = live.len();
        assert_eq!(
            out.transmittance_after[cut - 1],
            0.0,
            "last live sample is where T reaches 0.0"
        );
        assert!(
            out.transmittance_after[..cut - 1].iter().all(|&t| t != 0.0),
            "no earlier sample may have zero transmittance"
        );
    }
}
