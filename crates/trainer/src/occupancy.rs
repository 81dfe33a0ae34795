//! The occupancy grid and the ray marcher: iNGP's empty-space skipping.
//!
//! iNGP maintains a coarse binary grid marking which cells of the scene
//! volume currently contain density; ray marching skips samples in empty
//! cells, which concentrates the hash-table traffic on occupied space.
//! This is the mechanism the hardware experiments' scene-conditioned traces
//! emulate, implemented here for real: the grid is periodically refreshed
//! from the model's own density predictions and consulted during sampling.
//!
//! [`RayMarcher`] is the only place in the library that turns a ray into
//! sample points. With a grid it *proposes* and *decides*: a [`CellWalk`]
//! over an 8³ digest of the grid finds the stretches of the ray that cross
//! only clear digest cells, and every sample outside them takes the
//! per-sample decision `is_occupied(normalize(ray.at(t)))`. The digest
//! carries a one-cell halo, so a clear digest cell proves that decision
//! would have said "empty" (DESIGN.md, "Ray marching"): the survivors are
//! the per-sample filter's, bit for bit.

use crate::engine::{self, POINT_CHUNK};
use crate::model::{eval_density_batch, EvalScratch, TrainableField};
use inerf_geom::{Aabb, CellWalk, Ray, RayHit, Vec3};
use inerf_render::volume::RaySpan;
use rayon::ThreadPool;

/// Probe points per block of the refresh sweep: four of the model's point
/// chunks, so a pool of up to four workers is busy and at most four chunk
/// scratches are ever live. A whole-grid batch (32³ cells = 128 chunks per
/// probe) would hold every chunk's activations at once and nearly doubles
/// the trainer's peak RSS; the block bounds it at about a megabyte.
const REFRESH_BLOCK: usize = 4 * POINT_CHUNK;

/// The view direction the refresh probes with. Density does not depend on
/// it; only per-point models, which evaluate colour too, read it.
const PROBE_DIR: Vec3 = Vec3::new(0.0, 0.0, 1.0);

/// Pooled buffers of [`OccupancyGrid::refresh_with`]: one block of probe
/// points with the cells they belong to, their densities, and the model's
/// evaluation scratch. Pure scratch — never checkpointed; reused across
/// refreshes it stops growing after the first one.
#[derive(Debug, Clone, Default)]
pub(crate) struct RefreshScratch {
    cells: Vec<usize>,
    points: Vec<Vec3>,
    dirs: Vec<Vec3>,
    sigmas: Vec<f32>,
    /// Colours of the `query_eval` fallback (per-point models only), discarded.
    rgbs: Vec<Vec3>,
    eval: EvalScratch,
}

impl RefreshScratch {
    /// Total capacity of the pooled buffers, in elements (growth
    /// accounting; see `BatchArena::capacity_sum`).
    pub(crate) fn capacity_sum(&self) -> usize {
        self.cells.capacity()
            + self.points.capacity()
            + self.dirs.capacity()
            + self.sigmas.capacity()
            + self.rgbs.capacity()
            + self.eval.capacity_sum()
    }
}

/// Row-major (x fastest) index of the cell containing normalized point `p`
/// in a `resolution`³ grid; out-of-range coordinates clamp to the border
/// cells. The clamp is on the integer: `(v·r).min(r − 1e-4)` rounds back to
/// `r` in f32 once `r ≥ 2048` and would index one past the axis at `v = 1`.
#[inline]
fn cell_index(resolution: u32, p: Vec3) -> usize {
    let res = resolution as usize;
    let r = resolution as f32;
    let axis = |v: f32| ((v.clamp(0.0, 1.0) * r) as usize).min(res - 1);
    (axis(p.z) * res + axis(p.y)) * res + axis(p.x)
}

/// Cells per axis of the digest the marcher walks. Measured, not a knob:
/// 8³ beat 4³ and 16³ (EXPERIMENTS.md, "One ray marcher").
const SUMMARY: usize = 8;
const SUMMARY_WORDS: usize = SUMMARY.pow(3).div_ceil(64);

/// A coarse binary occupancy grid over `[0,1]^3` (normalized coordinates).
///
/// Equality and the checkpoint see the resolution and the cell bits only.
#[derive(Debug, Clone)]
pub struct OccupancyGrid {
    resolution: u32,
    /// One bit per cell, row-major (x fastest).
    bits: Vec<u64>,
    /// Derived from `bits`: one bit per cell of a [`SUMMARY`]³ lattice, set
    /// if a grid cell overlapping it, or a neighbour of such a cell, is
    /// occupied. A superset until the next rebuild once a cell was cleared.
    summary: [u64; SUMMARY_WORDS],
}

impl PartialEq for OccupancyGrid {
    fn eq(&self, other: &Self) -> bool {
        (self.resolution, &self.bits) == (other.resolution, &other.bits)
    }
}

impl Eq for OccupancyGrid {}

impl OccupancyGrid {
    /// Creates a fully-occupied grid (conservative start: nothing skipped
    /// until the first refresh).
    ///
    /// # Panics
    ///
    /// Panics if `resolution` is zero.
    pub fn new(resolution: u32) -> Self {
        let cells = (resolution as usize).pow(3);
        Self::from_words(resolution, vec![u64::MAX; cells.div_ceil(64)])
    }

    /// Grid resolution per axis.
    pub fn resolution(&self) -> u32 {
        self.resolution
    }

    /// Total cell count.
    fn cell_count(&self) -> usize {
        (self.resolution as usize).pow(3)
    }

    /// The raw bit words backing the grid (checkpoint capture).
    pub fn words(&self) -> &[u64] {
        &self.bits
    }

    /// Rebuilds a grid from [`OccupancyGrid::words`] output.
    ///
    /// # Panics
    ///
    /// Panics if `resolution` is zero or `words` has the wrong length
    /// for it; callers restoring untrusted bytes must validate first
    /// and surface a typed error.
    pub fn from_words(resolution: u32, words: Vec<u64>) -> Self {
        assert!(resolution > 0, "occupancy grid resolution must be positive");
        let cells = (resolution as usize).pow(3);
        assert_eq!(
            words.len(),
            cells.div_ceil(64),
            "occupancy word count does not match resolution"
        );
        let mut grid = OccupancyGrid {
            resolution,
            bits: words,
            summary: [0; SUMMARY_WORDS],
        };
        grid.rebuild_summary();
        grid
    }

    /// Sets every digest cell that grid cell `cell`, widened by its halo to
    /// `[c − 1, c + 2) / resolution` per axis (clipped), overlaps.
    fn mark_summary(&mut self, cell: usize) {
        let res = self.resolution as usize;
        let span = |c: usize| {
            c.saturating_sub(1) * SUMMARY / res..((c + 2).min(res) * SUMMARY).div_ceil(res)
        };
        for z in span(cell / (res * res)) {
            for y in span(cell / res % res) {
                for x in span(cell % res) {
                    let k = (z * SUMMARY + y) * SUMMARY + x;
                    self.summary[k / 64] |= 1 << (k % 64);
                }
            }
        }
    }

    /// Recomputes the digest from the cell bits.
    fn rebuild_summary(&mut self) {
        self.summary = [0; SUMMARY_WORDS];
        for cell in 0..self.cell_count() {
            if self.bits[cell / 64] >> (cell % 64) & 1 == 1 {
                self.mark_summary(cell);
            }
        }
    }

    /// Whether no sample the walk places in digest cell `cell` can lie in
    /// an occupied grid cell.
    #[inline]
    fn summary_is_clear(&self, cell: [u32; 3]) -> bool {
        let k = (cell[2] as usize * SUMMARY + cell[1] as usize) * SUMMARY + cell[0] as usize;
        self.summary[k / 64] >> (k % 64) & 1 == 0
    }

    /// Whether the cell containing normalized point `p` is marked occupied.
    #[inline]
    fn is_occupied(&self, p: Vec3) -> bool {
        let i = cell_index(self.resolution, p);
        self.bits[i / 64] >> (i % 64) & 1 == 1
    }

    /// Marks or clears the cell containing `p`.
    pub fn set(&mut self, p: Vec3, occupied: bool) {
        let i = cell_index(self.resolution, p);
        if occupied {
            self.bits[i / 64] |= 1 << (i % 64);
            self.mark_summary(i);
        } else {
            // The digest stays a superset: a rebuild per cleared cell would
            // make a cell-by-cell sweep quadratic.
            self.bits[i / 64] &= !(1 << (i % 64));
        }
    }

    /// Fraction of cells currently marked occupied.
    pub fn occupancy(&self) -> f64 {
        let set: u32 = self.bits.iter().map(|w| w.count_ones()).sum();
        // The last word may contain padding bits beyond cell_count; they are
        // never cleared, so subtract them.
        let pad = self.bits.len() * 64 - self.cell_count();
        (set as usize - pad) as f64 / self.cell_count() as f64
    }

    /// Refreshes the grid from the model's density predictions: each cell is
    /// probed at `probes` points along its body diagonal (`probes = 1` is
    /// the centre) and marked occupied if any probe's density exceeds
    /// `threshold`.
    ///
    /// iNGP refreshes every few training iterations with an EMA; a periodic
    /// hard refresh reproduces the skipping behaviour at our scale.
    ///
    /// One-shot form of the trainer's sweep, on the default pool with a
    /// throwaway scratch.
    pub fn refresh<M: TrainableField>(&mut self, model: &M, threshold: f32, probes: u32) {
        self.refresh_with(
            model,
            threshold,
            probes,
            &mut RefreshScratch::default(),
            &engine::default_pool(),
        );
    }

    /// [`OccupancyGrid::refresh`] as a blocked, batched, density-only
    /// sweep on `pool` into pooled `scratch`; returns the number of probe
    /// points evaluated.
    ///
    /// All cell bits are cleared, then probe `k` walks the cells still
    /// clear, [`REFRESH_BLOCK`] at a time: their `k`-th probe points go
    /// through the model's batched density query and every `σ > threshold`
    /// sets its cell's bit. Probe `k + 1` therefore visits only the cells
    /// probe `k` left empty — the per-cell early-out of the scalar loop —
    /// so the count is `cells + Σ_k empties after probe k`. Batched density
    /// equals scalar density bit for bit per point, so the bits are those
    /// of probing cell by cell with `query_eval`.
    pub(crate) fn refresh_with<M: TrainableField>(
        &mut self,
        model: &M,
        threshold: f32,
        probes: u32,
        scratch: &mut RefreshScratch,
        pool: &ThreadPool,
    ) -> u64 {
        let res = self.resolution as usize;
        let cells = self.cell_count();
        let probes = probes.max(1);
        // Clear the cells, not the padding bits `occupancy()` subtracts:
        // a last, partial word exists exactly when `cells % 64 != 0`.
        self.bits[..cells / 64].fill(0);
        if let Some(last) = self.bits.get_mut(cells / 64) {
            *last &= !0 << (cells % 64);
        }
        let mut evaluated = 0u64;
        for k in 0..probes {
            let f = (k as f32 + 0.5) / probes as f32;
            let mut cell = 0usize;
            while cell < cells {
                scratch.cells.clear();
                scratch.points.clear();
                while cell < cells && scratch.cells.len() < REFRESH_BLOCK {
                    if self.bits[cell / 64] >> (cell % 64) & 1 == 0 {
                        let (ix, iy, iz) = (cell % res, cell / res % res, cell / (res * res));
                        scratch.cells.push(cell);
                        scratch.points.push(Vec3::new(
                            (ix as f32 + f) / res as f32,
                            (iy as f32 + f) / res as f32,
                            (iz as f32 + f) / res as f32,
                        ));
                    }
                    cell += 1;
                }
                let n = scratch.cells.len();
                scratch.dirs.resize(n, PROBE_DIR);
                scratch.sigmas.resize(n, 0.0);
                eval_density_batch(
                    model,
                    &scratch.points,
                    &scratch.dirs,
                    &mut scratch.sigmas,
                    &mut scratch.rgbs,
                    &mut scratch.eval,
                    pool,
                );
                for (&c, &sigma) in scratch.cells.iter().zip(&scratch.sigmas) {
                    if sigma > threshold {
                        self.bits[c / 64] |= 1 << (c % 64);
                    }
                }
                evaluated += n as u64;
            }
        }
        self.rebuild_summary();
        evaluated
    }

    /// The scalar refresh the blocked sweep replaced, cell by cell through
    /// `query_eval` — the reference the equivalence tests compare bits
    /// against. Returns its `query_eval` call count.
    #[cfg(test)]
    fn refresh_scalar_reference<M: TrainableField>(
        &mut self,
        model: &M,
        threshold: f32,
        probes: u32,
    ) -> u64 {
        let res = self.resolution;
        let mut calls = 0u64;
        for iz in 0..res {
            for iy in 0..res {
                for ix in 0..res {
                    let mut occupied = false;
                    for k in 0..probes.max(1) {
                        let f = (k as f32 + 0.5) / probes.max(1) as f32;
                        let p = Vec3::new(
                            (ix as f32 + f) / res as f32,
                            (iy as f32 + f) / res as f32,
                            (iz as f32 + f) / res as f32,
                        );
                        calls += 1;
                        if model.query_eval(p, PROBE_DIR).0 > threshold {
                            occupied = true;
                            break;
                        }
                    }
                    let center = Vec3::new(
                        (ix as f32 + 0.5) / res as f32,
                        (iy as f32 + 0.5) / res as f32,
                        (iz as f32 + 0.5) / res as f32,
                    );
                    self.set(center, occupied);
                }
            }
        }
        calls
    }

    /// Filters sample distances along a ray into a caller-pooled buffer
    /// (cleared and refilled), keeping those whose normalized sample point
    /// lies in an occupied cell; returns the skipped count.
    ///
    /// Any `ts` gives the result of testing every sample on its own. The
    /// fast path — stretches of the ray rejected by the digest walk — covers
    /// finite, ascending distances inside the ray's span of `bounds`; one
    /// that is out of order, non-finite or outside is tested on its own.
    pub fn filter_ts_into(
        &self,
        ray: &Ray,
        bounds: &Aabb,
        ts: &[f32],
        kept: &mut Vec<f32>,
    ) -> usize {
        self.cull(ray, bounds, bounds.intersect(ray), ts, kept)
    }

    /// [`OccupancyGrid::filter_ts_into`] given the ray's `hit`: propose /
    /// decide. A sample the digest walk places in a clear cell is skipped
    /// unseen with the rest of its *clear run* — that cell and the clear
    /// cells after it. Any other sample — a NaN, a distance behind the walk
    /// or past its end, one in a span with a NaN bound — takes the
    /// per-sample decision, so the result never depends on the walk.
    fn cull(
        &self,
        ray: &Ray,
        bounds: &Aabb,
        hit: Option<RayHit>,
        ts: &[f32],
        kept: &mut Vec<f32>,
    ) -> usize {
        kept.clear();
        // The halo absorbs f32 rounding of a sample position only while
        // that is small against a grid cell: the walk and the per-sample
        // test each err by a few roundings of `reach`, and 64 of them must
        // fit in a cell. Not so far from the bounds, or for a non-finite
        // ray: then there is no walk.
        let l1 = |v: Vec3| v.x.abs() + v.y.abs() + v.z.abs();
        let trusted = |hit: &RayHit| {
            let at_rest = l1(ray.origin) + l1(bounds.min) + l1(bounds.max);
            let reach = at_rest + l1(ray.direction) * hit.t_far;
            reach * (self.resolution as f32 * 64.0 * f32::EPSILON) < bounds.extent().min_component()
        };
        let walk = hit
            .filter(trusted)
            .map(|hit| CellWalk::new(ray, bounds, SUMMARY as u32, hit));
        let mut walk = walk.into_iter().flatten();
        let mut cell = walk.next();
        let mut i = 0;
        while let Some(&t) = ts.get(i) {
            while cell.is_some_and(|c| t >= c.t_exit) {
                cell = walk.next();
            }
            match cell {
                Some(c) if c.t_enter <= t && t < c.t_exit && self.summary_is_clear(c.cell) => {
                    let mut hi = c.t_exit;
                    loop {
                        cell = walk.next();
                        match cell {
                            // `>=` fails on a NaN exit: the run stops short of it.
                            Some(c) if c.t_exit >= hi && self.summary_is_clear(c.cell) => {
                                hi = c.t_exit;
                            }
                            _ => break,
                        }
                    }
                    // Nothing is known about the order: the run ends at the
                    // first distance outside it (`t` itself is inside).
                    let in_run = |&&t: &&f32| c.t_enter <= t && t < hi;
                    i += ts[i..].iter().take_while(in_run).count();
                }
                _ => {
                    if self.is_occupied(bounds.normalize(ray.at(t))) {
                        kept.push(t);
                    }
                    i += 1;
                }
            }
        }
        ts.len() - kept.len()
    }

    /// The filter the digest walk replaced, every sample tested on its own
    /// — the reference the equivalence tests compare `kept` lists against.
    #[cfg(test)]
    fn filter_ts_reference(&self, ray: &Ray, bounds: &Aabb, ts: &[f32]) -> (Vec<f32>, usize) {
        let kept: Vec<f32> = ts
            .iter()
            .copied()
            .filter(|&t| self.is_occupied(bounds.normalize(ray.at(t))))
            .collect();
        let skipped = ts.len() - kept.len();
        (kept, skipped)
    }
}

/// Step (b) of the pipeline, and the batch it fills: intersects a ray with
/// the scene bounds, places stratified distances on the span inside, drops
/// those an occupancy grid marks empty and appends the rest to the
/// structure-of-arrays batch. Pooled: `clear` keeps every capacity.
#[derive(Debug, Clone, Default)]
pub struct RayMarcher {
    /// Normalized sample points.
    pub points: Vec<Vec3>,
    /// Ray direction per sample point.
    pub dirs: Vec<Vec3>,
    /// One span per ray that kept a sample; `dt` is the uniform step
    /// before culling.
    pub spans: Vec<RaySpan>,
    /// Rays marched since [`RayMarcher::clear`] that were sampled: every
    /// sample of theirs not in `points` was dropped by the grid.
    pub rays_hit: u64,
    /// All distances of the current ray.
    ts: Vec<f32>,
    /// Its jitter, then its surviving distances.
    kept: Vec<f32>,
}

impl RayMarcher {
    /// Empties the batch and zeroes the counter.
    pub fn clear(&mut self) {
        self.points.clear();
        self.dirs.clear();
        self.spans.clear();
        self.rays_hit = 0;
    }

    /// Total capacity of the pooled buffers, in elements (growth accounting).
    pub(crate) fn capacity_sum(&self) -> usize {
        self.points.capacity()
            + self.dirs.capacity()
            + self.spans.capacity()
            + self.ts.capacity()
            + self.kept.capacity()
    }

    /// Marches one ray with `samples` stratified samples; returns whether
    /// it appended a span. `jitter` draws one offset in `[-0.5, 0.5)` bin
    /// widths per sample — all `samples` of them whatever the grid drops,
    /// none for a ray that is not sampled: the caller's random stream does
    /// not depend on the grid. A ray that misses the bounds, or whose span
    /// inside is shorter than `1e-5` or ends before the `1e-4` near clamp,
    /// is not sampled.
    pub fn march(
        &mut self,
        ray: &Ray,
        bounds: &Aabb,
        samples: usize,
        grid: Option<&OccupancyGrid>,
        jitter: Option<impl FnMut() -> f32>,
    ) -> bool {
        let Some(hit) = bounds.intersect(ray) else {
            return false;
        };
        let near = hit.t_near.max(1e-4);
        if hit.t_far - hit.t_near < 1e-5 || hit.t_far <= near {
            return false;
        }
        self.rays_hit += 1;
        // `kept` holds the jitter until the filter refills it.
        let jitter = jitter.map(|mut draw| {
            self.kept.clear();
            self.kept.extend((0..samples).map(|_| draw()));
            self.kept.as_slice()
        });
        ray.stratified_ts_into(near, hit.t_far, samples, jitter, &mut self.ts);
        let ts = match grid {
            Some(grid) => {
                grid.cull(ray, bounds, Some(hit), &self.ts, &mut self.kept);
                &self.kept
            }
            None => &self.ts,
        };
        if ts.is_empty() {
            return false;
        }
        self.spans.push(RaySpan {
            start: self.points.len(),
            len: ts.len(),
            dt: (hit.t_far - near) / samples as f32,
        });
        for &t in ts {
            self.points.push(bounds.normalize(ray.at(t)));
            self.dirs.push(ray.direction);
        }
        true
    }
}

/// What [`gather_by_hand`] produced.
#[cfg(test)]
#[derive(Debug, Default, PartialEq)]
pub(crate) struct HandGathered {
    pub points: Vec<Vec3>,
    pub dirs: Vec<Vec3>,
    pub spans: Vec<RaySpan>,
    /// Indices of the rays that pushed a span.
    pub kept_rays: Vec<usize>,
    pub rays_hit: u64,
}

/// The gather loop as `Trainer::gather_batch` and `GenScratch::generate`
/// each spelled it out before the marcher, with every sample tested on its
/// own — the anchor the two copies used to be for each other.
#[cfg(test)]
pub(crate) fn gather_by_hand(
    rays: &[Ray],
    bounds: &Aabb,
    samples: usize,
    grid: Option<&OccupancyGrid>,
    mut jitter: Option<impl FnMut() -> f32>,
) -> HandGathered {
    let mut out = HandGathered::default();
    for (r, ray) in rays.iter().enumerate() {
        let Some(hit) = bounds.intersect(ray) else {
            continue;
        };
        if hit.t_far - hit.t_near < 1e-5 {
            continue;
        }
        out.rays_hit += 1;
        let js: Option<Vec<f32>> = jitter
            .as_mut()
            .map(|draw| (0..samples).map(|_| draw()).collect());
        let ts = ray.stratified_ts(hit.t_near.max(1e-4), hit.t_far, samples, js.as_deref());
        let dt = (hit.t_far - hit.t_near.max(1e-4)) / samples as f32;
        let ts = match grid {
            Some(g) => g.filter_ts_reference(ray, bounds, &ts).0,
            None => ts,
        };
        if ts.is_empty() {
            continue;
        }
        out.spans.push(RaySpan {
            start: out.points.len(),
            len: ts.len(),
            dt,
        });
        for &t in &ts {
            out.points.push(bounds.normalize(ray.at(t)));
            out.dirs.push(ray.direction);
        }
        out.kept_rays.push(r);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::NerfLite;
    use crate::model::{IngpModel, ModelConfig};
    use crate::train::{TrainConfig, Trainer};
    use inerf_mlp::Precision;
    use inerf_scenes::{zoo, DatasetConfig};
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn starts_fully_occupied() {
        let g = OccupancyGrid::new(8);
        assert_eq!(g.cell_count(), 512);
        assert!((g.occupancy() - 1.0).abs() < 1e-12);
        assert!(g.is_occupied(Vec3::splat(0.5)));
    }

    #[test]
    fn set_and_query_roundtrip() {
        let mut g = OccupancyGrid::new(4);
        let p = Vec3::new(0.9, 0.1, 0.6);
        g.set(p, false);
        assert!(!g.is_occupied(p));
        // A point in a different cell is unaffected.
        assert!(g.is_occupied(Vec3::new(0.1, 0.1, 0.6)));
        g.set(p, true);
        assert!(g.is_occupied(p));
    }

    #[test]
    fn occupancy_counts_exactly() {
        let mut g = OccupancyGrid::new(4); // 64 cells
        for iz in 0..4 {
            for iy in 0..4 {
                for ix in 0..4 {
                    g.set(
                        Vec3::new(
                            (ix as f32 + 0.5) / 4.0,
                            (iy as f32 + 0.5) / 4.0,
                            (iz as f32 + 0.5) / 4.0,
                        ),
                        false,
                    );
                }
            }
        }
        assert_eq!(g.occupancy(), 0.0);
        g.set(Vec3::splat(0.1), true);
        assert!((g.occupancy() - 1.0 / 64.0).abs() < 1e-12);
    }

    #[test]
    fn refresh_clears_empty_space_of_untrained_model() {
        // A freshly initialized model has near-zero density nowhere above a
        // generous threshold, so the refresh empties the grid.
        let model = IngpModel::new(ModelConfig::tiny(), 3);
        let mut g = OccupancyGrid::new(8);
        g.refresh(&model, 10.0, 2);
        assert!(g.occupancy() < 0.05, "occupancy {}", g.occupancy());
    }

    #[test]
    fn filter_ts_skips_cleared_cells() {
        let mut g = OccupancyGrid::new(2);
        // Clear the -x half (cells with x < 0.5).
        for iz in 0..2 {
            for iy in 0..2 {
                g.set(
                    Vec3::new(0.25, (iy as f32 + 0.5) / 2.0, (iz as f32 + 0.5) / 2.0),
                    false,
                );
            }
        }
        let bounds = Aabb::new(Vec3::splat(-1.0), Vec3::splat(1.0));
        let ray = Ray::new(Vec3::new(-2.0, 0.1, 0.1), Vec3::new(1.0, 0.0, 0.0));
        let ts: Vec<f32> = (0..16).map(|i| 1.0 + i as f32 * 0.125).collect();
        // A stale entry: the buffer is cleared before it is refilled.
        let mut kept = vec![f32::NAN];
        let skipped = g.filter_ts_into(&ray, &bounds, &ts, &mut kept);
        assert!(skipped > 0, "some samples cross the cleared half");
        assert!(
            !kept.is_empty(),
            "some samples survive in the occupied half"
        );
        // Every kept sample is in the +x (occupied) half of the box.
        for &t in &kept {
            assert!(
                ray.at(t).x >= 0.0 - 0.0626,
                "kept sample at x={}",
                ray.at(t).x
            );
        }
        assert_eq!(kept.len() + skipped, ts.len());
    }

    /// The digest by its definition, from the cell bits alone: cell `k` is
    /// set iff some grid cell that overlaps it, widened by one cell, holds
    /// an occupied cell.
    fn summary_by_definition(g: &OccupancyGrid) -> [u64; SUMMARY_WORDS] {
        let res = g.resolution as usize;
        let bit = |x: usize, y: usize, z: usize| {
            let i = (z * res + y) * res + x;
            g.bits[i / 64] >> (i % 64) & 1 == 1
        };
        // Grid cells `c` with `[c, c + 1) / res` meeting `[k, k + 1) / SUMMARY`,
        // then their neighbours.
        let halo = |k: usize| {
            let over: Vec<usize> = (0..res)
                .filter(|&c| c * SUMMARY < (k + 1) * res && (c + 1) * SUMMARY > k * res)
                .collect();
            over[0].saturating_sub(1)..(over[over.len() - 1] + 2).min(res)
        };
        let mut summary = [0u64; SUMMARY_WORDS];
        for k in 0..SUMMARY.pow(3) {
            let (kx, ky, kz) = (k % SUMMARY, k / SUMMARY % SUMMARY, k / (SUMMARY * SUMMARY));
            let set = halo(kz).any(|z| halo(ky).any(|y| halo(kx).any(|x| bit(x, y, z))));
            summary[k / 64] |= u64::from(set) << (k % 64);
        }
        summary
    }

    /// A grid of `res`³ cells, empty but for a few random blobs (and, every
    /// other seed, the far corner cell: the halo at the border).
    fn blob_grid(res: u32, rng: &mut SmallRng) -> OccupancyGrid {
        let n = res as usize;
        let cells = n.pow(3);
        let mut words = vec![0u64; cells.div_ceil(64)];
        if let Some(last) = words.get_mut(cells / 64) {
            *last = !0 << (cells % 64); // padding bits, as `new` leaves them
        }
        let mut set = |x: usize, y: usize, z: usize| {
            let i = (z * n + y) * n + x;
            words[i / 64] |= 1 << (i % 64);
        };
        for _ in 0..rng.gen_range(0..4) {
            let c = [0; 3].map(|_| rng.gen_range(0..n));
            let r = rng.gen_range(0..3usize);
            let axis = |c: usize| c.saturating_sub(r)..(c + r + 1).min(n);
            for z in axis(c[2]) {
                for y in axis(c[1]) {
                    for x in axis(c[0]) {
                        set(x, y, z);
                    }
                }
            }
        }
        if rng.gen_bool(0.5) {
            set(n - 1, n - 1, n - 1);
        }
        OccupancyGrid::from_words(res, words)
    }

    fn random_bounds(rng: &mut SmallRng) -> Aabb {
        let min = Vec3::new(
            rng.gen_range(-2.0..-0.5),
            rng.gen_range(-2.0..-0.5),
            rng.gen_range(-2.0..-0.5),
        );
        let extent = Vec3::new(
            rng.gen_range(0.5..4.0),
            rng.gen_range(0.5..4.0),
            rng.gen_range(0.5..4.0),
        );
        Aabb::new(min, min + extent)
    }

    /// A ray from inside or around `bounds` towards a point inside it, with
    /// zero, one or two direction components zeroed (planar, axis-parallel)
    /// or one pushed below `Aabb::intersect`'s `1e-12` parallel cut-off. A
    /// planar ray lies *in* a face of the digest lattice: every sample then
    /// sits on the boundary the walk and the per-sample test may round to
    /// different sides of.
    fn random_ray(bounds: &Aabb, rng: &mut SmallRng) -> Ray {
        let inside = |stretch: f32, rng: &mut SmallRng| {
            let u = Vec3::new(
                rng.gen_range(0.0..1.0),
                rng.gen_range(0.0..1.0),
                rng.gen_range(0.0..1.0),
            );
            let u = (u - Vec3::splat(0.5)) * stretch + Vec3::splat(0.5);
            let e = bounds.extent();
            bounds.min + Vec3::new(u.x * e.x, u.y * e.y, u.z * e.z)
        };
        let (mode, a, b) = (
            rng.gen_range(0..6),
            rng.gen_range(0..3usize),
            rng.gen_range(0..3usize),
        );
        let stretch = if rng.gen_bool(0.3) { 1.0 } else { 3.0 };
        let free = inside(stretch, rng);
        let face = bounds.min + bounds.extent() * (rng.gen_range(0..9) as f32 / 8.0);
        let origin = |i: usize| if mode < 2 && i == a { face[i] } else { free[i] };
        let origin = Vec3::new(origin(0), origin(1), origin(2));
        let d = (inside(1.0, rng) - origin).to_array();
        let shaped = |i: usize| match mode {
            0 if i == a => 0.0,
            1 if i == a || i == b => 0.0,
            2 if i == a => 1e-13,
            _ => d[i],
        };
        let d = Vec3::new(shaped(0), shaped(1), shaped(2));
        if d.length_squared() < 1e-12 {
            return Ray::new(origin, Vec3::ONE);
        }
        // Built by hand: `Ray::new` would renormalize `1e-13` away or up.
        Ray {
            origin,
            direction: d / d.length_squared().sqrt(),
        }
    }

    fn filtered(g: &OccupancyGrid, ray: &Ray, bounds: &Aabb, ts: &[f32]) -> (Vec<f32>, usize) {
        let mut kept = vec![f32::NAN]; // stale: the buffer is cleared first
        let skipped = g.filter_ts_into(ray, bounds, ts, &mut kept);
        (kept, skipped)
    }

    /// Bit patterns, so that NaN distances compare.
    fn bits(r: &(Vec<f32>, usize)) -> (Vec<u32>, usize) {
        (r.0.iter().map(|t| t.to_bits()).collect(), r.1)
    }

    #[test]
    fn summary_is_rebuilt_by_refresh_and_from_words_and_ignored_by_eq() {
        let model = briefly_trained(Precision::F32);
        for res in [1, 7, 16, 33] {
            let mut g = OccupancyGrid::new(res);
            assert_eq!(g.summary, [u64::MAX; SUMMARY_WORDS]);
            g.refresh(&model, 0.3, 2);
            assert_eq!(g.summary, summary_by_definition(&g), "refresh, res {res}");
            let restored = OccupancyGrid::from_words(res, g.words().to_vec());
            assert_eq!(restored.summary, g.summary, "from_words, res {res}");
            if res >= 16 {
                assert_ne!(
                    g.summary,
                    [u64::MAX; SUMMARY_WORDS],
                    "fixture culls nothing"
                );
            }
            // Same cells, different digest: still equal.
            let mut stale = g.clone();
            stale.summary = [u64::MAX; SUMMARY_WORDS];
            assert_eq!(stale, g);
        }
        let mut rng = SmallRng::seed_from_u64(3);
        for res in [1, 2, 7, 8, 9, 16, 32, 64] {
            let g = blob_grid(res, &mut rng);
            assert_eq!(g.summary, summary_by_definition(&g), "blobs, res {res}");
        }
    }

    #[test]
    fn summary_follows_set_and_stays_a_superset_when_cells_are_cleared() {
        let mut rng = SmallRng::seed_from_u64(5);
        for res in [7, 16, 32] {
            let mut g = blob_grid(res, &mut rng);
            for _ in 0..200 {
                let p = Vec3::new(
                    rng.gen_range(0.0..1.0),
                    rng.gen_range(0.0..1.0),
                    rng.gen_range(0.0..1.0),
                );
                g.set(p, rng.gen_bool(0.3));
                let exact = summary_by_definition(&g);
                for (have, want) in g.summary.iter().zip(&exact) {
                    assert_eq!(have & want, *want, "res {res}: digest lost a cell");
                }
            }
            // Setting alone keeps it exact.
            let mut g = OccupancyGrid::from_words(res, blob_grid(res, &mut rng).words().to_vec());
            g.set(Vec3::new(0.99, 0.01, 0.5), true);
            assert_eq!(g.summary, summary_by_definition(&g));
        }
    }

    /// The spans of `ray`'s digest walk through clear cells: where `cull`
    /// skips samples unseen.
    fn clear_spans(g: &OccupancyGrid, ray: &Ray, bounds: &Aabb, hit: RayHit) -> Vec<(f32, f32)> {
        CellWalk::new(ray, bounds, SUMMARY as u32, hit)
            .filter(|c| g.summary_is_clear(c.cell))
            .map(|c| (c.t_enter, c.t_exit))
            .collect()
    }

    #[test]
    fn an_empty_grid_keeps_nothing_and_a_full_one_everything() {
        let bounds = Aabb::new(Vec3::splat(-1.0), Vec3::splat(1.0));
        let ray = Ray::new(Vec3::new(-3.0, 0.2, 0.1), Vec3::new(1.0, 0.1, 0.05));
        let hit = bounds.intersect(&ray).expect("hits");
        let ts = ray.stratified_ts(hit.t_near, hit.t_far, 64, None);
        let empty = OccupancyGrid::from_words(32, vec![0; 32usize.pow(3) / 64]);
        assert_eq!(filtered(&empty, &ray, &bounds, &ts), (vec![], 64));
        assert_eq!(
            filtered(&OccupancyGrid::new(32), &ray, &bounds, &ts),
            (ts, 0)
        );
    }

    #[test]
    fn a_walk_span_with_a_nan_bound_skips_nothing_unseen() {
        // A subnormal x component (`1 / d` infinite) from an origin on a
        // digest face: the walk's first boundary distance is `0 · inf`, so
        // its first span ends at NaN. The far end of the ray is occupied
        // and comes first in `ts`; the cell the walk starts in is clear.
        let bounds = Aabb::new(Vec3::splat(-1.0), Vec3::splat(1.0));
        let mut g = OccupancyGrid::from_words(32, vec![0; 32usize.pow(3) / 64]);
        g.set(Vec3::new(0.26, 0.99, 0.5), true);
        for x in [-1e-40, 1e-40] {
            let ray = Ray {
                origin: Vec3::new(-0.5, -3.0, 0.0),
                direction: Vec3::new(x, 1.0, 0.0),
            };
            let hit = bounds.intersect(&ray).expect("hits");
            let walk: Vec<_> = CellWalk::new(&ray, &bounds, SUMMARY as u32, hit).collect();
            assert_eq!(walk[0].t_exit.is_nan(), x < 0.0, "{walk:?}");
            let mut ts = ray.stratified_ts(hit.t_near, hit.t_far, 64, None);
            for ts in [ts.clone(), {
                ts.reverse();
                ts
            }] {
                let reference = g.filter_ts_reference(&ray, &bounds, &ts);
                assert!(!reference.0.is_empty() && reference.1 > 0);
                assert_eq!(filtered(&g, &ray, &bounds, &ts), reference);
            }
        }
    }

    #[test]
    fn samples_on_a_digest_face_are_decided_by_the_halo() {
        // Grids whose occupied regions are whole digest cells, and samples
        // placed on the walk's own cell crossings, a few ulps to either
        // side: there the walk and the per-sample test round to different
        // sides independently. Without the halo the walk's side would
        // count, and the samples counted below would be lost.
        let mut rng = SmallRng::seed_from_u64(17);
        let mut saved_by_halo = 0;
        for _ in 0..200 {
            let bounds = random_bounds(&mut rng);
            let res = [16usize, 32, 64][rng.gen_range(0..3usize)];
            let per = res / SUMMARY;
            let raw: Vec<bool> = (0..SUMMARY.pow(3)).map(|_| rng.gen_bool(0.3)).collect();
            let digest_of = |c: [usize; 3]| (c[2] * SUMMARY + c[1]) * SUMMARY + c[0];
            let mut g = OccupancyGrid::from_words(res as u32, vec![0; res.pow(3) / 64]);
            for cell in 0..res.pow(3) {
                let c = [cell % res, cell / res % res, cell / (res * res)];
                if raw[digest_of(c.map(|c| c / per))] {
                    g.bits[cell / 64] |= 1 << (cell % 64);
                }
            }
            g.rebuild_summary();
            for _ in 0..10 {
                let ray = random_ray(&bounds, &mut rng);
                let Some(hit) = bounds.intersect(&ray).filter(|h| h.t_far > h.t_near) else {
                    continue;
                };
                let walk: Vec<_> = CellWalk::new(&ray, &bounds, SUMMARY as u32, hit).collect();
                let mut ts: Vec<f32> = walk
                    .iter()
                    .filter(|c| c.t_exit.is_finite() && c.t_exit > 0.0)
                    .flat_map(|c| {
                        (-2i32..=2).map(|j| f32::from_bits((c.t_exit.to_bits() as i32 + j) as u32))
                    })
                    .collect();
                ts.sort_by(f32::total_cmp);
                let reference = g.filter_ts_reference(&ray, &bounds, &ts);
                assert_eq!(filtered(&g, &ray, &bounds, &ts), reference, "{ray:?}");
                saved_by_halo += reference
                    .0
                    .iter()
                    .filter(|&&t| {
                        let at = walk.iter().find(|c| c.t_enter <= t && t < c.t_exit);
                        at.is_some_and(|c| !raw[digest_of(c.cell.map(|c| c as usize))])
                    })
                    .count();
            }
        }
        assert!(
            saved_by_halo > 100,
            "only {saved_by_halo} samples needed the halo"
        );
    }

    #[test]
    fn filter_matches_the_reference_outside_its_fast_path() {
        let mut rng = SmallRng::seed_from_u64(11);
        let bounds = Aabb::new(Vec3::splat(-1.0), Vec3::new(1.0, 2.0, 1.5));
        let inv_sqrt2 = std::f32::consts::FRAC_1_SQRT_2;
        let rays = [
            // Starts inside the box.
            Ray::new(Vec3::new(0.1, 0.2, -0.3), Vec3::new(0.3, -1.0, 0.2)),
            // A component below the `1e-12` parallel cut-off of `intersect`.
            Ray {
                origin: Vec3::new(0.3, -4.0, 0.2),
                direction: Vec3::new(1e-13, 0.8, 0.6),
            },
            // Grazes the edge x = -1, y = 2: a span of zero length (or a miss).
            Ray {
                origin: Vec3::new(-2.0, 1.0, 0.0),
                direction: Vec3::new(inv_sqrt2, inv_sqrt2, 0.0),
            },
            // A subnormal component from a digest face: a NaN walk bound.
            Ray {
                origin: Vec3::new(-0.5, -4.0, 0.375),
                direction: Vec3::new(-1e-40, 0.8, 0.6),
            },
            // Misses the box altogether.
            Ray::new(Vec3::new(-3.0, 5.0, 0.0), Vec3::new(1.0, 0.0, 0.0)),
            // So far away that rounding is no longer small against a cell.
            Ray::new(Vec3::new(-3.0e5, 0.5, 0.2), Vec3::new(1.0, 0.0, 0.0)),
            // Not a ray at all.
            Ray {
                origin: Vec3::new(f32::NAN, 0.0, 0.0),
                direction: Vec3::new(0.0, 1.0, 0.0),
            },
            Ray {
                origin: Vec3::ZERO,
                direction: Vec3::ZERO,
            },
        ];
        for res in [1, 7, 32] {
            let g = blob_grid(res, &mut rng);
            for ray in &rays {
                let (near, far) = bounds
                    .intersect(ray)
                    .map_or((0.0, 8.0), |h| (h.t_near, h.t_far.min(1e9)));
                let far = far.max(near + 1e-3 * near.max(1.0)); // the grazing ray
                let ascending = ray.stratified_ts(near, far, 48, None);
                let mut shuffled = ascending.clone();
                shuffled.swap(3, 40);
                shuffled.reverse();
                let mut hostile = ascending.clone();
                hostile[5] = f32::NAN;
                hostile[9] = f32::INFINITY;
                hostile[17] = f32::NEG_INFINITY;
                hostile[30] = -1.0;
                // Before the entry, and past the exit, of the box.
                let outside: Vec<f32> = (0..48).map(|i| near - 2.0 + 0.25 * i as f32).collect();
                let same = vec![0.5 * (near + far); 9];
                for ts in [&[][..], &ascending, &shuffled, &hostile, &outside, &same] {
                    assert_eq!(
                        bits(&filtered(&g, ray, &bounds, ts)),
                        bits(&g.filter_ts_reference(ray, &bounds, ts)),
                        "res {res}, {ray:?}, ts {ts:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn marcher_gives_no_samples_where_the_near_clamp_passes_the_exit() {
        // Inside the box, 5e-5 from the face it leaves through: the span
        // passes the `1e-5` test but ends before the `1e-4` near clamp. Not
        // sampled, not counted, and no jitter drawn for it.
        let ray = Ray::new(Vec3::new(0.5, 0.5, 1.0 - 5e-5), Vec3::new(0.0, 0.0, 1.0));
        let grid = OccupancyGrid::new(16);
        let mut marcher = RayMarcher::default();
        let mut draws = 0;
        for grid in [None, Some(&grid)] {
            assert!(!marcher.march(&ray, &Aabb::unit(), 8, grid, None::<fn() -> f32>));
            let jitter = || {
                draws += 1;
                0.0
            };
            assert!(!marcher.march(&ray, &Aabb::unit(), 8, grid, Some(jitter)));
        }
        assert_eq!((marcher.rays_hit, draws), (0, 0));
        assert!(marcher.points.is_empty() && marcher.spans.is_empty());
    }

    /// Marches `rays` through a [`RayMarcher`], in the shape of
    /// [`gather_by_hand`]'s result.
    fn gather_by_marcher(
        rays: &[Ray],
        bounds: &Aabb,
        samples: usize,
        grid: Option<&OccupancyGrid>,
        mut jitter: Option<impl FnMut() -> f32>,
    ) -> HandGathered {
        let mut marcher = RayMarcher::default();
        marcher.kept.push(f32::NAN); // stale scratch
        let kept_rays = (0..rays.len())
            .filter(|&r| marcher.march(&rays[r], bounds, samples, grid, jitter.as_mut()))
            .collect();
        HandGathered {
            points: marcher.points,
            dirs: marcher.dirs,
            spans: marcher.spans,
            kept_rays,
            rays_hit: marcher.rays_hit,
        }
    }

    proptest! {
        /// (i) Propose ⊇ decide: no sample the per-sample test keeps lies in
        /// a clear cell's span of the digest walk.
        #[test]
        fn clear_spans_hold_no_per_sample_survivor(
            seed in 0u64..1 << 40,
            res_idx in 0usize..5,
            samples in 7usize..201,
        ) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let g = blob_grid([1, 7, 16, 32, 64][res_idx], &mut rng);
            let bounds = random_bounds(&mut rng);
            for _ in 0..40 {
                let ray = random_ray(&bounds, &mut rng);
                let Some(hit) = bounds.intersect(&ray).filter(|h| h.t_far > h.t_near) else {
                    continue;
                };
                let js: Vec<f32> = (0..samples).map(|_| rng.gen_range(-0.5..0.5)).collect();
                let ts = ray.stratified_ts(hit.t_near, hit.t_far, samples, Some(&js));
                let (kept, _) = g.filter_ts_reference(&ray, &bounds, &ts);
                let clear = clear_spans(&g, &ray, &bounds, hit);
                for &t in &kept {
                    prop_assert!(
                        !clear.iter().any(|&(lo, hi)| lo <= t && t < hi),
                        "kept t = {} inside a clear span of {:?} ({:?})", t, clear, ray
                    );
                }
            }
        }

        /// (ii) `filter_ts_into` and the marcher return the per-sample
        /// reference's survivors and counts, jittered and not.
        #[test]
        fn filter_and_marcher_match_the_per_sample_reference(
            seed in 0u64..1 << 40,
            res_idx in 0usize..5,
            samples in 7usize..201,
        ) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let g = blob_grid([1, 7, 16, 32, 64][res_idx], &mut rng);
            let bounds = random_bounds(&mut rng);
            let rays: Vec<Ray> = (0..40).map(|_| random_ray(&bounds, &mut rng)).collect();
            for ray in &rays {
                let Some(hit) = bounds.intersect(ray).filter(|h| h.t_far > h.t_near) else {
                    continue;
                };
                let js: Vec<f32> = (0..samples).map(|_| rng.gen_range(-0.5..0.5)).collect();
                for jitter in [None, Some(&js[..])] {
                    let ts = ray.stratified_ts(hit.t_near, hit.t_far, samples, jitter);
                    prop_assert_eq!(
                        filtered(&g, ray, &bounds, &ts),
                        g.filter_ts_reference(ray, &bounds, &ts),
                        "{:?}", ray
                    );
                }
            }
            // The by-hand loop panics where the near clamp passes the exit;
            // the marcher's answer there has its own test.
            let rays: Vec<Ray> = rays
                .into_iter()
                .filter(|r| bounds.intersect(r).is_none_or(|h| h.t_far > 2e-4))
                .collect();
            for grid in [Some(&g), None] {
                let none = None::<fn() -> f32>;
                prop_assert_eq!(
                    gather_by_marcher(&rays, &bounds, samples, grid, none),
                    gather_by_hand(&rays, &bounds, samples, grid, none)
                );
                let (mut a, mut b) = (SmallRng::seed_from_u64(seed), SmallRng::seed_from_u64(seed));
                prop_assert_eq!(
                    gather_by_marcher(&rays, &bounds, samples, grid, Some(|| a.gen_range(-0.5..0.5))),
                    gather_by_hand(&rays, &bounds, samples, grid, Some(|| b.gen_range(-0.5..0.5)))
                );
                // Both drew the same number of values.
                prop_assert_eq!(a.gen::<u64>(), b.gen::<u64>());
            }
        }
    }

    /// A model of `precision` trained on Mic just long enough that a
    /// density threshold splits the volume into occupied and empty cells.
    fn briefly_trained(precision: Precision) -> IngpModel {
        let dataset = DatasetConfig::tiny().generate(&zoo::scene(zoo::SceneKind::Mic));
        let config = TrainConfig::tiny().with_precision(precision);
        let model = IngpModel::for_config(ModelConfig::tiny(), &config, 5);
        let mut trainer = Trainer::new(model, config, 9);
        trainer.train(&dataset, 30);
        trainer.into_model()
    }

    /// Sweeps `model` at every probe count × thread count × resolution and
    /// holds the blocked sweep's words (padding bits included) and its
    /// evaluated-point count against the scalar reference. The resolutions'
    /// cell counts are multiples of neither 64 nor [`REFRESH_BLOCK`], and
    /// 33³ spans 36 blocks. Returns the occupancy range seen.
    fn assert_sweep_matches_reference<M: TrainableField>(
        model: &M,
        threshold: f32,
        label: &str,
    ) -> (f64, f64) {
        let pools = [1, 2, 8].map(engine::build_pool);
        let (mut lo, mut hi) = (1.0f64, 0.0f64);
        for res in [5, 7, 33] {
            // Reused across sweeps: each starts from the previous result,
            // so the clear is exercised on a dirty grid.
            let mut swept = OccupancyGrid::new(res);
            for probes in 1..=3 {
                let mut reference = OccupancyGrid::new(res);
                let calls = reference.refresh_scalar_reference(model, threshold, probes);
                lo = lo.min(reference.occupancy());
                hi = hi.max(reference.occupancy());
                for pool in &pools {
                    let evaluated = swept.refresh_with(
                        model,
                        threshold,
                        probes,
                        &mut RefreshScratch::default(),
                        pool,
                    );
                    let at = format!(
                        "{label}: res {res}, {probes} probe(s), {} thread(s)",
                        pool.current_num_threads()
                    );
                    assert_eq!(swept.words(), reference.words(), "{at}");
                    assert_eq!(swept.occupancy(), reference.occupancy(), "{at}");
                    assert_eq!(evaluated, calls, "{at}: probe points evaluated");
                }
            }
        }
        (lo, hi)
    }

    #[test]
    fn blocked_refresh_matches_scalar_reference_bitwise() {
        // {f32, fp16} × every SIMD backend × threads × probes × awkward
        // resolutions. The backend is process-global; every backend is
        // bitwise-equal, so forcing it under concurrently running tests
        // changes nothing they can observe.
        for precision in [Precision::F32, Precision::Fp16] {
            let model = briefly_trained(precision);
            for backend in inerf_simd::available_backends() {
                let prev = inerf_simd::force_backend(backend);
                let (lo, hi) = assert_sweep_matches_reference(
                    &model,
                    0.3,
                    &format!("{precision:?}/{backend:?}"),
                );
                inerf_simd::force_backend(prev);
                assert!(
                    lo > 0.0 && hi < 1.0,
                    "fixture must have mixed occupancy: {lo}..{hi}"
                );
            }
        }
    }

    #[test]
    fn per_point_fallback_refresh_matches_scalar_reference_bitwise() {
        // A Tab. IV baseline has no phased evaluation: every block takes
        // the `query_eval` loop fallback.
        let model = NerfLite::new(2, 16, 7);
        let center = model.query_eval(Vec3::splat(0.5), PROBE_DIR).0;
        let (lo, hi) = assert_sweep_matches_reference(&model, center, "NerfLite");
        assert!(
            lo > 0.0 && hi < 1.0,
            "fixture must have mixed occupancy: {lo}..{hi}"
        );
    }

    #[test]
    fn second_probe_visits_only_cells_the_first_left_empty() {
        let model = briefly_trained(Precision::F32);
        let pool = engine::build_pool(2);
        let mut scratch = RefreshScratch::default();
        let mut g = OccupancyGrid::new(19);
        let cells = g.cell_count() as u64;
        assert_eq!(g.refresh_with(&model, 0.3, 1, &mut scratch, &pool), cells);
        // Probes 0 and 1 of 3 sit at offsets 1/6 and 1/2. A grid probed at
        // 1/6 alone is not expressible through the API, so count its
        // empties directly: they are what probe 1 must visit.
        let mut empties = [0u64; 2];
        let res = g.resolution();
        for cell in 0..cells as u32 {
            let (ix, iy, iz) = (cell % res, cell / res % res, cell / (res * res));
            for (k, empty) in empties.iter_mut().enumerate() {
                let f = (k as f32 + 0.5) / 3.0;
                let p = Vec3::new(
                    (ix as f32 + f) / res as f32,
                    (iy as f32 + f) / res as f32,
                    (iz as f32 + f) / res as f32,
                );
                if model.query_eval(p, PROBE_DIR).0 > 0.3 {
                    break;
                }
                *empty += 1;
            }
        }
        assert!(empties[1] > 0 && empties[1] < empties[0] && empties[0] < cells);
        assert_eq!(
            g.refresh_with(&model, 0.3, 3, &mut scratch, &pool),
            cells + empties[0] + empties[1],
            "probe points evaluated == cells + Σ_k empties after probe k"
        );
    }

    #[test]
    fn refresh_scratch_stops_growing_after_the_first_refresh() {
        let model = briefly_trained(Precision::F32);
        let pool = engine::build_pool(2);
        let mut scratch = RefreshScratch::default();
        let mut g = OccupancyGrid::new(19);
        g.refresh_with(&model, 0.3, 2, &mut scratch, &pool);
        let warm = scratch.capacity_sum();
        assert!(warm > 0);
        // Other thresholds compact the second probe differently; no block
        // is larger than the first refresh's full ones.
        for threshold in [0.05, 0.3, 5.0] {
            g.refresh_with(&model, threshold, 3, &mut scratch, &pool);
            assert_eq!(scratch.capacity_sum(), warm, "threshold {threshold}");
        }
    }

    proptest! {
        #[test]
        fn cell_index_in_bounds(
            px in -0.5f32..1.5, py in -0.5f32..1.5, pz in -0.5f32..1.5,
            res in 1u32..=4096
        ) {
            // The index function alone (a 4096³ grid would be 8 GB).
            let p = Vec3::new(px, py, pz);
            let i = cell_index(res, p);
            prop_assert!(i < (res as usize).pow(3));
            // Where the float clamp it replaced still worked, same cell.
            if res < 2048 {
                let r = res as f32;
                let old = |v: f32| ((v.clamp(0.0, 1.0) * r).min(r - 1e-4)).floor() as usize;
                let n = res as usize;
                prop_assert_eq!(i, (old(p.z) * n + old(p.y)) * n + old(p.x));
            }
        }

        #[test]
        fn occupancy_between_zero_and_one(res in 1u32..16, clears in 0usize..32) {
            let mut g = OccupancyGrid::new(res);
            let mut s = 0x12345u64;
            for _ in 0..clears {
                s ^= s << 13; s ^= s >> 7; s ^= s << 17;
                let p = Vec3::new(
                    (s & 0xff) as f32 / 255.0,
                    ((s >> 8) & 0xff) as f32 / 255.0,
                    ((s >> 16) & 0xff) as f32 / 255.0,
                );
                g.set(p, false);
            }
            let occ = g.occupancy();
            prop_assert!((0.0..=1.0).contains(&occ));
        }
    }

    #[test]
    fn far_corner_maps_to_the_last_cell_at_large_resolutions() {
        // `r − 1e-4` rounds back to `r` in f32 from 2048 up: the float
        // clamp indexed one past every axis here.
        for res in [1, 2, 2047, 2048, 4095, 4096] {
            assert_eq!(
                cell_index(res, Vec3::ONE),
                (res as usize).pow(3) - 1,
                "res {res}"
            );
            assert_eq!(cell_index(res, Vec3::splat(1.5)), (res as usize).pow(3) - 1);
            assert_eq!(cell_index(res, Vec3::splat(-0.5)), 0);
        }
    }
}
