//! The occupancy grid: iNGP's empty-space-skipping structure.
//!
//! iNGP maintains a coarse binary grid marking which cells of the scene
//! volume currently contain density; ray marching skips samples in empty
//! cells, which concentrates the hash-table traffic on occupied space.
//! This is the mechanism the hardware experiments' scene-conditioned traces
//! emulate, implemented here for real: the grid is periodically refreshed
//! from the model's own density predictions and consulted during sampling.

use crate::engine;
use crate::model::{eval_density_batch, EvalScratch, TrainableField, POINT_CHUNK};
use inerf_geom::{Aabb, Ray, Vec3};
use rayon::ThreadPool;
use serde::{Deserialize, Serialize};

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

/// A coarse binary occupancy grid over `[0,1]^3` (normalized coordinates).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OccupancyGrid {
    resolution: u32,
    /// One bit per cell, row-major (x fastest).
    bits: Vec<u64>,
}

impl OccupancyGrid {
    /// Creates a fully-occupied grid (conservative start: nothing skipped
    /// until the first refresh).
    ///
    /// # Panics
    ///
    /// Panics if `resolution` is zero.
    pub fn new(resolution: u32) -> Self {
        assert!(resolution > 0, "occupancy grid resolution must be positive");
        let cells = (resolution as usize).pow(3);
        OccupancyGrid {
            resolution,
            bits: vec![u64::MAX; cells.div_ceil(64)],
        }
    }

    /// Grid resolution per axis.
    pub fn resolution(&self) -> u32 {
        self.resolution
    }

    /// Total cell count.
    pub fn cell_count(&self) -> usize {
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
        OccupancyGrid {
            resolution,
            bits: words,
        }
    }

    /// Whether the cell containing normalized point `p` is marked occupied.
    #[inline]
    pub fn is_occupied(&self, p: Vec3) -> bool {
        let i = cell_index(self.resolution, p);
        self.bits[i / 64] >> (i % 64) & 1 == 1
    }

    /// Marks or clears the cell containing `p`.
    pub fn set(&mut self, p: Vec3, occupied: bool) {
        let i = cell_index(self.resolution, p);
        if occupied {
            self.bits[i / 64] |= 1 << (i % 64);
        } else {
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

    /// Filters stratified sample distances along a ray into a
    /// caller-pooled buffer (cleared and refilled), keeping those whose
    /// normalized sample point lies in an occupied cell; returns the
    /// skipped count. The gather loop reuses one buffer across rays
    /// instead of allocating per ray.
    pub fn filter_ts_into(
        &self,
        ray: &Ray,
        bounds: &Aabb,
        ts: &[f32],
        kept: &mut Vec<f32>,
    ) -> usize {
        kept.clear();
        let mut skipped = 0usize;
        for &t in ts {
            let p = bounds.normalize(ray.at(t));
            if self.is_occupied(p) {
                kept.push(t);
            } else {
                skipped += 1;
            }
        }
        skipped
    }
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
