//! The trainable multi-resolution hash table (iNGP Steps (1)–(3)).

use crate::config::HashGridConfig;
use crate::hash::{cube_level_indices, level_index, spread_low10, HashFunction};
use crate::sink::TraceSink;
use crate::trace::CubeLookup;
use inerf_geom::grid::{GridCoord, GridLevel};
use inerf_geom::morton::morton_encode;
use inerf_geom::Vec3;
use inerf_mlp::{ParamStore, Precision};
use inerf_simd::f32x8;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Features per table entry, [`HashGridConfig::FEATURES`].
const F: usize = HashGridConfig::FEATURES as usize;

/// The multi-resolution hash grid of trainable embedding vectors.
///
/// Stores `L × T × F` parameters behind a [`ParamStore`] (f32, or fp16
/// with f32 master weights — the paper's hardware storage format) plus an
/// f32 gradient buffer of the same shape. `encode*` implements the
/// forward pass (hash → gather → trilinear interpolation → concatenate);
/// [`HashGrid::backward`] scatter-adds the output gradient back into the
/// embedding gradients (the paper's "HT_b" step).
///
/// # Example
///
/// ```
/// use inerf_encoding::{HashGrid, HashGridConfig, HashFunction};
/// use inerf_geom::Vec3;
///
/// let mut grid = HashGrid::new(HashGridConfig::tiny(HashFunction::Morton), 1);
/// let p = Vec3::new(0.3, 0.6, 0.9);
/// let features = grid.encode(p);
/// // Backward of a unit output gradient accumulates into the table.
/// let ones = vec![1.0; features.len()];
/// grid.backward(p, &ones);
/// assert!(grid.gradients().iter().any(|&g| g != 0.0));
/// ```
#[derive(Debug, Clone)]
pub struct HashGrid {
    config: HashGridConfig,
    levels: Vec<GridLevel>,
    /// One per eight consecutive `levels`, for [`HashGrid::derive_group`].
    groups: Vec<LevelGroup>,
    store: ParamStore,
    gradients: Vec<f32>,
    /// Per-iteration touched-entry tracking for the sparse optimizer path
    /// (`None` in the dense reference mode).
    touch: Option<TouchTracking>,
}

/// Deduplicated touched-entry bookkeeping of one training iteration, at
/// *entry* granularity (global id `level * T + entry`; all `F` feature
/// scalars of an entry move together).
///
/// Dedup uses an epoch-stamp array instead of a hash set: `stamp[id] ==
/// epoch` ⇔ already collected this batch, O(1) per corner with no
/// clearing between batches (the epoch bump invalidates every stamp).
#[derive(Debug, Clone)]
struct TouchTracking {
    /// `L × T` per-entry epoch stamps.
    stamp: Vec<u32>,
    /// Current batch epoch; 0 = no batch begun yet.
    epoch: u32,
    /// Touched global entry ids, deduplicated, in collection order until
    /// [`HashGrid::finalize_touched`] sorts them ascending.
    entries: Vec<u32>,
    /// Prefix of `entries` already replayed by the lazy optimizer.
    synced: usize,
    /// Ascending scalar-index expansion of the sorted `entries`
    /// (`entry * F + k`), built by `finalize_touched`.
    scalars: Vec<u32>,
    /// Scratch for per-sync fp16 commit index lists.
    scratch: Vec<u32>,
}

/// Cached corner lookups of an encoded point batch: for each point and
/// level, the eight corner entry indices and trilinear weights, in corner
/// order. Produced by [`HashGrid::fill_cache`] or
/// [`HashGrid::encode_tile_bt_cached`], consumed by
/// [`HashGrid::backward_batch_cached`]; buffers are reused across batches.
#[derive(Debug, Clone, Default)]
pub struct LookupCache {
    levels: usize,
    points: usize,
    /// `points × levels × 8` entry indices.
    entries: Vec<u32>,
    /// `points × levels × 8` trilinear weights (0.0 = corner skipped).
    weights: Vec<f32>,
}

impl LookupCache {
    /// Number of cached points.
    pub fn point_count(&self) -> usize {
        self.points
    }

    fn reset(&mut self, levels: usize, points: usize) {
        self.levels = levels;
        self.points = points;
        let n = points * levels * 8;
        // Plain resize, no clear: the encode overwrites every element, so
        // zeroing the retained prefix would be a redundant memset of the
        // hot path's largest buffers.
        self.entries.resize(n, 0);
        self.weights.resize(n, 0.0);
    }

    /// The slots of point `pi`, one `[corner]` row per level.
    #[inline(always)]
    fn point(&self, pi: usize) -> (&[[u32; 8]], &[[f32; 8]]) {
        let at = pi * self.levels * 8..(pi + 1) * self.levels * 8;
        (
            self.entries[at.clone()].as_chunks().0,
            self.weights[at].as_chunks().0,
        )
    }

    /// [`LookupCache::point`], to fill.
    #[inline(always)]
    fn point_mut(&mut self, pi: usize) -> (&mut [[u32; 8]], &mut [[f32; 8]]) {
        let at = pi * self.levels * 8..(pi + 1) * self.levels * 8;
        (
            self.entries[at.clone()].as_chunks_mut().0,
            self.weights[at].as_chunks_mut().0,
        )
    }
}

/// [`GridLevel::cube_of`]'s per-level constants for eight consecutive
/// levels, one level per lane. Lanes past the last level hold resolution 1;
/// what they compute is never read.
#[derive(Debug, Clone, Copy)]
struct LevelGroup {
    /// `resolution as f32`.
    res: [f32; 8],
    /// `res - 1e-4`, the upper clamp of the scaled coordinate.
    res_hi: [f32; 8],
}

impl LevelGroup {
    fn new(levels: &[GridLevel]) -> Self {
        let res = std::array::from_fn(|l| levels.get(l).map_or(1.0, |lv| lv.resolution as f32));
        LevelGroup {
            res,
            res_hi: res.map(|r| r - 1e-4),
        }
    }
}

/// [`HashGrid::group_lanes`]' lanes: `[axis][level]`, spreads `[axis][base, base + 1][level]`.
#[derive(Default)]
struct GroupLanes {
    base: [[u32; 8]; 3],
    frac: [[f32; 8]; 3],
    spread: [[[u32; 8]; 2]; 3],
}

/// Up to here an `f32` holds every integer and steps by at most one, which
/// is what [`HashGrid::derive_group`]'s float floor rests on.
const TWO_POW_23: f32 = 8_388_608.0;

/// The eight trilinear corner weights of a cube, one [`f32x8`] lane per
/// corner index (bit 0 → +x, bit 1 → +y, bit 2 → +z). Each lane multiplies
/// `(wx * wy) * wz` in the same left-associated order as
/// [`GridLevel::corner_weight`], so every lane is bitwise-identical to the
/// scalar reference for its corner.
#[inline]
fn corner_weights8(frac: Vec3) -> f32x8 {
    let (x0, x1) = (1.0 - frac.x, frac.x);
    let (y0, y1) = (1.0 - frac.y, frac.y);
    let (z0, z1) = (1.0 - frac.z, frac.z);
    let wx = f32x8::from_array([x0, x1, x0, x1, x0, x1, x0, x1]);
    let wy = f32x8::from_array([y0, y0, y1, y1, y0, y0, y1, y1]);
    let wz = f32x8::from_array([z0, z0, z0, z0, z1, z1, z1, z1]);
    (wx * wy) * wz
}

impl HashGrid {
    /// Creates an f32-stored grid with iNGP's uniform init in
    /// `[-1e-4, 1e-4]` (the pre-mixed-precision behavior, bit-identical).
    pub fn new(config: HashGridConfig, seed: u64) -> Self {
        Self::with_precision(config, seed, Precision::F32)
    }

    /// [`HashGrid::new`] with the embedding table stored at `precision`.
    /// The initialization draws are identical; an fp16 grid quantizes them
    /// into its working copy and keeps the exact f32 master weights for
    /// the optimizer.
    ///
    /// # Panics
    ///
    /// Panics if `table_size_log2 > 30`, if `levels × T` exceeds `u32::MAX`,
    /// or if a level has `2^23` or more cells per axis.
    pub fn with_precision(config: HashGridConfig, seed: u64, precision: Precision) -> Self {
        let levels = Self::checked_levels(&config);
        let mut rng = SmallRng::seed_from_u64(seed);
        let n = config.parameter_count();
        let embeddings = (0..n).map(|_| rng.gen_range(-1e-4f32..1e-4)).collect();
        Self::with_levels(config, levels, ParamStore::new(precision, embeddings))
    }

    /// A grid of `config` over an embedding table already in `store`, such
    /// as a checkpoint's: nothing is drawn, and the table keeps `store`'s
    /// precision.
    ///
    /// # Panics
    ///
    /// As [`HashGrid::with_precision`], and if `store` does not hold
    /// `config`'s parameter count.
    pub fn from_store(config: HashGridConfig, store: ParamStore) -> Self {
        Self::with_levels(config, Self::checked_levels(&config), store)
    }

    /// The grid of `config`, its `levels` and its table `store`.
    fn with_levels(config: HashGridConfig, levels: Vec<GridLevel>, store: ParamStore) -> Self {
        let n = config.parameter_count();
        assert_eq!(store.len(), n, "the table store does not fit the grid");
        HashGrid {
            config,
            groups: levels.chunks(8).map(LevelGroup::new).collect(),
            levels,
            store,
            gradients: vec![0.0; n],
            touch: None,
        }
    }

    /// `config`'s levels, once the index math is known to cover it.
    fn checked_levels(config: &HashGridConfig) -> Vec<GridLevel> {
        // Checked here, once, because the hot path rests on all three:
        // `derive_group` spreads only the low ten bits of each coordinate,
        // which is every bit a mask of at most 2^30 - 1 keeps; touched
        // entries carry their global id `level * T + entry` in a `u32`; and
        // `derive_group` takes the floor of a scaled coordinate with float
        // arithmetic that is exact below 2^23.
        assert!(
            config.table_size_log2 <= 30,
            "table_size_log2 = {} is past the 30 the Morton index math covers",
            config.table_size_log2
        );
        assert!(
            (config.levels as u64) << config.table_size_log2 <= u32::MAX as u64,
            "levels x T = {} x 2^{} does not fit the u32 entry ids",
            config.levels,
            config.table_size_log2
        );
        let levels = config.build_levels();
        assert!(
            levels.iter().all(|l| l.resolution < 1 << 23),
            "n_min = {}, n_max = {} give a level of 2^23 or more cells per axis",
            config.n_min,
            config.n_max
        );
        levels
    }

    /// The configuration this grid was built with.
    pub fn config(&self) -> &HashGridConfig {
        &self.config
    }

    /// The storage precision of the embedding table.
    pub fn precision(&self) -> Precision {
        self.store.precision()
    }

    /// Modeled bytes of the stored table at this grid's precision — the
    /// footprint the DRAM-traffic and table-size models consume. Half the
    /// f32 value for fp16 grids.
    pub fn storage_bytes(&self) -> usize {
        self.store.storage_bytes()
    }

    /// Modeled bytes of one table entry (`F` features at this precision),
    /// the row-geometry parameter of the DRAM request models.
    pub fn entry_bytes(&self) -> u32 {
        self.config.entry_bytes(self.precision())
    }

    /// Per-level grid descriptors.
    pub fn levels(&self) -> &[GridLevel] {
        &self.levels
    }

    /// The working parameter values compute reads (row-major: level,
    /// entry, feature) — quantized for fp16 grids.
    pub fn parameters(&self) -> &[f32] {
        self.store.values()
    }

    /// The parameter store (master weights + precision backend).
    pub fn parameter_store(&self) -> &ParamStore {
        &self.store
    }

    /// Mutable parameter store, for direct edits outside the optimizer
    /// path (tests, tooling).
    pub fn parameter_store_mut(&mut self) -> &mut ParamStore {
        &mut self.store
    }

    /// Accumulated gradients, same layout as [`HashGrid::parameters`].
    pub fn gradients(&self) -> &[f32] {
        &self.gradients
    }

    /// Master weights and gradients together, for an optimizer step that
    /// needs simultaneous mutable/shared access. Callers must follow the
    /// sweep with [`HashGrid::commit_parameters`] so fp16 grids
    /// re-quantize their working copy (a no-op for f32 grids).
    pub fn parameters_and_gradients_mut(&mut self) -> (&mut [f32], &[f32]) {
        (self.store.master_mut(), &self.gradients)
    }

    /// Re-quantizes the working copy after a master-weight sweep (RNE
    /// through the fp16 storage path); no-op for f32 grids.
    pub fn commit_parameters(&mut self) {
        self.store.commit();
    }

    /// Clears accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.gradients.fill(0.0);
    }

    // --- Touched-entry tracking (sparse optimizer path) -------------------

    /// Switches the grid into touched-entry tracking mode for the sparse
    /// optimizer path. Callers then bracket each iteration with
    /// [`HashGrid::begin_touch_batch`], collect the read set via
    /// [`HashGrid::collect_touched_batch`] /
    /// [`HashGrid::collect_touched_point`] *before* encoding, and drive the
    /// optimizer through [`HashGrid::finalize_touched`] and the touched
    /// accessors.
    pub fn enable_touch_tracking(&mut self) {
        let entries_total = self.levels.len() * self.config.table_size() as usize;
        self.touch = Some(TouchTracking {
            stamp: vec![0; entries_total],
            epoch: 0,
            entries: Vec::new(),
            synced: 0,
            scalars: Vec::new(),
            scratch: Vec::new(),
        });
    }

    /// Starts a new tracked iteration: zeroes the gradient slots of the
    /// *previous* iteration's touched entries (the backward scatter only
    /// ever writes corners of encoded points, and every such corner is in
    /// the collected read set — so this is bitwise-equivalent to a full
    /// [`HashGrid::zero_grad`] at O(touched) cost) and resets the touch
    /// list. Falls back to the full memset when tracking is disabled.
    pub fn begin_touch_batch(&mut self) {
        let HashGrid {
            touch, gradients, ..
        } = self;
        let Some(tr) = touch.as_mut() else {
            gradients.fill(0.0);
            return;
        };
        for &gid in &tr.entries {
            let base = gid as usize * F;
            gradients[base..base + F].fill(0.0);
        }
        tr.entries.clear();
        tr.scalars.clear();
        tr.synced = 0;
        if tr.epoch == u32::MAX {
            // Epoch wrap: every stamp value is stale-valid, so reset them.
            tr.stamp.fill(0);
            tr.epoch = 1;
        } else {
            tr.epoch += 1;
        }
    }

    /// Records the eight corner entries of every level of `p` into the
    /// touched set (deduplicated). This is exactly the read set of
    /// `HashGrid::encode_into` for `p` — a superset of the backward
    /// scatter's write set, which skips zero-weight corners. No-op when
    /// tracking is disabled.
    pub fn collect_touched_point(&mut self, p: Vec3) {
        let t = self.config.table_size();
        let hash = self.config.hash;
        let HashGrid { touch, levels, .. } = self;
        let Some(tr) = touch.as_mut() else { return };
        debug_assert!(tr.epoch > 0, "collect before begin_touch_batch");
        for (li, level) in levels.iter().enumerate() {
            let (base, _) = level.cube_of(p);
            let entries = cube_level_indices(hash, level, base, t);
            let level_base = li * t as usize;
            for &e in &entries {
                let gid = level_base + e as usize;
                if tr.stamp[gid] != tr.epoch {
                    tr.stamp[gid] = tr.epoch;
                    tr.entries.push(gid as u32);
                }
            }
        }
    }

    /// [`HashGrid::collect_touched_point`] over a point slice.
    pub fn collect_touched_batch(&mut self, points: &[Vec3]) {
        for &p in points {
            self.collect_touched_point(p);
        }
    }

    /// Computes every corner entry and trilinear weight of `points` into
    /// `cache` *without* gathering features — the batched engine's
    /// prepass. The cache slots are bitwise-identical to what
    /// [`HashGrid::encode_tile_bt_cached`] would record, so a later
    /// gather-only encode ([`HashGrid::encode_tile_bt_from_cache`]) and
    /// the backward scatter can both replay it. Unlike the encode this
    /// reads no table values, so it may run *before* the lazy optimizer
    /// has replayed the batch's entries.
    pub fn fill_cache(&self, points: &[Vec3], cache: &mut LookupCache) {
        cache.reset(self.levels.len(), points.len());
        inerf_simd::vectorize(
            #[inline(always)]
            || {
                for (pi, &p) in points.iter().enumerate() {
                    let (entries, weights) = cache.point_mut(pi);
                    self.derive_point(p, entries, weights);
                }
            },
        );
    }

    /// [`HashGrid::collect_touched_point`] driven by a pre-filled
    /// [`LookupCache`] instead of re-deriving cube geometry and hashes:
    /// scans the cached corner entries in point order, so the collected
    /// (deduplicated) entry sequence is identical to
    /// [`HashGrid::collect_touched_batch`] over the same points. No-op
    /// when tracking is disabled.
    pub fn collect_touched_cache(&mut self, cache: &LookupCache) {
        let t = self.config.table_size() as usize;
        let HashGrid { touch, levels, .. } = self;
        let Some(tr) = touch.as_mut() else { return };
        debug_assert_eq!(cache.levels, levels.len(), "cache level mismatch");
        debug_assert!(tr.epoch > 0, "collect before begin_touch_batch");
        let mut slot = 0usize;
        for _ in 0..cache.points {
            for li in 0..cache.levels {
                let level_base = li * t;
                for &e in &cache.entries[slot..slot + 8] {
                    let gid = level_base + e as usize;
                    if tr.stamp[gid] != tr.epoch {
                        tr.stamp[gid] = tr.epoch;
                        tr.entries.push(gid as u32);
                    }
                }
                slot += 8;
            }
        }
    }

    /// The touched entries collected since the last sync cursor advance,
    /// together with the mutable master weights — the inputs of a lazy
    /// optimizer replay. Follow with [`HashGrid::mark_touched_synced`].
    pub fn unsynced_touched_and_master(&mut self) -> (&[u32], &mut [f32]) {
        let HashGrid { touch, store, .. } = self;
        match touch.as_ref() {
            Some(tr) => (&tr.entries[tr.synced..], store.master_mut()),
            None => (&[], store.master_mut()),
        }
    }

    /// Advances the sync cursor past every collected entry and, for fp16
    /// grids, re-quantizes the working copy of exactly those entries (the
    /// replay may have moved their master weights, and the forward pass is
    /// about to read them).
    pub fn mark_touched_synced(&mut self) {
        let HashGrid { touch, store, .. } = self;
        let Some(tr) = touch.as_mut() else { return };
        if store.precision() == Precision::Fp16 {
            tr.scratch.clear();
            for &gid in &tr.entries[tr.synced..] {
                let base = gid as usize * F;
                for k in 0..F {
                    tr.scratch.push((base + k) as u32);
                }
            }
            store.commit_indices(&tr.scratch);
        }
        tr.synced = tr.entries.len();
    }

    /// Freezes this iteration's touched set for the optimizer step: sorts
    /// the entry list ascending and expands it into ascending scalar
    /// indices. Ascending order makes a touched-only clip-norm sweep
    /// accumulate in exactly the dense index order (the skipped terms are
    /// exact `+0.0` contributions).
    pub fn finalize_touched(&mut self) {
        let Some(tr) = self.touch.as_mut() else {
            return;
        };
        debug_assert_eq!(
            tr.synced,
            tr.entries.len(),
            "finalize with unsynced entries: the forward read stale values"
        );
        // Ascending order is load-bearing (the clip-norm f64 accumulation
        // order must match the dense sweep), but how we get there is not:
        // above ~1/16 occupancy a sequential scan of the stamp array beats
        // sorting the collection-order list and yields the same set in the
        // same ascending order.
        if tr.entries.len() >= tr.stamp.len() / 16 {
            tr.entries.clear();
            let epoch = tr.epoch;
            tr.entries.extend(
                tr.stamp
                    .iter()
                    .enumerate()
                    .filter(|&(_, &s)| s == epoch)
                    .map(|(id, _)| id as u32),
            );
            tr.synced = tr.entries.len();
        } else {
            tr.entries.sort_unstable();
        }
        tr.scalars.clear();
        for &gid in &tr.entries {
            let base = gid as usize * F;
            for k in 0..F {
                tr.scalars.push((base + k) as u32);
            }
        }
    }

    /// This iteration's touched entry ids (sorted after
    /// [`HashGrid::finalize_touched`], collection order before).
    #[cfg(test)]
    fn touched_entries(&self) -> &[u32] {
        match &self.touch {
            Some(tr) => &tr.entries,
            None => &[],
        }
    }

    /// The ascending touched scalar indices plus the master-weight and
    /// gradient buffers — everything a sparse optimizer step needs.
    /// Call after [`HashGrid::finalize_touched`].
    pub fn touched_scalars_master_grads(&mut self) -> (&[u32], &mut [f32], &[f32]) {
        let HashGrid {
            touch,
            store,
            gradients,
            ..
        } = self;
        match touch.as_ref() {
            Some(tr) => (&tr.scalars, store.master_mut(), &gradients[..]),
            None => (&[], store.master_mut(), &gradients[..]),
        }
    }

    /// [`HashGrid::touched_scalars_master_grads`] with the whole
    /// [`ParamStore`] instead of just the master slice, for fused
    /// optimizer steps ([`inerf_mlp::AdamState::step_sparse_gathered`]) that
    /// re-quantize each fp16 working scalar inside the update loop rather
    /// than in a separate [`HashGrid::commit_touched`] pass.
    pub fn touched_scalars_store_grads(&mut self) -> (&[u32], &mut ParamStore, &[f32]) {
        let HashGrid {
            touch,
            store,
            gradients,
            ..
        } = self;
        match touch.as_ref() {
            Some(tr) => (&tr.scalars, store, &gradients[..]),
            None => (&[], store, &gradients[..]),
        }
    }

    /// Re-quantizes the fp16 working copy of this iteration's touched
    /// scalars after the optimizer step (no-op for f32 grids).
    pub fn commit_touched(&mut self) {
        let HashGrid { touch, store, .. } = self;
        if let Some(tr) = touch.as_ref() {
            store.commit_indices(&tr.scalars);
        }
    }

    #[inline]
    fn base_offset(&self, level: u32, entry: u32) -> usize {
        let t = self.config.table_size() as usize;
        ((level as usize * t) + entry as usize) * F
    }

    /// Encodes a point in `[0,1]^3` into `L*F` features.
    pub fn encode(&self, p: Vec3) -> Vec<f32> {
        let mut out = vec![0.0; self.config.feature_dim()];
        self.encode_into(p, &mut out);
        out
    }

    /// Encodes into a caller-provided buffer of length `L*F`.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != feature_dim()`.
    fn encode_into(&self, p: Vec3, out: &mut [f32]) {
        assert_eq!(
            out.len(),
            self.config.feature_dim(),
            "output buffer size mismatch"
        );
        let t = self.config.table_size();
        let emb = self.store.values();
        for (li, level) in self.levels.iter().enumerate() {
            let (base, frac) = level.cube_of(p);
            let slot = &mut out[li * F..(li + 1) * F];
            slot.fill(0.0);
            for c in 0..8u8 {
                let w = GridLevel::corner_weight(frac, c);
                if w == 0.0 {
                    continue;
                }
                let entry = level_index(self.config.hash, level, base.corner(c), t);
                let off = self.base_offset(li as u32, entry);
                for (k, s) in slot.iter_mut().enumerate() {
                    *s += w * emb[off + k];
                }
            }
        }
    }

    /// Sizes `cache` for a `points`-point batch that will be filled tile by
    /// tile through [`HashGrid::encode_tile_bt_cached`].
    pub fn prepare_cache(&self, cache: &mut LookupCache, points: usize) {
        cache.reset(self.levels.len(), points);
    }

    /// Fused-forward building block: encodes points
    /// `tile_base..tile_base + bn` into their rows of the full feature
    /// matrix `out` *and* scatters the same values into a block-transposed
    /// `feature_dim × lane_stride` GEMM tile (`tile[i * lane_stride + p]` =
    /// feature `i` of point `tile_base + p`) while the freshly computed row
    /// is still cache-hot — this is how encoded features stream straight
    /// into the first MLP GEMM without a chunk-sized SoA round-trip.
    ///
    /// It additionally records every corner's table entry and trilinear
    /// weight in `cache`, so the backward scatter can skip re-deriving cube
    /// geometry and re-hashing all 8·L corners per point (the index
    /// calculation the paper's accelerator dedicates INT32 PEs to).
    ///
    /// `cache` must have been sized with [`HashGrid::prepare_cache`] for
    /// the whole batch. Rows are bitwise-identical to
    /// `HashGrid::encode_into`. Callers are expected to run this inside
    /// an [`inerf_simd::vectorize`] frame (the fused MLP driver does); it
    /// is dispatch-free itself.
    ///
    /// # Panics
    ///
    /// Panics if the tile, row range, or cache shape is too small.
    #[allow(clippy::too_many_arguments)]
    pub fn encode_tile_bt_cached(
        &self,
        points: &[Vec3],
        tile_base: usize,
        bn: usize,
        lane_stride: usize,
        out: &mut [f32],
        tile: &mut [f32],
        cache: &mut LookupCache,
    ) {
        let dim = self.config.feature_dim();
        assert!(bn <= lane_stride, "tile narrower than the block");
        assert!(tile.len() >= dim * lane_stride, "tile buffer too small");
        for p in 0..bn {
            let pi = tile_base + p;
            let row = &mut out[pi * dim..(pi + 1) * dim];
            let (entries, weights) = cache.point_mut(pi);
            self.derive_point(points[pi], entries, weights);
            self.gather_levels(0, entries, weights, row, 1);
            for (i, &v) in row.iter().enumerate() {
                tile[i * lane_stride + p] = v;
            }
        }
    }

    /// Inference building block: encodes `points` (at most `lane_stride`
    /// of them) straight into a block-transposed `feature_dim ×
    /// lane_stride` GEMM tile and keeps nothing else — no row-major feature
    /// matrix and no [`LookupCache`], which only the backward pass reads.
    /// Lane `p` of row `i` is bitwise feature `i` of
    /// `HashGrid::encode_into` on `points[p]`; lanes past `points.len()`
    /// are left as they were. Dispatch-free like
    /// [`HashGrid::encode_tile_bt_cached`].
    ///
    /// # Panics
    ///
    /// Panics if the tile is narrower than the block or too small.
    #[inline]
    pub fn encode_tile_bt(&self, points: &[Vec3], lane_stride: usize, tile: &mut [f32]) {
        assert!(points.len() <= lane_stride, "tile narrower than the block");
        assert!(
            tile.len() >= self.config.feature_dim() * lane_stride,
            "tile buffer too small"
        );
        // One group's rows, overwritten per (point, group).
        let (mut entries, mut weights) = ([[0u32; 8]; 8], [[0.0f32; 8]; 8]);
        for (lane, &p) in points.iter().enumerate() {
            let unit = Self::unit_cube(p);
            for (gi, levels) in self.levels.chunks(8).enumerate() {
                let (entries, weights) =
                    (&mut entries[..levels.len()], &mut weights[..levels.len()]);
                self.derive_group(gi, unit, entries, weights);
                let dst = &mut tile[gi * 8 * F * lane_stride + lane..];
                self.gather_levels(gi * 8, entries, weights, dst, lane_stride);
            }
        }
    }

    /// [`HashGrid::encode_tile_bt_cached`] driven by a cache that was
    /// already filled by [`HashGrid::fill_cache`]: gathers and
    /// interpolates from the recorded corner entries/weights without
    /// re-deriving cube geometry or hashes. Rows and tiles are
    /// bitwise-identical to the computing variant — same corner order,
    /// same zero-weight skip, same accumulation shape.
    ///
    /// # Panics
    ///
    /// Panics if the tile, row range, or cache shape is too small.
    #[inline(always)]
    pub fn encode_tile_bt_from_cache(
        &self,
        tile_base: usize,
        bn: usize,
        lane_stride: usize,
        out: &mut [f32],
        tile: &mut [f32],
        cache: &LookupCache,
    ) {
        let dim = self.config.feature_dim();
        assert_eq!(cache.levels, self.levels.len(), "cache level mismatch");
        assert!(bn <= lane_stride, "tile narrower than the block");
        assert!(tile.len() >= dim * lane_stride, "tile buffer too small");
        for p in 0..bn {
            let pi = tile_base + p;
            let row = &mut out[pi * dim..(pi + 1) * dim];
            let (entries, weights) = cache.point(pi);
            self.gather_levels(0, entries, weights, row, 1);
            for (i, &v) in row.iter().enumerate() {
                tile[i * lane_stride + p] = v;
            }
        }
    }

    /// [`GridLevel::cube_of`]'s clamp of `p` into the unit cube, which is
    /// the same at every level.
    #[inline(always)]
    fn unit_cube(p: Vec3) -> [f32; 3] {
        [p.x, p.y, p.z].map(|v| v.clamp(0.0, 1.0))
    }

    /// The corner entries and trilinear weights of `p` at every level, one
    /// `[corner]` row per level — the one derivation every computing encode
    /// and the prepass share, so what they gather from and what they record
    /// is identical by construction. Reads no table values.
    #[inline(always)]
    fn derive_point(&self, p: Vec3, entries: &mut [[u32; 8]], weights: &mut [[f32; 8]]) {
        let unit = Self::unit_cube(p);
        let groups = entries.chunks_mut(8).zip(weights.chunks_mut(8));
        for (gi, (entries, weights)) in groups.enumerate() {
            self.derive_group(gi, unit, entries, weights);
        }
    }

    /// [`HashGrid::derive_point`] for the `gi`-th group of eight levels (as
    /// many of them as `entries` and `weights` have rows), `unit` being the
    /// point's [`HashGrid::unit_cube`].
    #[inline(always)]
    fn derive_group(
        &self,
        gi: usize,
        unit: [f32; 3],
        entries: &mut [[u32; 8]],
        weights: &mut [[f32; 8]],
    ) {
        let lanes = self.group_lanes(gi, unit, self.config.hash == HashFunction::Morton);
        let rows = entries.iter_mut().zip(weights).zip(&self.levels[gi * 8..]);
        for (l, ((entries, weights), level)) in rows.take(8).enumerate() {
            *entries = self.cube_entries(&lanes, l, level);
            let [fx, fy, fz] = &lanes.frac;
            *weights = corner_weights8(Vec3::new(fx[l], fy[l], fz[l])).to_array();
        }
    }

    /// The per-level prologue of the `gi`-th group of eight levels, which
    /// [`HashGrid::derive_group`] and [`HashGrid::trace_point`] share: lane
    /// loops over the group's *levels*, compiled 8-wide by the caller's
    /// [`inerf_simd::vectorize`] frame. [`GridLevel::cube_of`]'s scale,
    /// `min`, truncate and `frac` on three axes, then, if `spread`,
    /// [`spread_low10`] of each axis's `base` and `base + 1`, pre-shifted:
    /// every bit of the Morton code that the mask `T - 1 < 2^30` keeps.
    #[inline(always)]
    fn group_lanes(&self, gi: usize, unit: [f32; 3], spread: bool) -> GroupLanes {
        let (group, mut lanes) = (&self.groups[gi], GroupLanes::default());
        for (axis, &u) in unit.iter().enumerate() {
            for l in 0..8 {
                let scaled = (u * group.res[l]).min(group.res_hi[l]);
                // The reference truncates with `as u32`; a float-to-int
                // cast saturates in Rust and compiles to eight scalar
                // converts. `scaled` is -0.0 or in [0, 2^23), where the
                // same integer comes out of float adds: adding 2^23
                // rounds to the nearest integer, one compare turns that
                // into the floor, and the sum's mantissa is its value.
                let nearest = (scaled + TWO_POW_23) - TWO_POW_23;
                let floor = if nearest > scaled {
                    nearest - 1.0
                } else {
                    nearest
                };
                lanes.base[axis][l] = (floor + TWO_POW_23).to_bits() & 0x7f_ffff;
                lanes.frac[axis][l] = scaled - floor;
            }
            if spread {
                for l in 0..8 {
                    let b = lanes.base[axis][l];
                    lanes.spread[axis][0][l] = spread_low10(b) << axis;
                    lanes.spread[axis][1][l] = spread_low10(b + 1) << axis;
                }
            }
        }
        lanes
    }

    /// The eight corner entries of lane `l` (`level`) of [`HashGrid::group_lanes`].
    #[inline(always)]
    fn cube_entries(&self, lanes: &GroupLanes, l: usize, level: &GridLevel) -> [u32; 8] {
        let (hash, t) = (self.config.hash, self.config.table_size());
        if hash == HashFunction::Morton {
            let [sx, sy, sz] = &lanes.spread;
            std::array::from_fn(|c| (sx[c & 1][l] | sy[(c >> 1) & 1][l] | sz[c >> 2][l]) & (t - 1))
        } else {
            let [bx, by, bz] = &lanes.base;
            cube_level_indices(hash, level, GridCoord::new(bx[l], by[l], bz[l]), t)
        }
    }

    /// Hands `p`'s cube lookups to `push` in level order: the entries of
    /// [`HashGrid::derive_group`] and `cube_id` = [`morton_encode`]`(base) |
    /// level << 58` — at ≤ 2^10 cells every base fits the corner-0 spread.
    #[inline(always)]
    fn trace_point(&self, p: Vec3, mut push: impl FnMut(&CubeLookup)) {
        let unit = Self::unit_cube(p);
        for (gi, levels) in self.levels.chunks(8).enumerate() {
            let lanes = self.group_lanes(gi, unit, true);
            let ([bx, by, bz], [sx, sy, sz]) = (&lanes.base, &lanes.spread);
            for (l, level) in levels.iter().enumerate() {
                let code = if level.resolution <= 1 << 10 {
                    (sx[0][l] | sy[0][l] | sz[0][l]) as u64
                } else {
                    morton_encode(bx[l], by[l], bz[l])
                };
                push(&CubeLookup {
                    level: level.index,
                    entries: self.cube_entries(&lanes, l, level),
                    cube_id: code | (level.index as u64) << 58,
                });
            }
        }
    }

    /// Gathers and interpolates the slots of one point at levels `l0..l0 +
    /// entries.len()` from their `[corner]` rows of `entries` and `weights`;
    /// every batched encode (row-major or tile, computing or replaying a
    /// [`LookupCache`]) bottoms out here, so their values are
    /// bitwise-identical by construction — and, every sum being
    /// corner-ordered with the reference's zero-weight skip, bitwise
    /// `HashGrid::encode_into`. Feature `k` of level `l0 + l` lands at
    /// `dst[(l * F + k) * stride]` — stride 1 for a row, the lane stride to
    /// write straight into a GEMM tile.
    #[inline(always)]
    fn gather_levels(
        &self,
        l0: usize,
        entries: &[[u32; 8]],
        weights: &[[f32; 8]],
        dst: &mut [f32],
        stride: usize,
    ) {
        let t = self.config.table_size() as usize;
        let emb = self.store.values();
        // Four levels at a time, one lane per (level, feature), so a corner
        // costs four 8-byte loads of entry pairs and one multiply-add for
        // eight sums, and four independent chains of eight adds overlap
        // instead of one. The zero-weight skip is a per-lane select, which
        // also parks the lanes past the last level: weight 0, entry 0 of
        // the first.
        for (q, (entries, weights)) in entries.chunks(4).zip(weights.chunks(4)).enumerate() {
            let n = entries.len();
            // Whole quads are read in place: copying them costs a quarter
            // of the gather.
            let pad;
            let (e4, w4): (&[[u32; 8]; 4], &[[f32; 8]; 4]) =
                match (entries.try_into(), weights.try_into()) {
                    (Ok(e4), Ok(w4)) => (e4, w4),
                    _ => {
                        pad = (
                            std::array::from_fn(|k| entries.get(k).copied().unwrap_or([0; 8])),
                            std::array::from_fn(|k| weights.get(k).copied().unwrap_or([0.0; 8])),
                        );
                        (&pad.0, &pad.1)
                    }
                };
            let tables: [&[[f32; F]]; 4] = std::array::from_fn(|k| {
                let li = l0 + q * 4 + if k < n { k } else { 0 };
                emb[li * t * F..(li + 1) * t * F].as_chunks().0
            });
            let mut sums = [0.0f32; 8];
            for c in 0..8 {
                let (mut e, mut w) = ([0.0f32; 8], [0.0f32; 8]);
                for k in 0..4 {
                    [e[2 * k], e[2 * k + 1]] = tables[k][e4[k][c] as usize];
                    [w[2 * k], w[2 * k + 1]] = [w4[k][c]; 2];
                }
                for j in 0..8 {
                    let with = sums[j] + w[j] * e[j];
                    sums[j] = if w[j] == 0.0 { sums[j] } else { with };
                }
            }
            for (j, &sum) in sums[..n * F].iter().enumerate() {
                dst[(q * 8 + j) * stride] = sum;
            }
        }
    }

    /// Backward scatter driven by a filled [`LookupCache`]: identical
    /// accumulation (same entries, weights, and order) to
    /// [`HashGrid::backward`] point by point, minus the geometry/hash
    /// recomputation.
    ///
    /// # Panics
    ///
    /// Panics if the cache shape or gradient matrix disagrees with this
    /// grid.
    pub fn backward_batch_cached(&mut self, cache: &LookupCache, d_features: &[f32]) {
        let dim = self.config.feature_dim();
        assert_eq!(cache.levels, self.levels.len(), "cache level mismatch");
        assert_eq!(
            d_features.len(),
            cache.points * dim,
            "gradient matrix size mismatch"
        );
        inerf_simd::vectorize(
            #[inline(always)]
            || {
                for pi in 0..cache.points {
                    self.scatter_point_cached(cache, d_features, pi);
                }
            },
        );
    }

    /// [`HashGrid::backward_batch_cached`] restricted to the given
    /// ascending point indices. Used by the compacted engine to skip rows
    /// whose gradient is exactly zero (samples after the transmittance hit
    /// 0.0): scattering a zero row only adds `w * ±0.0` into gradient
    /// slots, which never changes them (slots cannot be `-0.0` — they start
    /// at `+0.0` and IEEE addition of `±0.0` to any slot value preserves
    /// it), so skipping those rows is bitwise-identical to the dense
    /// scatter.
    ///
    /// # Panics
    ///
    /// Panics if the cache shape or gradient matrix disagrees with this
    /// grid, or a row index is out of range.
    pub fn backward_batch_cached_rows(
        &mut self,
        cache: &LookupCache,
        d_features: &[f32],
        rows: &[u32],
    ) {
        let dim = self.config.feature_dim();
        assert_eq!(cache.levels, self.levels.len(), "cache level mismatch");
        assert_eq!(
            d_features.len(),
            cache.points * dim,
            "gradient matrix size mismatch"
        );
        inerf_simd::vectorize(
            #[inline(always)]
            || {
                for &pi in rows {
                    self.scatter_point_cached(cache, d_features, pi as usize);
                }
            },
        );
    }

    /// Per-point core of the cached scatter: corner-ordered scalar
    /// accumulation of `w * d` with the zero-weight skip, so the result is
    /// bitwise-identical to [`HashGrid::backward`]. The level's slice of
    /// the gradient table is viewed as entry pairs (one bounds check, one
    /// 8-byte load and store per corner). Inlined into the callers'
    /// `vectorize` frames.
    #[inline(always)]
    fn scatter_point_cached(&mut self, cache: &LookupCache, d_features: &[f32], pi: usize) {
        let t = self.config.table_size() as usize;
        let dim = self.config.feature_dim();
        let (row, _) = d_features[pi * dim..(pi + 1) * dim].as_chunks::<F>();
        let (entries, weights) = cache.point(pi);
        for (li, ((entries, weights), &[d0, d1])) in
            entries.iter().zip(weights).zip(row).enumerate()
        {
            let (pairs, _) = self.gradients[li * t * F..(li + 1) * t * F].as_chunks_mut::<F>();
            for (&entry, &w) in entries.iter().zip(weights) {
                if w == 0.0 {
                    continue;
                }
                let pair = &mut pairs[entry as usize];
                pair[0] += w * d0;
                pair[1] += w * d1;
            }
        }
    }

    /// Streams one point's cube lookups into `sink` without allocating:
    /// `push_cube` per level (in level order), then `end_point`.
    pub fn stream_point(&self, p: Vec3, sink: &mut (impl TraceSink + ?Sized)) {
        self.stream_batch(std::slice::from_ref(&p), sink);
    }

    /// Streams a whole point batch through `sink` in point order, inside
    /// one [`inerf_simd::vectorize`] frame. Does *not* emit `end_batch` —
    /// the caller owns iteration boundaries.
    pub fn stream_batch(&self, points: &[Vec3], sink: &mut (impl TraceSink + ?Sized)) {
        inerf_simd::vectorize(
            #[inline(always)]
            || {
                for &p in points {
                    self.trace_point(p, |cube| sink.push_cube(cube));
                    sink.end_point();
                }
            },
        );
    }

    /// Backward pass ("HT_b"): scatter-adds `d_features` (length `L*F`) into
    /// the embedding gradients at the entries that contributed to `p`.
    ///
    /// # Panics
    ///
    /// Panics if `d_features.len() != feature_dim()`.
    pub fn backward(&mut self, p: Vec3, d_features: &[f32]) {
        assert_eq!(
            d_features.len(),
            self.config.feature_dim(),
            "gradient size mismatch"
        );
        let t = self.config.table_size();
        for (li, level) in self.levels.iter().enumerate() {
            let (base, frac) = level.cube_of(p);
            let dslot = &d_features[li * F..(li + 1) * F];
            for c in 0..8u8 {
                let w = GridLevel::corner_weight(frac, c);
                if w == 0.0 {
                    continue;
                }
                let entry = level_index(self.config.hash, level, base.corner(c), t);
                let off = ((li * t as usize) + entry as usize) * F;
                for (k, d) in dslot.iter().enumerate() {
                    self.gradients[off + k] += w * d;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::HashFunction;
    use crate::trace::LookupTrace;
    use proptest::prelude::*;

    fn grid(hash: HashFunction) -> HashGrid {
        HashGrid::new(HashGridConfig::tiny(hash), 7)
    }

    /// The scalar reference rows: `HashGrid::encode_into` point by point.
    fn encode_rows(g: &HashGrid, points: &[Vec3]) -> Vec<f32> {
        let dim = g.config().feature_dim();
        let mut rows = vec![0.0; points.len() * dim];
        for (p, row) in points.iter().zip(rows.chunks_exact_mut(dim)) {
            g.encode_into(*p, row);
        }
        rows
    }

    #[test]
    fn encode_dimension_and_finiteness() {
        let g = grid(HashFunction::Morton);
        let f = g.encode(Vec3::new(0.1, 0.5, 0.9));
        assert_eq!(f.len(), g.config().feature_dim());
        assert!(f.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn encode_is_continuous_across_small_steps() {
        let g = grid(HashFunction::Morton);
        let a = g.encode(Vec3::new(0.5, 0.5, 0.5));
        let b = g.encode(Vec3::new(0.5 + 1e-4, 0.5, 0.5));
        let diff: f32 = a.iter().zip(&b).map(|(x, y)| (x - y).abs()).sum();
        assert!(diff < 1e-3, "encoding should be continuous, diff = {diff}");
    }

    #[test]
    fn encode_at_vertex_returns_vertex_embedding() {
        // At an exact lattice vertex of the coarsest level, only one corner
        // contributes per level (weights collapse to a delta).
        let mut g = grid(HashFunction::Morton);
        // Manually set a recognizable value at the level-0 entry of the cube
        // corner nearest to origin.
        let p = Vec3::new(0.0, 0.0, 0.0);
        let mut lookups = LookupTrace::new();
        g.stream_point(p, &mut lookups);
        let entry = lookups.cubes()[0].entries[0];
        let off = entry as usize * F; // level 0 offset
        g.store.set(off, 0.5);
        g.store.set(off + 1, -0.25);
        let feats = g.encode(p);
        assert!((feats[0] - 0.5).abs() < 1e-6);
        assert!((feats[1] + 0.25).abs() < 1e-6);
    }

    #[test]
    fn backward_scatters_weighted_gradients() {
        let mut g = grid(HashFunction::Original);
        let p = Vec3::new(0.37, 0.51, 0.73);
        let dim = g.config().feature_dim();
        let dout = vec![1.0f32; dim];
        g.backward(p, &dout);
        // Per level, the 8 corner weights sum to 1, so the total scattered
        // gradient per feature channel per level is 1 (barring hash
        // collisions which still conserve the sum).
        let total: f32 = g.gradients().iter().sum();
        let expected = dim as f32; // L levels * F features * weight-sum 1
        assert!(
            (total - expected).abs() < 1e-4,
            "total {total} vs {expected}"
        );
        g.zero_grad();
        assert!(g.gradients().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn gradient_matches_finite_difference() {
        // d(feature_k)/d(embedding_j) computed by backward must match the
        // finite-difference slope of encode().
        let mut g = grid(HashFunction::Morton);
        let p = Vec3::new(0.31, 0.62, 0.17);
        let dim = g.config().feature_dim();
        // Probe output channel 3 (level 1, feature 1 in tiny config).
        let k = 3;
        let mut dout = vec![0.0f32; dim];
        dout[k] = 1.0;
        g.zero_grad();
        g.backward(p, &dout);
        // Pick the first nonzero-gradient parameter and check numerically.
        let j = g
            .gradients()
            .iter()
            .position(|&v| v.abs() > 1e-6)
            .expect("some gradient");
        let analytic = g.gradients()[j];
        let eps = 1e-3f32;
        let orig = g.parameters()[j];
        g.store.set(j, orig + eps);
        let up = g.encode(p)[k];
        g.store.set(j, orig - eps);
        let down = g.encode(p)[k];
        g.store.set(j, orig);
        let numeric = (up - down) / (2.0 * eps);
        assert!(
            (analytic - numeric).abs() < 1e-3,
            "analytic {analytic} vs numeric {numeric}"
        );
    }

    #[test]
    fn trace_records_one_cube_per_level() {
        let g = grid(HashFunction::Morton);
        let mut trace = LookupTrace::new();
        g.stream_point(Vec3::splat(0.4), &mut trace);
        g.stream_point(Vec3::splat(0.6), &mut trace);
        assert_eq!(trace.point_count(), 2);
        assert_eq!(trace.cubes().len(), 2 * g.config().levels as usize);
    }

    #[test]
    fn nearby_points_share_cube_id_at_coarse_level() {
        let g = grid(HashFunction::Morton);
        // Tiny config: coarsest level res 4 (cell 0.25), finest res 32
        // (cell ~0.031); a 0.05 step stays in the coarse cube but crosses a
        // fine cell boundary.
        let (mut a, mut b) = (LookupTrace::new(), LookupTrace::new());
        g.stream_point(Vec3::new(0.50, 0.50, 0.50), &mut a);
        g.stream_point(Vec3::new(0.55, 0.50, 0.50), &mut b);
        // Coarsest level: same cube. Finest level: typically different.
        assert_eq!(a.cubes()[0].cube_id, b.cubes()[0].cube_id);
        let (a_last, b_last) = (
            a.cubes().last().expect("trace a is nonempty"),
            b.cubes().last().expect("trace b is nonempty"),
        );
        assert_ne!(a_last.cube_id, b_last.cube_id);
    }

    #[test]
    fn cached_encode_and_scatter_match_reference_bitwise() {
        let mut plain = grid(HashFunction::Morton);
        let mut cached = grid(HashFunction::Morton);
        let dim = plain.config().feature_dim();
        let points: Vec<Vec3> = (0..29)
            .map(|i| {
                let t = i as f32 + 0.25;
                Vec3::new((t * 0.19).fract(), (t * 0.31).fract(), (t * 0.47).fract())
            })
            .collect();
        let n = points.len();
        let f_plain = encode_rows(&plain, &points);
        let mut f_cached = vec![0.0; n * dim];
        let mut cache = LookupCache::default();
        cached.fill_cache(&points, &mut cache);
        // One tile as wide as the batch gathers every row in one call.
        let mut tile = vec![0.0; dim * n];
        cached.encode_tile_bt_from_cache(0, n, n, &mut f_cached, &mut tile, &cache);
        assert_eq!(f_plain, f_cached);
        assert_eq!(cache.point_count(), n);
        let d: Vec<f32> = (0..n * dim).map(|i| (i as f32 * 0.07).cos()).collect();
        for (p, row) in points.iter().zip(d.chunks_exact(dim)) {
            plain.backward(*p, row);
        }
        cached.backward_batch_cached(&cache, &d);
        assert_eq!(plain.gradients(), cached.gradients());
    }

    #[test]
    fn tile_encode_matches_batched_encode_bitwise() {
        // The gather takes four levels per vector — a full group, a padded
        // one, two and a padded third.
        for levels in [4, 3, 9] {
            let config = HashGridConfig {
                levels,
                ..HashGridConfig::tiny(HashFunction::Morton)
            };
            let mut g = HashGrid::new(config, 7);
            let dim = g.config().feature_dim();
            // The last two are lattice-exact: corners of weight zero.
            let exact = [Vec3::ZERO, Vec3::new(0.5, 0.25, 1.0)];
            let points: Vec<Vec3> = (0..19)
                .map(|i| {
                    let t = i as f32 + 0.125;
                    Vec3::new((t * 0.23).fract(), (t * 0.37).fract(), (t * 0.53).fract())
                })
                .chain(exact)
                .collect();
            let f_ref = encode_rows(&g, &points);
            // The prepass derives the slots without gathering.
            let mut cache_fill = LookupCache::default();
            g.fill_cache(&points, &mut cache_fill);
            // Tile paths: 16-point tiles plus a ragged tail, stale-lane tiles.
            let stride = 16;
            let mut f_tile = vec![0.0; points.len() * dim];
            let mut f_replay = vec![0.0; points.len() * dim];
            let mut cache_tile = LookupCache::default();
            g.prepare_cache(&mut cache_tile, points.len());
            let mut tile = vec![f32::NAN; dim * stride];
            let mut base = 0;
            while base < points.len() {
                let bn = stride.min(points.len() - base);
                g.encode_tile_bt_cached(
                    &points,
                    base,
                    bn,
                    stride,
                    &mut f_tile,
                    &mut tile,
                    &mut cache_tile,
                );
                // The inference encode writes the same tile and nothing
                // else; the gather-only encode replays the prepass's slots
                // into the same rows and tile.
                let mut bare = vec![f32::NAN; dim * stride];
                g.encode_tile_bt(&points[base..base + bn], stride, &mut bare);
                let mut replay = vec![f32::NAN; dim * stride];
                g.encode_tile_bt_from_cache(
                    base,
                    bn,
                    stride,
                    &mut f_replay,
                    &mut replay,
                    &cache_fill,
                );
                // The tile is the exact transpose of the freshly written rows.
                for p in 0..bn {
                    for i in 0..dim {
                        let want = f_tile[(base + p) * dim + i].to_bits();
                        assert_eq!(tile[i * stride + p].to_bits(), want);
                        assert_eq!(bare[i * stride + p].to_bits(), want);
                        assert_eq!(replay[i * stride + p].to_bits(), want);
                    }
                }
                base += bn;
            }
            assert_eq!(f_ref, f_tile);
            assert_eq!(f_ref, f_replay);
            assert_eq!(cache_fill.entries, cache_tile.entries);
            let weight_bits =
                |c: &LookupCache| c.weights.iter().map(|w| w.to_bits()).collect::<Vec<_>>();
            assert_eq!(weight_bits(&cache_fill), weight_bits(&cache_tile));
            // The read set collected from those slots is the one collected
            // from the points, in the same order.
            g.enable_touch_tracking();
            g.begin_touch_batch();
            g.collect_touched_batch(&points);
            let from_points = g.touched_entries().to_vec();
            g.begin_touch_batch();
            g.collect_touched_cache(&cache_fill);
            assert_eq!(g.touched_entries(), from_points);
        }
    }

    #[test]
    fn zero_weight_corners_are_skipped_not_added() {
        // At the origin only corner 0 of each cube has weight; an infinite
        // embedding at any other corner must not reach the features
        // (`0 * inf` is NaN), in the batched gather as in the reference.
        let mut g = grid(HashFunction::Morton);
        let mut cubes = LookupTrace::new();
        g.stream_point(Vec3::ZERO, &mut cubes);
        for (li, cube) in cubes.cubes().iter().enumerate() {
            let off = g.base_offset(li as u32, cube.entries[7]);
            g.store.set(off, f32::INFINITY);
        }
        let want = g.encode(Vec3::ZERO);
        assert!(want.iter().all(|v| v.is_finite()));
        let mut cache = LookupCache::default();
        g.fill_cache(&[Vec3::ZERO], &mut cache);
        let (mut row, mut tile) = (vec![0.0; want.len()], vec![0.0; want.len()]);
        g.encode_tile_bt_from_cache(0, 1, 1, &mut row, &mut tile, &cache);
        assert_eq!(row, want);
    }

    #[test]
    fn rows_scatter_skipping_zero_rows_matches_dense_scatter() {
        let mut dense = grid(HashFunction::Morton);
        let mut sparse = grid(HashFunction::Morton);
        let dim = dense.config().feature_dim();
        let points: Vec<Vec3> = (0..19)
            .map(|i| {
                let t = i as f32 + 0.75;
                Vec3::new((t * 0.11).fract(), (t * 0.43).fract(), (t * 0.61).fract())
            })
            .collect();
        let mut cache = LookupCache::default();
        dense.fill_cache(&points, &mut cache);
        // Gradient matrix with a mix of live rows and exactly-zero rows
        // (including negative zeros, as the compacted backward produces).
        let mut d = vec![0.0f32; points.len() * dim];
        let live: Vec<u32> = (0..points.len() as u32).filter(|i| i % 3 != 1).collect();
        for &r in &live {
            for k in 0..dim {
                d[r as usize * dim + k] = ((r as usize * dim + k) as f32 * 0.29).sin();
            }
        }
        for i in (0..points.len()).filter(|i| i % 3 == 1) {
            for k in 0..dim {
                d[i * dim + k] = if k % 2 == 0 { 0.0 } else { -0.0 };
            }
        }
        dense.backward_batch_cached(&cache, &d);
        sparse.backward_batch_cached_rows(&cache, &d, &live);
        let (dg, sg) = (dense.gradients(), sparse.gradients());
        for i in 0..dg.len() {
            assert_eq!(dg[i].to_bits(), sg[i].to_bits(), "gradient {i}");
        }
    }

    #[test]
    fn fp16_grid_quantizes_storage_and_halves_modeled_bytes() {
        let full = grid(HashFunction::Morton);
        let half = HashGrid::with_precision(
            HashGridConfig::tiny(HashFunction::Morton),
            7,
            Precision::Fp16,
        );
        assert_eq!(half.precision(), Precision::Fp16);
        // Same init draws; the working copy is the RNE fp16 image.
        for (i, (&f, &h)) in full.parameters().iter().zip(half.parameters()).enumerate() {
            assert_eq!(h, inerf_mlp::fp16::quantize_f16(f), "entry {i}");
        }
        // The modeled storage and entry width are exactly half.
        assert_eq!(2 * half.storage_bytes(), full.storage_bytes());
        assert_eq!(full.entry_bytes(), 8); // F=2 x 4 B
        assert_eq!(half.entry_bytes(), 4); // F=2 x 2 B, the paper's width
                                           // Encoding still interpolates the (quantized) table sensibly.
        let p = Vec3::new(0.3, 0.6, 0.9);
        let ff = full.encode(p);
        let hf = half.encode(p);
        for (a, b) in ff.iter().zip(&hf) {
            assert!((a - b).abs() <= 2.0f32.powi(-11) * a.abs().max(1e-4));
        }
    }

    #[test]
    fn fp16_grid_master_weights_accumulate_small_updates() {
        let mut g = HashGrid::with_precision(
            HashGridConfig::tiny(HashFunction::Morton),
            3,
            Precision::Fp16,
        );
        // Pin the slot to an exactly fp16-representable value: at 0.5 the
        // fp16 ulp is 2^-12, so 50 steps of 1e-6 stay below the rounding
        // tie and must not commit, while their master-side sum survives.
        g.parameter_store_mut().set(0, 0.5);
        let before = g.parameters()[0];
        assert_eq!(before, 0.5);
        for _ in 0..50 {
            let (params, _) = g.parameters_and_gradients_mut();
            params[0] += 1e-6;
            g.commit_parameters();
        }
        assert_eq!(
            g.parameters()[0],
            before,
            "sub-resolution steps commit late"
        );
        assert!(g.parameter_store().master()[0] > 0.5);
        for _ in 0..1_000 {
            let (params, _) = g.parameters_and_gradients_mut();
            params[0] += 1e-6;
        }
        g.commit_parameters();
        assert!(
            g.parameters()[0] > before,
            "accumulated master updates must eventually surface"
        );
    }

    #[test]
    fn touched_set_covers_scatter_writes_and_dedups() {
        let mut g = grid(HashFunction::Morton);
        g.enable_touch_tracking();
        let dim = g.config().feature_dim();
        let points: Vec<Vec3> = (0..37)
            .map(|i| {
                let t = i as f32 + 0.5;
                Vec3::new((t * 0.13).fract(), (t * 0.27).fract(), (t * 0.59).fract())
            })
            .collect();
        g.begin_touch_batch();
        g.collect_touched_batch(&points);
        // Deduplicated: no entry id appears twice.
        let mut seen = g.touched_entries().to_vec();
        let collected = seen.len();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), collected, "touched list has duplicates");
        // Scatter a dense gradient batch: every nonzero gradient slot must
        // belong to a touched entry (write set ⊆ collected read set).
        let mut cache = LookupCache::default();
        g.fill_cache(&points, &mut cache);
        let d: Vec<f32> = (0..points.len() * dim)
            .map(|i| (i as f32 * 0.21).sin() + 0.05)
            .collect();
        g.backward_batch_cached(&cache, &d);
        g.mark_touched_synced();
        g.finalize_touched();
        for (i, &grad) in g.gradients().iter().enumerate() {
            if grad != 0.0 {
                let gid = (i / F) as u32;
                assert!(
                    seen.binary_search(&gid).is_ok(),
                    "gradient at scalar {i} outside the touched set"
                );
            }
        }
        // finalize sorts entries and expands scalars in ascending order.
        let entries = g.touched_entries().to_vec();
        assert!(entries.windows(2).all(|w| w[0] < w[1]));
        let (scalars, _, _) = g.touched_scalars_master_grads();
        assert_eq!(scalars.len(), entries.len() * F);
        assert!(scalars.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn begin_touch_batch_zeroes_exactly_like_zero_grad() {
        let mut g = grid(HashFunction::Original);
        g.enable_touch_tracking();
        let dim = g.config().feature_dim();
        let points: Vec<Vec3> = (0..11)
            .map(|i| {
                let t = i as f32 + 0.25;
                Vec3::new((t * 0.33).fract(), (t * 0.71).fract(), (t * 0.49).fract())
            })
            .collect();
        g.begin_touch_batch();
        g.collect_touched_batch(&points);
        let mut cache = LookupCache::default();
        g.fill_cache(&points, &mut cache);
        let d = vec![0.5f32; points.len() * dim];
        g.backward_batch_cached(&cache, &d);
        g.mark_touched_synced();
        g.finalize_touched();
        assert!(g.gradients().iter().any(|&x| x != 0.0));
        // The next begin must leave the gradient table all-zero — i.e.
        // exactly what zero_grad produces — by clearing only touched slots.
        g.begin_touch_batch();
        assert!(g.gradients().iter().all(|&x| x == 0.0));
        assert!(g.touched_entries().is_empty());
    }

    #[test]
    #[should_panic(expected = "table_size_log2 = 31")]
    fn table_past_the_morton_index_range_is_refused() {
        let config = HashGridConfig {
            table_size_log2: 31,
            levels: 1,
            ..HashGridConfig::tiny(HashFunction::Morton)
        };
        HashGrid::new(config, 0);
    }

    #[test]
    #[should_panic(expected = "does not fit the u32 entry ids")]
    fn more_entries_than_u32_ids_are_refused() {
        // 8 x 2^29 = 2^32 entries: one past the last u32 id.
        let config = HashGridConfig {
            table_size_log2: 29,
            levels: 8,
            ..HashGridConfig::tiny(HashFunction::Morton)
        };
        HashGrid::new(config, 0);
    }

    #[test]
    #[should_panic(expected = "2^23 or more cells per axis")]
    fn level_past_the_exact_float_floor_is_refused() {
        let config = HashGridConfig {
            table_size_log2: 4,
            levels: 1,
            n_min: 1 << 23,
            n_max: 1 << 23,
            ..HashGridConfig::tiny(HashFunction::Morton)
        };
        HashGrid::new(config, 0);
    }

    /// The per-level reference cube lookup of `p` at level index `li`:
    /// scalar [`GridLevel::cube_of`], [`cube_level_indices`] and a 64-bit
    /// [`morton_encode`] for the `cube_id`.
    fn cube_lookup_at(g: &HashGrid, li: usize, p: Vec3) -> CubeLookup {
        let level = &g.levels[li];
        let (base, _) = level.cube_of(p);
        CubeLookup {
            level: level.index,
            entries: cube_level_indices(g.config.hash, level, base, g.config.table_size()),
            cube_id: morton_encode(base.x, base.y, base.z) | ((level.index as u64) << 58),
        }
    }

    /// Fills a cache for `points` on a grid of `config`'s shape — with no
    /// table behind it, which [`HashGrid::fill_cache`] and the trace bus
    /// never read, so table sizes nobody would allocate in a test are
    /// covered — and streams the same points through
    /// [`HashGrid::stream_batch`] and point by point through
    /// [`HashGrid::stream_point`], under every backend. Returns the first
    /// slot or event that differs from the per-level reference:
    /// [`cube_lookup_at`] and [`GridLevel::corner_weight`].
    fn point_kernel_mismatch(config: HashGridConfig, points: &[Vec3]) -> Option<String> {
        let levels = config.build_levels();
        let g = HashGrid {
            config,
            groups: levels.chunks(8).map(LevelGroup::new).collect(),
            levels,
            store: ParamStore::new(Precision::F32, Vec::new()),
            gradients: Vec::new(),
            touch: None,
        };
        for backend in inerf_simd::available_backends() {
            let prev = inerf_simd::force_backend(backend);
            let mut cache = LookupCache::default();
            g.fill_cache(points, &mut cache);
            let mut streamed = LookupTrace::new();
            g.stream_batch(points, &mut streamed);
            let mut looked_up = LookupTrace::new();
            for &p in points {
                g.stream_point(p, &mut looked_up);
            }
            inerf_simd::force_backend(prev);
            if streamed.point_count() != points.len() {
                return Some(format!(
                    "{} streamed {} of {} points",
                    backend.name(),
                    streamed.point_count(),
                    points.len()
                ));
            }
            let mut slots = cache
                .entries
                .chunks_exact(8)
                .zip(cache.weights.chunks_exact(8));
            let mut events = streamed.cubes().iter().zip(looked_up.cubes());
            for &p in points {
                for (li, level) in g.levels().iter().enumerate() {
                    let want = cube_lookup_at(&g, li, p);
                    let frac = level.cube_of(p).1;
                    let want_bits: [u32; 8] =
                        std::array::from_fn(|c| GridLevel::corner_weight(frac, c as u8).to_bits());
                    let (entries, weights) = slots.next().expect("one slot per point and level");
                    let bits: Vec<u32> = weights.iter().map(|w| w.to_bits()).collect();
                    let (event, lookup) = events.next().expect("one event per point and level");
                    if entries != want.entries
                        || bits != want_bits
                        || *event != want
                        || *lookup != want
                    {
                        return Some(format!(
                            "{} level {} at {p:?}: entries {entries:?}, weight bits {bits:x?} \
                             want {want_bits:x?}; streamed {event:?}, looked up {lookup:?}, \
                             want {want:?}",
                            backend.name(),
                            level.index
                        ));
                    }
                }
            }
            if events.next().is_some() {
                return Some(format!("{} streamed extra events", backend.name()));
            }
        }
        None
    }

    #[test]
    fn cube_id_spread_shortcut_ends_at_1024_cells() {
        // Adjacent levels of 1024 and 1025 cells: the first takes the cube
        // id from the ten-bit spreads, the second from the 64-bit code, and
        // bases of 1023 and 1024 sit on either side of the shortcut.
        for hash in [HashFunction::Morton, HashFunction::Original] {
            let config = HashGridConfig {
                levels: 2,
                table_size_log2: 20,
                n_min: 1024,
                n_max: 1025,
                hash,
            };
            let res: Vec<u32> = config.build_levels().iter().map(|l| l.resolution).collect();
            assert_eq!(res, [1024, 1025]);
            let points: Vec<Vec3> = (0..48)
                .map(|i| {
                    let near_one = 1.0 - (i % 16) as f32 * 2.0e-4;
                    Vec3::new(
                        near_one,
                        HOSTILE[i % HOSTILE.len()],
                        0.5 + i as f32 * 1.0e-2,
                    )
                })
                .collect();
            assert_eq!(point_kernel_mismatch(config, &points), None);
        }
    }

    /// Coordinates [`GridLevel::cube_of`]'s clamp has to absorb or sit
    /// exactly on: non-finite, negative, both zeros, lattice-exact, the
    /// upper face and past it.
    const HOSTILE: [f32; 12] = [
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        -1.5,
        -0.0,
        0.0,
        1.0e-40,
        0.5,
        0.999_999_94,
        1.0,
        1.000_000_1,
        3.0e38,
    ];

    #[test]
    fn float_floor_is_exact_up_to_the_finest_level_allowed() {
        // 2^23 - 1 cells: scaled coordinates run up to the last value the
        // kernel's float floor is exact for. (Morton only: the original
        // hash's dense-level test cubes the vertex count.)
        let config = HashGridConfig {
            levels: 1,
            table_size_log2: 30,
            n_min: (1 << 23) - 1,
            n_max: (1 << 23) - 1,
            hash: HashFunction::Morton,
        };
        let points: Vec<Vec3> = (0..64)
            .map(|i| {
                let near_one = 1.0 - i as f32 * f32::EPSILON / 2.0;
                Vec3::new(near_one, near_one * 0.5, HOSTILE[i % HOSTILE.len()])
            })
            .collect();
        assert_eq!(point_kernel_mismatch(config, &points), None);
    }

    proptest! {
        #[test]
        fn point_kernel_matches_per_level_reference_bitwise(
            levels_pick in 0usize..6, log2 in 4u32..=30,
            n_min in 1u32..=16, growth in 0u32..=17,
            coords in proptest::collection::vec(-0.25f32..1.25, 24..25),
            picks in proptest::collection::vec(0usize..36, 24..25)
        ) {
            // A third of the coordinates come from the hostile pool.
            let coord = |i: usize| HOSTILE.get(picks[i]).copied().unwrap_or(coords[i]);
            let points: Vec<Vec3> = (0..8)
                .map(|i| Vec3::new(coord(3 * i), coord(3 * i + 1), coord(3 * i + 2)))
                .collect();
            for hash in [HashFunction::Morton, HashFunction::Original] {
                let config = HashGridConfig {
                    // One, a padded first group, a full group, a padded
                    // second group, two full groups, a third group of one.
                    levels: [1, 3, 8, 9, 16, 17][levels_pick],
                    table_size_log2: log2,
                    n_min,
                    // Up to 2^21 cells, the most `level_index` can cube in a
                    // `u64`: bases far past the ten spread bits.
                    n_max: n_min << growth,
                    hash,
                };
                prop_assert_eq!(point_kernel_mismatch(config, &points), None);
            }
        }

        #[test]
        fn encode_bounded_by_weight_one_combination(
            px in 0.0f32..1.0, py in 0.0f32..1.0, pz in 0.0f32..1.0
        ) {
            // Each output feature is a convex combination of 8 embeddings,
            // all initialized in [-1e-4, 1e-4], so outputs stay in range.
            let g = grid(HashFunction::Morton);
            let f = g.encode(Vec3::new(px, py, pz));
            for v in f {
                prop_assert!(v.abs() <= 1e-4 + 1e-6);
            }
        }

        #[test]
        fn lookups_in_table_range(
            px in -0.2f32..1.2, py in -0.2f32..1.2, pz in -0.2f32..1.2
        ) {
            let g = grid(HashFunction::Original);
            let t = g.config().table_size();
            let mut cubes = LookupTrace::new();
            g.stream_point(Vec3::new(px, py, pz), &mut cubes);
            for cube in cubes.cubes() {
                for e in cube.entries {
                    prop_assert!(e < t);
                }
            }
        }
    }
}
