//! The iNGP model (hash grid + two small MLPs) and the trainable-field trait.

use crate::engine::{chunk_samples, run_tasks, POINT_CHUNK};
use crate::train::TrainConfig;
use inerf_encoding::{HashFunction, HashGrid, HashGridConfig, LookupCache, TraceSink};
use inerf_geom::Vec3;
use inerf_mlp::{
    untranspose_tile, Activation, AdamState, Mlp, MlpActivations, MlpBatchActivations,
    MlpGradients, MlpScratch, Precision, FWD_BLOCK,
};
use rayon::ThreadPool;
use std::borrow::Borrow;
use std::ops::Range;
use std::slice::ChunksExactMut;

/// A radiance-field model that can be trained by [`crate::train::Trainer`]
/// point by point: `begin_batch` → `query` for every sample point, in
/// streaming order → `backward` for every point, same indices →
/// `apply_gradients`, caching what the backward needs during the queries.
/// A model with chunk phases ([`IngpModel`]) also hands out its
/// [`ChunkedField`] through `chunked` / `chunked_eval`; per-point models
/// (the Tab. IV baselines, [`PerPoint`]) do not, and are driven point by
/// point. Which of the two a model is picks the trainer's step.
pub trait TrainableField {
    /// Clears per-batch caches and accumulated gradients.
    fn begin_batch(&mut self);

    /// Queries density and color at point `p` (normalized `[0,1]^3`) viewed
    /// along `d`; returns `(sigma, rgb)` and caches intermediates under the
    /// returned index.
    fn query(&mut self, p: Vec3, d: Vec3) -> (f32, Vec3);

    /// Back-propagates the loss gradient of cached point `idx`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `idx` is out of range for the current
    /// batch.
    fn backward(&mut self, idx: usize, d_sigma: f32, d_color: Vec3);

    /// Applies one optimizer step using the accumulated gradients.
    fn apply_gradients(&mut self);

    /// Brings every stored parameter up to date before an out-of-band read
    /// (rendering, evaluation, occupancy refresh, parameter export).
    /// Models with a lazily-replayed sparse optimizer flush their deferred
    /// updates here; for everything else (and after training-loop reads
    /// that stay inside the touched set) it is a no-op, the default.
    fn sync_parameters(&mut self) {}

    /// Queries without caching (for evaluation/rendering).
    fn query_eval(&self, p: Vec3, d: Vec3) -> (f32, Vec3);

    /// Total trainable parameter count.
    fn parameter_count(&self) -> usize;

    /// The parameter-storage precision of this model. Defaults to f32
    /// (the only backend the baseline models have); [`IngpModel`] reports
    /// its [`ParamStore`](inerf_mlp::ParamStore) backend. The trainer
    /// debug-asserts this against `TrainConfig::precision` so a
    /// config/model mismatch cannot silently skew precision-keyed
    /// hardware models.
    fn precision(&self) -> inerf_mlp::Precision {
        inerf_mlp::Precision::F32
    }

    /// This model's chunk phases, for training; `None` (the default) runs
    /// the per-point step.
    fn chunked(&mut self) -> Option<&mut dyn ChunkedField> {
        None
    }

    /// This model's chunk phases, for evaluation; `None` (the default)
    /// evaluates through a [`TrainableField::query_eval`] loop.
    fn chunked_eval(&self) -> Option<&dyn ChunkedField> {
        None
    }

    /// Streams the memory-access events this model would generate for a
    /// batch of sample points into the trace bus — the algorithm→hardware
    /// boundary the co-simulation path hooks into. One `push_cube` per
    /// hash-table level per point (in point order) plus one `end_point`
    /// per point; the caller owns `end_batch`.
    ///
    /// The default is a no-op: models without a hash-table access stream
    /// (the Tab. IV baselines) generate no trace events.
    fn stream_lookups(&self, _points: &[Vec3], _sink: &mut dyn TraceSink) {}
}

/// A model driven through its per-point surface only: every
/// [`TrainableField`] method but `chunked`/`chunked_eval` is the wrapped
/// model's, and those two keep their `None` default. `PerPoint(model)`
/// therefore trains, renders and refreshes an occupancy grid through
/// exactly the paths a Tab. IV baseline takes — the per-point reference
/// the chunk phases of an [`IngpModel`] are checked against.
#[derive(Debug, Clone)]
pub struct PerPoint<M>(pub M);

/// The wrapped model, so code generic over the two surfaces of one model
/// can read it (`M: Borrow<IngpModel>` holds for both `IngpModel` and
/// `PerPoint<IngpModel>`).
impl<M> Borrow<M> for PerPoint<M> {
    fn borrow(&self) -> &M {
        &self.0
    }
}

impl<M: TrainableField> TrainableField for PerPoint<M> {
    fn begin_batch(&mut self) {
        self.0.begin_batch();
    }

    fn query(&mut self, p: Vec3, d: Vec3) -> (f32, Vec3) {
        self.0.query(p, d)
    }

    fn backward(&mut self, idx: usize, d_sigma: f32, d_color: Vec3) {
        self.0.backward(idx, d_sigma, d_color);
    }

    fn apply_gradients(&mut self) {
        self.0.apply_gradients();
    }

    fn sync_parameters(&mut self) {
        self.0.sync_parameters();
    }

    fn query_eval(&self, p: Vec3, d: Vec3) -> (f32, Vec3) {
        self.0.query_eval(p, d)
    }

    fn parameter_count(&self) -> usize {
        self.0.parameter_count()
    }

    fn precision(&self) -> Precision {
        self.0.precision()
    }

    fn stream_lookups(&self, points: &[Vec3], sink: &mut dyn TraceSink) {
        self.0.stream_lookups(points, sink);
    }
}

/// The chunk phases of a batched model. *Training*: `begin_batch` →
/// `begin_chunks` opens the batch, cut into [`POINT_CHUNK`]-sample chunks
/// with a ring of in-flight records → per chunk, in order and as its rays
/// allow: `density_chunks` (prepass, fused gather and density MLP), the
/// engine's transmittance scan into an ascending list of live samples,
/// `color_chunks` over them and `backward_chunks` (MLP backward, in-order
/// grid scatter and gradient fold; frees the record) → `apply_gradients`.
/// *Evaluation*, uncached: `query_eval_batch_density`, then
/// `query_eval_batch_color_compacted` with the same scratch. Per point,
/// every phase matches the per-point surface bit for bit.
pub trait ChunkedField {
    /// Opens a chunk-phased batch of `n` samples: chunk `c` holds samples
    /// [`chunk_samples`]`(c..c + 1, n)`, and at most `ring` consecutive
    /// chunks are in flight (densities taken, backward not yet run) at a
    /// time.
    fn begin_chunks(&mut self, n: usize, ring: usize);

    /// Prepass and density phase of `chunks`, the next chunks in order:
    /// fills their samples' `sigmas` (caching what the color phase and
    /// the backward need). `points` and `sigmas` span the whole batch.
    fn density_chunks(
        &mut self,
        points: &[Vec3],
        chunks: Range<usize>,
        sigmas: &mut [f32],
        pool: &ThreadPool,
    );

    /// Color phase of `chunks`: computes `rgbs[i]` for the samples listed
    /// (ascending, global indices) in `live` — every live sample of those
    /// chunks — and `Vec3::ZERO` for their other samples. `dirs` and
    /// `rgbs` span the whole batch.
    fn color_chunks(
        &mut self,
        dirs: &[Vec3],
        chunks: Range<usize>,
        live: &[u32],
        rgbs: &mut [Vec3],
        pool: &ThreadPool,
    );

    /// Backward of `chunks`, the oldest chunks in flight, given the loss
    /// gradients of their samples (`d_sigmas` / `d_colors` span the whole
    /// batch); accumulates their parameter gradients in chunk order and
    /// frees their records.
    fn backward_chunks(
        &mut self,
        chunks: Range<usize>,
        d_sigmas: &[f32],
        d_colors: &[Vec3],
        pool: &ThreadPool,
    );

    /// Density phase of the evaluation query: fills `sigmas` and keeps
    /// whatever the color phase needs in the caller-owned `scratch`, so
    /// the render engine can scan ray transmittance and pay the color MLP
    /// only for samples that still matter.
    fn query_eval_batch_density(
        &self,
        points: &[Vec3],
        sigmas: &mut [f32],
        scratch: &mut EvalScratch,
        pool: &ThreadPool,
    );

    /// Color phase of the evaluation query, after
    /// [`ChunkedField::query_eval_batch_density`] with the same `scratch`:
    /// computes `rgbs[i]` for the samples listed (ascending, global
    /// indices) in `live` and `Vec3::ZERO` for the rest.
    fn query_eval_batch_color_compacted(
        &self,
        dirs: &[Vec3],
        live: &[u32],
        rgbs: &mut [Vec3],
        scratch: &mut EvalScratch,
        pool: &ThreadPool,
    );
}

/// No-gradient densities of `points`, by whichever evaluation path the
/// model has: its chunk phases' density query into `scratch` (returned, so
/// the colour phase can follow with the same scratch), or — for per-point
/// models, the Tab. IV baselines — a [`TrainableField::query_eval`] loop,
/// whose colours land in `rgbs` (returns `None`). The one dispatch the
/// render engine and the occupancy refresh share.
pub(crate) fn eval_density_batch<'m, M: TrainableField>(
    model: &'m M,
    points: &[Vec3],
    dirs: &[Vec3],
    sigmas: &mut [f32],
    rgbs: &mut Vec<Vec3>,
    scratch: &mut EvalScratch,
    pool: &ThreadPool,
) -> Option<&'m dyn ChunkedField> {
    let phased = model.chunked_eval();
    if let Some(chunked) = phased {
        chunked.query_eval_batch_density(points, sigmas, scratch, pool);
    } else {
        rgbs.clear();
        for ((&p, &d), sigma) in points.iter().zip(dirs).zip(sigmas) {
            let (s, rgb) = model.query_eval(p, d);
            *sigma = s;
            rgbs.push(rgb);
        }
    }
    phased
}

/// Execution path of the hash-grid optimizer.
///
/// Both paths produce bitwise-identical training trajectories (losses,
/// parameters, DRAM/cosim statistics) — `Sparse` is the default and
/// `Dense` is the pinned O(table) reference it is tested against. See
/// DESIGN.md, "Sparse optimizer & lazy-replay Adam".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OptPath {
    /// Full-table sweep every iteration: dense Adam step, full fp16
    /// re-quantize, full gradient memset.
    Dense,
    /// Lazy or dense by measured density, per iteration: below
    /// [`DENSE_SWEEP_FROM`] of the table nonzero in the last step, O(touched
    /// entries) — touched-set collection during the forward prepass,
    /// lazy-replay Adam, sparse fp16 commit; from there on the `Dense` sweep.
    Sparse,
}

/// Share of the hash table's gradient scalars that, nonzero in one
/// optimizer step, makes [`OptPath::Sparse`] run the next iteration as a
/// dense sweep. It sits above the measured crossover at
/// `ModelConfig::small`: the dense iteration overtakes the lazy one near
/// 20 % touched at fp16 (its commit re-quantizes the whole table) and
/// below 5 % at f32 (EXPERIMENTS.md, "Sweep choice by touch density").
pub const DENSE_SWEEP_FROM: f64 = 0.25;

impl OptPath {
    /// Lower-case label for reports and JSON dumps.
    pub const fn label(self) -> &'static str {
        match self {
            OptPath::Dense => "dense",
            OptPath::Sparse => "sparse",
        }
    }
}

/// Architecture hyper-parameters of [`IngpModel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelConfig {
    /// Hash-grid configuration.
    pub grid: HashGridConfig,
    /// Hidden width of the density MLP.
    pub density_hidden: usize,
    /// Output width of the density MLP (1 density + geometry features).
    pub density_out: usize,
    /// Hidden width of the color MLP (two hidden layers).
    pub color_hidden: usize,
}

impl ModelConfig {
    /// The paper's configuration: `L=16, T=2^19, F=2` grid, width-64 MLPs,
    /// 16 density outputs (iNGP defaults).
    pub fn paper(hash: HashFunction) -> Self {
        ModelConfig {
            grid: HashGridConfig::paper(hash),
            density_hidden: 64,
            density_out: 16,
            color_hidden: 64,
        }
    }

    /// A small configuration for tests and examples (seconds to train).
    pub fn tiny() -> Self {
        ModelConfig {
            grid: HashGridConfig::tiny(HashFunction::Morton),
            density_hidden: 16,
            density_out: 8,
            color_hidden: 16,
        }
    }

    /// A mid-sized configuration that reaches good PSNR on the procedural
    /// scenes in a few hundred iterations (used by the PSNR experiments).
    pub fn small(hash: HashFunction) -> Self {
        ModelConfig {
            grid: HashGridConfig {
                levels: 8,
                table_size_log2: 14,
                n_min: 4,
                n_max: 96,
                hash,
            },
            density_hidden: 32,
            density_out: 8,
            color_hidden: 32,
        }
    }
}

/// The density of a raw density-MLP output: softplus `ln(1 + e^x)`, read
/// as `x` itself past 15 where the two agree in f32.
#[inline]
fn softplus(x: f32) -> f32 {
    if x > 15.0 {
        x
    } else {
        (1.0 + x.exp()).ln()
    }
}

/// Spherical-harmonics-style direction encoding (degree 2, 9 coefficients),
/// the view-direction featurization iNGP feeds its color MLP.
pub fn direction_encoding(d: Vec3) -> [f32; 9] {
    let (x, y, z) = (d.x, d.y, d.z);
    [
        1.0,
        x,
        y,
        z,
        x * y,
        x * z,
        y * z,
        x * x - y * y,
        3.0 * z * z - 1.0,
    ]
}

/// Cached activations of one queried point (needed for backprop).
#[derive(Debug, Clone)]
struct PointCache {
    p: Vec3,
    density_acts: MlpActivations,
    color_acts: MlpActivations,
    sigma: f32,
}

/// One slot of the model's ring of in-flight chunk records: a chunk's
/// training record from its prepass to its scatter — corner lookups,
/// forward activations (kept for the backward pass) and chunk-local
/// parameter gradients. The streamed step hands the slot to a new chunk
/// as soon as its chunk is back-propagated, so the ring stays small enough
/// to stay in cache; buffers keep their capacity across chunks and
/// batches. Each thread works on its own chunk, so nothing here is shared.
#[derive(Debug, Clone, Default)]
struct ChunkScratch {
    /// The chunk this slot holds, from its density phase to its backward.
    held: Option<usize>,
    /// `n × L*F` hash-grid features (density-MLP input).
    feats: Vec<f32>,
    /// Corner entries/weights cached by the prepass, read by the gather and
    /// the scatter.
    lookups: LookupCache,
    density: MlpBatchActivations,
    /// Color-MLP input rows, `m × (geo + 9)` over the live rows.
    color_in: Vec<f32>,
    color: MlpBatchActivations,
    /// Post-softplus densities (needed for the softplus gradient chain).
    sigmas: Vec<f32>,
    /// `n × L*F` feature gradients for the hash-grid scatter.
    d_feats: Vec<f32>,
    d_color_in: Vec<f32>,
    d_raw: Vec<f32>,
    d_rgb: Vec<f32>,
    density_grads: MlpGradients,
    color_grads: MlpGradients,
    /// Pooled GEMM-transpose / gradient ping-pong buffers per MLP.
    density_scratch: MlpScratch,
    color_scratch: MlpScratch,
    /// Chunk-local indices of the live samples, ascending: the row order
    /// of every color buffer (the identity when nothing is dead).
    live: Vec<u32>,
}

/// Resizes a scratch buffer without zeroing the retained prefix. Every
/// caller fully overwrites the buffer before reading it (encode fills all
/// feature slots, the MLP kernels write every row, the gradient assembly
/// loops cover every element), so a clear would be a redundant memset.
fn reset_buf(buf: &mut Vec<f32>, len: usize) {
    buf.resize(len, 0.0);
}

impl ChunkScratch {
    /// Density phase of this chunk's forward pass: fused gather → density
    /// MLP over the corner lookups the prepass cached. Each
    /// block-transposed feature tile streams straight from the hash-grid
    /// gather into the first GEMM while cache-hot (the row-major copy in
    /// `feats` is still kept — the backward pass needs it for the layer-0
    /// weight gradients). Per point the arithmetic matches the scalar
    /// [`IngpModel::query`] path bitwise.
    fn forward_density(&mut self, grid: &HashGrid, density_mlp: &Mlp, sigmas_out: &mut [f32]) {
        let n = sigmas_out.len();
        let fdim = grid.config().feature_dim();
        let dout = density_mlp.out_dim();
        reset_buf(&mut self.feats, n * fdim);
        let ChunkScratch {
            feats,
            lookups,
            density,
            density_scratch,
            ..
        } = self;
        density_mlp.forward_batch_fused(
            n,
            // Inlined into the MLP driver's dispatch frame, or the gather's
            // lane loops compile at the build's baseline features.
            #[inline(always)]
            |base, bn, tile| {
                grid.encode_tile_bt_from_cache(base, bn, FWD_BLOCK, feats, tile, lookups)
            },
            density,
            density_scratch,
        );
        reset_buf(&mut self.sigmas, n);
        let raw = self.density.output();
        for i in 0..n {
            let sigma = softplus(raw[i * dout]);
            self.sigmas[i] = sigma;
            sigmas_out[i] = sigma;
        }
    }

    /// Compacted color phase: only the rows in `self.live` (chunk-local,
    /// ascending) go through the color MLP; dead rows get `Vec3::ZERO`.
    /// Dead samples sit strictly after their ray's transmittance reached
    /// exactly `0.0`, so the composite multiplies their color by `+0.0` —
    /// substituting zero is bitwise-identical (see
    /// [`crate::engine::scan_live_samples`]).
    fn forward_color_compacted(
        &mut self,
        color_mlp: &Mlp,
        dout: usize,
        dirs: &[Vec3],
        rgbs_out: &mut [Vec3],
    ) {
        let m = self.live.len();
        let geo = dout - 1;
        let cin = geo + 9;
        reset_buf(&mut self.color_in, m * cin);
        let raw = self.density.output();
        for (k, &li) in self.live.iter().enumerate() {
            let i = li as usize;
            let slot = &mut self.color_in[k * cin..(k + 1) * cin];
            slot[..geo].copy_from_slice(&raw[i * dout + 1..(i + 1) * dout]);
            slot[geo..].copy_from_slice(&direction_encoding(dirs[i]));
        }
        color_mlp.forward_batch_scratch(&self.color_in, &mut self.color, &mut self.color_scratch);
        let out = self.color.output();
        rgbs_out.fill(Vec3::ZERO);
        for (k, &li) in self.live.iter().enumerate() {
            rgbs_out[li as usize] = Vec3::new(out[3 * k], out[3 * k + 1], out[3 * k + 2]);
        }
    }

    /// Backward pass over this chunk: color MLP → softplus chain → density
    /// MLP, accumulating parameter gradients chunk-locally and leaving the
    /// feature gradients in `d_feats` for the (sequential, deterministic)
    /// hash-grid scatter. Only live rows flow back through the color MLP
    /// (dead rows carry `±0.0` gradients, which the per-point backward
    /// drops via its zero-gradient early-outs anyway), and the density
    /// backward runs over every row — its per-row early-out makes dead
    /// rows `O(out_dim)`.
    fn backward(
        &mut self,
        density_mlp: &Mlp,
        color_mlp: &Mlp,
        d_sigmas: &[f32],
        d_colors: &[Vec3],
    ) {
        let n = d_sigmas.len();
        let fdim = density_mlp.in_dim();
        let dout = density_mlp.out_dim();
        let geo = dout - 1;
        self.color_grads.reset(color_mlp);
        self.density_grads.reset(density_mlp);
        // Only the geometry columns of the color-MLP input have parameters
        // upstream (the direction encoding is a constant of the ray), so
        // `d_color_in` is `rows × geo` and the kernel computes no others.
        let m = self.live.len();
        reset_buf(&mut self.d_rgb, m * 3);
        for (k, &li) in self.live.iter().enumerate() {
            let d = d_colors[li as usize];
            self.d_rgb[3 * k] = d.x;
            self.d_rgb[3 * k + 1] = d.y;
            self.d_rgb[3 * k + 2] = d.z;
        }
        reset_buf(&mut self.d_color_in, m * geo);
        color_mlp.backward_batch_scratch(
            &self.color_in,
            &self.color,
            &self.d_rgb,
            &mut self.d_color_in,
            &mut self.color_grads,
            &mut self.color_scratch,
        );
        // Dead rows: d_raw stays zero (their gradients are ±0.0, which the
        // scalar density backward's early-out drops identically).
        self.d_raw.clear();
        self.d_raw.resize(n * dout, 0.0);
        for (k, &li) in self.live.iter().enumerate() {
            let i = li as usize;
            // d softplus(x)/dx = sigmoid(x) = 1 - e^{-softplus(x)}.
            self.d_raw[i * dout] = d_sigmas[i] * (1.0 - (-self.sigmas[i]).exp());
            self.d_raw[i * dout + 1..(i + 1) * dout]
                .copy_from_slice(&self.d_color_in[k * geo..(k + 1) * geo]);
        }
        reset_buf(&mut self.d_feats, n * fdim);
        density_mlp.backward_batch_scratch(
            &self.feats,
            &self.density,
            &self.d_raw,
            &mut self.d_feats,
            &mut self.density_grads,
            &mut self.density_scratch,
        );
    }
}

/// The chunk-phased batch: its sample count and the ring of chunk records
/// (the hash-grid backward scatter replays each chunk's cached corner
/// lookups, so the points themselves need not be retained).
#[derive(Debug, Clone, Default)]
struct BatchCache {
    len: usize,
    /// Chunk `c` lives in slot `c % ring`.
    ring: usize,
    chunks: Vec<ChunkScratch>,
}

impl BatchCache {
    /// Consecutive chunks `chunks` in order, each with its samples and slot.
    fn slots(
        &mut self,
        chunks: &Range<usize>,
    ) -> impl Iterator<Item = (usize, Range<usize>, &mut ChunkScratch)> {
        assert!(chunks.len() <= self.ring, "more chunks than ring slots");
        let n = self.len;
        let (wrapped, from) = self.chunks[..self.ring].split_at_mut(chunks.start % self.ring);
        let slots = from.iter_mut().chain(wrapped);
        chunks
            .clone()
            .zip(slots)
            .map(move |(c, slot)| (c, chunk_samples(c..c + 1, n), slot))
    }
}

/// Caller-owned scratch for the phased *evaluation* query
/// ([`ChunkedField::query_eval_batch_density`] /
/// [`ChunkedField::query_eval_batch_color_compacted`]). Opaque outside
/// this module: the render engine holds one per engine and hands it back on
/// every call, so steady-state rendering allocates nothing.
///
/// Inference is tile-resident and keeps no per-sample activations: the only
/// per-sample state that survives the density phase is the raw density-MLP
/// output row (whose tail is the colour phase's geometry features);
/// everything else lives in a pair of [`FWD_BLOCK`]-point tiles per task.
#[derive(Debug, Clone, Default)]
pub struct EvalScratch {
    /// Sample count of the density phase, rechecked by the color phase.
    len: usize,
    /// `len × density_out` raw density-MLP outputs, row-major.
    raw: Vec<f32>,
    /// One ping-pong tile pair per `POINT_CHUNK` task.
    tiles: Vec<f32>,
}

impl EvalScratch {
    /// Total capacity of the buffers, in elements, for the render arena's
    /// and the refresh scratch's growth-event accounting.
    pub(crate) fn capacity_sum(&self) -> usize {
        self.raw.capacity() + self.tiles.capacity()
    }
}

/// One ping-pong tile pair of `pair_len` values for each of `tasks` tasks,
/// out of a pooled buffer that only ever grows (a block with fewer tasks
/// than its predecessor keeps the surplus).
fn task_tiles(tiles: &mut Vec<f32>, tasks: usize, pair_len: usize) -> ChunksExactMut<'_, f32> {
    if tiles.len() < tasks * pair_len {
        tiles.resize(tasks * pair_len, 0.0);
    }
    tiles[..tasks * pair_len].chunks_exact_mut(pair_len)
}

/// Density phase of one evaluation task: per [`FWD_BLOCK`] points, encode
/// straight into a tile → density MLP tile to tile → keep each point's raw
/// output row and its softplus density. Per point the arithmetic is the
/// scalar [`IngpModel::query_eval`]'s, bit for bit.
fn eval_density_task(
    grid: &HashGrid,
    density_mlp: &Mlp,
    points: &[Vec3],
    sigmas: &mut [f32],
    raw: &mut [f32],
    tiles: &mut [f32],
) {
    let dout = density_mlp.out_dim();
    let (a, b) = tiles.split_at_mut(tiles.len() / 2);
    let blocks = points
        .chunks(FWD_BLOCK)
        .zip(sigmas.chunks_mut(FWD_BLOCK))
        .zip(raw.chunks_mut(FWD_BLOCK * dout));
    inerf_simd::vectorize(
        #[inline(always)]
        || {
            for ((block, sigmas), raw) in blocks {
                grid.encode_tile_bt(block, FWD_BLOCK, a);
                untranspose_tile(density_mlp.forward_tile(a, b), raw, dout);
                for (row, sigma) in raw.chunks_exact(dout).zip(sigmas) {
                    *sigma = softplus(row[0]);
                }
            }
        },
    );
}

/// Colour phase of one evaluation task over the ascending global sample
/// indices `live`, all inside `lo..lo + rgbs.len()`: per [`FWD_BLOCK`] live
/// samples, assemble the `[geo + 9][FWD_BLOCK]` input tile from their raw
/// density rows and view directions → colour MLP tile to tile → `rgbs`.
/// Every other sample of the range gets `Vec3::ZERO`.
fn eval_color_task(
    color_mlp: &Mlp,
    raw: &[f32],
    dirs: &[Vec3],
    lo: usize,
    live: &[u32],
    rgbs: &mut [Vec3],
    tiles: &mut [f32],
) {
    // The colour input is the raw row's tail plus the 9 direction terms.
    let geo = color_mlp.in_dim() - 9;
    let dout = geo + 1;
    let (a, b) = tiles.split_at_mut(tiles.len() / 2);
    if live.len() < rgbs.len() {
        rgbs.fill(Vec3::ZERO);
    }
    inerf_simd::vectorize(
        #[inline(always)]
        || {
            for block in live.chunks(FWD_BLOCK) {
                for (p, &i) in block.iter().enumerate() {
                    let i = i as usize;
                    let features = &raw[i * dout + 1..(i + 1) * dout];
                    for (k, &v) in features.iter().enumerate() {
                        a[k * FWD_BLOCK + p] = v;
                    }
                    for (k, v) in direction_encoding(dirs[i]).into_iter().enumerate() {
                        a[(geo + k) * FWD_BLOCK + p] = v;
                    }
                }
                let out = color_mlp.forward_tile(a, b);
                for (p, &i) in block.iter().enumerate() {
                    rgbs[i as usize - lo] =
                        Vec3::new(out[p], out[FWD_BLOCK + p], out[2 * FWD_BLOCK + p]);
                }
            }
        },
    );
}

/// The iNGP / Instant-NeRF model: multi-resolution hash grid → density MLP →
/// color MLP.
///
/// The density MLP maps the `L*F` encoding to `density_out` values; element 0
/// passes through `exp` to give `σ`, the rest are geometry features. The
/// color MLP consumes the geometry features plus the 9-dim direction
/// encoding and outputs sigmoid RGB.
#[derive(Debug, Clone)]
pub struct IngpModel {
    config: ModelConfig,
    grid: HashGrid,
    density_mlp: Mlp,
    color_mlp: Mlp,
    grid_adam: AdamState,
    density_adam: AdamState,
    color_adam: AdamState,
    opt: OptPath,
    cache: Vec<PointCache>,
    batch: BatchCache,
    /// Scratch: this iteration's touched gradients, gathered compactly by
    /// the sparse clip-norm pass so the Adam step streams them instead of
    /// re-gathering from the dense table.
    touched_grads: Vec<f32>,
    /// Whether this iteration sweeps the whole grid table: always on
    /// [`OptPath::Dense`], by measured density on `Sparse`.
    dense_sweep: bool,
    /// Nonzero grid gradient scalars of the last optimizer step, counted
    /// by its clip-norm pass.
    nonzero_grads: usize,
}

impl IngpModel {
    /// Learning rate used for all parameter groups (iNGP uses 1e-2 with
    /// per-group scaling; one shared rate suffices at our scale).
    pub const LEARNING_RATE: f32 = 1e-2;

    /// Global-norm gradient clip applied per parameter group each step.
    /// The exp density activation can otherwise blow a batch's gradients
    /// up and collapse training (a known iNGP instability).
    pub const GRAD_CLIP_NORM: f32 = 32.0;

    /// Creates a model with freshly initialized f32-stored parameters
    /// (the pre-mixed-precision behavior, bit-identical) and the sparse
    /// grid optimizer ([`OptPath::Sparse`]).
    pub fn new(config: ModelConfig, seed: u64) -> Self {
        Self::for_config(config, &TrainConfig::small(), seed)
    }

    /// A model for a [`TrainConfig`]'s `precision` and `opt` fields — the
    /// one explicit constructor, for precision- and optimizer-swept
    /// experiments. The hash table and both MLPs are stored at
    /// `precision` (fp16 keeps f32 master weights for Adam and commits
    /// RNE-rounded working copies after every optimizer step); the
    /// initialization draws are identical at either precision.
    pub fn for_config(config: ModelConfig, train: &TrainConfig, seed: u64) -> Self {
        let (precision, opt) = (train.precision, train.opt);
        let mut grid = HashGrid::with_precision(config.grid, seed, precision);
        let feat = config.grid.feature_dim();
        let density_mlp = Mlp::with_precision(
            &[feat, config.density_hidden, config.density_out],
            Activation::Relu,
            Activation::Identity,
            seed ^ 0xD5,
            precision,
        );
        let color_in = (config.density_out - 1) + 9;
        let color_mlp = Mlp::with_precision(
            &[color_in, config.color_hidden, config.color_hidden, 3],
            Activation::Relu,
            Activation::Sigmoid,
            seed ^ 0xC0,
            precision,
        );
        let mut grid_adam = AdamState::new(grid.parameters().len(), Self::LEARNING_RATE);
        if opt == OptPath::Sparse {
            grid.enable_touch_tracking();
            grid_adam.enable_lazy();
        }
        let density_adam = AdamState::new(density_mlp.parameter_count(), Self::LEARNING_RATE);
        let color_adam = AdamState::new(color_mlp.parameter_count(), Self::LEARNING_RATE);
        IngpModel {
            config,
            grid,
            density_mlp,
            color_mlp,
            grid_adam,
            density_adam,
            color_adam,
            opt,
            cache: Vec::new(),
            batch: BatchCache::default(),
            touched_grads: Vec::new(),
            dense_sweep: opt == OptPath::Dense,
            nonzero_grads: 0,
        }
    }

    /// The grid-optimizer execution path this model runs.
    pub fn opt_path(&self) -> OptPath {
        self.opt
    }

    /// The architecture configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// The parameter-storage precision of every parameter group.
    pub fn precision(&self) -> Precision {
        self.grid.precision()
    }

    /// Modeled bytes of all stored parameters (hash table + both MLPs) at
    /// this model's precision — half the f32 footprint for fp16 models.
    pub fn parameter_storage_bytes(&self) -> usize {
        self.grid.storage_bytes()
            + self.density_mlp.parameter_bytes()
            + self.color_mlp.parameter_bytes()
    }

    /// The underlying hash grid (e.g. for trace generation).
    pub fn grid(&self) -> &HashGrid {
        &self.grid
    }

    /// The density MLP (read-only; used by equivalence tests).
    pub fn density_mlp(&self) -> &Mlp {
        &self.density_mlp
    }

    /// The color MLP (read-only; used by equivalence tests).
    pub fn color_mlp(&self) -> &Mlp {
        &self.color_mlp
    }

    /// The hash grid's optimizer state (read-only; used by equivalence
    /// tests to compare moment bits across optimizer paths).
    pub fn grid_adam(&self) -> &AdamState {
        &self.grid_adam
    }

    /// Checkpoint hooks: the three optimizer states in a fixed order
    /// (grid, density MLP, color MLP).
    pub(crate) fn adam_states(&self) -> [&AdamState; 3] {
        [&self.grid_adam, &self.density_adam, &self.color_adam]
    }

    /// Checkpoint-restore hooks, same order as
    /// [`IngpModel::adam_states`].
    pub(crate) fn adam_states_mut(&mut self) -> [&mut AdamState; 3] {
        [
            &mut self.grid_adam,
            &mut self.density_adam,
            &mut self.color_adam,
        ]
    }

    /// Mutable grid access for checkpoint restore.
    pub(crate) fn grid_mut(&mut self) -> &mut HashGrid {
        &mut self.grid
    }

    /// Mutable MLP access for checkpoint restore (density, color).
    pub(crate) fn mlps_mut(&mut self) -> (&mut Mlp, &mut Mlp) {
        (&mut self.density_mlp, &mut self.color_mlp)
    }

    /// Density phase of the whole-batch query: `begin_chunks` with one
    /// record per chunk, then `density_chunks` over every chunk. This and
    /// the next two run the chunk phases in phase order, so measurement
    /// code can time each stage; the trainer streams.
    pub fn query_batch_density(&mut self, points: &[Vec3], sigmas: &mut [f32], pool: &ThreadPool) {
        let chunks = points.len().div_ceil(POINT_CHUNK);
        self.begin_chunks(points.len(), chunks);
        self.density_chunks(points, 0..chunks, sigmas, pool);
    }

    /// Color phase of the whole-batch query: `color_chunks` over every
    /// chunk, after [`IngpModel::query_batch_density`].
    pub fn query_batch_color_compacted(
        &mut self,
        dirs: &[Vec3],
        live: &[u32],
        rgbs: &mut [Vec3],
        pool: &ThreadPool,
    ) {
        let chunks = dirs.len().div_ceil(POINT_CHUNK);
        self.color_chunks(dirs, 0..chunks, live, rgbs, pool);
    }

    /// Backward of the whole-batch query: `backward_chunks` over every
    /// chunk, after [`IngpModel::query_batch_density`].
    pub fn backward_batch_compacted(
        &mut self,
        d_sigmas: &[f32],
        d_colors: &[Vec3],
        pool: &ThreadPool,
    ) {
        let chunks = d_sigmas.len().div_ceil(POINT_CHUNK);
        self.backward_chunks(0..chunks, d_sigmas, d_colors, pool);
    }

    /// Values in one evaluation task's ping-pong tile pair: two tiles wide
    /// enough for either MLP.
    fn eval_tile_pair_len(&self) -> usize {
        2 * FWD_BLOCK
            * self
                .density_mlp
                .tile_width()
                .max(self.color_mlp.tile_width())
    }

    fn forward_parts(&self, p: Vec3, d: Vec3) -> (MlpActivations, MlpActivations, f32, Vec3) {
        let feats = self.grid.encode(p);
        let density_acts = self.density_mlp.forward(&feats);
        let raw = density_acts.output();
        // Softplus density: like iNGP's exp it is positive and unbounded,
        // but its gradient never vanishes at small raw values — the exp
        // head can collapse to zero density on thin-structure scenes and
        // never recover (dead-gradient local optimum).
        let sigma = softplus(raw[0]);
        let dir = direction_encoding(d);
        let mut color_in = Vec::with_capacity(raw.len() - 1 + 9);
        color_in.extend_from_slice(&raw[1..]);
        color_in.extend_from_slice(&dir);
        let color_acts = self.color_mlp.forward(&color_in);
        let o = color_acts.output();
        let rgb = Vec3::new(o[0], o[1], o[2]);
        (density_acts, color_acts, sigma, rgb)
    }

    /// Sparse-path forward prepass, part 2: replays the lazy Adam chains of
    /// every entry collected since the last sync, so the encode about to
    /// run reads exactly the parameter values the dense path would hold.
    /// No-op in dense mode and when nothing new was collected.
    fn sync_touched(grid: &mut HashGrid, grid_adam: &mut AdamState) {
        let (new_entries, master) = grid.unsynced_touched_and_master();
        if new_entries.is_empty() {
            return;
        }
        grid_adam.sync_entries(master, new_entries, HashGridConfig::FEATURES as usize);
        grid.mark_touched_synced();
    }

    fn step_mlp(mlp: &mut Mlp, adam: &mut AdamState) {
        // Global-norm clip over the MLP's gradients. Read-only over the
        // gradient buffers — for_each_param_mut would needlessly re-commit
        // (re-quantize) every fp16 parameter just to compute the norm.
        let norm_sq: f64 = mlp
            .layers()
            .iter()
            .flat_map(|l| l.gradients())
            .map(|&g| (g as f64) * (g as f64))
            .sum();
        let scale = clip_scale(norm_sq, Self::GRAD_CLIP_NORM);
        adam.begin_step();
        let mut idx = 0usize;
        mlp.for_each_param_mut(|p, g| {
            adam.update_one(idx, p, g * scale);
            idx += 1;
        });
    }
}

/// Scale factor bringing a gradient vector of squared norm `norm_sq` inside
/// the `clip` ball (1.0 when already inside).
fn clip_scale(norm_sq: f64, clip: f32) -> f32 {
    let norm = norm_sq.sqrt() as f32;
    if norm > clip {
        clip / norm
    } else {
        1.0
    }
}

impl TrainableField for IngpModel {
    fn begin_batch(&mut self) {
        self.cache.clear();
        self.batch.len = 0;
        // A dense sweep's scatter may have written any gradient slot.
        if self.dense_sweep && self.opt == OptPath::Sparse {
            self.grid.zero_grad();
        }
        // Zeroes the previous lazy iteration's touched gradient slots (the
        // whole buffer on `Dense`, which tracks nothing) and opens a new
        // touch epoch.
        self.grid.begin_touch_batch();
        // `Sparse` picks the sweep from the last step's density (lazy first,
        // and after a resume); lazy → dense brings every scalar current.
        let was_lazy = !self.dense_sweep;
        self.dense_sweep = self.opt == OptPath::Dense
            || self.nonzero_grads as f64 >= DENSE_SWEEP_FROM * self.grid.parameters().len() as f64;
        if self.dense_sweep && was_lazy {
            self.grid_adam.sync_store(self.grid.parameter_store_mut());
        }
        self.density_mlp.zero_grad();
        self.color_mlp.zero_grad();
    }

    fn query(&mut self, p: Vec3, d: Vec3) -> (f32, Vec3) {
        // Lazy-sweep prepass: the read set of this query is exactly the
        // eight corner entries per level — collect them and replay their
        // lazy Adam chains before the encode reads them.
        if !self.dense_sweep {
            self.grid.collect_touched_point(p);
            Self::sync_touched(&mut self.grid, &mut self.grid_adam);
        }
        let (density_acts, color_acts, sigma, rgb) = self.forward_parts(p, d);
        self.cache.push(PointCache {
            p,
            density_acts,
            color_acts,
            sigma,
        });
        (sigma, rgb)
    }

    fn backward(&mut self, idx: usize, d_sigma: f32, d_color: Vec3) {
        let cache = &self.cache[idx];
        let p = cache.p;
        let sigma = cache.sigma;
        // Color MLP backward.
        let d_color_in = self
            .color_mlp
            .backward(&cache.color_acts, &[d_color.x, d_color.y, d_color.z]);
        // Density MLP backward: raw[0] via exp chain, raw[1..] from color MLP
        // input gradient (the direction-encoding part has no parameters).
        let geo = self.config.density_out - 1;
        let mut d_raw = vec![0.0f32; self.config.density_out];
        // d softplus(x)/dx = sigmoid(x) = 1 - e^{-softplus(x)}.
        d_raw[0] = d_sigma * (1.0 - (-sigma).exp());
        d_raw[1..].copy_from_slice(&d_color_in[..geo]);
        let d_feats = self.density_mlp.backward(&cache.density_acts, &d_raw);
        self.grid.backward(p, &d_feats);
    }

    fn apply_gradients(&mut self) {
        // Both clip-norm passes count the nonzero gradients they read: the
        // density the next `begin_batch` picks its sweep from.
        let mut nonzero = 0usize;
        let mut norm_sq = 0.0f64;
        if self.dense_sweep {
            let (params, grads) = self.grid.parameters_and_gradients_mut();
            for &g in grads {
                nonzero += usize::from(g != 0.0);
                norm_sq += (g as f64) * (g as f64);
            }
            let scale = clip_scale(norm_sq, Self::GRAD_CLIP_NORM);
            // Folding the scale into the gradient read is bitwise-
            // identical to the historical clone-and-rescale (g × 1.0 is
            // exact), without the O(table) copy. Adam moves the f32 master
            // weights; the commit re-quantizes the working copy for fp16
            // grids (no-op for f32).
            self.grid_adam.step_scaled(params, grads, scale);
            self.grid.commit_parameters();
        } else {
            // O(touched) step. Ascending scalar order makes the clip-norm
            // accumulate in dense index order — every skipped term is an
            // exact +0.0 contribution to a never-negative f64 accumulator,
            // so the sum is bitwise the dense one. The prepass already
            // replayed the touched entries through the previous step, so
            // `step_sparse` performs exactly the dense update at the new
            // step.
            self.grid.finalize_touched();
            let (scalars, store, grads) = self.grid.touched_scalars_store_grads();
            // The clip-norm pass gathers the touched gradients into a
            // compact scratch as a side product, so the Adam step can
            // stream them instead of re-gathering one cache line per
            // scalar. Same values in the same ascending order: the
            // accumulated norm and the step are bitwise unchanged.
            self.touched_grads.clear();
            self.touched_grads.reserve(scalars.len());
            for &i in scalars {
                let g = grads[i as usize];
                self.touched_grads.push(g);
                nonzero += usize::from(g != 0.0);
                norm_sq += (g as f64) * (g as f64);
            }
            let scale = clip_scale(norm_sq, Self::GRAD_CLIP_NORM);
            // Fused step + fp16 re-quantize of only the scalars Adam
            // moved (no-op commit for f32 grids).
            self.grid_adam
                .step_sparse_gathered(store, &self.touched_grads, scalars, scale);
        }
        self.nonzero_grads = nonzero;
        Self::step_mlp(&mut self.density_mlp, &mut self.density_adam);
        Self::step_mlp(&mut self.color_mlp, &mut self.color_adam);
    }

    fn sync_parameters(&mut self) {
        self.grid_adam.sync_store(self.grid.parameter_store_mut());
    }

    fn query_eval(&self, p: Vec3, d: Vec3) -> (f32, Vec3) {
        let (_, _, sigma, rgb) = self.forward_parts(p, d);
        (sigma, rgb)
    }

    fn parameter_count(&self) -> usize {
        self.grid.parameters().len()
            + self.density_mlp.parameter_count()
            + self.color_mlp.parameter_count()
    }

    fn precision(&self) -> Precision {
        IngpModel::precision(self)
    }

    fn chunked(&mut self) -> Option<&mut dyn ChunkedField> {
        Some(self)
    }

    fn chunked_eval(&self) -> Option<&dyn ChunkedField> {
        Some(self)
    }

    /// The hash-grid address stream of the batch, on the trace bus. The
    /// trainer calls this with the gathered point batch before either
    /// step runs, so the streamed events are the same whether the model
    /// trains through its chunk phases or as [`PerPoint`].
    fn stream_lookups(&self, points: &[Vec3], sink: &mut dyn TraceSink) {
        self.grid.stream_batch(points, sink);
    }
}

impl ChunkedField for IngpModel {
    /// Sizes the ring (it only grows) and empties it.
    fn begin_chunks(&mut self, n: usize, ring: usize) {
        let batch = &mut self.batch;
        batch.len = n;
        batch.ring = ring.max(1);
        if batch.chunks.len() < batch.ring {
            batch.chunks.resize_with(batch.ring, ChunkScratch::default);
        }
        for chunk in &mut batch.chunks {
            chunk.held = None;
        }
    }

    /// Prepass, then the fused gather → density MLP of each chunk on a
    /// pool worker. The prepass fills each chunk's corner-lookup cache
    /// (the encode's index math, without reading the table); on a lazy
    /// sweep it collects the chunks' read set from the cached indices,
    /// serially in chunk order, and replays those entries' lazy Adam
    /// chains, so the gather-only encode reads exactly the parameter
    /// values the dense path holds. The replay is per entry, so syncing
    /// chunk by chunk equals one sync per batch; the color phase reads no
    /// grid entries. Per point the arithmetic matches the scalar
    /// [`TrainableField::query`] path bitwise.
    fn density_chunks(
        &mut self,
        points: &[Vec3],
        chunks: Range<usize>,
        sigmas: &mut [f32],
        pool: &ThreadPool,
    ) {
        let n = self.batch.len;
        assert_eq!(points.len(), n, "point count mismatch");
        assert_eq!(sigmas.len(), n, "sigma buffer mismatch");
        let IngpModel {
            grid,
            grid_adam,
            density_mlp,
            batch,
            dense_sweep,
            ..
        } = self;
        let filling = &*grid;
        run_tasks(pool, batch.slots(&chunks), |(c, samples, chunk)| {
            assert_eq!(chunk.held.replace(c), None, "ring slot still in flight");
            filling.fill_cache(&points[samples], &mut chunk.lookups)
        });
        if !*dense_sweep {
            for (_, _, chunk) in batch.slots(&chunks) {
                grid.collect_touched_cache(&chunk.lookups);
            }
            Self::sync_touched(grid, grid_adam);
        }
        let (grid, density_mlp) = (&*grid, &*density_mlp);
        let sigmas = sigmas[chunk_samples(chunks.clone(), n)].chunks_mut(POINT_CHUNK);
        run_tasks(
            pool,
            batch.slots(&chunks).zip(sigmas),
            |((_, _, chunk), sigmas)| chunk.forward_density(grid, density_mlp, sigmas),
        );
    }

    /// Color phase over the live samples only: `live` is split per chunk
    /// (fixed boundaries, so the decomposition — and every result — is
    /// thread-count-independent), and each chunk runs its color MLP over
    /// its live rows, writing `Vec3::ZERO` for dead ones.
    fn color_chunks(
        &mut self,
        dirs: &[Vec3],
        chunks: Range<usize>,
        live: &[u32],
        rgbs: &mut [Vec3],
        pool: &ThreadPool,
    ) {
        let n = self.batch.len;
        assert_eq!(n, dirs.len(), "dirs length mismatch");
        assert_eq!(n, rgbs.len(), "rgb buffer mismatch");
        let mut cursor = 0usize;
        for (c, samples, chunk) in self.batch.slots(&chunks) {
            assert_eq!(chunk.held, Some(c), "color phase of a chunk not in flight");
            chunk.live.clear();
            while cursor < live.len() && (live[cursor] as usize) < samples.end {
                let i = live[cursor] as usize;
                assert!(i >= samples.start, "live indices out of range");
                chunk.live.push((i - samples.start) as u32);
                cursor += 1;
            }
        }
        assert_eq!(cursor, live.len(), "live indices out of range");
        let dout = self.density_mlp.out_dim();
        let color_mlp = &self.color_mlp;
        let rgbs = rgbs[chunk_samples(chunks.clone(), n)].chunks_mut(POINT_CHUNK);
        run_tasks(
            pool,
            self.batch.slots(&chunks).zip(rgbs),
            |((_, s, chunk), rgbs)| chunk.forward_color_compacted(color_mlp, dout, &dirs[s], rgbs),
        );
    }

    /// Chunks back-propagate through both MLPs in parallel (chunk-local
    /// gradients); the hash-grid scatter — replaying each chunk's cached
    /// corner lookups instead of re-deriving cube geometry — and the MLP
    /// gradient folds then run sequentially *in chunk order*, which makes
    /// the accumulated gradients independent of the worker count and of
    /// how the chunks were grouped into calls.
    fn backward_chunks(
        &mut self,
        chunks: Range<usize>,
        d_sigmas: &[f32],
        d_colors: &[Vec3],
        pool: &ThreadPool,
    ) {
        let n = self.batch.len;
        assert!(n > 0, "backward without a cached phased query");
        assert_eq!(d_sigmas.len(), n, "sigma gradient length mismatch");
        assert_eq!(d_colors.len(), n, "color gradient length mismatch");
        let IngpModel {
            grid,
            density_mlp,
            color_mlp,
            batch,
            ..
        } = self;
        let (density, color) = (&*density_mlp, &*color_mlp);
        run_tasks(pool, batch.slots(&chunks), |(c, samples, chunk)| {
            assert_eq!(chunk.held, Some(c), "backward of a chunk not in flight");
            let (d_sigmas, d_colors) = (&d_sigmas[samples.clone()], &d_colors[samples]);
            chunk.backward(density, color, d_sigmas, d_colors)
        });
        for (_, _, chunk) in batch.slots(&chunks) {
            // Dead rows have exactly-zero feature gradients; skipping
            // them in the scatter is bitwise-identical (see
            // `HashGrid::backward_batch_cached_rows`).
            grid.backward_batch_cached_rows(&chunk.lookups, &chunk.d_feats, &chunk.live);
            density_mlp.accumulate_gradients(&chunk.density_grads);
            color_mlp.accumulate_gradients(&chunk.color_grads);
            chunk.held = None;
        }
    }

    /// Density phase of the phased evaluation query: one
    /// `eval_density_task` per fixed `POINT_CHUNK` of samples on the pool,
    /// leaving each sample's raw density row in the caller-owned scratch
    /// for the colour phase. `&self`: callers sync deferred optimizer
    /// updates beforehand.
    fn query_eval_batch_density(
        &self,
        points: &[Vec3],
        sigmas: &mut [f32],
        scratch: &mut EvalScratch,
        pool: &ThreadPool,
    ) {
        let n = points.len();
        assert_eq!(n, sigmas.len(), "sigma buffer mismatch");
        let dout = self.density_mlp.out_dim();
        scratch.len = n;
        reset_buf(&mut scratch.raw, n * dout);
        let grid = &self.grid;
        let density_mlp = &self.density_mlp;
        let tasks = points
            .chunks(POINT_CHUNK)
            .zip(sigmas.chunks_mut(POINT_CHUNK))
            .zip(scratch.raw.chunks_mut(POINT_CHUNK * dout))
            .zip(task_tiles(
                &mut scratch.tiles,
                n.div_ceil(POINT_CHUNK),
                self.eval_tile_pair_len(),
            ));
        pool.scope(|s| {
            for (((pts, sigma_c), raw_c), tiles) in tasks {
                s.spawn(move |_| eval_density_task(grid, density_mlp, pts, sigma_c, raw_c, tiles));
            }
        });
    }

    /// Color phase of the phased evaluation query over the live samples
    /// only. Tasks take `POINT_CHUNK` *live* samples each (however sparse
    /// the list, tiles stay full); `live` ascends, so task `k` owns the
    /// contiguous run of `rgbs` from its first live sample up to task
    /// `k + 1`'s — the first run starts at 0, the last ends at `n` — and
    /// zeroes the dead samples in it. Per-sample results do not depend on
    /// the decomposition, so they are the same at any thread count.
    fn query_eval_batch_color_compacted(
        &self,
        dirs: &[Vec3],
        live: &[u32],
        rgbs: &mut [Vec3],
        scratch: &mut EvalScratch,
        pool: &ThreadPool,
    ) {
        let n = scratch.len;
        assert_eq!(n, dirs.len(), "dirs length mismatch");
        assert_eq!(n, rgbs.len(), "rgb buffer mismatch");
        assert!(
            live.last().is_none_or(|&i| (i as usize) < n),
            "live indices out of range"
        );
        if live.is_empty() {
            rgbs.fill(Vec3::ZERO);
            return;
        }
        let raw = &scratch.raw[..];
        let color_mlp = &self.color_mlp;
        let tasks = live.chunks(POINT_CHUNK).zip(task_tiles(
            &mut scratch.tiles,
            live.len().div_ceil(POINT_CHUNK),
            self.eval_tile_pair_len(),
        ));
        let mut rgb_rest: &mut [Vec3] = rgbs;
        let mut lo = 0usize;
        pool.scope(|s| {
            for (k, (live_k, tiles)) in tasks.enumerate() {
                let hi = live
                    .get((k + 1) * POINT_CHUNK)
                    .map_or(n, |&next| next as usize);
                let (rgb_k, rest) = std::mem::take(&mut rgb_rest).split_at_mut(hi - lo);
                rgb_rest = rest;
                let task_lo = lo;
                lo = hi;
                s.spawn(move |_| {
                    eval_color_task(color_mlp, raw, dirs, task_lo, live_k, rgb_k, tiles)
                });
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_output_ranges() {
        let mut m = IngpModel::new(ModelConfig::tiny(), 3);
        m.begin_batch();
        let (sigma, rgb) = m.query(Vec3::splat(0.4), Vec3::new(0.0, 0.0, 1.0));
        assert!(sigma > 0.0 && sigma.is_finite());
        for ch in [rgb.x, rgb.y, rgb.z] {
            assert!((0.0..=1.0).contains(&ch));
        }
    }

    #[test]
    fn eval_matches_train_query() {
        let mut m = IngpModel::new(ModelConfig::tiny(), 5);
        m.begin_batch();
        let p = Vec3::new(0.2, 0.8, 0.6);
        let d = Vec3::new(0.0, 1.0, 0.0);
        let (s1, c1) = m.query(p, d);
        let (s2, c2) = m.query_eval(p, d);
        assert_eq!(s1, s2);
        assert_eq!(c1, c2);
    }

    /// The tile-resident evaluation path against the scalar
    /// [`TrainableField::query_eval`], bit for bit: block and chunk edges
    /// (`FWD_BLOCK` = 16, `POINT_CHUNK` = 256 — one under, on, one over),
    /// every live-list shape, both precisions, every backend, any thread
    /// count.
    #[test]
    fn phased_eval_matches_scalar_query_eval_bitwise() {
        use crate::engine;
        let pools = [1, 2, 8].map(engine::build_pool);
        let original = inerf_simd::backend();
        for precision in [Precision::F32, Precision::Fp16] {
            let config = TrainConfig::tiny().with_precision(precision);
            let mut model = IngpModel::for_config(ModelConfig::tiny(), &config, 17);
            // Embeddings start within ±1e-4; a few steps spread the values.
            for step in 0..4 {
                model.begin_batch();
                let p = Vec3::new(0.2 + 0.15 * step as f32, 0.55, 0.4);
                model.query(p, Vec3::new(0.0, 0.6, 0.8));
                model.backward(0, 0.5, Vec3::new(0.3, -0.2, 0.1));
                model.apply_gradients();
            }
            model.sync_parameters();
            for n in [0usize, 1, 15, 16, 17, 255, 256, 257, 1000] {
                let points: Vec<Vec3> = (0..n)
                    .map(|i| {
                        let t = i as f32 + 0.5;
                        Vec3::new(
                            (t * 0.173).fract(),
                            (t * 0.291).fract(),
                            (t * 0.419).fract(),
                        )
                    })
                    .collect();
                let dirs: Vec<Vec3> = (0..n)
                    .map(|i| {
                        let t = i as f32 * 0.37;
                        Vec3::new(t.sin(), t.cos(), (t * 0.5).sin()).normalized()
                    })
                    .collect();
                let want: Vec<(f32, Vec3)> = points
                    .iter()
                    .zip(&dirs)
                    .map(|(&p, &d)| model.query_eval(p, d))
                    .collect();
                let all: Vec<u32> = (0..n as u32).collect();
                let lives = [
                    Vec::new(),
                    all.clone(),
                    all.iter().copied().filter(|i| i % 3 == 0).collect(),
                    all.last().copied().into_iter().collect(),
                ];
                for backend in inerf_simd::available_backends() {
                    inerf_simd::force_backend(backend);
                    for pool in &pools {
                        let label = format!(
                            "{precision:?} {backend:?} x{} n={n}",
                            pool.current_num_threads()
                        );
                        // One scratch across live lists: stale state from
                        // the previous query must not leak.
                        let mut scratch = EvalScratch::default();
                        let mut sigmas = vec![f32::NAN; n];
                        let mut rgbs = vec![Vec3::splat(f32::NAN); n];
                        for live in &lives {
                            model.query_eval_batch_density(
                                &points,
                                &mut sigmas,
                                &mut scratch,
                                pool,
                            );
                            model.query_eval_batch_color_compacted(
                                &dirs,
                                live,
                                &mut rgbs,
                                &mut scratch,
                                pool,
                            );
                            for i in 0..n {
                                assert_eq!(sigmas[i].to_bits(), want[i].0.to_bits(), "{label}");
                                let rgb = if live.binary_search(&(i as u32)).is_ok() {
                                    want[i].1
                                } else {
                                    Vec3::ZERO
                                };
                                for (got, want) in [rgbs[i].x, rgbs[i].y, rgbs[i].z]
                                    .into_iter()
                                    .zip([rgb.x, rgb.y, rgb.z])
                                {
                                    assert_eq!(
                                        got.to_bits(),
                                        want.to_bits(),
                                        "{label}: sample {i} of {} live",
                                        live.len()
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
        inerf_simd::force_backend(original);
    }

    /// The whole-batch phase methods (the phase-ordered driver the stage
    /// timings use) against the chunk phases run one chunk at a time
    /// through a one-record ring: same densities, colors and parameter
    /// gradients, bit for bit, with a live list that drops samples.
    #[test]
    fn whole_batch_phases_match_one_chunk_at_a_time_bitwise() {
        use crate::engine;
        let n = 700usize;
        let points: Vec<Vec3> = (0..n)
            .map(|i| {
                let t = i as f32 + 0.5;
                Vec3::new(
                    (t * 0.173).fract(),
                    (t * 0.291).fract(),
                    (t * 0.419).fract(),
                )
            })
            .collect();
        let dirs: Vec<Vec3> = (0..n)
            .map(|i| Vec3::new((i as f32).sin(), 1.0, (i as f32).cos()).normalized())
            .collect();
        let live: Vec<u32> = (0..n as u32).filter(|i| i % 3 != 1).collect();
        let d_sigmas: Vec<f32> = (0..n).map(|i| ((i as f32) * 0.7).sin()).collect();
        let d_colors: Vec<Vec3> = (0..n).map(|i| Vec3::splat(0.01 * (i % 7) as f32)).collect();
        let bits = |m: &IngpModel, sigmas: &[f32], rgbs: &[Vec3]| {
            let mut v: Vec<u32> = sigmas.iter().map(|x| x.to_bits()).collect();
            v.extend(rgbs.iter().flat_map(|c| [c.x, c.y, c.z]).map(f32::to_bits));
            v.extend(m.grid.gradients().iter().map(|x| x.to_bits()));
            v.extend(m.density_mlp.gradient_vec().iter().map(|x| x.to_bits()));
            v.extend(m.color_mlp.gradient_vec().iter().map(|x| x.to_bits()));
            v
        };
        for threads in [1, 2] {
            let pool = engine::build_pool(threads);
            let mut whole = IngpModel::new(ModelConfig::tiny(), 6);
            let mut one = whole.clone();
            let (mut sigmas, mut rgbs) = (vec![0.0; n], vec![Vec3::ZERO; n]);
            whole.begin_batch();
            whole.query_batch_density(&points, &mut sigmas, &pool);
            whole.query_batch_color_compacted(&dirs, &live, &mut rgbs, &pool);
            whole.backward_batch_compacted(&d_sigmas, &d_colors, &pool);
            let want = bits(&whole, &sigmas, &rgbs);
            let (mut sigmas, mut rgbs) = (vec![0.0; n], vec![Vec3::ZERO; n]);
            one.begin_batch();
            one.begin_chunks(n, 1);
            for c in 0..n.div_ceil(POINT_CHUNK) {
                let samples = chunk_samples(c..c + 1, n);
                let lo = live.partition_point(|&i| (i as usize) < samples.start);
                let hi = live.partition_point(|&i| (i as usize) < samples.end);
                one.density_chunks(&points, c..c + 1, &mut sigmas, &pool);
                one.color_chunks(&dirs, c..c + 1, &live[lo..hi], &mut rgbs, &pool);
                one.backward_chunks(c..c + 1, &d_sigmas, &d_colors, &pool);
            }
            assert_eq!(bits(&one, &sigmas, &rgbs), want, "x{threads}");
            assert_eq!(one.batch.chunks.len(), 1);
        }
    }

    /// The streamed step's training record is a ring sized by the rays,
    /// not the batch: at 4096 rays of 48 samples (768 chunks) the model
    /// holds at most one wave plus `⌈48 / POINT_CHUNK⌉ + 1` chunk records,
    /// and a second iteration of the same shape grows neither the ring,
    /// its buffers, nor the engine arena.
    #[test]
    fn streamed_step_keeps_a_bounded_ring_a_repeated_shape_does_not_grow() {
        use crate::{engine, train::Trainer};
        use inerf_geom::{Aabb, Ray};
        let (samples, rays) = (48usize, 4096usize);
        let (rays, targets): (Vec<Ray>, Vec<Vec3>) = (0..rays)
            .map(|i| {
                let f = (i as f32 + 0.5) / rays as f32;
                let origin = Vec3::new(-2.5, 1.6 * f - 0.8, 0.6 * (9.0 * f).sin());
                (Ray::new(origin, Vec3::new(1.0, 0.0, 0.0)), Vec3::splat(f))
            })
            .unzip();
        let bounds = Aabb::new(Vec3::splat(-1.0), Vec3::splat(1.0));
        let config = TrainConfig {
            rays_per_batch: rays.len(),
            samples_per_ray: samples,
            ..TrainConfig::tiny()
        };
        let footprint = |t: &Trainer<IngpModel>| {
            let ring = &t.model().batch.chunks;
            let buffers: usize = ring
                .iter()
                .map(|c| {
                    [&c.feats, &c.color_in, &c.sigmas, &c.d_feats]
                        .into_iter()
                        .chain([&c.d_color_in, &c.d_raw, &c.d_rgb])
                        .map(Vec::capacity)
                        .sum::<usize>()
                        + c.live.capacity()
                })
                .sum();
            (ring.len(), buffers, t.arena_growth_events())
        };
        for threads in [1usize, 2] {
            let model = IngpModel::new(ModelConfig::tiny(), 3);
            let mut trainer = Trainer::new(model, config, 1).with_threads(threads);
            trainer.train_on_rays(&rays, &targets, &bounds);
            assert_eq!(trainer.points_queried(), (rays.len() * samples) as u64);
            let first = footprint(&trainer);
            let bound = engine::wave_chunks(threads) + samples.div_ceil(POINT_CHUNK) + 1;
            assert!(first.0 <= bound, "x{threads}: {} records", first.0);
            trainer.train_on_rays(&rays, &targets, &bounds);
            assert_eq!(footprint(&trainer), first, "x{threads}: the repeat grew");
        }
    }

    /// Batches alternating small and large drive `Sparse` across the
    /// dense-sweep threshold both ways, twice, and every bit stays the
    /// `Dense` twin's: losses, master and working grid parameters, Adam
    /// moments after a whole-table sync (whose stamps then all read the
    /// step count), trained per point and through the chunk phases, both
    /// precisions, one and two threads.
    #[test]
    fn sweep_switches_both_ways_bitwise_like_the_dense_twin() {
        use crate::train::Trainer;
        use inerf_geom::{Aabb, Ray};
        type Batch = (Vec<Ray>, Vec<Vec3>);
        type State = (Vec<u64>, Vec<u32>, Vec<u32>, Vec<[u32; 2]>);
        const ITERS: usize = 8;
        /// The run's final state, its sweep sequence and its Adam stamps.
        fn train_sweep<M: TrainableField + Borrow<IngpModel>>(
            mut trainer: Trainer<M>,
            [small, large]: [&Batch; 2],
        ) -> (State, Vec<bool>, Vec<u32>) {
            let bounds = Aabb::new(Vec3::splat(-1.0), Vec3::splat(1.0));
            let (mut losses, mut dense) = (Vec::new(), Vec::new());
            for k in 0..ITERS {
                let (rays, targets) = if k % 2 == 0 { small } else { large };
                losses.push(trainer.train_on_rays(rays, targets, &bounds).to_bits());
                dense.push(trainer.model().borrow().dense_sweep);
            }
            let model = trainer.into_model();
            let model: &IngpModel = model.borrow();
            let stamps: Vec<u32> = model.grid_adam.records().map(|r| r[2]).collect();
            let state = (
                losses,
                f32_bits(model.grid.parameter_store().master()),
                f32_bits(model.grid.parameters()),
                model
                    .grid_adam
                    .records()
                    .map(|r| [r[0], r[1]])
                    .collect::<Vec<_>>(),
            );
            (state, dense, stamps)
        }
        let batch = |n: usize, salt: f32| -> Batch {
            (0..n)
                .map(|i| {
                    let f = (i as f32 + 0.5) / n as f32;
                    let origin = Vec3::new(-2.5, 1.8 * f - 0.9, 0.9 * (37.0 * f + salt).sin());
                    let dir = Vec3::new(1.0, 0.4 * (13.0 * f).sin(), 0.4 * (11.0 * f + salt).cos());
                    (
                        Ray::new(origin, dir.normalized()),
                        Vec3::new(f, 1.0 - f, 0.5),
                    )
                })
                .unzip()
        };
        let (small, large) = (batch(2, 0.3), batch(192, 1.1));
        for per_point in [true, false] {
            for precision in [Precision::F32, Precision::Fp16] {
                for threads in [1, 2] {
                    let run = |opt: OptPath| {
                        let config = TrainConfig {
                            samples_per_ray: 24,
                            ..TrainConfig::tiny().with_precision(precision).with_opt(opt)
                        };
                        let model = IngpModel::for_config(ModelConfig::tiny(), &config, 11);
                        let batches = [&small, &large];
                        if per_point {
                            let trainer = Trainer::new(PerPoint(model), config, 5);
                            train_sweep(trainer.with_threads(threads), batches)
                        } else {
                            let trainer = Trainer::new(model, config, 5);
                            train_sweep(trainer.with_threads(threads), batches)
                        }
                    };
                    let label = format!("per point {per_point} {precision:?} x{threads}");
                    let (want, _, _) = run(OptPath::Dense);
                    let (got, dense, stamps) = run(OptPath::Sparse);
                    // Lazy first; after that a large batch makes the next
                    // iteration dense and a small one makes it lazy.
                    let expected: Vec<bool> = (0..ITERS).map(|k| k % 2 == 0 && k > 0).collect();
                    assert_eq!(dense, expected, "{label}: sweep sequence");
                    assert!(
                        stamps.iter().all(|&s| s as usize == ITERS),
                        "{label}: stamps"
                    );
                    assert!(got == want, "{label}: diverged from the dense twin");
                }
            }
        }
    }

    fn f32_bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn direction_encoding_basis() {
        let e = direction_encoding(Vec3::new(0.0, 0.0, 1.0));
        assert_eq!(e[0], 1.0);
        assert_eq!(e[3], 1.0);
        assert_eq!(e[8], 2.0); // 3z^2 - 1
        let e2 = direction_encoding(Vec3::new(1.0, 0.0, 0.0));
        assert_eq!(e2[7], 1.0); // x^2 - y^2
    }

    #[test]
    fn backward_touches_all_parameter_groups() {
        let mut m = IngpModel::new(ModelConfig::tiny(), 9);
        m.begin_batch();
        let p = Vec3::splat(0.5);
        m.query(p, Vec3::new(0.0, 0.0, 1.0));
        m.backward(0, 1.0, Vec3::ONE);
        assert!(
            m.grid.gradients().iter().any(|&g| g != 0.0),
            "grid gradients empty"
        );
        let before = m.grid.parameters().to_vec();
        m.apply_gradients();
        let after = m.grid.parameters();
        assert!(
            before.iter().zip(after).any(|(a, b)| a != b),
            "optimizer step did not move grid parameters"
        );
    }

    #[test]
    fn gradient_descent_fits_single_point_color() {
        // Overfit a single point's color: loss must drop substantially.
        let mut m = IngpModel::new(ModelConfig::tiny(), 1);
        let p = Vec3::new(0.3, 0.4, 0.5);
        let d = Vec3::new(0.0, 0.0, 1.0);
        let target = Vec3::new(0.9, 0.1, 0.4);
        let loss_of = |c: Vec3| (c - target).length_squared();
        m.begin_batch();
        let (_, c0) = m.query(p, d);
        let initial = loss_of(c0);
        for _ in 0..60 {
            m.begin_batch();
            let (_, c) = m.query(p, d);
            let d_color = (c - target) * 2.0;
            m.backward(0, 0.0, d_color);
            m.apply_gradients();
        }
        let (_, c_final) = m.query_eval(p, d);
        let fin = loss_of(c_final);
        assert!(
            fin < initial * 0.1,
            "color loss {initial} -> {fin} did not drop 10x"
        );
    }

    #[test]
    fn parameter_count_consistent() {
        let m = IngpModel::new(ModelConfig::tiny(), 2);
        let grid_n = m.config().grid.parameter_count();
        assert!(m.parameter_count() > grid_n);
    }

    #[test]
    #[should_panic]
    fn backward_out_of_range_panics() {
        let mut m = IngpModel::new(ModelConfig::tiny(), 2);
        m.begin_batch();
        m.backward(0, 1.0, Vec3::ZERO);
    }
}

#[cfg(test)]
mod clip_tests {
    use super::*;

    #[test]
    fn clip_scale_math() {
        assert_eq!(clip_scale(1.0, 32.0), 1.0);
        let s = clip_scale((64.0f64) * 64.0, 32.0);
        assert!((s - 0.5).abs() < 1e-6);
    }

    #[test]
    fn f64_clip_norm_unchanged_by_skipping_zero_terms() {
        // The sparse path's clip-norm accumulates only touched entries, in
        // ascending index order; every skipped (untouched) entry holds an
        // exactly-zero gradient whose square contributes `+0.0`. The f64
        // accumulator starts at +0.0 and only ever adds squares, so it is
        // never -0.0, and `x + (+0.0) == x` bitwise for every such x —
        // skipping the zero terms cannot change a single intermediate bit.
        let grads: Vec<f32> = (0..1000)
            .map(|i| match i % 3 {
                0 => ((i as f32) * 0.37).sin() * 1e-3,
                1 => 0.0,
                _ => -0.0,
            })
            .collect();
        let dense: f64 = grads.iter().map(|&g| (g as f64) * (g as f64)).sum();
        let sparse: f64 = grads
            .iter()
            .filter(|&&g| g != 0.0)
            .map(|&g| (g as f64) * (g as f64))
            .sum();
        assert_eq!(dense.to_bits(), sparse.to_bits());
        assert_eq!(
            clip_scale(dense, 1e-3).to_bits(),
            clip_scale(sparse, 1e-3).to_bits()
        );
    }

    #[test]
    fn huge_gradients_do_not_explode_parameters() {
        let mut m = IngpModel::new(ModelConfig::tiny(), 4);
        m.begin_batch();
        let p = Vec3::splat(0.5);
        m.query(p, Vec3::new(0.0, 0.0, 1.0));
        // Inject a pathological loss gradient.
        m.backward(0, 1e6, Vec3::splat(1e6));
        m.apply_gradients();
        let max = m
            .grid
            .parameters()
            .iter()
            .fold(0.0f32, |a, &v| a.max(v.abs()));
        assert!(max < 1.0, "clipped step must stay bounded, max param {max}");
        let (_, rgb) = m.query_eval(p, Vec3::new(0.0, 0.0, 1.0));
        assert!(rgb.is_finite());
    }
}
