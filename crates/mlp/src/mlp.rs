//! Multi-layer perceptrons built from [`DenseLayer`]s.

use crate::layer::{transpose_tile, untranspose_tile, Activation, DenseLayer, FWD_BLOCK};
use crate::store::{ParamStore, Precision};

/// The cached activations of one forward pass, needed for backprop.
///
/// Layer `l`'s input is the network input for `l == 0` and layer `l-1`'s
/// activated output otherwise; it is never stored twice.
#[derive(Debug, Clone, PartialEq)]
pub struct MlpActivations {
    /// The network input.
    input: Vec<f32>,
    /// Per-layer activated outputs; the last is the network output.
    outs: Vec<Vec<f32>>,
}

impl MlpActivations {
    /// The network output of this forward pass.
    pub fn output(&self) -> &[f32] {
        // inerf-lint: allow(panic-path) -- infallible: activations are only built by `forward`, which pushes one entry per layer and `Mlp::new` asserts >= 1 layer
        self.outs.last().expect("at least one layer")
    }

    /// The input that fed layer `l`.
    fn layer_input(&self, l: usize) -> &[f32] {
        if l == 0 {
            &self.input
        } else {
            &self.outs[l - 1]
        }
    }
}

/// What a batched forward pass records for the backward pass: each layer's
/// activated outputs, once as a row-major matrix and once as tiles.
/// Reusable across batches — buffers are resized, not reallocated, when the
/// batch size repeats.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MlpBatchActivations {
    n: usize,
    /// Per-layer activated outputs, row-major `n × out_dim`: the network
    /// output, and the rows the next layer's weight gradient streams.
    outs: Vec<Vec<f32>>,
    /// Per-layer recorded tiles, one `[out_dim][FWD_BLOCK]` slot per block
    /// of points (the last one ragged): the activated tile the layer's
    /// `d_pre` step differentiates from. Lanes past the last point hold
    /// whatever the forward tile held.
    tiles: Vec<Vec<f32>>,
}

impl MlpBatchActivations {
    /// The batched network output (`n × out_dim`, row-major).
    ///
    /// # Panics
    ///
    /// Panics if no forward pass has populated this cache yet.
    pub fn output(&self) -> &[f32] {
        // inerf-lint: allow(panic-path) -- documented contract: reading an unpopulated cache is a caller bug, not a runtime condition
        self.outs.last().expect("no forward pass cached")
    }

    /// Number of points in the cached batch.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    fn prepare(&mut self, mlp: &Mlp, n: usize) {
        self.n = n;
        self.outs.resize(mlp.layers.len(), Vec::new());
        self.tiles.resize(mlp.layers.len(), Vec::new());
        for (l, layer) in mlp.layers.iter().enumerate() {
            // Plain resize, no clear: the forward kernel writes every
            // element, so zeroing the retained prefix would be a redundant
            // memset of the engine's largest matrices.
            self.outs[l].resize(n * layer.out_dim(), 0.0);
            self.tiles[l].resize(n.next_multiple_of(FWD_BLOCK) * layer.out_dim(), 0.0);
        }
    }
}

/// Reusable working buffers for the batched MLP kernels. Pooling these in
/// the caller (one per worker chunk) makes steady-state forward/backward
/// iterations allocation-free.
#[derive(Debug, Clone, Default)]
pub struct MlpScratch {
    /// Two ping-pong tiles ([`Mlp::tile_width`]` × FWD_BLOCK` each): layer
    /// `l` reads one and writes the other — activations on the way up,
    /// gradients on the way down.
    tiles: Vec<f32>,
}

impl MlpScratch {
    /// The two tiles, grown to `mlp`'s width on first use.
    fn tile_pair(&mut self, mlp: &Mlp) -> (&mut [f32], &mut [f32]) {
        let tile_len = mlp.tile_width * FWD_BLOCK;
        if self.tiles.len() < 2 * tile_len {
            self.tiles.resize(2 * tile_len, 0.0);
        }
        self.tiles.split_at_mut(tile_len)
    }
}

/// Parameter gradients accumulated outside an [`Mlp`] by
/// [`Mlp::backward_batch`]. Lets independent chunks of a batch run their
/// backward passes in parallel (each with its own `MlpGradients`) and then
/// be folded into the network in a fixed, deterministic order via
/// [`Mlp::accumulate_gradients`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MlpGradients {
    /// Per-layer weight-gradient matrices.
    weights: Vec<Vec<f32>>,
    /// Per-layer bias gradients.
    biases: Vec<Vec<f32>>,
}

impl MlpGradients {
    /// Creates zeroed gradients shaped like `mlp`'s parameters.
    pub fn zeros(mlp: &Mlp) -> Self {
        let mut g = MlpGradients::default();
        g.reset(mlp);
        g
    }

    /// Zeroes the buffers, (re)shaping them to `mlp` if needed.
    pub fn reset(&mut self, mlp: &Mlp) {
        self.weights.resize(mlp.layers.len(), Vec::new());
        self.biases.resize(mlp.layers.len(), Vec::new());
        for (l, layer) in mlp.layers.iter().enumerate() {
            self.weights[l].clear();
            self.weights[l].resize(layer.in_dim() * layer.out_dim(), 0.0);
            self.biases[l].clear();
            self.biases[l].resize(layer.out_dim(), 0.0);
        }
    }
}

/// A stack of dense layers.
///
/// Hidden layers share one activation; the output layer has its own (e.g.
/// `Sigmoid` for RGB, `Identity` for feature heads).
///
/// # Example
///
/// ```
/// use inerf_mlp::{Mlp, Activation};
/// let mut net = Mlp::new(&[2, 4, 1], Activation::Relu, Activation::Sigmoid, 7);
/// let acts = net.forward(&[0.5, -0.5]);
/// assert!(acts.output()[0] > 0.0 && acts.output()[0] < 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<DenseLayer>,
    /// Widest layer interface, fixed at construction (see
    /// [`Mlp::tile_width`]).
    tile_width: usize,
}

impl Mlp {
    /// Creates an f32-stored MLP from layer widths, e.g. `&[32, 64, 16]`
    /// builds 32→64→16 (the pre-mixed-precision behavior, bit-identical).
    ///
    /// # Panics
    ///
    /// Panics if fewer than two widths are given.
    pub fn new(widths: &[usize], hidden: Activation, output: Activation, seed: u64) -> Self {
        Self::with_precision(widths, hidden, output, seed, Precision::F32)
    }

    /// [`Mlp::new`] with every layer's parameters stored at `precision`
    /// (fp16 layers keep f32 master weights for the optimizer).
    ///
    /// # Panics
    ///
    /// Panics if fewer than two widths are given.
    pub fn with_precision(
        widths: &[usize],
        hidden: Activation,
        output: Activation,
        seed: u64,
        precision: Precision,
    ) -> Self {
        let seeds = (0u64..).map(|i| seed.wrapping_add(i * 0x9E37));
        Self::from_layers(
            widths,
            hidden,
            output,
            seeds,
            |seed, in_dim, out_dim, act| {
                DenseLayer::with_precision(in_dim, out_dim, act, seed, precision)
            },
        )
    }

    /// [`Mlp::new`]'s network over parameters already in `stores`, such as
    /// a checkpoint's: each layer's weight and bias store, in layer order
    /// (the order of [`Mlp::layers`]). Nothing is drawn.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two widths are given, or if `stores` does not
    /// hold one `[weights, bias]` pair per layer of `widths`, each store
    /// as long as that layer's.
    pub fn from_stores(
        widths: &[usize],
        hidden: Activation,
        output: Activation,
        stores: Vec<[ParamStore; 2]>,
    ) -> Self {
        assert_eq!(
            stores.len() + 1,
            widths.len(),
            "an MLP takes one weight and one bias store per layer"
        );
        Self::from_layers(
            widths,
            hidden,
            output,
            stores,
            |[w, b], in_dim, out_dim, act| DenseLayer::from_stores(in_dim, out_dim, act, w, b),
        )
    }

    /// The network of layer `widths`, with `hidden` on every layer but the
    /// last and `output` on that: `layer(item, in_dim, out_dim,
    /// activation)` builds each layer from the next of `per_layer`.
    fn from_layers<T>(
        widths: &[usize],
        hidden: Activation,
        output: Activation,
        per_layer: impl IntoIterator<Item = T>,
        layer: impl Fn(T, usize, usize, Activation) -> DenseLayer,
    ) -> Self {
        assert!(
            widths.len() >= 2,
            "an MLP needs at least input and output widths"
        );
        let layers: Vec<DenseLayer> = widths
            .windows(2)
            .zip(per_layer)
            .enumerate()
            .map(|(i, (w, item))| {
                let act = if i + 2 == widths.len() {
                    output
                } else {
                    hidden
                };
                layer(item, w[0], w[1], act)
            })
            .collect();
        let tile_width = widths.iter().copied().fold(0, usize::max);
        Mlp { layers, tile_width }
    }

    /// The layers of the network.
    pub fn layers(&self) -> &[DenseLayer] {
        &self.layers
    }

    /// Mutable layer access, for direct parameter edits in tests.
    /// Callers must preserve each layer's dimensions and precision; only
    /// the parameter *values* are meant to change.
    // inerf-lint: allow(pub-reach) -- test support: inerf_trainer's train::tests::batched_engine_reproduces_its_pinned_bits_at_every_chunk_edge sets a dense field's density bias through it
    pub fn layers_mut(&mut self) -> &mut [DenseLayer] {
        &mut self.layers
    }

    /// The storage precision of the network's parameters.
    pub fn precision(&self) -> Precision {
        self.layers[0].precision()
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.layers[0].in_dim()
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        // inerf-lint: allow(panic-path) -- infallible: `Mlp::new` asserts the layer list is nonempty
        self.layers.last().expect("nonempty").out_dim()
    }

    /// Rows a tile must have to hold any layer's input or output: the
    /// widest of the network's widths. Tiles handed to
    /// [`Mlp::forward_tile`] are `tile_width() * FWD_BLOCK` values each.
    pub fn tile_width(&self) -> usize {
        self.tile_width
    }

    /// Total trainable parameters.
    pub fn parameter_count(&self) -> usize {
        self.layers.iter().map(|l| l.parameter_count()).sum()
    }

    /// Modeled parameter-storage bytes at the network's precision (half
    /// the f32 footprint for fp16 networks).
    pub fn parameter_bytes(&self) -> usize {
        self.layers.iter().map(|l| l.parameter_bytes()).sum()
    }

    /// Forward pass, caching everything backprop needs.
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != in_dim()`.
    pub fn forward(&self, input: &[f32]) -> MlpActivations {
        let mut outs: Vec<Vec<f32>> = Vec::with_capacity(self.layers.len());
        for (l, layer) in self.layers.iter().enumerate() {
            let mut out = vec![0.0; layer.out_dim()];
            let x = if l == 0 { input } else { &outs[l - 1] };
            layer.forward_into(x, &mut out);
            outs.push(out);
        }
        MlpActivations {
            input: input.to_vec(),
            outs,
        }
    }

    /// Tile-resident forward pass over one block of up to [`FWD_BLOCK`]
    /// points, keeping no per-point record: the `[in_dim][FWD_BLOCK]` input
    /// tile sits at the start of `a`, each layer runs
    /// [`DenseLayer::forward_tile`] from one tile into the other and is
    /// activated in place, and the `[out_dim][FWD_BLOCK]` output tile is
    /// returned (a view into `a` or `b`). Every lane is bitwise-identical
    /// to [`Mlp::forward`] on that point.
    ///
    /// Dispatch-free like the layer kernel: call it inside an
    /// [`inerf_simd::vectorize`] frame.
    ///
    /// # Panics
    ///
    /// Panics if a tile is shorter than `tile_width() * FWD_BLOCK`.
    #[inline(always)]
    pub fn forward_tile<'t>(&self, a: &'t mut [f32], b: &'t mut [f32]) -> &'t [f32] {
        let (mut cur, mut next) = (a, b);
        for layer in &self.layers {
            layer.forward_tile(cur, next);
            layer
                .activation()
                .apply_tile(&mut next[..layer.out_dim() * FWD_BLOCK]);
            std::mem::swap(&mut cur, &mut next);
        }
        &cur[..self.out_dim() * FWD_BLOCK]
    }

    /// Batched forward pass over `n` points: `inputs` is a row-major
    /// `n × in_dim` matrix. Activation matrices land in `acts`, whose
    /// buffers are reused across calls.
    ///
    /// The layer kernel vectorizes across points but keeps each point's
    /// accumulation order, so per-point outputs are bitwise-identical to
    /// the scalar [`Mlp::forward`] reference.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` is not a multiple of `in_dim()`.
    pub fn forward_batch(&self, inputs: &[f32], acts: &mut MlpBatchActivations) {
        let mut scratch = MlpScratch::default();
        self.forward_batch_scratch(inputs, acts, &mut scratch);
    }

    /// [`Mlp::forward_batch`] with caller-pooled scratch, so steady-state
    /// iterations allocate nothing: [`Mlp::forward_batch_fused`] with a
    /// producer that transposes each block of `inputs` into the tile.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` is not a multiple of `in_dim()`.
    pub fn forward_batch_scratch(
        &self,
        inputs: &[f32],
        acts: &mut MlpBatchActivations,
        scratch: &mut MlpScratch,
    ) {
        let in_dim = self.in_dim();
        assert_eq!(inputs.len() % in_dim, 0, "input matrix size mismatch");
        self.forward_batch_fused(
            inputs.len() / in_dim,
            |block_start, bn, tile| {
                let rows = &inputs[block_start * in_dim..(block_start + bn) * in_dim];
                transpose_tile(rows, tile, in_dim);
            },
            acts,
            scratch,
        );
    }

    /// Recording (training) forward pass: the producer writes each block's
    /// `in_dim × FWD_BLOCK` input tile via `fill_block_bt(block_start, bn,
    /// tile)` — the hash-grid encode streams features straight in, no
    /// materialized input matrix — and the block then runs through every
    /// layer tile to tile like [`Mlp::forward_tile`], each layer leaving in
    /// `acts` what the backward pass reads: its activated rows and one tile
    /// (see [`MlpBatchActivations`]).
    ///
    /// Per-point arithmetic order is unchanged, so results are
    /// bitwise-identical to [`Mlp::forward`] per point. The entire sweep
    /// (producer closure included) runs inside one
    /// [`inerf_simd::vectorize`] frame.
    ///
    /// Tile lanes `p >= bn` may be left stale by the producer; no result
    /// reads them.
    pub fn forward_batch_fused(
        &self,
        n: usize,
        mut fill_block_bt: impl FnMut(usize, usize, &mut [f32]),
        acts: &mut MlpBatchActivations,
        scratch: &mut MlpScratch,
    ) {
        acts.prepare(self, n);
        let (a, b) = scratch.tile_pair(self);
        let in_len = self.in_dim() * FWD_BLOCK;
        inerf_simd::vectorize(
            #[inline(always)]
            || {
                let mut block_start = 0;
                while block_start < n {
                    let bn = FWD_BLOCK.min(n - block_start);
                    fill_block_bt(block_start, bn, &mut a[..in_len]);
                    let (mut cur, mut next) = (&mut *a, &mut *b);
                    for (l, layer) in self.layers.iter().enumerate() {
                        let w = layer.out_dim();
                        layer.forward_tile(cur, next);
                        layer.record_tile(
                            next,
                            &mut acts.tiles[l][block_start * w..][..FWD_BLOCK * w],
                            &mut acts.outs[l][block_start * w..(block_start + bn) * w],
                        );
                        std::mem::swap(&mut cur, &mut next);
                    }
                    block_start += bn;
                }
            },
        );
    }

    /// Batched backward pass: given `d_out` (`n × out_dim`, row-major) and
    /// the activations of the matching [`Mlp::forward_batch`] call,
    /// accumulates parameter gradients into `grads` (which is *not* zeroed
    /// first) and writes the gradient w.r.t. the network input into
    /// `d_input` (`n × in_dim`).
    ///
    /// Takes `&self`: disjoint chunks of a batch can run concurrently, each
    /// into its own [`MlpGradients`], to be folded deterministically with
    /// [`Mlp::accumulate_gradients`].
    ///
    /// # Panics
    ///
    /// Panics if `acts` came from a different batch or architecture, or if
    /// `grads` is not shaped like this network.
    pub fn backward_batch(
        &self,
        inputs: &[f32],
        acts: &MlpBatchActivations,
        d_out: &[f32],
        d_input: &mut [f32],
        grads: &mut MlpGradients,
    ) {
        let mut scratch = MlpScratch::default();
        self.backward_batch_scratch(inputs, acts, d_out, d_input, grads, &mut scratch);
    }

    /// [`Mlp::backward_batch`] with caller-pooled scratch — the tile driver
    /// of the backward pass. Per block of [`FWD_BLOCK`] points the upstream
    /// gradient is transposed once from `d_out` into a tile, runs from the
    /// top layer to the bottom through the layers' tile backward kernel (each
    /// layer's input-gradient tile is the next one's upstream tile as it
    /// stands), and is transposed out once into `d_input`; no per-sample
    /// gradient matrix exists in between. Bitwise-identical to
    /// [`Mlp::backward`] run point by point in ascending order.
    ///
    /// `d_input` may be narrower than the input: with rows of `cols <=
    /// in_dim` values it receives the gradient of each point's leading
    /// `cols` inputs and the bottom layer computes no others (a caller
    /// whose trailing inputs have no parameters upstream skips their
    /// share of the work).
    ///
    /// # Panics
    ///
    /// Same contract as [`Mlp::backward_batch`], except that `d_input` is
    /// `n` rows of any one width up to `in_dim`.
    pub fn backward_batch_scratch(
        &self,
        inputs: &[f32],
        acts: &MlpBatchActivations,
        d_out: &[f32],
        d_input: &mut [f32],
        grads: &mut MlpGradients,
        scratch: &mut MlpScratch,
    ) {
        let n = acts.n;
        let (in_dim, out_dim) = (self.in_dim(), self.out_dim());
        assert_eq!(
            acts.outs.len(),
            self.layers.len(),
            "activation cache mismatch"
        );
        assert_eq!(inputs.len(), n * in_dim, "input matrix mismatch");
        assert_eq!(d_out.len(), n * out_dim, "output gradient mismatch");
        let cols = d_input.len() / n.max(1);
        assert!(
            d_input.len() == n * cols && cols <= in_dim,
            "input gradient mismatch"
        );
        assert_eq!(
            grads.weights.len(),
            self.layers.len(),
            "gradient shape mismatch"
        );
        let (a, b) = scratch.tile_pair(self);
        inerf_simd::vectorize(
            #[inline(always)]
            || {
                let mut block_start = 0;
                while block_start < n {
                    let block_end = (block_start + FWD_BLOCK).min(n);
                    let (mut cur, mut next) = (&mut *a, &mut *b);
                    transpose_tile(
                        &d_out[block_start * out_dim..block_end * out_dim],
                        cur,
                        out_dim,
                    );
                    for (l, layer) in self.layers.iter().enumerate().rev() {
                        let (iw, ow) = (layer.in_dim(), layer.out_dim());
                        let (x, units) = match l {
                            0 => (inputs, cols),
                            _ => (&acts.outs[l - 1][..], iw),
                        };
                        layer.backward_tile(
                            &acts.tiles[l][block_start * ow..][..FWD_BLOCK * ow],
                            &x[block_start * iw..block_end * iw],
                            cur,
                            &mut next[..units * FWD_BLOCK],
                            &mut grads.weights[l],
                            &mut grads.biases[l],
                        );
                        std::mem::swap(&mut cur, &mut next);
                    }
                    if cols > 0 {
                        let d_rows = &mut d_input[block_start * cols..block_end * cols];
                        untranspose_tile(cur, d_rows, cols);
                    }
                    block_start = block_end;
                }
            },
        );
    }

    /// Folds externally accumulated gradients into the internal buffers the
    /// optimizer reads. Call once per chunk, in a fixed order, for
    /// determinism across thread counts.
    ///
    /// # Panics
    ///
    /// Panics if `grads` is not shaped like this network.
    pub fn accumulate_gradients(&mut self, grads: &MlpGradients) {
        assert_eq!(
            grads.weights.len(),
            self.layers.len(),
            "gradient shape mismatch"
        );
        for (l, layer) in self.layers.iter_mut().enumerate() {
            layer.add_gradients(&grads.weights[l], &grads.biases[l]);
        }
    }

    /// Flattened copy of the accumulated gradients, parallel to the
    /// parameter order of [`Mlp::for_each_param_mut`] (per layer: weights,
    /// then biases). Used by equivalence tests.
    // inerf-lint: allow(pub-reach) -- test support: inerf_trainer's tests/engine_equivalence.rs compares the per-point and chunked gradients through it
    pub fn gradient_vec(&self) -> Vec<f32> {
        self.layers
            .iter()
            .flat_map(|l| l.gradients().copied().collect::<Vec<_>>())
            .collect()
    }

    /// Backward pass: accumulates parameter gradients and returns the
    /// gradient w.r.t. the network input.
    ///
    /// # Panics
    ///
    /// Panics if `d_out.len() != out_dim()` or `acts` came from a different
    /// architecture.
    pub fn backward(&mut self, acts: &MlpActivations, d_out: &[f32]) -> Vec<f32> {
        assert_eq!(
            acts.outs.len(),
            self.layers.len(),
            "activation cache mismatch"
        );
        let mut grad = d_out.to_vec();
        for (l, layer) in self.layers.iter_mut().enumerate().rev() {
            let mut d_input = vec![0.0; layer.in_dim()];
            layer.backward_into(acts.layer_input(l), &acts.outs[l], &grad, &mut d_input);
            grad = d_input;
        }
        grad
    }

    /// Clears accumulated gradients in every layer.
    pub fn zero_grad(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grad();
        }
    }

    /// Applies `f(param, grad)` over every parameter of every layer.
    pub fn for_each_param_mut(&mut self, mut f: impl FnMut(&mut f32, f32)) {
        for layer in &mut self.layers {
            layer.for_each_param_mut(&mut f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn forward_shapes() {
        let net = Mlp::new(&[3, 8, 8, 2], Activation::Relu, Activation::Identity, 1);
        assert_eq!(net.in_dim(), 3);
        assert_eq!(net.out_dim(), 2);
        assert_eq!(
            net.parameter_count(),
            (3 * 8 + 8) + (8 * 8 + 8) + (8 * 2 + 2)
        );
        let acts = net.forward(&[1.0, 2.0, 3.0]);
        assert_eq!(acts.output().len(), 2);
    }

    #[test]
    fn gradient_check_full_network() {
        // Loss = sum(d_out .* output); check d(loss)/d(input) numerically.
        let mut net = Mlp::new(&[4, 6, 3], Activation::Relu, Activation::Sigmoid, 3);
        let input = [0.3f32, -0.7, 0.2, 0.9];
        let d_out = [1.0f32, -1.0, 0.5];
        let acts = net.forward(&input);
        let d_in = net.backward(&acts, &d_out);
        let loss = |x: &[f32]| {
            let a = net.forward(x);
            d_out
                .iter()
                .zip(a.output())
                .map(|(g, y)| g * y)
                .sum::<f32>()
        };
        let eps = 1e-3;
        for i in 0..4 {
            let mut xp = input;
            xp[i] += eps;
            let up = loss(&xp);
            xp[i] -= 2.0 * eps;
            let down = loss(&xp);
            let numeric = (up - down) / (2.0 * eps);
            assert!(
                (numeric - d_in[i]).abs() < 2e-2,
                "input {i}: numeric {numeric} vs analytic {}",
                d_in[i]
            );
        }
    }

    #[test]
    fn sgd_reduces_loss_on_toy_regression() {
        // Fit y = sigmoid(2x - 1) from samples; plain SGD must reduce MSE.
        let mut net = Mlp::new(&[1, 8, 1], Activation::Relu, Activation::Sigmoid, 5);
        let data: Vec<(f32, f32)> = (0..32)
            .map(|i| {
                let x = i as f32 / 31.0;
                (x, 1.0 / (1.0 + (-(2.0 * x - 1.0)).exp()))
            })
            .collect();
        let eval = |net: &Mlp| -> f32 {
            data.iter()
                .map(|(x, y)| {
                    let o = net.forward(&[*x]).output()[0];
                    (o - y) * (o - y)
                })
                .sum::<f32>()
                / data.len() as f32
        };
        let before = eval(&net);
        for _ in 0..300 {
            net.zero_grad();
            for (x, y) in &data {
                let acts = net.forward(&[*x]);
                let o = acts.output()[0];
                let d = 2.0 * (o - y) / data.len() as f32;
                net.backward(&acts, &[d]);
            }
            net.for_each_param_mut(|p, g| *p -= 0.5 * g);
        }
        let after = eval(&net);
        assert!(
            after < before * 0.25,
            "loss {before} -> {after} did not drop enough"
        );
    }

    #[test]
    fn zero_grad_then_step_is_noop() {
        let mut net = Mlp::new(&[2, 4, 1], Activation::Relu, Activation::Identity, 8);
        let before: Vec<f32> = net
            .layers()
            .iter()
            .flat_map(|l| l.parameters().copied().collect::<Vec<_>>())
            .collect();
        net.zero_grad();
        net.for_each_param_mut(|p, g| *p -= 0.1 * g);
        let after: Vec<f32> = net
            .layers()
            .iter()
            .flat_map(|l| l.parameters().copied().collect::<Vec<_>>())
            .collect();
        assert_eq!(before, after);
    }

    #[test]
    fn forward_batch_matches_scalar_bitwise() {
        // 17 points: exercises a full 16-point block plus a ragged tail.
        let net = Mlp::new(&[3, 8, 8, 2], Activation::Relu, Activation::Sigmoid, 21);
        let n = 17;
        let inputs: Vec<f32> = (0..n * 3).map(|i| (i as f32 * 0.37).sin()).collect();
        let mut acts = MlpBatchActivations::default();
        net.forward_batch(&inputs, &mut acts);
        assert_eq!(acts.len(), n);
        for r in 0..n {
            let scalar = net.forward(&inputs[r * 3..(r + 1) * 3]);
            assert_eq!(
                &acts.output()[r * 2..(r + 1) * 2],
                scalar.output(),
                "row {r} diverged"
            );
        }
    }

    #[test]
    fn backward_batch_matches_scalar_gradients() {
        let mut scalar_net = Mlp::new(&[4, 6, 3], Activation::Relu, Activation::Sigmoid, 33);
        let batch_net = scalar_net.clone();
        let n = 9;
        let inputs: Vec<f32> = (0..n * 4).map(|i| (i as f32 * 0.23).cos()).collect();
        let d_outs: Vec<f32> = (0..n * 3).map(|i| (i as f32 * 0.11).sin()).collect();

        // Scalar reference: accumulate over the batch point by point.
        scalar_net.zero_grad();
        let mut scalar_d_in = Vec::new();
        for r in 0..n {
            let acts = scalar_net.forward(&inputs[r * 4..(r + 1) * 4]);
            scalar_d_in.extend(scalar_net.backward(&acts, &d_outs[r * 3..(r + 1) * 3]));
        }

        // Batched: one forward/backward over the whole matrix.
        let mut acts = MlpBatchActivations::default();
        batch_net.forward_batch(&inputs, &mut acts);
        let mut grads = MlpGradients::zeros(&batch_net);
        let mut d_in = vec![0.0; n * 4];
        batch_net.backward_batch(&inputs, &acts, &d_outs, &mut d_in, &mut grads);
        let mut batch_net = batch_net;
        batch_net.zero_grad();
        batch_net.accumulate_gradients(&grads);

        assert_eq!(d_in, scalar_d_in, "input gradients diverged");
        let sg = scalar_net.gradient_vec();
        let bg = batch_net.gradient_vec();
        assert_eq!(sg.len(), bg.len());
        for (i, (a, b)) in sg.iter().zip(&bg).enumerate() {
            assert!(
                (a - b).abs() <= 1e-6 * a.abs().max(1.0),
                "parameter gradient {i}: scalar {a} vs batched {b}"
            );
        }
    }

    #[test]
    fn fused_forward_matches_unfused_bitwise() {
        // 37 points: two full 16-point tiles plus a ragged 5-point tail.
        let net = Mlp::new(&[6, 8, 8, 3], Activation::Relu, Activation::Sigmoid, 77);
        let n = 37;
        let inputs: Vec<f32> = (0..n * 6).map(|i| (i as f32 * 0.19).sin()).collect();
        let mut unfused = MlpBatchActivations::default();
        net.forward_batch(&inputs, &mut unfused);
        // Fused path: the producer transposes the same rows into the tile,
        // standing in for an encoder streaming features directly.
        let mut fused = MlpBatchActivations::default();
        let mut scratch = MlpScratch::default();
        net.forward_batch_fused(
            n,
            |block_start, bn, tile| {
                for p in 0..bn {
                    let row = &inputs[(block_start + p) * 6..(block_start + p + 1) * 6];
                    for (i, &v) in row.iter().enumerate() {
                        tile[i * FWD_BLOCK + p] = v;
                    }
                }
            },
            &mut fused,
            &mut scratch,
        );
        assert_eq!(fused.len(), unfused.len());
        for (a, b) in fused.outs.iter().zip(&unfused.outs) {
            assert_eq!(a, b, "activated outputs diverged");
        }
        for (a, b) in fused.tiles.iter().zip(&unfused.tiles) {
            assert_eq!(a, b, "recorded tiles diverged");
        }
    }

    #[test]
    fn tile_forward_matches_scalar_forward_bitwise() {
        let activations = [Activation::Identity, Activation::Relu, Activation::Sigmoid];
        let original = inerf_simd::backend();
        for backend in inerf_simd::available_backends() {
            inerf_simd::force_backend(backend);
            for (ai, &hidden) in activations.iter().enumerate() {
                let output = activations[(ai + 2) % activations.len()];
                // 24 is the paper colour MLP's input width; 17 and 5 leave
                // the last vector of a row short. Hidden widths 22, 7 and 5
                // end in unit groups of 2, 3 and 1.
                for in_dim in [24, 17, 5] {
                    for out_dim in [1, 3, 8, 16, 32, 64] {
                        let widths = [in_dim, 22, 7, 5, out_dim];
                        let net = Mlp::new(&widths, hidden, output, 91 + out_dim as u64);
                        let tile_len = net.tile_width() * FWD_BLOCK;
                        // A full block and a ragged one.
                        for bn in [FWD_BLOCK, 5] {
                            let inputs: Vec<f32> = (0..bn * in_dim)
                                .map(|i| ((i + out_dim) as f32 * 0.37).sin())
                                .collect();
                            // Lanes past `bn` (and everything the producer
                            // does not write) are poisoned: a result that
                            // read one would be NaN.
                            let mut a = vec![f32::NAN; tile_len];
                            let mut b = vec![f32::NAN; tile_len];
                            for (p, row) in inputs.chunks_exact(in_dim).enumerate() {
                                for (i, &v) in row.iter().enumerate() {
                                    a[i * FWD_BLOCK + p] = v;
                                }
                            }
                            let out = inerf_simd::vectorize(
                                #[inline(always)]
                                || net.forward_tile(&mut a, &mut b),
                            );
                            assert_eq!(out.len(), out_dim * FWD_BLOCK);
                            for (p, row) in inputs.chunks_exact(in_dim).enumerate() {
                                let scalar = net.forward(row);
                                for (o, want) in scalar.output().iter().enumerate() {
                                    assert_eq!(
                                        out[o * FWD_BLOCK + p].to_bits(),
                                        want.to_bits(),
                                        "{backend:?} {hidden:?}/{output:?} {in_dim}→{out_dim} \
                                         bn {bn}: point {p} unit {o}"
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

    /// Bit patterns, so `-0.0 != +0.0` and NaNs compare.
    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Recording forward whose producer poisons the whole input tile before
    /// writing the live lanes, so every stale lane of a ragged block — in
    /// the recorded tiles and in the scratch the backward inherits — is NaN.
    fn forward_poisoned(net: &Mlp, inputs: &[f32]) -> (MlpBatchActivations, MlpScratch) {
        let in_dim = net.in_dim();
        let mut acts = MlpBatchActivations::default();
        let mut scratch = MlpScratch {
            tiles: vec![f32::NAN; 2 * net.tile_width() * FWD_BLOCK],
        };
        net.forward_batch_fused(
            inputs.len() / in_dim,
            |start, bn, tile| {
                tile.fill(f32::NAN);
                transpose_tile(&inputs[start * in_dim..(start + bn) * in_dim], tile, in_dim);
            },
            &mut acts,
            &mut scratch,
        );
        (acts, scratch)
    }

    #[test]
    fn tile_backward_matches_scalar_backward_bitwise() {
        let activations = [Activation::Identity, Activation::Relu, Activation::Sigmoid];
        let original = inerf_simd::backend();
        for (ai, &hidden) in activations.iter().enumerate() {
            let output = activations[(ai + 2) % activations.len()];
            // Layer 0 is `in_dim → out_dim` under the hidden activation
            // (every column grouping × every unit grouping), layer 1
            // `out_dim → 3` under the output one.
            for in_dim in [5, 16, 17, 24, 32, 40, 64] {
                for out_dim in [1, 3, 8, 16, 32, 64] {
                    let seed = (in_dim * 100 + out_dim) as u64;
                    let net = Mlp::new(&[in_dim, out_dim, 3], hidden, output, seed);
                    let mut start = MlpGradients::zeros(&net);
                    for (i, g) in start.weights.iter_mut().flatten().enumerate() {
                        *g = 0.25 * (i as f32 * 0.7).sin() + 0.3;
                    }
                    for (i, g) in start.biases.iter_mut().flatten().enumerate() {
                        *g = 0.25 * (i as f32 * 1.3).cos() - 0.4;
                    }
                    for n in [1, 15, 16, 17, 255, 256, 257] {
                        let inputs: Vec<f32> = (0..n * in_dim)
                            .map(|i| ((i + out_dim) as f32 * 0.37).sin())
                            .collect();
                        let d_out: Vec<f32> = (0..n * 3).map(|i| (i as f32 * 0.11).cos()).collect();
                        // Reference: `backward_into` per layer, row by row.
                        let mut scalar = net.clone();
                        scalar.accumulate_gradients(&start);
                        let mut want_d_in = Vec::with_capacity(n * in_dim);
                        for (x, d) in inputs.chunks_exact(in_dim).zip(d_out.chunks_exact(3)) {
                            let acts = scalar.forward(x);
                            want_d_in.extend(scalar.backward(&acts, d));
                        }
                        let want_grads = bits(&scalar.gradient_vec());
                        for backend in inerf_simd::available_backends() {
                            inerf_simd::force_backend(backend);
                            let (acts, mut scratch) = forward_poisoned(&net, &inputs);
                            for cols in [in_dim, 7.min(in_dim), 1] {
                                let what = format!(
                                    "{backend:?} {hidden:?}/{output:?} {in_dim}→{out_dim} \
                                     n {n} cols {cols}"
                                );
                                let mut grads = start.clone();
                                let mut d_in = vec![f32::NAN; n * cols];
                                scratch.tiles.fill(f32::NAN);
                                net.backward_batch_scratch(
                                    &inputs,
                                    &acts,
                                    &d_out,
                                    &mut d_in,
                                    &mut grads,
                                    &mut scratch,
                                );
                                let mut batched = net.clone();
                                batched.accumulate_gradients(&grads);
                                assert_eq!(bits(&batched.gradient_vec()), want_grads, "{what}");
                                for (got, want) in
                                    d_in.chunks_exact(cols).zip(want_d_in.chunks_exact(in_dim))
                                {
                                    assert_eq!(bits(got), bits(&want[..cols]), "{what}");
                                }
                            }
                        }
                    }
                }
            }
        }
        inerf_simd::force_backend(original);
    }

    #[test]
    fn zero_d_pre_terms_of_either_sign_contribute_nothing() {
        // One ReLU layer, 9 inputs (a vector of columns plus a tail), three
        // units: unit 0 is dead (negative row, positive inputs), units 1
        // and 2 are alive.
        let mut net = Mlp::new(&[9, 3], Activation::Relu, Activation::Relu, 5);
        for i in 0..9 {
            let w = net.layers_mut()[0].weights_mut();
            w.set(i, -0.5 - i as f32);
            w.set(9 + i, 0.25 + i as f32);
            w.set(18 + i, if i % 2 == 0 { 1.5 } else { -0.125 });
        }
        let inputs: Vec<f32> = (0..9).map(|i| 1.0 + i as f32 * 0.5).collect();
        // Unit 0: `-3.0 * 0.0 = -0.0`. Unit 1: a `-0.0` upstream gradient
        // through a live unit, `-0.0 * 1.0 = -0.0`. Unit 2: the one term.
        let d_out = [-3.0, -0.0, 0.75];
        let mut start = MlpGradients::zeros(&net);
        start.weights[0].fill(0.375);
        start.biases[0].fill(-1.25);
        let (acts, mut scratch) = forward_poisoned(&net, &inputs);
        assert_eq!(acts.output()[0], 0.0, "unit 0 must be dead");
        assert!(acts.output()[1] > 0.0 && acts.output()[2] > 0.0);
        let mut grads = start.clone();
        let mut d_in = vec![f32::NAN; 9];
        net.backward_batch_scratch(&inputs, &acts, &d_out, &mut d_in, &mut grads, &mut scratch);
        // The zero terms left their slots bit for bit where they started …
        assert_eq!(bits(&grads.weights[0][..18]), bits(&start.weights[0][..18]));
        assert_eq!(bits(&grads.biases[0][..2]), bits(&start.biases[0][..2]));
        // … and the input gradient is unit 2's term alone, from `+0.0`.
        assert_eq!(grads.biases[0][2], -1.25 + 0.75);
        for i in 0..9 {
            assert_eq!(grads.weights[0][18 + i], 0.375 + 0.75 * inputs[i]);
            let w = net.layers()[0].weights().values()[18 + i];
            assert_eq!(d_in[i].to_bits(), (0.0 + 0.75 * w).to_bits(), "input {i}");
        }
    }

    #[test]
    fn training_record_keeps_one_matrix_and_one_tile_per_layer() {
        let net = Mlp::new(&[17, 32, 32, 3], Activation::Relu, Activation::Sigmoid, 13);
        for n in [1usize, 16, 37, 256] {
            let inputs: Vec<f32> = (0..n * 17).map(|i| (i as f32 * 0.29).sin()).collect();
            let mut acts = MlpBatchActivations::default();
            let mut scratch = MlpScratch::default();
            net.forward_batch_scratch(&inputs, &mut acts, &mut scratch);
            // Exhaustive on purpose: a new field (`pres` coming back) has to
            // be accounted for here.
            let MlpBatchActivations { n: _, outs, tiles } = &acts;
            let held: usize = outs.iter().chain(tiles).map(|m| m.len() * 4).sum();
            let want: usize = net
                .layers()
                .iter()
                .map(|l| (n + n.next_multiple_of(FWD_BLOCK)) * l.out_dim() * 4)
                .sum();
            assert_eq!(held, want, "n {n}");

            let mut grads = MlpGradients::zeros(&net);
            let mut d_in = vec![0.0; n * 17];
            let d_out = vec![0.5; n * 3];
            net.backward_batch_scratch(&inputs, &acts, &d_out, &mut d_in, &mut grads, &mut scratch);
            // No per-sample gradient matrix: the backward adds at most three
            // tiles to the forward's pair (it reuses the pair as it stands).
            let MlpScratch { tiles } = &scratch;
            assert!(
                tiles.capacity() <= 5 * net.tile_width() * FWD_BLOCK,
                "n {n}"
            );
        }
    }

    #[test]
    fn scratch_backward_matches_allocating_backward() {
        let net = Mlp::new(&[4, 6, 6, 3], Activation::Relu, Activation::Identity, 51);
        let n = 11;
        let inputs: Vec<f32> = (0..n * 4).map(|i| (i as f32 * 0.31).cos()).collect();
        let d_outs: Vec<f32> = (0..n * 3).map(|i| (i as f32 * 0.17).sin()).collect();
        let mut acts = MlpBatchActivations::default();
        net.forward_batch(&inputs, &mut acts);
        let mut g1 = MlpGradients::zeros(&net);
        let mut d1 = vec![0.0; n * 4];
        net.backward_batch(&inputs, &acts, &d_outs, &mut d1, &mut g1);
        let mut g2 = MlpGradients::zeros(&net);
        let mut d2 = vec![0.0; n * 4];
        let mut scratch = MlpScratch::default();
        // Run twice through the same scratch to prove reuse is clean.
        for _ in 0..2 {
            g2.reset(&net);
            d2.fill(0.0);
            net.backward_batch_scratch(&inputs, &acts, &d_outs, &mut d2, &mut g2, &mut scratch);
        }
        assert_eq!(d1, d2);
        assert_eq!(g1.weights, g2.weights);
        assert_eq!(g1.biases, g2.biases);
    }

    #[test]
    fn batch_activations_reuse_across_sizes() {
        let net = Mlp::new(&[2, 4, 1], Activation::Relu, Activation::Identity, 2);
        let mut acts = MlpBatchActivations::default();
        assert!(acts.is_empty());
        net.forward_batch(&[0.1, 0.2, 0.3, 0.4, 0.5, 0.6], &mut acts);
        assert_eq!(acts.len(), 3);
        net.forward_batch(&[0.7, 0.8], &mut acts);
        assert_eq!(acts.len(), 1);
        assert_eq!(acts.output().len(), 1);
        let scalar = net.forward(&[0.7, 0.8]);
        assert_eq!(acts.output(), scalar.output());
    }

    proptest! {
        #[test]
        fn outputs_finite_for_bounded_inputs(
            a in -10.0f32..10.0, b in -10.0f32..10.0, c in -10.0f32..10.0
        ) {
            let net = Mlp::new(&[3, 16, 4], Activation::Relu, Activation::Sigmoid, 11);
            let out = net.forward(&[a, b, c]);
            for &v in out.output() {
                prop_assert!(v.is_finite());
            }
        }
    }
}
