//! Dense layers with explicit forward/backward passes.

use crate::store::{ParamStore, Precision};
use inerf_simd::f32x8;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Activation function applied after a layer's affine transform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// No activation.
    Identity,
    /// `max(0, x)`.
    Relu,
    /// Logistic sigmoid (used for RGB outputs).
    Sigmoid,
}

impl Activation {
    /// Applies the activation.
    #[inline]
    pub fn apply(self, x: f32) -> f32 {
        match self {
            Activation::Identity => x,
            Activation::Relu => x.max(0.0),
            Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
        }
    }

    /// Applies the activation to every element of a tile in place — the
    /// same scalar [`Activation::apply`] per element, so each value is
    /// bitwise what the per-point path computes.
    #[inline(always)]
    pub fn apply_tile(self, tile: &mut [f32]) {
        match self {
            Activation::Identity => {}
            // Split out so the compare-and-blend loop vectorizes (the
            // generic loop below costs the 16→32→8 tile forward 58 → 79
            // ns/pt); the sigmoid is transcendental and stays lane-serial.
            Activation::Relu => {
                for v in tile {
                    *v = v.max(0.0);
                }
            }
            Activation::Sigmoid => {
                for v in tile {
                    *v = self.apply(*v);
                }
            }
        }
    }

    /// Derivative of the activation in terms of its output `y = apply(x)`
    /// alone (`Relu`: `y > 0 ⇔ x > 0`), so the training forward records
    /// only the activated values.
    #[inline]
    pub fn derivative(self, y: f32) -> f32 {
        match self {
            Activation::Identity => 1.0,
            Activation::Relu => {
                if y > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Sigmoid => y * (1.0 - y),
        }
    }

    /// Turns a tile of upstream gradients into the masked `d_pre` tile in
    /// place: `d = mask_nonzero(d * derivative)` per element, the derivative
    /// read from the layer's `recorded` tile — the product
    /// [`DenseLayer::backward_into`] forms, its skipped zeros as `+0.0`.
    #[inline(always)]
    fn d_pre_tile(self, recorded: &[f32], d: &mut [f32]) {
        match self {
            // Spelled out so the loop vectorizes, like the ReLU arm of
            // `apply_tile` (through the generic loop below the 17→32→32→3
            // backward costs 281 instead of 209 ns/pt).
            Activation::Relu => {
                for (d, &y) in d.iter_mut().zip(recorded) {
                    *d = mask_nonzero(*d * if y > 0.0 { 1.0 } else { 0.0 });
                }
            }
            _ => {
                for (d, &y) in d.iter_mut().zip(recorded) {
                    *d = mask_nonzero(*d * self.derivative(y));
                }
            }
        }
    }
}

/// Points per tile of the forward kernel. A *tile* is a block-transposed
/// `[dim][FWD_BLOCK]` matrix: row `i` holds value `i` of each of the block's
/// 16 points. The kernel vectorizes *across points* — two [`f32x8`] lanes of
/// eight points each — which keeps each point's accumulation order identical
/// to the scalar reference (bias, then inputs in ascending order) while
/// filling the SIMD lanes, and a layer's output tile is the next layer's
/// input tile as it stands. Public so producers (the hash-grid encode) can
/// write tiles of exactly this width.
pub const FWD_BLOCK: usize = 16;

/// Output units per register group of [`DenseLayer::forward_tile`]: four
/// units × two accumulators, two input vectors and a broadcast weight fit
/// the sixteen vector registers of AVX2 and leave NEON's thirty-two slack.
const UNIT_GROUP: usize = 4;

/// The one MAC loop of the batched paths: `U` units starting at `first`
/// over the rows of a `[K][FWD_BLOCK]` input tile, accumulators in
/// registers. Unit `u` starts at `init(u)` and adds `weights[u * strides.0 +
/// k * strides.1] * input[k]` for `k` ascending, one two-rounding
/// [`f32x8::madd`] each; each input row is loaded once per group and feeds
/// all `U` units. Writes `U` rows to `out`.
///
/// The forward pass is the row view of the weight matrix (strides `(in_dim,
/// 1)`, `init` the biases — the order of [`DenseLayer::forward_into`]); the
/// input gradient is the same loop on the transposed view (strides `(1,
/// in_dim)`, `init` zero, the `d_pre` tile as input — output units
/// ascending, the order of [`DenseLayer::backward_into`]).
#[inline(always)]
fn mac_group<const U: usize>(
    weights: &[f32],
    strides: (usize, usize),
    init: &impl Fn(usize) -> f32,
    first: usize,
    input: &[f32],
    out: &mut [f32],
) {
    let mut acc: [[f32x8; 2]; U] = std::array::from_fn(|u| [f32x8::splat(init(first + u)); 2]);
    let rows: [&[f32]; U] = std::array::from_fn(|u| &weights[(first + u) * strides.0..]);
    for (k, lane) in input.chunks_exact(FWD_BLOCK).enumerate() {
        let lo = f32x8::from_slice(&lane[..8]);
        let hi = f32x8::from_slice(&lane[8..]);
        for (a, row) in acc.iter_mut().zip(&rows) {
            let w = f32x8::splat(row[k * strides.1]);
            a[0] = a[0].madd(w, lo);
            a[1] = a[1].madd(w, hi);
        }
    }
    for (a, dst) in acc.iter().zip(out.chunks_exact_mut(FWD_BLOCK)) {
        a[0].write_to(&mut dst[..8]);
        a[1].write_to(&mut dst[8..]);
    }
}

/// [`mac_group`] over every unit of the `[units][FWD_BLOCK]` tile `out`,
/// [`UNIT_GROUP`] at a time, the remainder as a narrower instantiation.
#[inline(always)]
fn mac_units(
    weights: &[f32],
    strides: (usize, usize),
    init: impl Fn(usize) -> f32,
    input: &[f32],
    out: &mut [f32],
) {
    let mut groups = out.chunks_exact_mut(UNIT_GROUP * FWD_BLOCK);
    let mut u = 0;
    for group in &mut groups {
        mac_group::<UNIT_GROUP>(weights, strides, &init, u, input, group);
        u += UNIT_GROUP;
    }
    let rest = groups.into_remainder();
    match rest.len() / FWD_BLOCK {
        3 => mac_group::<3>(weights, strides, &init, u, input, rest),
        2 => mac_group::<2>(weights, strides, &init, u, input, rest),
        1 => mac_group::<1>(weights, strides, &init, u, input, rest),
        _ => {}
    }
}

/// A dense layer `y = act(W x + b)` with gradient accumulation buffers.
///
/// Weights are stored row-major: `w[o * in_dim + i]` connects input `i` to
/// output `o`. Both parameter groups live behind a [`ParamStore`], so the
/// storage precision (f32, or fp16 with f32 master weights) is a
/// constructor parameter; gradients always accumulate in f32.
#[derive(Debug, Clone)]
pub struct DenseLayer {
    in_dim: usize,
    out_dim: usize,
    activation: Activation,
    weights: ParamStore,
    bias: ParamStore,
    grad_weights: Vec<f32>,
    grad_bias: Vec<f32>,
}

/// `dp` with exact zeros (either sign) replaced by `+0.0`, via a branch-free
/// bit mask. Letting the backward kernels *add* a masked zero term
/// unconditionally — instead of branching around it like the scalar
/// reference — is still bitwise-identical for finite data: `x + ±0.0 == x`
/// for every `x` except `-0.0`, and a gradient accumulator can never be
/// `-0.0` (it starts at `+0.0`, and an IEEE round-to-nearest sum only
/// yields `-0.0` when both operands are `-0.0`). The branch this removes is
/// data-dependent (ReLU kills ~half the units, effectively at random), so
/// the reference's `continue` mispredicts constantly; the mask is a compare
/// and an `and` per vector of the `d_pre` tile.
#[inline(always)]
fn mask_nonzero(dp: f32) -> f32 {
    f32::from_bits(dp.to_bits() & ((dp != 0.0) as u32).wrapping_neg())
}

/// One register group of the weight gradient: `U` output units starting at
/// `o` × `C` vectors of input columns starting at `g`. The group is loaded
/// once, the block's row-major input `rows` stream through it in ascending
/// order — each row's `C` vectors loaded once and fed to all `U` units,
/// scaled by that unit's lane of the masked `d_pre` tile — and it is stored
/// once, so every weight slot sums rows ascending like
/// [`DenseLayer::backward_into`] run row by row.
#[inline(always)]
fn grad_group<const U: usize, const C: usize>(
    d_pre: &[f32],
    o: usize,
    rows: &[f32],
    in_dim: usize,
    g: usize,
    grad_weights: &mut [f32],
) {
    let mut acc: [[f32x8; C]; U] = std::array::from_fn(|u| {
        std::array::from_fn(|c| f32x8::from_slice(&grad_weights[(o + u) * in_dim + g + c * 8..]))
    });
    for (p, row) in rows.chunks_exact(in_dim).enumerate() {
        let x: [f32x8; C] = std::array::from_fn(|c| f32x8::from_slice(&row[g + c * 8..]));
        for (u, a) in acc.iter_mut().enumerate() {
            let dv = f32x8::splat(d_pre[(o + u) * FWD_BLOCK + p]);
            for (a, &x) in a.iter_mut().zip(&x) {
                *a = a.madd(dv, x);
            }
        }
    }
    for (u, a) in acc.iter().enumerate() {
        for (c, a) in a.iter().enumerate() {
            a.write_to(&mut grad_weights[(o + u) * in_dim + g + c * 8..]);
        }
    }
}

/// [`grad_group`] over every output unit for the `C` vectors of columns at
/// `g`: `U` units at a time, the last `out_dim % U` one by one.
#[inline(always)]
fn grad_columns<const U: usize, const C: usize>(
    d_pre: &[f32],
    rows: &[f32],
    in_dim: usize,
    g: usize,
    grad_weights: &mut [f32],
) {
    let out_dim = d_pre.len() / FWD_BLOCK;
    let mut o = 0;
    while o + U <= out_dim {
        grad_group::<U, C>(d_pre, o, rows, in_dim, g, grad_weights);
        o += U;
    }
    while o < out_dim {
        grad_group::<1, C>(d_pre, o, rows, in_dim, g, grad_weights);
        o += 1;
    }
}

/// Writes row-major `rows` (`bn × dim`, `bn ≤ FWD_BLOCK`) into the leading
/// lanes of a `[dim][FWD_BLOCK]` tile; the other lanes keep what they held.
#[inline(always)]
pub(crate) fn transpose_tile(rows: &[f32], tile: &mut [f32], dim: usize) {
    for (p, row) in rows.chunks_exact(dim).enumerate() {
        for (r, lane) in row.iter().zip(tile.chunks_exact_mut(FWD_BLOCK)) {
            lane[p] = *r;
        }
    }
}

/// Writes the leading lanes of a `[dim][FWD_BLOCK]` tile out as row-major
/// `rows` (`bn × dim`, `bn ≤ FWD_BLOCK`): how per-point values leave a
/// tile, for the recording forward and for inference's final outputs.
#[inline(always)]
pub fn untranspose_tile(tile: &[f32], rows: &mut [f32], dim: usize) {
    for (p, row) in rows.chunks_exact_mut(dim).enumerate() {
        for (r, lane) in row.iter_mut().zip(tile.chunks_exact(FWD_BLOCK)) {
            *r = lane[p];
        }
    }
}

impl DenseLayer {
    /// Creates an f32-stored layer with He-style uniform initialization
    /// (the pre-mixed-precision behavior, bit-identical).
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(in_dim: usize, out_dim: usize, activation: Activation, seed: u64) -> Self {
        Self::with_precision(in_dim, out_dim, activation, seed, Precision::F32)
    }

    /// Creates a layer whose parameters are stored at `precision`. The
    /// initialization draws are identical to [`DenseLayer::new`]; fp16
    /// layers quantize them into the working copy.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn with_precision(
        in_dim: usize,
        out_dim: usize,
        activation: Activation,
        seed: u64,
        precision: Precision,
    ) -> Self {
        assert!(
            in_dim > 0 && out_dim > 0,
            "layer dimensions must be positive"
        );
        let mut rng = SmallRng::seed_from_u64(seed);
        let bound = (6.0 / (in_dim + out_dim) as f32).sqrt();
        let weights = (0..in_dim * out_dim)
            .map(|_| rng.gen_range(-bound..bound))
            .collect();
        DenseLayer {
            in_dim,
            out_dim,
            activation,
            weights: ParamStore::new(precision, weights),
            bias: ParamStore::new(precision, vec![0.0; out_dim]),
            grad_weights: vec![0.0; in_dim * out_dim],
            grad_bias: vec![0.0; out_dim],
        }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// The layer's activation function.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// The storage precision of the layer's parameters.
    pub fn precision(&self) -> Precision {
        self.weights.precision()
    }

    /// Number of trainable parameters (weights + biases).
    pub fn parameter_count(&self) -> usize {
        self.weights.len() + self.bias.len()
    }

    /// Modeled parameter-storage bytes at the layer's precision.
    pub fn parameter_bytes(&self) -> usize {
        self.weights.storage_bytes() + self.bias.storage_bytes()
    }

    /// Forward pass: writes the activated outputs into `out`.
    ///
    /// # Panics
    ///
    /// Panics if buffer sizes disagree with the layer dimensions.
    pub fn forward_into(&self, input: &[f32], out: &mut [f32]) {
        assert_eq!(input.len(), self.in_dim, "input size mismatch");
        assert_eq!(out.len(), self.out_dim, "output buffer mismatch");
        let weights = self.weights.values();
        let bias = self.bias.values();
        for o in 0..self.out_dim {
            let row = &weights[o * self.in_dim..(o + 1) * self.in_dim];
            let mut acc = bias[o];
            for (w, x) in row.iter().zip(input) {
                acc += w * x;
            }
            out[o] = self.activation.apply(acc);
        }
    }

    /// Backward pass: given `d_out` (gradient w.r.t. activated output), the
    /// cached `input` and activated `out`puts, accumulates weight and bias
    /// gradients and writes the gradient w.r.t. the input into `d_input`.
    pub fn backward_into(
        &mut self,
        input: &[f32],
        out: &[f32],
        d_out: &[f32],
        d_input: &mut [f32],
    ) {
        assert_eq!(d_out.len(), self.out_dim, "output gradient size mismatch");
        assert_eq!(d_input.len(), self.in_dim, "input gradient buffer mismatch");
        d_input.fill(0.0);
        let weights = self.weights.values();
        for o in 0..self.out_dim {
            let d_pre = d_out[o] * self.activation.derivative(out[o]);
            if d_pre == 0.0 {
                continue;
            }
            self.grad_bias[o] += d_pre;
            let row_w = &weights[o * self.in_dim..(o + 1) * self.in_dim];
            let row_g = &mut self.grad_weights[o * self.in_dim..(o + 1) * self.in_dim];
            for i in 0..self.in_dim {
                row_g[i] += d_pre * input[i];
                d_input[i] += d_pre * row_w[i];
            }
        }
    }

    /// Tile forward — the one MAC kernel of the batched paths. `input` is a
    /// `[in_dim][FWD_BLOCK]` tile; the `[out_dim][FWD_BLOCK]` tile of
    /// *pre-activations* lands in `out` (activate it with
    /// [`Activation::apply_tile`]). Output units are computed
    /// `UNIT_GROUP` at a time with their accumulators in registers; every
    /// lane is bitwise-identical to [`DenseLayer::forward_into`] on that
    /// point. Lanes past a ragged block's point count hold whatever the
    /// producer left there and yield values nobody reads.
    ///
    /// Callers are expected to wrap the sweep in [`inerf_simd::vectorize`];
    /// the kernel itself is dispatch-free.
    ///
    /// # Panics
    ///
    /// Panics if either tile is smaller than its `dim * FWD_BLOCK`.
    #[inline(always)]
    pub fn forward_tile(&self, input: &[f32], out: &mut [f32]) {
        let bias = self.bias.values();
        let input = &input[..self.in_dim * FWD_BLOCK];
        let out = &mut out[..self.out_dim * FWD_BLOCK];
        mac_units(
            self.weights.values(),
            (self.in_dim, 1),
            |o| bias[o],
            input,
            out,
        );
    }

    /// Record epilogue of the training forward: `tile` holds this layer's
    /// pre-activations from [`DenseLayer::forward_tile`] and is left
    /// activated — the next layer's input. The block's `[out_dim][FWD_BLOCK]`
    /// slot `recorded` takes a straight copy of the activated tile for the
    /// backward `d_pre` step, and `out_rows` (the block's `bn × out_dim`
    /// rows of the row-major output matrix) the activated values the next
    /// layer's weight gradient streams.
    #[inline(always)]
    pub(crate) fn record_tile(&self, tile: &mut [f32], recorded: &mut [f32], out_rows: &mut [f32]) {
        let tile = &mut tile[..self.out_dim * FWD_BLOCK];
        self.activation.apply_tile(tile);
        recorded.copy_from_slice(tile);
        untranspose_tile(tile, out_rows, self.out_dim);
    }

    /// Tile backward of one block of up to [`FWD_BLOCK`] points — the twin
    /// of [`DenseLayer::forward_tile`] and the only batched backward kernel.
    /// `d` holds the `[out_dim][FWD_BLOCK]` gradient w.r.t. this layer's
    /// activated output and becomes the masked `d_pre` tile in place, using
    /// `recorded` (the block's slot from [`DenseLayer::record_tile`]). Then
    /// each bias gradient adds its row's leading lanes; the weight gradient
    /// streams `rows` (the block's `bn × in_dim` row-major layer inputs)
    /// through [`grad_group`]s of 2 units × 4 column vectors, then 4 × 2 and
    /// 4 × 1, columns past the last full vector as scalar sums of the same
    /// masked terms; and `d_input`, a `[units][FWD_BLOCK]` tile, takes the
    /// gradient w.r.t. the layer's leading `units` inputs: [`mac_group`] on
    /// the transposed weight view.
    ///
    /// The parameter gradients go to *caller-owned* buffers, so independent
    /// chunks can run on different threads and be folded in a fixed order.
    /// Per slot the additions run in the order of
    /// [`DenseLayer::backward_into`] applied row by row — weight and bias
    /// slots over rows ascending, input-gradient elements over output units
    /// ascending from `+0.0` — with the zero `d_pre` terms it branches over
    /// *added* as `+0.0` (see `mask_nonzero`), so for finite data every
    /// gradient is bitwise-identical to it. Lanes past `bn` reach no result.
    /// Dispatch-free: call it inside an [`inerf_simd::vectorize`] frame.
    #[inline(always)]
    pub(crate) fn backward_tile(
        &self,
        recorded: &[f32],
        rows: &[f32],
        d: &mut [f32],
        d_input: &mut [f32],
        grad_weights: &mut [f32],
        grad_bias: &mut [f32],
    ) {
        let in_dim = self.in_dim;
        let bn = rows.len() / in_dim;
        let d = &mut d[..self.out_dim * FWD_BLOCK];
        self.activation.d_pre_tile(recorded, d);
        let d_pre = &*d;
        for (g, lane) in grad_bias.iter_mut().zip(d_pre.chunks_exact(FWD_BLOCK)) {
            *g = lane[..bn].iter().fold(*g, |acc, dp| acc + dp);
        }
        let wide = in_dim - in_dim % 8;
        let mut g = 0;
        while g + 32 <= wide {
            grad_columns::<2, 4>(d_pre, rows, in_dim, g, grad_weights);
            g += 32;
        }
        if g + 16 <= wide {
            grad_columns::<4, 2>(d_pre, rows, in_dim, g, grad_weights);
            g += 16;
        }
        if g + 8 <= wide {
            grad_columns::<4, 1>(d_pre, rows, in_dim, g, grad_weights);
        }
        for (o, lane) in d_pre.chunks_exact(FWD_BLOCK).enumerate() {
            for i in wide..in_dim {
                let slot = &mut grad_weights[o * in_dim + i];
                for (row, dp) in rows.chunks_exact(in_dim).zip(lane) {
                    *slot += dp * row[i];
                }
            }
        }
        mac_units(self.weights.values(), (1, in_dim), |_| 0.0, d_pre, d_input);
    }

    /// Adds externally accumulated gradients (from
    /// [`crate::Mlp::backward_batch`]) into the internal buffers the
    /// optimizer reads.
    ///
    /// # Panics
    ///
    /// Panics if the buffer lengths disagree with the layer dimensions.
    pub fn add_gradients(&mut self, grad_weights: &[f32], grad_bias: &[f32]) {
        assert_eq!(grad_weights.len(), self.grad_weights.len());
        assert_eq!(grad_bias.len(), self.grad_bias.len());
        for (g, add) in self.grad_weights.iter_mut().zip(grad_weights) {
            *g += add;
        }
        for (g, add) in self.grad_bias.iter_mut().zip(grad_bias) {
            *g += add;
        }
    }

    /// Clears accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.grad_weights.fill(0.0);
        self.grad_bias.fill(0.0);
    }

    /// Flattened view of the *working* parameter values (what compute
    /// reads — quantized for fp16 layers): weights then biases.
    pub fn parameters(&self) -> impl Iterator<Item = &f32> {
        self.weights.values().iter().chain(self.bias.values())
    }

    /// Flattened view of the accumulated gradients, parallel to
    /// [`DenseLayer::parameters`].
    pub fn gradients(&self) -> impl Iterator<Item = &f32> {
        self.grad_weights.iter().chain(self.grad_bias.iter())
    }

    /// Applies `f(param, grad)` to every master-weight/gradient pair (the
    /// optimizer hook), then commits both stores so fp16 layers
    /// re-quantize their working copy. For f32 layers this is exactly the
    /// pre-store in-place sweep.
    pub fn for_each_param_mut(&mut self, mut f: impl FnMut(&mut f32, f32)) {
        for (w, g) in self.weights.master_mut().iter_mut().zip(&self.grad_weights) {
            f(w, *g);
        }
        for (b, g) in self.bias.master_mut().iter_mut().zip(&self.grad_bias) {
            f(b, *g);
        }
        self.weights.commit();
        self.bias.commit();
    }

    /// The weight store (checkpoint capture / equivalence assertions).
    pub fn weights(&self) -> &ParamStore {
        &self.weights
    }

    /// The bias store (checkpoint capture / equivalence assertions).
    pub fn bias(&self) -> &ParamStore {
        &self.bias
    }

    /// The weight store (test/tooling hook for direct parameter edits).
    pub fn weights_mut(&mut self) -> &mut ParamStore {
        &mut self.weights
    }

    /// The bias store (test/tooling hook for direct parameter edits).
    pub fn bias_mut(&mut self) -> &mut ParamStore {
        &mut self.bias
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn activations_and_derivatives() {
        for act in [Activation::Identity, Activation::Relu, Activation::Sigmoid] {
            for &x in &[-2.0f32, -0.5, 0.3, 1.7] {
                let y = act.apply(x);
                let eps = 1e-3;
                let numeric = (act.apply(x + eps) - act.apply(x - eps)) / (2.0 * eps);
                let analytic = act.derivative(y);
                assert!(
                    (numeric - analytic).abs() < 1e-2,
                    "{act:?} at {x}: numeric {numeric} vs analytic {analytic}"
                );
            }
        }
    }

    #[test]
    fn relu_clamps_and_sigmoid_bounds() {
        assert_eq!(Activation::Relu.apply(-3.0), 0.0);
        assert_eq!(Activation::Relu.apply(2.0), 2.0);
        let s = Activation::Sigmoid.apply(100.0);
        assert!(s <= 1.0 && s > 0.999);
    }

    #[test]
    fn forward_known_values() {
        let mut layer = DenseLayer::new(2, 1, Activation::Identity, 0);
        layer.weights = ParamStore::f32(vec![2.0, -1.0]);
        layer.bias = ParamStore::f32(vec![0.5]);
        let mut out = [0.0];
        layer.forward_into(&[3.0, 4.0], &mut out);
        assert_eq!(out[0], 2.0 * 3.0 - 4.0 + 0.5);
    }

    #[test]
    fn backward_gradients_match_finite_difference() {
        let mut layer = DenseLayer::new(3, 2, Activation::Relu, 9);
        let input = [0.5f32, -0.3, 0.8];
        let d_out = [1.0f32, -2.0];
        let mut out = [0.0; 2];
        layer.forward_into(&input, &mut out);
        let mut d_input = [0.0; 3];
        layer.backward_into(&input, &out, &d_out, &mut d_input);

        // Finite difference on weight (0,1): perturb and measure the change
        // in loss = sum(d_out .* output).
        let loss = |l: &DenseLayer| {
            let mut o = [0.0; 2];
            l.forward_into(&input, &mut o);
            d_out.iter().zip(o).map(|(g, y)| g * y).sum::<f32>()
        };
        let eps = 1e-3;
        for wi in 0..6 {
            let mut pert = layer.clone();
            let w = pert.weights.values()[wi];
            pert.weights.set(wi, w + eps);
            let up = loss(&pert);
            pert.weights.set(wi, w - eps);
            let down = loss(&pert);
            let numeric = (up - down) / (2.0 * eps);
            assert!(
                (numeric - layer.grad_weights[wi]).abs() < 1e-2,
                "weight {wi}: numeric {numeric} vs analytic {}",
                layer.grad_weights[wi]
            );
        }
        // Input gradient check.
        for ii in 0..3 {
            let mut in_pert = input;
            in_pert[ii] += eps;
            let mut o = [0.0; 2];
            layer.forward_into(&in_pert, &mut o);
            let up: f32 = d_out.iter().zip(o).map(|(g, y)| g * y).sum();
            in_pert[ii] -= 2.0 * eps;
            layer.forward_into(&in_pert, &mut o);
            let down: f32 = d_out.iter().zip(o).map(|(g, y)| g * y).sum();
            let numeric = (up - down) / (2.0 * eps);
            assert!(
                (numeric - d_input[ii]).abs() < 1e-2,
                "input {ii}: numeric {numeric} vs analytic {}",
                d_input[ii]
            );
        }
    }

    #[test]
    fn zero_grad_clears() {
        let mut layer = DenseLayer::new(2, 2, Activation::Identity, 1);
        let input = [1.0, 1.0];
        let mut out = [0.0; 2];
        layer.forward_into(&input, &mut out);
        let mut d_in = [0.0; 2];
        layer.backward_into(&input, &out, &[1.0, 1.0], &mut d_in);
        assert!(layer.grad_weights.iter().any(|&g| g != 0.0));
        layer.zero_grad();
        assert!(layer.grad_weights.iter().all(|&g| g == 0.0));
        assert!(layer.grad_bias.iter().all(|&g| g == 0.0));
    }

    #[test]
    fn parameter_count() {
        let layer = DenseLayer::new(4, 3, Activation::Relu, 2);
        assert_eq!(layer.parameter_count(), 4 * 3 + 3);
        assert_eq!(layer.parameters().count(), 15);
        assert_eq!(layer.parameter_bytes(), 15 * 4);
        assert_eq!(layer.precision(), Precision::F32);
    }

    #[test]
    fn fp16_layer_stores_quantized_weights_with_exact_masters() {
        let full = DenseLayer::new(3, 2, Activation::Identity, 11);
        let mut half = DenseLayer::with_precision(3, 2, Activation::Identity, 11, Precision::Fp16);
        assert_eq!(half.precision(), Precision::Fp16);
        // Same init draws; the fp16 layer's working copy is the RNE image.
        for (f, h) in full.parameters().zip(half.parameters()) {
            assert_eq!(*h, crate::fp16::quantize_f16(*f));
        }
        assert_eq!(2 * half.parameter_bytes(), full.parameter_bytes());
        // Optimizer steps below fp16 resolution accumulate in the master
        // weights instead of vanishing: the working copy is unchanged, but
        // the sweep keeps compounding on the f32 side.
        let before: Vec<f32> = half.parameters().copied().collect();
        for _ in 0..3 {
            half.for_each_param_mut(|p, _| *p *= 1.0 + 1e-6);
        }
        let after: Vec<f32> = half.parameters().copied().collect();
        assert_eq!(before, after, "sub-resolution updates must not commit");
        for _ in 0..20_000 {
            half.for_each_param_mut(|p, _| *p *= 1.0 + 1e-6);
        }
        let moved: Vec<f32> = half.parameters().copied().collect();
        assert_ne!(before, moved, "accumulated master updates must surface");
    }
}
