//! Dense layers with explicit forward/backward passes.

use crate::store::{ParamStore, Precision};
use inerf_simd::f32x8;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Activation function applied after a layer's affine transform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Activation {
    /// No activation.
    Identity,
    /// `max(0, x)`.
    Relu,
    /// Logistic sigmoid (used for RGB outputs).
    Sigmoid,
    /// `exp(x)` truncated to avoid overflow (used for density outputs).
    Exp,
    /// Softplus `ln(1 + e^x)` — a smooth non-negative alternative for density.
    Softplus,
}

impl Activation {
    /// Applies the activation.
    #[inline]
    pub fn apply(self, x: f32) -> f32 {
        match self {
            Activation::Identity => x,
            Activation::Relu => x.max(0.0),
            Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            Activation::Exp => x.clamp(-15.0, 15.0).exp(),
            Activation::Softplus => {
                if x > 15.0 {
                    x
                } else {
                    (1.0 + x.exp()).ln()
                }
            }
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
            // ns/pt); the other activations are transcendental and stay
            // lane-serial.
            Activation::Relu => {
                for v in tile {
                    *v = v.max(0.0);
                }
            }
            _ => {
                for v in tile {
                    *v = self.apply(*v);
                }
            }
        }
    }

    /// Derivative of the activation expressed in terms of the
    /// *pre-activation* `x` and the *post-activation* `y = apply(x)`.
    #[inline]
    pub fn derivative(self, x: f32, y: f32) -> f32 {
        match self {
            Activation::Identity => 1.0,
            Activation::Relu => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Sigmoid => y * (1.0 - y),
            Activation::Exp => y, // d/dx e^x = e^x (clamp region has zero grad anyway)
            Activation::Softplus => 1.0 / (1.0 + (-x).exp()),
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

/// The MAC loop of the forward pass: `U` output units starting at `o`, over
/// one input tile, accumulators in registers. Each input row is loaded once
/// per group and feeds all `U` units; per point the sum runs bias first,
/// then inputs ascending, one two-rounding [`f32x8::madd`] each — the order
/// of [`DenseLayer::forward_into`]. Writes `U` pre-activation rows to `out`.
#[inline(always)]
fn mac_group<const U: usize>(
    weights: &[f32],
    bias: &[f32],
    in_dim: usize,
    o: usize,
    input: &[f32],
    out: &mut [f32],
) {
    let rows: [&[f32]; U] = std::array::from_fn(|u| &weights[(o + u) * in_dim..][..in_dim]);
    let mut acc: [[f32x8; 2]; U] = std::array::from_fn(|u| [f32x8::splat(bias[o + u]); 2]);
    for (i, lane) in input.chunks_exact(FWD_BLOCK).take(in_dim).enumerate() {
        let lo = f32x8::from_slice(&lane[..8]);
        let hi = f32x8::from_slice(&lane[8..]);
        for (a, row) in acc.iter_mut().zip(&rows) {
            let w = f32x8::splat(row[i]);
            a[0] = a[0].madd(w, lo);
            a[1] = a[1].madd(w, hi);
        }
    }
    for (a, dst) in acc.iter().zip(out.chunks_exact_mut(FWD_BLOCK)) {
        a[0].write_to(&mut dst[..8]);
        a[1].write_to(&mut dst[8..]);
    }
}

/// Reusable working buffers of [`DenseLayer::backward_batch_into`]. Pooled
/// by the caller (inside [`crate::MlpScratch`]) so steady-state backward
/// sweeps allocate nothing.
#[derive(Debug, Clone, Default)]
pub struct BackwardScratch {
    /// `FWD_BLOCK × out_dim` pre-activation gradient tile for the block
    /// being processed.
    d_pre: Vec<f32>,
}

/// A dense layer `y = act(W x + b)` with gradient accumulation buffers.
///
/// Weights are stored row-major: `w[o * in_dim + i]` connects input `i` to
/// output `o`. Both parameter groups live behind a [`ParamStore`], so the
/// storage precision (f32, or fp16 with f32 master weights) is a
/// constructor parameter; gradients always accumulate in f32.
#[derive(Debug, Clone, Serialize, Deserialize)]
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
/// the reference's `continue` mispredicts constantly; the mask costs three
/// integer ops off the accumulator's critical path.
#[inline(always)]
fn mask_nonzero(dp: f32) -> f32 {
    f32::from_bits(dp.to_bits() & ((dp != 0.0) as u32).wrapping_neg())
}

/// One register-resident group of `C` vector chunks of a point's
/// input-gradient row: accumulates `d_pre[o] * W[o]` across output units in
/// ascending order (zero terms masked by [`mask_nonzero`]) and stores the
/// group once. `C` is const so the accumulators stay in registers instead
/// of a stack-spilled array.
#[inline(always)]
fn dinput_group<const C: usize>(
    dp_row: &[f32],
    weights: &[f32],
    in_dim: usize,
    g: usize,
    d_input: &mut [f32],
) {
    let mut acc = [f32x8::zero(); C];
    for (o, &dp) in dp_row.iter().enumerate() {
        let dv = f32x8::splat(mask_nonzero(dp));
        let row_w = &weights[o * in_dim + g..];
        for (k, a) in acc.iter_mut().enumerate() {
            *a = a.madd(dv, f32x8::from_slice(&row_w[k * 8..]));
        }
    }
    for (k, a) in acc.into_iter().enumerate() {
        a.write_to(&mut d_input[g + k * 8..]);
    }
}

/// One register-resident group of `C` vector chunks of output unit `o`'s
/// weight-gradient row: loads the group once, streams the block's rows
/// through it in ascending order (zero terms masked like
/// [`dinput_group`]), and stores the group once.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn grad_group<const C: usize>(
    d_pre: &[f32],
    out_dim: usize,
    o: usize,
    inputs: &[f32],
    in_dim: usize,
    base: usize,
    bn: usize,
    g: usize,
    row_g: &mut [f32],
) {
    let mut acc = [f32x8::zero(); C];
    for (k, a) in acc.iter_mut().enumerate() {
        *a = f32x8::from_slice(&row_g[g + k * 8..]);
    }
    for rb in 0..bn {
        let dv = f32x8::splat(mask_nonzero(d_pre[rb * out_dim + o]));
        let input = &inputs[(base + rb) * in_dim + g..];
        for (k, a) in acc.iter_mut().enumerate() {
            *a = a.madd(dv, f32x8::from_slice(&input[k * 8..]));
        }
    }
    for (k, a) in acc.into_iter().enumerate() {
        a.write_to(&mut row_g[g + k * 8..]);
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

    /// Forward pass: writes pre-activations into `pre` and activated outputs
    /// into `out`.
    ///
    /// # Panics
    ///
    /// Panics if buffer sizes disagree with the layer dimensions.
    pub fn forward_into(&self, input: &[f32], pre: &mut [f32], out: &mut [f32]) {
        assert_eq!(input.len(), self.in_dim, "input size mismatch");
        assert_eq!(pre.len(), self.out_dim, "pre-activation buffer mismatch");
        assert_eq!(out.len(), self.out_dim, "output buffer mismatch");
        let weights = self.weights.values();
        let bias = self.bias.values();
        for o in 0..self.out_dim {
            let row = &weights[o * self.in_dim..(o + 1) * self.in_dim];
            let mut acc = bias[o];
            for (w, x) in row.iter().zip(input) {
                acc += w * x;
            }
            pre[o] = acc;
            out[o] = self.activation.apply(acc);
        }
    }

    /// Backward pass: given `d_out` (gradient w.r.t. activated output), the
    /// cached `input`, `pre`-activations and `out`puts, accumulates weight
    /// and bias gradients and writes the gradient w.r.t. the input into
    /// `d_input`.
    pub fn backward_into(
        &mut self,
        input: &[f32],
        pre: &[f32],
        out: &[f32],
        d_out: &[f32],
        d_input: &mut [f32],
    ) {
        assert_eq!(d_out.len(), self.out_dim, "output gradient size mismatch");
        assert_eq!(d_input.len(), self.in_dim, "input gradient buffer mismatch");
        d_input.fill(0.0);
        let weights = self.weights.values();
        for o in 0..self.out_dim {
            let d_pre = d_out[o] * self.activation.derivative(pre[o], out[o]);
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
        let in_dim = self.in_dim;
        let input = &input[..in_dim * FWD_BLOCK];
        let weights = self.weights.values();
        let bias = self.bias.values();
        let mut groups = out[..self.out_dim * FWD_BLOCK].chunks_exact_mut(UNIT_GROUP * FWD_BLOCK);
        let mut o = 0;
        for group in &mut groups {
            mac_group::<UNIT_GROUP>(weights, bias, in_dim, o, input, group);
            o += UNIT_GROUP;
        }
        let rest = groups.into_remainder();
        match rest.len() / FWD_BLOCK {
            3 => mac_group::<3>(weights, bias, in_dim, o, input, rest),
            2 => mac_group::<2>(weights, bias, in_dim, o, input, rest),
            1 => mac_group::<1>(weights, bias, in_dim, o, input, rest),
            _ => {}
        }
    }

    /// Copy-out epilogue of the recording (training) forward: `tile` holds
    /// this layer's pre-activations from [`DenseLayer::forward_tile`]. Rows
    /// `block_start..block_start + bn` of the row-major `pres` and `outs`
    /// (`n × out_dim`, what the backward pass reads) are written from it,
    /// and the tile is left activated — the next layer's input.
    #[inline(always)]
    pub(crate) fn record_tile(
        &self,
        tile: &mut [f32],
        block_start: usize,
        bn: usize,
        pres: &mut [f32],
        outs: &mut [f32],
    ) {
        let tile = &mut tile[..self.out_dim * FWD_BLOCK];
        let rows = block_start * self.out_dim..(block_start + bn) * self.out_dim;
        untranspose_tile(tile, &mut pres[rows.clone()], self.out_dim);
        self.activation.apply_tile(tile);
        untranspose_tile(tile, &mut outs[rows], self.out_dim);
    }

    /// Batched backward pass over `n` row-major points, accumulating the
    /// parameter gradients into *caller-owned* buffers (`grad_weights`,
    /// `grad_bias`) instead of the layer's internal ones. Because it takes
    /// `&self`, independent batches can run on different threads and be
    /// reduced in a deterministic order afterwards.
    ///
    /// The kernel walks the batch in blocks of [`FWD_BLOCK`] points and
    /// keeps both gradient streams in registers: each point's input-gradient
    /// row accumulates across output units in [`f32x8`] accumulators and is
    /// stored once (instead of read-modify-written per unit), and each
    /// weight-gradient vector slot is loaded once per block, accumulated
    /// over the block's rows, and stored once. Per slot the additions run
    /// in the reference order — weight/bias slots over rows ascending,
    /// input-gradient elements over output units ascending — and the zero
    /// `d_pre` terms the reference branches over are instead *added* after
    /// `mask_nonzero` forces them to `+0.0`, an exact identity (see its
    /// docs), so for finite inputs and weights every gradient is
    /// bitwise-identical to [`DenseLayer::backward_into`] run row by row.
    ///
    /// # Panics
    ///
    /// Panics if any buffer length disagrees with the layer dimensions.
    #[allow(clippy::too_many_arguments)]
    pub fn backward_batch_into(
        &self,
        inputs: &[f32],
        pres: &[f32],
        outs: &[f32],
        d_outs: &[f32],
        d_inputs: &mut [f32],
        grad_weights: &mut [f32],
        grad_bias: &mut [f32],
        scratch: &mut BackwardScratch,
    ) {
        assert_eq!(inputs.len() % self.in_dim, 0, "input matrix size mismatch");
        let n = inputs.len() / self.in_dim;
        assert_eq!(
            pres.len(),
            n * self.out_dim,
            "pre-activation matrix mismatch"
        );
        assert_eq!(outs.len(), n * self.out_dim, "output matrix mismatch");
        assert_eq!(d_outs.len(), n * self.out_dim, "output gradient mismatch");
        assert_eq!(d_inputs.len(), n * self.in_dim, "input gradient mismatch");
        assert_eq!(
            grad_weights.len(),
            self.weights.len(),
            "weight gradient buffer mismatch"
        );
        assert_eq!(
            grad_bias.len(),
            self.out_dim,
            "bias gradient buffer mismatch"
        );
        let (in_dim, out_dim) = (self.in_dim, self.out_dim);
        let weights = self.weights.values();
        let d_pre = &mut scratch.d_pre;
        // Fully overwritten below; resize only reshapes on first use.
        d_pre.resize(FWD_BLOCK * out_dim, 0.0);
        inerf_simd::vectorize(|| {
            let wide = in_dim - in_dim % 8;
            let mut base = 0;
            while base < n {
                let bn = FWD_BLOCK.min(n - base);
                // Pre-activation gradients for the block.
                for rb in 0..bn {
                    let r = base + rb;
                    let pre = &pres[r * out_dim..(r + 1) * out_dim];
                    let out = &outs[r * out_dim..(r + 1) * out_dim];
                    let d_out = &d_outs[r * out_dim..(r + 1) * out_dim];
                    let dp = &mut d_pre[rb * out_dim..(rb + 1) * out_dim];
                    for o in 0..out_dim {
                        dp[o] = d_out[o] * self.activation.derivative(pre[o], out[o]);
                    }
                }
                // Input gradients: each row accumulates across output
                // units in registers (ascending `o`); zero `d_pre` terms
                // are masked to `+0.0` and added, matching the scalar
                // reference's `continue` without its data-dependent branch.
                for rb in 0..bn {
                    let r = base + rb;
                    let d_input = &mut d_inputs[r * in_dim..(r + 1) * in_dim];
                    let dp_row = &d_pre[rb * out_dim..(rb + 1) * out_dim];
                    let mut g = 0;
                    while g + 32 <= wide {
                        dinput_group::<4>(dp_row, weights, in_dim, g, d_input);
                        g += 32;
                    }
                    if g + 16 <= wide {
                        dinput_group::<2>(dp_row, weights, in_dim, g, d_input);
                        g += 16;
                    }
                    if g + 8 <= wide {
                        dinput_group::<1>(dp_row, weights, in_dim, g, d_input);
                    }
                    for i in wide..in_dim {
                        let mut acc = 0.0;
                        for (o, &dp) in dp_row.iter().enumerate() {
                            if dp == 0.0 {
                                continue;
                            }
                            acc += dp * weights[o * in_dim + i];
                        }
                        d_input[i] = acc;
                    }
                }
                // Weight/bias gradients: unit `o`'s gradient row is held
                // in registers while the block's rows stream through it
                // (ascending `r`), with the same masked-zero terms.
                for o in 0..out_dim {
                    let mut bias_acc = grad_bias[o];
                    for rb in 0..bn {
                        bias_acc += mask_nonzero(d_pre[rb * out_dim + o]);
                    }
                    grad_bias[o] = bias_acc;
                    let row_g = &mut grad_weights[o * in_dim..(o + 1) * in_dim];
                    let mut g = 0;
                    while g + 32 <= wide {
                        grad_group::<4>(d_pre, out_dim, o, inputs, in_dim, base, bn, g, row_g);
                        g += 32;
                    }
                    if g + 16 <= wide {
                        grad_group::<2>(d_pre, out_dim, o, inputs, in_dim, base, bn, g, row_g);
                        g += 16;
                    }
                    if g + 8 <= wide {
                        grad_group::<1>(d_pre, out_dim, o, inputs, in_dim, base, bn, g, row_g);
                    }
                    for i in wide..in_dim {
                        let mut acc = row_g[i];
                        for rb in 0..bn {
                            let dp = d_pre[rb * out_dim + o];
                            if dp == 0.0 {
                                continue;
                            }
                            acc += dp * inputs[(base + rb) * in_dim + i];
                        }
                        row_g[i] = acc;
                    }
                }
                base += bn;
            }
        });
    }

    /// Adds externally accumulated gradients (from
    /// [`DenseLayer::backward_batch_into`]) into the internal buffers the
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
        for act in [
            Activation::Identity,
            Activation::Relu,
            Activation::Sigmoid,
            Activation::Exp,
            Activation::Softplus,
        ] {
            for &x in &[-2.0f32, -0.5, 0.3, 1.7] {
                let y = act.apply(x);
                let eps = 1e-3;
                let numeric = (act.apply(x + eps) - act.apply(x - eps)) / (2.0 * eps);
                let analytic = act.derivative(x, y);
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
        assert!(Activation::Exp.apply(100.0).is_finite());
    }

    #[test]
    fn forward_known_values() {
        let mut layer = DenseLayer::new(2, 1, Activation::Identity, 0);
        layer.weights = ParamStore::f32(vec![2.0, -1.0]);
        layer.bias = ParamStore::f32(vec![0.5]);
        let mut pre = [0.0];
        let mut out = [0.0];
        layer.forward_into(&[3.0, 4.0], &mut pre, &mut out);
        assert_eq!(pre[0], 2.0 * 3.0 - 4.0 + 0.5);
        assert_eq!(out[0], pre[0]);
    }

    #[test]
    fn backward_gradients_match_finite_difference() {
        let mut layer = DenseLayer::new(3, 2, Activation::Relu, 9);
        let input = [0.5f32, -0.3, 0.8];
        let d_out = [1.0f32, -2.0];
        let mut pre = [0.0; 2];
        let mut out = [0.0; 2];
        layer.forward_into(&input, &mut pre, &mut out);
        let mut d_input = [0.0; 3];
        layer.backward_into(&input, &pre, &out, &d_out, &mut d_input);

        // Finite difference on weight (0,1): perturb and measure the change
        // in loss = sum(d_out .* output).
        let loss = |l: &DenseLayer| {
            let mut p = [0.0; 2];
            let mut o = [0.0; 2];
            l.forward_into(&input, &mut p, &mut o);
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
            let mut p = [0.0; 2];
            let mut o = [0.0; 2];
            layer.forward_into(&in_pert, &mut p, &mut o);
            let up: f32 = d_out.iter().zip(o).map(|(g, y)| g * y).sum();
            in_pert[ii] -= 2.0 * eps;
            layer.forward_into(&in_pert, &mut p, &mut o);
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
        let mut pre = [0.0; 2];
        let mut out = [0.0; 2];
        layer.forward_into(&input, &mut pre, &mut out);
        let mut d_in = [0.0; 2];
        layer.backward_into(&input, &pre, &out, &[1.0, 1.0], &mut d_in);
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
