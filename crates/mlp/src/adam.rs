//! The Adam optimizer (Kingma & Ba), as used by iNGP.

use crate::fp16::quantize_f16;
use crate::store::ParamStore;
use inerf_simd::f32x8;
use serde::{Deserialize, Serialize};

/// Adam optimizer state for a flat parameter vector.
///
/// iNGP trains both the hash-table embeddings and the MLP weights with Adam;
/// the trainer crate instantiates one `AdamState` per parameter group.
///
/// # Example
///
/// ```
/// use inerf_mlp::AdamState;
///
/// let mut params = vec![1.0f32];
/// let mut adam = AdamState::new(1, 0.1);
/// for _ in 0..100 {
///     let grad = vec![2.0 * params[0]]; // minimize x^2
///     adam.step(&mut params, &grad);
/// }
/// assert!(params[0].abs() < 0.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct Moments {
    /// First moment.
    m: f32,
    /// Second moment.
    v: f32,
    /// Lazy-mode stamp: this parameter's per-entry Adam chain has been
    /// advanced through this global step. Stays 0 in dense mode.
    step: u32,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdamState {
    /// One 12-byte record per parameter holding the moments and the
    /// lazy-replay stamp together. A sparse step's random accesses then
    /// pull a single optimizer-state cache line per touched parameter
    /// pair instead of lines from three separate table-sized arrays
    /// (m, v, stamps) — the layout changes memory traffic only, never
    /// arithmetic.
    state: Vec<Moments>,
    t: u64,
    /// Whether lazy sparse mode is on; see [`AdamState::enable_lazy`].
    lazy: bool,
    /// Learning rate.
    pub learning_rate: f32,
    /// First-moment decay `β₁`.
    pub beta1: f32,
    /// Second-moment decay `β₂`.
    pub beta2: f32,
    /// Numerical-stability epsilon.
    pub epsilon: f32,
}

/// A plain-data image of an [`AdamState`] for checkpointing: the packed
/// `{m, v, stamp}` records flattened to bit patterns, the global step
/// (the lazy-replay epoch), the mode flag and the hyper-parameters.
///
/// Moments travel as `u32` bit patterns, not values, because a resumed
/// run must replay the *bits* of the original trajectory — a decimal
/// round-trip would already diverge on the first post-resume step.
#[derive(Debug, Clone, PartialEq)]
pub struct AdamStateSnapshot {
    /// First-moment bit patterns, one per parameter.
    pub m_bits: Vec<u32>,
    /// Second-moment bit patterns, one per parameter.
    pub v_bits: Vec<u32>,
    /// Lazy-replay stamps, one per parameter (all 0 in dense mode).
    pub step_stamps: Vec<u32>,
    /// Global step count (the lazy-replay epoch).
    pub t: u64,
    /// Whether lazy sparse mode is on.
    pub lazy: bool,
    /// Learning rate.
    pub learning_rate: f32,
    /// First-moment decay `β₁`.
    pub beta1: f32,
    /// Second-moment decay `β₂`.
    pub beta2: f32,
    /// Numerical-stability epsilon.
    pub epsilon: f32,
}

impl AdamState {
    /// Creates Adam state for `n` parameters with iNGP-style defaults
    /// (`β₁ = 0.9`, `β₂ = 0.99`, `ε = 1e-10` scaled to `1e-8` for f32).
    pub fn new(n: usize, learning_rate: f32) -> Self {
        AdamState {
            state: vec![
                Moments {
                    m: 0.0,
                    v: 0.0,
                    step: 0
                };
                n
            ],
            t: 0,
            lazy: false,
            learning_rate,
            beta1: 0.9,
            beta2: 0.99,
            epsilon: 1e-8,
        }
    }

    /// Number of steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Exports the complete optimizer state as a plain-data snapshot
    /// (see [`AdamStateSnapshot`]).
    pub fn to_snapshot(&self) -> AdamStateSnapshot {
        AdamStateSnapshot {
            m_bits: self.state.iter().map(|s| s.m.to_bits()).collect(),
            v_bits: self.state.iter().map(|s| s.v.to_bits()).collect(),
            step_stamps: self.state.iter().map(|s| s.step).collect(),
            t: self.t,
            lazy: self.lazy,
            learning_rate: self.learning_rate,
            beta1: self.beta1,
            beta2: self.beta2,
            epsilon: self.epsilon,
        }
    }

    /// Rebuilds an [`AdamState`] from an exported snapshot, bit-exactly.
    ///
    /// Unlike [`AdamState::enable_lazy`], this may restore a lazy state
    /// mid-trajectory (`t > 0`) — the stamps come from the snapshot, so
    /// the replayed-through invariant is whatever the original run had.
    ///
    /// # Panics
    ///
    /// Panics if the three per-parameter vectors differ in length;
    /// callers deserializing untrusted bytes must validate lengths first
    /// and surface a typed error.
    pub fn from_snapshot(snap: &AdamStateSnapshot) -> Self {
        assert_eq!(
            snap.m_bits.len(),
            snap.v_bits.len(),
            "adam snapshot m/v length mismatch"
        );
        assert_eq!(
            snap.m_bits.len(),
            snap.step_stamps.len(),
            "adam snapshot m/stamp length mismatch"
        );
        let state = snap
            .m_bits
            .iter()
            .zip(&snap.v_bits)
            .zip(&snap.step_stamps)
            .map(|((&m, &v), &step)| Moments {
                m: f32::from_bits(m),
                v: f32::from_bits(v),
                step,
            })
            .collect();
        AdamState {
            state,
            t: snap.t,
            lazy: snap.lazy,
            learning_rate: snap.learning_rate,
            beta1: snap.beta1,
            beta2: snap.beta2,
            epsilon: snap.epsilon,
        }
    }

    /// Number of parameters this state covers.
    #[inline]
    fn n_params(&self) -> usize {
        self.state.len()
    }

    /// Performs one Adam update of `params` given `grads`.
    ///
    /// # Panics
    ///
    /// Panics if `params` and `grads` differ in length, or do not match the
    /// state's size.
    pub fn step(&mut self, params: &mut [f32], grads: &[f32]) {
        self.step_scaled(params, grads, 1.0);
    }

    /// A closure-style single-parameter update for use with
    /// `Mlp::for_each_param_mut`; the caller must visit parameters in a
    /// stable order covering the whole state exactly once per step.
    ///
    /// Call [`AdamState::begin_step`] once before each sweep.
    pub fn update_one(&mut self, idx: usize, param: &mut f32, grad: f32) {
        self.update_index(idx, param, grad, self.t);
    }

    /// Advances the step counter for a sweep of [`AdamState::update_one`]
    /// calls.
    pub fn begin_step(&mut self) {
        self.t += 1;
    }

    /// Like [`AdamState::step`], but reads each gradient as
    /// `grads[i] * scale` without materializing a scaled copy. With
    /// `scale == 1.0` this is `step` (IEEE 754 multiplication by one is
    /// exact), so callers can fold a clip-norm scale in unconditionally
    /// instead of cloning and rescaling the gradient vector.
    ///
    /// # Panics
    ///
    /// Panics if `params` and `grads` differ in length, or do not match the
    /// state's size.
    pub fn step_scaled(&mut self, params: &mut [f32], grads: &[f32], scale: f32) {
        assert_eq!(params.len(), grads.len(), "params/grads length mismatch");
        assert_eq!(
            params.len(),
            self.n_params(),
            "optimizer state size mismatch"
        );
        self.t += 1;
        let b1t = 1.0 - self.beta1.powi(self.t as i32);
        let b2t = 1.0 - self.beta2.powi(self.t as i32);
        for (i, (p, &g)) in params.iter_mut().zip(grads).enumerate() {
            self.update_index_with(i, p, g * scale, b1t, b2t);
        }
    }

    // --- Lazy sparse mode -------------------------------------------------
    //
    // Per-parameter Adam chains never interact: step t of parameter i reads
    // only (m[i], v[i], params[i], grads[i], t). A sparse trainer can
    // therefore skip parameters whose gradient is exactly zero and *replay*
    // the skipped zero-gradient updates, in order, the next time the
    // parameter is read or written — the replayed arithmetic is the dense
    // arithmetic, so the result is bitwise identical. Once a parameter's m
    // and v are both +0.0 bitwise, every zero-gradient update is an exact
    // no-op (m = β₁·0 + (1-β₁)·0 = +0.0, v likewise, Δparam = lr·0/(√0+ε)
    // subtracted as +0.0) and the replay can stop early; in practice this
    // fires for never-touched parameters, which dominate at paper scale.

    /// Switches the state into lazy sparse mode, allocating the per-entry
    /// step stamps. Must be called before the first step; parameters are
    /// then updated via [`AdamState::step_sparse`] and read back through
    /// [`AdamState::sync_entries`] / [`AdamState::sync_all`].
    ///
    /// # Panics
    ///
    /// Panics if steps have already been taken (the stamps would be wrong).
    pub fn enable_lazy(&mut self) {
        assert_eq!(self.t, 0, "enable_lazy requires a fresh optimizer state");
        self.lazy = true;
    }

    /// Whether the state is in lazy sparse mode.
    pub fn is_lazy(&self) -> bool {
        self.lazy
    }

    /// Exactly the per-parameter arithmetic of [`AdamState::step`] at
    /// global step `t` (the bias terms depend only on `t`, so computing
    /// them per call reproduces the dense loop's values bit-for-bit).
    #[inline]
    fn update_index(&mut self, i: usize, param: &mut f32, g: f32, t: u64) {
        let b1t = 1.0 - self.beta1.powi(t as i32);
        let b2t = 1.0 - self.beta2.powi(t as i32);
        self.update_index_with(i, param, g, b1t, b2t);
    }

    /// [`AdamState::update_index`] with the step-`t` bias corrections
    /// already computed, so a sweep over many indices at one step pays the
    /// `powi` once (as the dense loop does) instead of per scalar.
    #[inline]
    fn update_index_with(&mut self, i: usize, param: &mut f32, g: f32, b1t: f32, b2t: f32) {
        let s = &mut self.state[i];
        s.m = self.beta1 * s.m + (1.0 - self.beta1) * g;
        s.v = self.beta2 * s.v + (1.0 - self.beta2) * g * g;
        let m_hat = s.m / b1t;
        let v_hat = s.v / b2t;
        *param -= self.learning_rate * m_hat / (v_hat.sqrt() + self.epsilon);
    }

    /// Replays parameter `i`'s skipped zero-gradient updates through step
    /// `target`, with the +0.0 early-out described above.
    fn replay_to(&mut self, i: usize, param: &mut f32, target: u64) {
        let mut s = u64::from(self.state[i].step);
        if s >= target {
            return;
        }
        if self.state[i].m.to_bits() == 0 && self.state[i].v.to_bits() == 0 {
            self.state[i].step = target as u32;
            return;
        }
        while s < target {
            s += 1;
            self.update_index(i, param, 0.0, s);
        }
        self.state[i].step = target as u32;
    }

    /// Brings the listed entries (each `stride` consecutive scalars,
    /// entry `e` covering `params[e*stride .. (e+1)*stride]`) up to date
    /// with the dense chain through the current step. Order across entries
    /// is irrelevant: per-parameter chains are independent.
    ///
    /// # Panics
    ///
    /// Panics if the state is not in lazy mode or `params` mismatches it.
    pub fn sync_entries(&mut self, params: &mut [f32], entries: &[u32], stride: usize) {
        assert!(self.is_lazy(), "sync_entries requires lazy mode");
        assert_eq!(
            params.len(),
            self.n_params(),
            "optimizer state size mismatch"
        );
        let t = self.t;
        for &e in entries {
            let base = e as usize * stride;
            for (off, p) in params[base..base + stride].iter_mut().enumerate() {
                self.replay_to(base + off, p, t);
            }
        }
    }

    /// Brings *every* parameter up to date with the dense chain through the
    /// current step — after this, `params` is bitwise what the dense path
    /// would hold. No-op in dense mode.
    pub fn sync_all(&mut self, params: &mut [f32]) {
        if !self.is_lazy() {
            return;
        }
        assert_eq!(
            params.len(),
            self.n_params(),
            "optimizer state size mismatch"
        );
        let t = self.t;
        for (i, p) in params.iter_mut().enumerate() {
            self.replay_to(i, p, t);
        }
    }

    /// One sparse Adam step: advances the global step counter and updates
    /// only the parameters named by `indices` (scalar indices into
    /// `params`/`grads`), reading each gradient as `grads[i] * scale` (see
    /// [`AdamState::step_scaled`] for why the fold is bitwise-safe).
    /// Parameters are replayed through the previous step first, so the call
    /// is correct even without a prior [`AdamState::sync_entries`].
    ///
    /// Every parameter *not* listed must have had an exactly-zero gradient
    /// this step — that is what makes lazy replay bitwise-equal to a dense
    /// [`AdamState::step`] over the full vector.
    ///
    /// # Panics
    ///
    /// Panics if the state is not in lazy mode, `params` mismatches it, or
    /// the step counter overflows the `u32` stamps.
    pub fn step_sparse(&mut self, params: &mut [f32], grads: &[f32], indices: &[u32], scale: f32) {
        assert!(self.is_lazy(), "step_sparse requires lazy mode");
        assert_eq!(params.len(), grads.len(), "params/grads length mismatch");
        assert_eq!(
            params.len(),
            self.n_params(),
            "optimizer state size mismatch"
        );
        self.t += 1;
        let t = self.t;
        assert!(t <= u64::from(u32::MAX), "step counter exceeds u32 stamps");
        let b1t = 1.0 - self.beta1.powi(t as i32);
        let b2t = 1.0 - self.beta2.powi(t as i32);
        for &iu in indices {
            let i = iu as usize;
            let mut p = params[i];
            self.replay_to(i, &mut p, t - 1);
            let g = grads[i] * scale;
            self.update_index_with(i, &mut p, g, b1t, b2t);
            params[i] = p;
            self.state[i].step = t as u32;
        }
    }

    /// [`AdamState::step_sparse`] over a [`ParamStore`]'s master weights,
    /// fused with the store's fp16 commit: each updated master scalar is
    /// re-quantized into the working copy while its cache line is still
    /// hot, saving the separate [`ParamStore::commit_indices`] pass over
    /// the touched set (a no-op for f32 stores). Gradients come
    /// pre-gathered: `gathered[j]` is the gradient of scalar `indices[j]`,
    /// typically collected as a side product of the caller's clip-norm
    /// pass — the step then streams the gradients sequentially instead of
    /// re-gathering one cache line per touched scalar from the dense
    /// table. `indices` must be distinct (the trainer's touched sets
    /// are): the update is blocked — gather a block, update it with
    /// eight-lane SIMD, scatter it back — so a duplicated index within a
    /// block would see stale inputs instead of chaining updates.
    ///
    /// Bitwise-identical to `step_sparse` on `store.master_mut()` with
    /// the dense gradient buffer, followed by `commit_indices(indices)`:
    /// the SIMD lanes round exactly like the scalar expressions
    /// (`inerf_simd`'s documented contract; division and square root are
    /// IEEE-exact on every backend), and the tail of each block runs the
    /// same scalar arithmetic.
    ///
    /// # Panics
    ///
    /// As [`AdamState::step_sparse`], plus if `gathered` and `indices`
    /// lengths differ.
    pub fn step_sparse_gathered(
        &mut self,
        store: &mut ParamStore,
        gathered: &[f32],
        indices: &[u32],
        scale: f32,
    ) {
        assert!(self.is_lazy(), "step_sparse requires lazy mode");
        assert_eq!(gathered.len(), indices.len(), "gathered/indices mismatch");
        let (params, active) = store.master_active_mut();
        assert_eq!(
            params.len(),
            self.n_params(),
            "optimizer state size mismatch"
        );
        self.t += 1;
        let t = self.t;
        assert!(t <= u64::from(u32::MAX), "step counter exceeds u32 stamps");
        let b1t = 1.0 - self.beta1.powi(t as i32);
        let b2t = 1.0 - self.beta2.powi(t as i32);
        inerf_simd::vectorize(|| {
            self.step_gathered_blocks(params, active, gathered, indices, scale, b1t, b2t, t);
        });
    }

    /// Blocked body of [`AdamState::step_sparse_gathered`], running
    /// inside a `vectorize` frame. Block size keeps the gathered working
    /// set (four stack arrays plus the block's scattered cache lines)
    /// inside L1 between the gather and the scatter.
    #[allow(clippy::too_many_arguments)]
    fn step_gathered_blocks(
        &mut self,
        params: &mut [f32],
        mut active: Option<&mut [f32]>,
        gathered: &[f32],
        indices: &[u32],
        scale: f32,
        b1t: f32,
        b2t: f32,
        t: u64,
    ) {
        const BLOCK: usize = 128;
        let mut pb = [0.0f32; BLOCK];
        let mut mb = [0.0f32; BLOCK];
        let mut vb = [0.0f32; BLOCK];
        let mut gb = [0.0f32; BLOCK];
        let vb1 = f32x8::splat(self.beta1);
        let vomb1 = f32x8::splat(1.0 - self.beta1);
        let vb2 = f32x8::splat(self.beta2);
        let vomb2 = f32x8::splat(1.0 - self.beta2);
        let vb1t = f32x8::splat(b1t);
        let vb2t = f32x8::splat(b2t);
        let vlr = f32x8::splat(self.learning_rate);
        let veps = f32x8::splat(self.epsilon);
        for (blk_i, blk) in indices.chunks(BLOCK).enumerate() {
            let base = blk_i * BLOCK;
            let bn = blk.len();
            // Gather the block's parameters and moments (replaying any
            // missed zero-gradient steps first) and stamp them.
            for (j, &iu) in blk.iter().enumerate() {
                let i = iu as usize;
                let mut p = params[i];
                self.replay_to(i, &mut p, t - 1);
                pb[j] = p;
                mb[j] = self.state[i].m;
                vb[j] = self.state[i].v;
                gb[j] = gathered[base + j] * scale;
                self.state[i].step = t as u32;
            }
            // Contiguous Adam update: eight lanes at a time, operation
            // order mirroring `update_index_with` term for term.
            let full = bn - bn % f32x8::LANES;
            let mut k = 0;
            while k < full {
                let g = f32x8::from_slice(&gb[k..]);
                let m = (vb1 * f32x8::from_slice(&mb[k..])).madd(vomb1, g);
                let v = (vb2 * f32x8::from_slice(&vb[k..])).madd(vomb2 * g, g);
                let m_hat = m / vb1t;
                let v_hat = v / vb2t;
                let p = f32x8::from_slice(&pb[k..]) - (vlr * m_hat) / (v_hat.sqrt() + veps);
                m.write_to(&mut mb[k..]);
                v.write_to(&mut vb[k..]);
                p.write_to(&mut pb[k..]);
                k += f32x8::LANES;
            }
            // Scalar tail — bitwise the same arithmetic as the lanes.
            for j in full..bn {
                let g = gb[j];
                let m = self.beta1 * mb[j] + (1.0 - self.beta1) * g;
                let v = self.beta2 * vb[j] + (1.0 - self.beta2) * g * g;
                let m_hat = m / b1t;
                let v_hat = v / b2t;
                pb[j] -= self.learning_rate * m_hat / (v_hat.sqrt() + self.epsilon);
                mb[j] = m;
                vb[j] = v;
            }
            // Scatter back while the block's lines are still hot; fp16
            // stores re-quantize the working copy in the same pass.
            match active.as_deref_mut() {
                Some(active) => {
                    for (j, &iu) in blk.iter().enumerate() {
                        let i = iu as usize;
                        params[i] = pb[j];
                        self.state[i].m = mb[j];
                        self.state[i].v = vb[j];
                        active[i] = quantize_f16(pb[j]);
                    }
                }
                None => {
                    for (j, &iu) in blk.iter().enumerate() {
                        let i = iu as usize;
                        params[i] = pb[j];
                        self.state[i].m = mb[j];
                        self.state[i].v = vb[j];
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimizes_quadratic() {
        let mut p = vec![5.0f32, -3.0];
        let mut adam = AdamState::new(2, 0.1);
        for _ in 0..500 {
            let g = vec![2.0 * p[0], 2.0 * p[1]];
            adam.step(&mut p, &g);
        }
        assert!(
            p[0].abs() < 0.05 && p[1].abs() < 0.05,
            "did not converge: {p:?}"
        );
        assert_eq!(adam.steps(), 500);
    }

    #[test]
    fn bias_correction_makes_first_step_lr_sized() {
        // With bias correction, the first Adam step has magnitude ≈ lr
        // regardless of gradient scale.
        for scale in [1e-3f32, 1.0, 1e3] {
            let mut p = vec![0.0f32];
            let mut adam = AdamState::new(1, 0.01);
            adam.step(&mut p, &[scale]);
            assert!(
                (p[0].abs() - 0.01).abs() < 1e-4,
                "first step for grad {scale}: {}",
                p[0]
            );
        }
    }

    #[test]
    fn update_one_matches_step() {
        let mut p1 = vec![1.0f32, 2.0, 3.0];
        let mut p2 = p1.clone();
        let g = vec![0.5f32, -0.2, 0.9];
        let mut a1 = AdamState::new(3, 0.05);
        let mut a2 = AdamState::new(3, 0.05);
        for _ in 0..10 {
            a1.step(&mut p1, &g);
            a2.begin_step();
            for i in 0..3 {
                a2.update_one(i, &mut p2[i], g[i]);
            }
        }
        for (x, y) in p1.iter().zip(&p2) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let mut adam = AdamState::new(2, 0.1);
        let mut p = vec![0.0f32, 0.0];
        adam.step(&mut p, &[1.0]);
    }

    #[test]
    fn zero_gradient_is_noop() {
        let mut p = vec![1.5f32];
        let mut adam = AdamState::new(1, 0.1);
        adam.step(&mut p, &[0.0]);
        assert_eq!(p[0], 1.5);
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    fn moment_bits(a: &AdamState) -> Vec<(u32, u32)> {
        a.state
            .iter()
            .map(|s| (s.m.to_bits(), s.v.to_bits()))
            .collect()
    }

    #[test]
    fn step_scaled_matches_clone_and_rescale_bitwise() {
        // The old dense path cloned the gradient vector and rescaled it
        // before stepping; folding the scale into the gradient read must
        // reproduce it bit-for-bit — including the scale == 1.0 identity.
        for scale in [1.0f32, 0.37, 1.0 / 3.0] {
            let g = vec![0.5f32, -0.2, 0.0, 3.0e-7, -0.0];
            let mut p1 = vec![1.0f32, 2.0, -3.0, 0.25, 9.0];
            let mut p2 = p1.clone();
            let mut a1 = AdamState::new(5, 0.05);
            let mut a2 = AdamState::new(5, 0.05);
            for _ in 0..25 {
                let scaled: Vec<f32> = g.iter().map(|x| x * scale).collect();
                a1.step(&mut p1, &scaled);
                a2.step_scaled(&mut p2, &g, scale);
            }
            assert_eq!(bits(&p1), bits(&p2), "scale {scale}");
            assert_eq!(moment_bits(&a1), moment_bits(&a2), "moments, scale {scale}");
        }
    }

    #[test]
    fn snapshot_round_trip_is_bit_exact_mid_trajectory() {
        // Export mid-run (unsynced lazy stamps and all), rebuild, and the
        // restored optimizer must continue bit-identically to the
        // original — including entries whose replay is still pending.
        let n = 5;
        let mut p: Vec<f32> = (0..n).map(|i| 0.1 * i as f32 - 0.2).collect();
        let mut adam = AdamState::new(n, 0.015);
        adam.enable_lazy();
        for (step, touched) in [&[0u32, 3][..], &[3][..], &[1, 4][..]].iter().enumerate() {
            let mut g = vec![0.0f32; n];
            for &i in *touched {
                g[i as usize] = 0.2 * (step as f32 + 1.0);
            }
            adam.step_sparse(&mut p, &g, touched, 1.0);
        }
        let snap = adam.to_snapshot();
        assert_eq!(snap.t, 3);
        assert!(snap.lazy);
        let mut restored = AdamState::from_snapshot(&snap);
        assert_eq!(restored, adam);
        let mut p2 = p.clone();
        let g = vec![0.05f32; n];
        let touched: Vec<u32> = (0..n as u32).collect();
        adam.step_sparse(&mut p, &g, &touched, 1.0);
        restored.step_sparse(&mut p2, &g, &touched, 1.0);
        adam.sync_all(&mut p);
        restored.sync_all(&mut p2);
        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&p), bits(&p2));
        assert_eq!(restored, adam);
    }

    #[test]
    fn lazy_replay_matches_dense_bitwise() {
        // A fixed touch schedule: at each step only some parameters carry a
        // nonzero gradient. Dense steps the full vector (zeros included);
        // lazy steps only the touched indices and replays on demand. After
        // sync_all the two must agree to the bit — params, m, and v.
        let n = 6;
        let schedule: &[&[u32]] = &[
            &[0, 2],
            &[2],
            &[],
            &[1, 2, 4],
            &[0],
            &[],
            &[],
            &[4],
            &[1],
            &[0, 1, 2, 4],
        ];
        let mut dense_p: Vec<f32> = (0..n).map(|i| 0.3 * i as f32 - 0.7).collect();
        let mut lazy_p = dense_p.clone();
        let mut dense = AdamState::new(n, 0.02);
        let mut lazy = AdamState::new(n, 0.02);
        lazy.enable_lazy();
        for (step, touched) in schedule.iter().enumerate() {
            let mut g = vec![0.0f32; n];
            for &i in *touched {
                g[i as usize] = (step as f32 + 1.0) * 0.1 * if i % 2 == 0 { 1.0 } else { -1.0 };
            }
            dense.step(&mut dense_p, &g);
            lazy.step_sparse(&mut lazy_p, &g, touched, 1.0);
        }
        // Parameter 5 is never touched: with m = v = +0.0 its dense chain
        // is a string of exact no-ops, so even *without* replay it matches.
        assert_eq!(dense_p[5].to_bits(), lazy_p[5].to_bits());
        lazy.sync_all(&mut lazy_p);
        assert_eq!(bits(&dense_p), bits(&lazy_p), "params");
        assert_eq!(moment_bits(&dense), moment_bits(&lazy), "moments");
        assert_eq!(dense.steps(), lazy.steps());
    }

    #[test]
    fn sync_entries_replays_at_entry_granularity() {
        // Two scalars per entry: touching entry 1 must replay scalars 2..4.
        let mut dense_p = vec![1.0f32; 6];
        let mut lazy_p = dense_p.clone();
        let mut dense = AdamState::new(6, 0.1);
        let mut lazy = AdamState::new(6, 0.1);
        lazy.enable_lazy();
        let g = vec![0.4f32, -0.4, 0.2, 0.2, 0.0, 0.0];
        dense.step(&mut dense_p, &g);
        lazy.step_sparse(&mut lazy_p, &g, &[0, 1, 2, 3], 1.0);
        for _ in 0..5 {
            dense.step(&mut dense_p, &[0.0f32; 6]);
            lazy.step_sparse(&mut lazy_p, &[0.0; 6], &[], 1.0);
        }
        lazy.sync_entries(&mut lazy_p, &[1], 2);
        assert_eq!(bits(&dense_p[2..4]), bits(&lazy_p[2..4]));
    }

    #[test]
    fn zero_moment_early_out_is_bitwise_exact() {
        // Never-touched parameters keep m = v = +0.0; the early-out skips
        // their replay entirely and must still match dense bit-for-bit,
        // for positive, negative, zero and subnormal parameter values.
        let init = [1.5f32, -2.25, 0.0, -0.0, 1.0e-40, f32::MIN_POSITIVE];
        let mut dense_p = init.to_vec();
        let mut lazy_p = init.to_vec();
        let mut dense = AdamState::new(init.len(), 0.1);
        let mut lazy = AdamState::new(init.len(), 0.1);
        lazy.enable_lazy();
        let zeros = vec![0.0f32; init.len()];
        for _ in 0..50 {
            dense.step(&mut dense_p, &zeros);
            lazy.step_sparse(&mut lazy_p, &zeros, &[], 1.0);
        }
        lazy.sync_all(&mut lazy_p);
        assert_eq!(bits(&dense_p), bits(&lazy_p));
        // The early-out really fired: every stamp jumped straight to t.
        assert!(lazy.state.iter().all(|s| u64::from(s.step) == lazy.steps()));
    }

    #[test]
    fn touched_then_abandoned_entry_replays_decay() {
        // A parameter touched once and then abandoned decays m and v toward
        // zero; replay must walk those decay steps (they are *not* no-ops)
        // and land on the dense bits.
        let mut dense_p = vec![1.0f32, 1.0];
        let mut lazy_p = dense_p.clone();
        let mut dense = AdamState::new(2, 0.05);
        let mut lazy = AdamState::new(2, 0.05);
        lazy.enable_lazy();
        dense.step(&mut dense_p, &[0.8, 0.0]);
        lazy.step_sparse(&mut lazy_p, &[0.8, 0.0], &[0], 1.0);
        for _ in 0..200 {
            dense.step(&mut dense_p, &[0.0, 0.0]);
            lazy.step_sparse(&mut lazy_p, &[0.0, 0.0], &[], 1.0);
        }
        lazy.sync_all(&mut lazy_p);
        assert_eq!(bits(&dense_p), bits(&lazy_p));
        assert_eq!(moment_bits(&dense), moment_bits(&lazy));
    }

    #[test]
    fn gathered_step_matches_split_step_and_commit_bitwise() {
        use crate::store::{ParamStore, Precision};
        // Large enough that the gathered path runs several full SIMD
        // groups plus a scalar tail.
        let init: Vec<f32> = (0..61)
            .map(|i| 0.3 - 0.07 * i as f32 + 1.0e-4 * (i * i) as f32)
            .collect();
        let touched_all: Vec<u32> = (0..init.len() as u32).collect();
        let touched_most: Vec<u32> = (0..init.len() as u32).filter(|i| i % 5 != 3).collect();
        for precision in [Precision::F32, Precision::Fp16] {
            let mut split = ParamStore::new(precision, init.clone());
            let mut gath = ParamStore::new(precision, init.clone());
            let mut split_adam = AdamState::new(init.len(), 0.05);
            let mut gath_adam = AdamState::new(init.len(), 0.05);
            split_adam.enable_lazy();
            gath_adam.enable_lazy();
            let touched_sets: [&[u32]; 4] = [&[0, 2, 5], &[1, 2], &touched_most, &touched_all];
            for (k, touched) in touched_sets.iter().enumerate() {
                let mut grads = vec![0.0f32; init.len()];
                for &i in *touched {
                    grads[i as usize] = 0.1 * (i as f32 + 1.0) - 0.25 * k as f32;
                }
                split_adam.step_sparse(split.master_mut(), &grads, touched, 0.75);
                split.commit_indices(touched);
                let gathered: Vec<f32> = touched.iter().map(|&i| grads[i as usize]).collect();
                gath_adam.step_sparse_gathered(&mut gath, &gathered, touched, 0.75);
                assert_eq!(bits(split.master()), bits(gath.master()));
                assert_eq!(bits(split.values()), bits(gath.values()));
            }
        }
    }
}
