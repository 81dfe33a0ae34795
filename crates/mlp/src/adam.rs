//! The Adam optimizer (Kingma & Ba), as used by iNGP.

use crate::fp16::quantize_f16;
use crate::store::ParamStore;
use inerf_simd::f32x8;

/// First-moment decay `β₁`.
const BETA1: f32 = 0.9;
/// Second-moment decay `β₂`.
const BETA2: f32 = 0.99;
/// Numerical-stability epsilon (iNGP's `1e-10`, scaled to `1e-8` for f32).
pub const EPSILON: f32 = 1e-8;

/// One parameter's optimizer record.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Moments {
    /// First moment.
    m: f32,
    /// Second moment.
    v: f32,
    /// Lazy-mode stamp: this parameter's per-entry Adam chain has been
    /// advanced through this global step. Stays 0 in dense mode.
    step: u32,
}

/// Adam optimizer state for a flat parameter vector.
///
/// iNGP trains both the hash-table embeddings and the MLP weights with Adam;
/// the trainer crate instantiates one `AdamState` per parameter group. The
/// decay rates and epsilon are the fixed `BETA1` (0.9), `BETA2` (0.99) and
/// [`EPSILON`]; the learning rate is the one setting.
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
#[derive(Debug, Clone)]
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
    /// The per-step bias corrections through step `t`. Derived from `t`
    /// alone: never exported, rebuilt on first use after
    /// [`AdamState::from_records`], ignored by `==`.
    bias: BiasTable,
    /// Learning rate.
    pub learning_rate: f32,
}

impl PartialEq for AdamState {
    fn eq(&self, other: &Self) -> bool {
        self.state == other.state
            && self.t == other.t
            && self.lazy == other.lazy
            && self.learning_rate == other.learning_rate
    }
}

/// `rows[s] = (1 − β₁ˢ, 1 − β₂ˢ)`, the bias corrections of step `s`: one
/// `powi` pair per *global* step, read by every scalar updated at or
/// replayed through that step (8 bytes per step taken).
#[derive(Debug, Clone, Default)]
struct BiasTable {
    rows: Vec<(f32, f32)>,
    /// Smallest `1 − β₁ˢ` over the rows `s ≥ 1` — what a bound over every
    /// step taken so far may divide by.
    floor: f32,
}

impl BiasTable {
    /// The row of step `t`, extending the table through it first.
    #[inline]
    fn row(&mut self, t: u64) -> (f32, f32) {
        if self.rows.len() as u64 <= t {
            self.extend_to(t);
        }
        self.rows[t as usize]
    }

    /// Never inlined, and the decay rates go through `black_box`: `powi`
    /// is only bit-stable as the runtime call (LLVM folds it differently,
    /// by an ulp, once it can see constant arguments), and this is the one
    /// place the workspace's Adam steps get their bias corrections from.
    #[inline(never)]
    fn extend_to(&mut self, t: u64) {
        let (beta1, beta2) = std::hint::black_box((BETA1, BETA2));
        if self.rows.is_empty() {
            self.floor = f32::INFINITY;
        }
        while self.rows.len() as u64 <= t {
            let s = self.rows.len() as u64;
            let row = (1.0 - beta1.powi(s as i32), 1.0 - beta2.powi(s as i32));
            if s > 0 {
                self.floor = self.floor.min(row.0);
            }
            self.rows.push(row);
        }
    }
}

/// One Adam update of one scalar at learning rate `lr` and the step whose
/// bias corrections are `(b1t, b2t)` — the arithmetic every path (dense
/// sweep, sparse step, replayed zero-gradient step) performs term for term.
#[inline(always)]
fn update(lr: f32, s: &mut Moments, param: &mut f32, g: f32, (b1t, b2t): (f32, f32)) {
    s.m = BETA1 * s.m + (1.0 - BETA1) * g;
    s.v = BETA2 * s.v + (1.0 - BETA2) * g * g;
    let m_hat = s.m / b1t;
    let v_hat = s.v / b2t;
    *param -= lr * m_hat / (v_hat.sqrt() + EPSILON);
}

/// One moment's zero-gradient update, `x ← fl(β·x) + 0.0`, for a normal
/// `β < 1` and finite `x`. Operands whose product would be
/// subnormal go through an integer multiply rounded to nearest-even,
/// so no floating-point instruction meets a subnormal (an x86 core
/// takes a ~150-cycle microcode assist on each one).
#[derive(Debug, Clone, Copy)]
struct Decay {
    beta: f32,
    /// `β = sig · 2^-shift`, `sig` its significand with the implicit bit.
    sig: u64,
    shift: u32,
    /// `|x| ≥ normal_from` ⇒ `β·x ≥ 2⁻¹²⁶`: the plain multiply sees and
    /// makes only normal numbers, and `+ 0.0` is the identity on a
    /// non-zero value. `|x| < normal_from` ⇒ `β·|x| < 2⁻¹²⁵`: the result
    /// is a multiple of 2⁻¹⁴⁹ no larger than 2²⁴ of them, which is what
    /// [`Decay::step_small`] computes. (`2⁻¹²⁵/β` rounded either way
    /// keeps both: the two bounds are a factor of two apart.)
    normal_from: f32,
}

impl Decay {
    fn new(beta: f32) -> Self {
        debug_assert!((f32::MIN_POSITIVE..1.0).contains(&beta));
        let bits = beta.to_bits();
        Decay {
            beta,
            sig: u64::from((bits & 0x007f_ffff) | 0x0080_0000),
            shift: 150 - (bits >> 23),
            normal_from: 2.0 * f32::MIN_POSITIVE / beta,
        }
    }

    /// `fl(β·x) + 0.0` on the bit pattern of an `|x| < normal_from`.
    #[inline]
    fn step_small(&self, bits: u32) -> u32 {
        let exp = (bits >> 23) & 0xff;
        let frac = u64::from(bits & 0x007f_ffff);
        // |x| = sig_x · 2^(lift − 149).
        let (sig_x, lift) = match exp {
            0 => (frac, 0),
            _ => (frac | 0x0080_0000, exp - 1),
        };
        // β·|x| = (sig_x · sig) · 2^(lift − shift − 149), and the bound
        // on |x| makes `lift ≤ shift`: round the product to units of
        // 2⁻¹⁴⁹. Counted in those units the magnitude *is* the bit
        // pattern, for subnormals and through 2²⁴ alike.
        let units = shr_rne(sig_x * self.sig, self.shift - lift) as u32;
        match units {
            // ±0.0 + 0.0 is +0.0.
            0 => 0,
            _ => (bits & 0x8000_0000) | units,
        }
    }

    /// `n` updates of `x`, stopping early at a fixed point
    /// (`fl(β·x) + 0.0 == x` bitwise — only zero and a few subnormals).
    #[inline]
    fn run(&self, mut x: f32, mut n: u64) -> f32 {
        while n > 0 && x.abs() >= self.normal_from {
            x *= self.beta;
            n -= 1;
        }
        let mut bits = x.to_bits();
        while n > 0 {
            let next = self.step_small(bits);
            if next == bits {
                break;
            }
            bits = next;
            n -= 1;
        }
        f32::from_bits(bits)
    }
}

/// `x / 2^sh` rounded to nearest, ties to even, for `x < 2⁶³`.
#[inline]
fn shr_rne(x: u64, sh: u32) -> u64 {
    match sh {
        0 => x,
        1..=63 => {
            let q = x >> sh;
            let rem = x & ((1 << sh) - 1);
            let half = 1 << (sh - 1);
            q + u64::from(rem > half || (rem == half && q & 1 == 1))
        }
        _ => 0,
    }
}

/// The lazy-replay kernel: advances one scalar through the zero-gradient
/// steps it skipped, landing on the bits the dense chain
/// ([`AdamState::step_scaled`] with a `+0.0` gradient at every one of
/// those steps) would hold. Three regimes, entered in this order and
/// never left:
///
/// * **active** — the full update, bias corrections from the table;
/// * **quiescent** — the update provably cannot move the parameter any
///   more ([`AtRest::settled`]), so only the two moments decay;
/// * **fixed point** — the decay maps each moment onto itself, so
///   nothing is left to do. `m = v = +0.0` is the common case (entries
///   never touched); a moment that was ever non-zero does not get
///   there: round-to-nearest-even parks it on a small subnormal
///   (`±4·2⁻¹⁴⁹` at β = 0.9, `50·2⁻¹⁴⁹` at β = 0.99).
struct Replay<'a> {
    lr: f32,
    /// `rows[s]` for every step through the replay target.
    rows: &'a [(f32, f32)],
    /// What the two later regimes need; `None` keeps every scalar active
    /// to its target — always exact — unless the learning rate is finite
    /// and non-negative, the one setting the regimes' arguments do not
    /// hold for by construction (`ε > 0`, both `β ∈ (0, 1)` and every
    /// bias correction positive are fixed).
    at_rest: Option<AtRest>,
}

#[derive(Debug, Clone, Copy)]
struct AtRest {
    lr: f32,
    /// Lower bound of `1 − β₁ˢ` over every step in the table.
    min_b1t: f32,
    /// [`AtRest::bound`] of the smallest normal number, standing in for
    /// every subnormal `|m|` so that no arithmetic has to meet one.
    bound_below_normal: f32,
    m: Decay,
    v: Decay,
}

/// Active steps between two evaluations of [`AtRest::settled`], whose
/// two divisions cost about half of one of them.
const SETTLE_CHECK_EVERY: u64 = 8;

impl AtRest {
    fn new(lr: f32, min_b1t: f32) -> Self {
        let mut rest = AtRest {
            lr,
            min_b1t,
            bound_below_normal: 0.0,
            m: Decay::new(BETA1),
            v: Decay::new(BETA2),
        };
        rest.bound_below_normal = rest.bound(f32::MIN_POSITIVE);
        rest
    }

    /// An upper bound on the magnitude of every later zero-gradient
    /// update of a scalar whose first moment has magnitude `m_abs` now.
    ///
    /// The update at a step `s` is `fl(fl(lr·m̂) / d)` with
    /// `|m̂| = fl(|mₛ| / (1 − β₁ˢ))` and `d = fl(√v̂ + ε) ≥ ε` (`v̂ ≥ 0`
    /// because `v ≥ 0` and `1 − β₂ˢ > 0`). Rounding is monotone, `|m|`
    /// only shrinks from here on and `1 − β₁ˢ ≥ min_b1t`, so the same
    /// three operations on today's `|m|`, `min_b1t` and `ε` bound every
    /// later update from above — no error term to carry.
    #[inline]
    fn bound(&self, m_abs: f32) -> f32 {
        self.lr * (m_abs / self.min_b1t) / EPSILON
    }

    /// Whether no later zero-gradient step can change `p`, and the
    /// moments are values [`Decay`] handles (finite, `v` non-negative).
    ///
    /// With [`AtRest::bound`] under a quarter of `p`'s ulp the
    /// subtraction returns `p` (a quarter, not a half: below a power of
    /// two the spacing halves); `p` therefore is still the same at the
    /// next step, where the bound has only shrunk.
    #[inline]
    fn settled(&self, s: &Moments, p: f32) -> bool {
        const INF: u32 = 0x7f80_0000;
        const MIN_NORMAL: u32 = 0x0080_0000;
        // `p` finite, and large enough that a quarter of its ulp is a
        // normal number (|p| ≥ 2⁻¹⁰¹): the exponent field minus 25.
        let exp = (p.to_bits() >> 23) & 0xff;
        let m_mag = s.m.to_bits() & 0x7fff_ffff;
        if !(26..255).contains(&exp) || m_mag >= INF || s.v.to_bits() >= INF {
            return false;
        }
        let quarter_ulp = f32::from_bits((exp - 25) << 23);
        if m_mag < MIN_NORMAL && self.bound_below_normal < quarter_ulp {
            return true;
        }
        self.bound(f32::from_bits(m_mag)) < quarter_ulp
    }
}

impl Replay<'_> {
    /// Replays `s`/`p` through step `target` and stamps it.
    #[inline(always)]
    fn run(&self, s: &mut Moments, p: &mut f32, target: u64) {
        if u64::from(s.step) < target {
            self.run_behind(s, p, target);
        }
    }

    /// [`Replay::run`] for a scalar that is behind `target`. Out of line:
    /// the sparse step's gather loop finds most scalars up to date, and
    /// stays a few instructions long this way.
    #[inline(never)]
    fn run_behind(&self, s: &mut Moments, p: &mut f32, target: u64) {
        let mut at = u64::from(s.step);
        s.step = target as u32;
        if self.at_rest.is_some() && s.m.to_bits() == 0 && s.v.to_bits() == 0 {
            // The fixed point that asks nothing of `p`: every update
            // subtracts `lr·0/ε`, an exact +0.0.
            return;
        }
        let rest = loop {
            if let Some(rest) = self.at_rest.as_ref().filter(|r| r.settled(s, *p)) {
                break rest;
            }
            let stop = target.min(at + SETTLE_CHECK_EVERY);
            for row in &self.rows[at as usize + 1..=stop as usize] {
                update(self.lr, s, p, 0.0, *row);
            }
            at = stop;
            if at == target {
                return;
            }
        };
        s.m = rest.m.run(s.m, target - at);
        s.v = rest.v.run(s.v, target - at);
    }
}

impl AdamState {
    /// Creates Adam state for `n` parameters at `learning_rate`, with the
    /// fixed `BETA1` (0.9), `BETA2` (0.99) and [`EPSILON`].
    pub fn new(n: usize, learning_rate: f32) -> Self {
        Self::from_records(std::iter::repeat_n([0; 3], n), 0, learning_rate, false)
    }

    /// Number of steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// The packed records as `[m bits, v bits, stamp]`, borrowed, in
    /// memory order: what [`AdamState::from_records`] takes back.
    pub fn records(&self) -> impl ExactSizeIterator<Item = [u32; 3]> + '_ {
        self.state
            .iter()
            .map(|s| [s.m.to_bits(), s.v.to_bits(), s.step])
    }

    /// Builds a state, bit-exactly, from exported records
    /// ([`AdamState::records`], one per parameter, in memory order), the
    /// global step `t` (the lazy-replay epoch), the learning rate and the
    /// mode: what a restore builds, writing each record once.
    ///
    /// Moments travel as `u32` bit patterns, not values, because a resumed
    /// run must replay the *bits* of the original trajectory — a decimal
    /// round-trip would already diverge on the first post-resume step.
    /// Unlike [`AdamState::enable_lazy`], this may build a lazy state
    /// mid-trajectory (`t > 0`) — the stamps come from the records, so
    /// the replayed-through invariant is whatever the original run had.
    pub fn from_records(
        records: impl ExactSizeIterator<Item = [u32; 3]>,
        t: u64,
        learning_rate: f32,
        lazy: bool,
    ) -> Self {
        let state = records
            .map(|[m, v, step]| Moments {
                m: f32::from_bits(m),
                v: f32::from_bits(v),
                step,
            })
            .collect();
        AdamState {
            state,
            t,
            lazy,
            bias: BiasTable::default(),
            learning_rate,
        }
    }

    /// Number of parameters this state covers.
    #[inline]
    fn n_params(&self) -> usize {
        self.state.len()
    }

    /// The bias corrections `(1 − β₁ᵗ, 1 − β₂ᵗ)` of step `t`, extending
    /// the table through it.
    fn bias_at(&mut self, t: u64) -> (f32, f32) {
        self.bias.row(t)
    }

    /// Advances the step counter and returns the new step's bias
    /// corrections.
    fn advance(&mut self) -> (f32, f32) {
        self.t += 1;
        self.bias_at(self.t)
    }

    /// The replay kernel for targets through step `through`, beside the
    /// records it advances.
    fn replay(&mut self, through: u64) -> (Replay<'_>, &mut [Moments]) {
        self.bias_at(through);
        let lr = self.learning_rate;
        let at_rest =
            (lr.is_finite() && lr.is_sign_positive()).then(|| AtRest::new(lr, self.bias.floor));
        let replay = Replay {
            lr,
            rows: &self.bias.rows,
            at_rest,
        };
        (replay, &mut self.state)
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
        let bias = self.bias_at(self.t);
        update(self.learning_rate, &mut self.state[idx], param, grad, bias);
    }

    /// Advances the step counter for a sweep of [`AdamState::update_one`]
    /// calls.
    pub fn begin_step(&mut self) {
        self.advance();
    }

    /// Like [`AdamState::step`], but reads each gradient as
    /// `grads[i] * scale` without materializing a scaled copy. With
    /// `scale == 1.0` this is `step` (IEEE 754 multiplication by one is
    /// exact), so callers can fold a clip-norm scale in unconditionally
    /// instead of cloning and rescaling the gradient vector.
    ///
    /// On a lazy state every record must stand at the previous step (a
    /// whole-table sync first); the sweep stamps each with the new step,
    /// so later replays start there.
    ///
    /// # Panics
    ///
    /// Panics if `params` and `grads` differ in length, do not match the
    /// state's size, or a lazy step counter overflows the `u32` stamps.
    pub fn step_scaled(&mut self, params: &mut [f32], grads: &[f32], scale: f32) {
        assert_eq!(params.len(), grads.len(), "params/grads length mismatch");
        assert_eq!(
            params.len(),
            self.n_params(),
            "optimizer state size mismatch"
        );
        let bias = self.advance();
        let t = self.t;
        let lazy = self.lazy;
        assert!(
            !lazy || t <= u64::from(u32::MAX),
            "step counter exceeds u32 stamps"
        );
        // Dense-mode stamps stay 0.
        let stamp = if lazy { t as u32 } else { 0 };
        let lr = self.learning_rate;
        for ((s, p), &g) in self.state.iter_mut().zip(params).zip(grads) {
            debug_assert!(!lazy || u64::from(s.step) + 1 == t, "unsynced lazy record");
            update(lr, s, p, g * scale, bias);
            s.step = stamp;
        }
    }

    // --- Lazy sparse mode -------------------------------------------------
    //
    // Per-parameter Adam chains never interact: step t of parameter i reads
    // only (m[i], v[i], params[i], grads[i], t). A sparse trainer can
    // therefore skip parameters whose gradient is exactly zero and *replay*
    // the skipped zero-gradient updates the next time the parameter is
    // read or written. [`Replay`] does that and lands on the dense bits.

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
    fn is_lazy(&self) -> bool {
        self.lazy
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
        let (replay, state) = self.replay(t);
        for &e in entries {
            let span = e as usize * stride..(e as usize + 1) * stride;
            for (s, p) in state[span.clone()].iter_mut().zip(&mut params[span]) {
                replay.run(s, p, t);
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
        let (replay, state) = self.replay(t);
        for (s, p) in state.iter_mut().zip(params) {
            replay.run(s, p, t);
        }
    }

    /// [`AdamState::sync_all`] over a [`ParamStore`]'s master weights,
    /// re-quantizing the fp16 working copy of exactly the scalars the
    /// replay moved — bitwise a `sync_all` on `store.master_mut()`
    /// followed by [`ParamStore::commit`], without the table-sized
    /// re-quantization (most scalars are at rest by the time a whole-table
    /// sync runs).
    pub fn sync_store(&mut self, store: &mut ParamStore) {
        if !self.is_lazy() {
            return;
        }
        let (params, active) = store.master_active_mut();
        let Some(active) = active else {
            return self.sync_all(params);
        };
        assert_eq!(
            params.len(),
            self.n_params(),
            "optimizer state size mismatch"
        );
        let t = self.t;
        let (replay, state) = self.replay(t);
        for ((s, p), a) in state.iter_mut().zip(params).zip(active) {
            let before = p.to_bits();
            replay.run(s, p, t);
            if p.to_bits() != before {
                *a = quantize_f16(*p);
            }
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
    // inerf-lint: allow(pub-reach) -- test support: the reference that inerf_trainer's tests/sparse_dense_equivalence.rs pins step_sparse_gathered against
    pub fn step_sparse(&mut self, params: &mut [f32], grads: &[f32], indices: &[u32], scale: f32) {
        assert!(self.is_lazy(), "step_sparse requires lazy mode");
        assert_eq!(params.len(), grads.len(), "params/grads length mismatch");
        assert_eq!(
            params.len(),
            self.n_params(),
            "optimizer state size mismatch"
        );
        let bias = self.advance();
        let t = self.t;
        assert!(t <= u64::from(u32::MAX), "step counter exceeds u32 stamps");
        let (replay, state) = self.replay(t);
        for &iu in indices {
            let i = iu as usize;
            let s = &mut state[i];
            replay.run(s, &mut params[i], t - 1);
            update(replay.lr, s, &mut params[i], grads[i] * scale, bias);
            s.step = t as u32;
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
        let bias = self.advance();
        let t = self.t;
        assert!(t <= u64::from(u32::MAX), "step counter exceeds u32 stamps");
        let (replay, state) = self.replay(t);
        inerf_simd::vectorize(
            #[inline(always)]
            || {
                step_gathered_blocks(
                    &replay, state, params, active, gathered, indices, scale, bias, t,
                );
            },
        );
    }
}

/// Blocked body of [`AdamState::step_sparse_gathered`], running inside a
/// `vectorize` frame (inlined into it, or its lanes compile at the build's
/// baseline features). Block size keeps the gathered working set (four
/// stack arrays plus the block's scattered cache lines) inside L1 between
/// the gather and the scatter.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn step_gathered_blocks(
    replay: &Replay<'_>,
    state: &mut [Moments],
    params: &mut [f32],
    mut active: Option<&mut [f32]>,
    gathered: &[f32],
    indices: &[u32],
    scale: f32,
    bias: (f32, f32),
    t: u64,
) {
    const BLOCK: usize = 128;
    let lr = replay.lr;
    let mut pb = [0.0f32; BLOCK];
    let mut mb = [0.0f32; BLOCK];
    let mut vb = [0.0f32; BLOCK];
    let mut gb = [0.0f32; BLOCK];
    let vb1 = f32x8::splat(BETA1);
    let vomb1 = f32x8::splat(1.0 - BETA1);
    let vb2 = f32x8::splat(BETA2);
    let vomb2 = f32x8::splat(1.0 - BETA2);
    let vb1t = f32x8::splat(bias.0);
    let vb2t = f32x8::splat(bias.1);
    let vlr = f32x8::splat(lr);
    let veps = f32x8::splat(EPSILON);
    for (blk_i, blk) in indices.chunks(BLOCK).enumerate() {
        let base = blk_i * BLOCK;
        let bn = blk.len();
        // Gather the block's parameters and moments (replaying any
        // missed zero-gradient steps first) and stamp them.
        for (j, &iu) in blk.iter().enumerate() {
            let i = iu as usize;
            let s = &mut state[i];
            let mut p = params[i];
            replay.run(s, &mut p, t - 1);
            pb[j] = p;
            mb[j] = s.m;
            vb[j] = s.v;
            gb[j] = gathered[base + j] * scale;
            s.step = t as u32;
        }
        // Contiguous Adam update: eight lanes at a time, operation
        // order mirroring `update` term for term.
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
            let mut s = Moments {
                m: mb[j],
                v: vb[j],
                step: 0,
            };
            update(lr, &mut s, &mut pb[j], gb[j], bias);
            mb[j] = s.m;
            vb[j] = s.v;
        }
        // Scatter back while the block's lines are still hot; fp16
        // stores re-quantize the working copy in the same pass.
        match active.as_deref_mut() {
            Some(active) => {
                for (j, &iu) in blk.iter().enumerate() {
                    let i = iu as usize;
                    params[i] = pb[j];
                    state[i].m = mb[j];
                    state[i].v = vb[j];
                    active[i] = quantize_f16(pb[j]);
                }
            }
            None => {
                for (j, &iu) in blk.iter().enumerate() {
                    let i = iu as usize;
                    params[i] = pb[j];
                    state[i].m = mb[j];
                    state[i].v = vb[j];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

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
        assert_eq!(adam.steps(), 3);
        assert!(adam.is_lazy());
        let mut restored = AdamState::from_records(adam.records(), adam.steps(), 0.015, true);
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

    #[test]
    fn dense_zero_gradient_chain_parks_moments_on_subnormal_fixed_points() {
        // The statement DESIGN.md makes, on the dense path: a moment that
        // was ever non-zero never flushes to zero. Round-to-nearest-even
        // holds 0.9·4 = 3.6 at 4 and 0.99·50 = 49.5 at 50, in units of
        // 2⁻¹⁴⁹, and a chain coming down from above stops there.
        for g in [0.8f32, -0.8] {
            let mut p = vec![1.0f32];
            let mut adam = AdamState::new(1, 0.01);
            adam.step(&mut p, &[g]);
            for _ in 0..12_000 {
                adam.step(&mut p, &[0.0]);
            }
            let sign = if g < 0.0 { 0x8000_0000 } else { 0 };
            assert_eq!(moment_bits(&adam), [(sign | 0x0000_0004, 0x0000_0032)]);
            let parked = adam.clone();
            adam.step(&mut p, &[0.0]);
            assert_eq!(moment_bits(&adam), moment_bits(&parked));
        }
    }

    /// The hardware's `fl(β·x) + 0.0`, kept opaque so it is computed, not
    /// folded.
    fn hardware_decay(beta: f32, bits: u32) -> u32 {
        let x = std::hint::black_box(f32::from_bits(bits));
        (beta * x + 0.0).to_bits()
    }

    /// Checks [`Decay::step_small`] against the hardware on both signs of
    /// the given magnitudes (bit patterns) of its domain.
    fn check_small_decay(beta: f32, magnitudes: impl Iterator<Item = u32>) {
        let d = Decay::new(beta);
        for mag in magnitudes {
            assert!(f32::from_bits(mag) < d.normal_from);
            for bits in [mag, mag | 0x8000_0000] {
                assert_eq!(
                    d.step_small(bits),
                    hardware_decay(beta, bits),
                    "β = {beta}, x = {bits:#010x}"
                );
            }
        }
    }

    #[test]
    fn subnormal_decay_matches_the_hardware_product_sampled() {
        // Every 257th magnitude of the integer path's whole domain (all
        // subnormals and the normals under `normal_from`) plus both of
        // its ends, for the two fixed rates and a spread of others —
        // β = 2⁻²³ and the largest β under one stretch the shift range.
        for beta in [
            BETA1,
            BETA2,
            0.5,
            0.999,
            0.1,
            f32::EPSILON,
            1.0 - f32::EPSILON / 2.0,
        ] {
            let end = Decay::new(beta).normal_from.to_bits();
            check_small_decay(beta, (0..end).step_by(257));
            check_small_decay(beta, 0..4096);
            check_small_decay(beta, end - 4096..end);
        }
    }

    #[test]
    #[ignore = "exhaustive: ~70 M subnormal hardware products, release mode only"]
    fn subnormal_decay_matches_the_hardware_product_exhaustive() {
        // Every `Decay` the optimizer builds.
        for beta in [BETA1, BETA2] {
            check_small_decay(beta, 0..Decay::new(beta).normal_from.to_bits());
        }
    }

    #[test]
    fn decay_run_matches_the_hardware_chain_into_its_fixed_point() {
        // From a normal value through the normal/subnormal boundary down
        // to the parked subnormal, stopping at every prefix length.
        for (beta, x0, steps) in [(0.9f32, -3.0e-36f32, 260u64), (0.99, 2.0e-37, 2400)] {
            let d = Decay::new(beta);
            let mut chain = x0.to_bits();
            for n in 0..=steps {
                assert_eq!(d.run(x0, n).to_bits(), chain, "β = {beta}, n = {n}");
                chain = hardware_decay(beta, chain);
            }
            assert_eq!(
                hardware_decay(beta, chain),
                chain,
                "chain reached its fixed point"
            );
            assert_eq!(
                d.run(x0, u64::MAX).to_bits(),
                chain,
                "early-out at the fixed point"
            );
        }
    }

    #[test]
    fn bias_corrections_never_fall_below_their_first_step() {
        // What `AtRest::settled` divides by: 1 − β₁ᵗ ≥ 1 − β₁ at every
        // step, so the table's running minimum is the t = 1 row and the
        // quiescence bound is as tight as its derivation says.
        let mut table = BiasTable::default();
        table.extend_to(100_000);
        assert_eq!(table.rows.len(), 100_001);
        assert_eq!(table.rows[0], (0.0, 0.0));
        for (t, row) in table.rows.iter().enumerate().skip(1) {
            assert!(row.0 >= 1.0 - BETA1, "1 − β₁ᵗ at t = {t}: {}", row.0);
            assert!(row.1 >= 1.0 - BETA2, "1 − β₂ᵗ at t = {t}: {}", row.1);
        }
        assert_eq!(table.floor, 1.0 - BETA1);
    }

    #[test]
    fn sync_store_matches_sync_all_then_commit_bitwise() {
        use crate::store::Precision;
        let init: Vec<f32> = (0..40).map(|i| 0.02 * i as f32 - 0.37).collect();
        for precision in [Precision::F32, Precision::Fp16] {
            let mut split = ParamStore::new(precision, init.clone());
            let mut fused = ParamStore::new(precision, init.clone());
            let mut split_adam = AdamState::new(init.len(), 0.05);
            let mut fused_adam = AdamState::new(init.len(), 0.05);
            split_adam.enable_lazy();
            fused_adam.enable_lazy();
            for round in 0..6u32 {
                // Touch a rotating third of the scalars once, then let
                // every chain run untouched for a while.
                let touched: Vec<u32> = (0..init.len() as u32)
                    .filter(|i| i % 3 == round % 3)
                    .collect();
                let gathered: Vec<f32> =
                    touched.iter().map(|&i| 0.01 * (i as f32 - 17.0)).collect();
                split_adam.step_sparse_gathered(&mut split, &gathered, &touched, 1.0);
                fused_adam.step_sparse_gathered(&mut fused, &gathered, &touched, 1.0);
                for _ in 0..40 * (round + 1) {
                    split_adam.step_sparse_gathered(&mut split, &[], &[], 1.0);
                    fused_adam.step_sparse_gathered(&mut fused, &[], &[], 1.0);
                }
                split_adam.sync_all(split.master_mut());
                split.commit();
                fused_adam.sync_store(&mut fused);
                assert_eq!(bits(split.master()), bits(fused.master()));
                assert_eq!(bits(split.values()), bits(fused.values()));
                assert_eq!(split_adam, fused_adam);
            }
        }
    }

    /// A moment magnitude from every range the replay treats differently.
    fn draw_magnitude(rng: &mut SmallRng) -> f32 {
        match rng.gen_range(0..6) {
            0 => 0.0,
            1 => f32::from_bits(rng.gen_range(1..0x0080_0000u32)),
            2 => 10f32.powf(rng.gen_range(-44.0f32..-36.0)),
            3 => 10f32.powf(rng.gen_range(-36.0f32..-12.0)),
            _ => 10f32.powf(rng.gen_range(-12.0f32..0.0)),
        }
    }

    /// One scalar's `(m, v, p)`: independent draws, plus the two shapes
    /// they would almost never produce.
    fn draw_scalar(rng: &mut SmallRng, lr: f32) -> (f32, f32, f32) {
        let sign = if rng.gen_bool(0.5) { 1.0f32 } else { -1.0 };
        let m = sign * draw_magnitude(rng);
        let v = draw_magnitude(rng);
        let any = 10f32.powf(rng.gen_range(-30.0f32..2.0));
        match rng.gen_range(0..14) {
            0 => (m, v, 0.0),
            1 => (m, v, -0.0),
            2 => (m, v, f32::from_bits(rng.gen_range(1..0x0080_0000u32))),
            3 => (m, v, 1.0e-20),
            4 => (m, v, sign * f32::INFINITY),
            5 => (m, v, f32::NAN),
            // Crosses zero while active: updates of about `lr` each
            // (v = m²) against a few `lr` of `p`.
            6 | 7 => (m, m * m, sign * lr * rng.gen_range(0.5f32..6.0)),
            // On the edge of the quiescence bound: no √v̂ to hide behind
            // and `lr·|m| / ((1 − β₁)·ε)` within 8× of a quarter ulp of a
            // `p` that is, half the time, a power of two about to step
            // onto the finer-spaced side.
            8..=10 => {
                let p = match rng.gen_bool(0.5) {
                    true => sign * 2f32.powi(rng.gen_range(-20..4)),
                    false => sign * any,
                };
                let quarter_ulp = f32::from_bits((((p.to_bits() >> 23) & 0xff) - 25) << 23);
                let edge = quarter_ulp * EPSILON * 0.1 / lr;
                let v = [0.0, 1.0e-42, 1.0e-30][rng.gen_range(0..3)];
                (sign * edge * 2f32.powf(rng.gen_range(-3.0f32..3.0)), v, p)
            }
            _ => (m, v, -sign * any),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The replay kernel against the dense zero-gradient chain, from
        /// arbitrary mid-trajectory states over gaps long enough to leave
        /// the active regime, go subnormal and park: every parameter and
        /// moment bit must agree at every sync, whatever regime each
        /// scalar is in and wherever the syncs cut its chain.
        #[test]
        fn replay_matches_the_dense_zero_gradient_chain_in_every_regime(seed in 0u64..1_000_000) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let n = 10usize;
            let lr = [0.01f32, 1.0e-3, 0.3][rng.gen_range(0..3)];
            // Early starts keep `1 − β₁ᵗ` near its floor, where the
            // quiescence bound has no slack.
            let start = match rng.gen_bool(0.4) {
                true => rng.gen_range(0u64..4),
                false => rng.gen_range(0u64..2_500),
            };
            let gap = rng.gen_range(1usize..3_000);
            let (mut m, mut v, mut p) = (Vec::new(), Vec::new(), Vec::new());
            for _ in 0..n {
                let (mi, vi, pi) = draw_scalar(&mut rng, lr);
                m.push(mi.to_bits());
                v.push(vi.to_bits());
                p.push(pi);
            }
            let restore = |lazy: bool| {
                let stamp = if lazy { start as u32 } else { 0 };
                let records = m.iter().zip(&v).map(|(&m, &v)| [m, v, stamp]);
                AdamState::from_records(records, start, lr, lazy)
            };
            let mut dense = restore(false);
            let mut lazy = restore(true);
            let (mut dense_p, mut lazy_p) = (p.clone(), p);
            let zeros = vec![0.0f32; n];
            let sync_every = rng.gen_range(1usize..400);
            for step in 1..=gap {
                dense.step_scaled(&mut dense_p, &zeros, 1.0);
                lazy.step_sparse(&mut lazy_p, &zeros, &[], 1.0);
                if step == gap || rng.gen_range(0..sync_every) == 0 {
                    if rng.gen_bool(0.5) {
                        lazy.sync_all(&mut lazy_p);
                    } else {
                        // Entry granularity, and only some: the others
                        // keep their older stamps for a later sync.
                        let some: Vec<u32> = (0..n as u32 / 2).filter(|_| rng.gen_bool(0.6)).collect();
                        lazy.sync_entries(&mut lazy_p, &some, 2);
                        for &e in &some {
                            let span = e as usize * 2..e as usize * 2 + 2;
                            prop_assert_eq!(bits(&dense_p[span.clone()]), bits(&lazy_p[span.clone()]));
                            prop_assert_eq!(&moment_bits(&dense)[span.clone()], &moment_bits(&lazy)[span]);
                        }
                        continue;
                    }
                    prop_assert_eq!(bits(&dense_p), bits(&lazy_p), "params at step {}", step);
                    prop_assert_eq!(moment_bits(&dense), moment_bits(&lazy), "moments at step {}", step);
                }
            }
            lazy.sync_all(&mut lazy_p);
            prop_assert_eq!(bits(&dense_p), bits(&lazy_p));
            prop_assert_eq!(moment_bits(&dense), moment_bits(&lazy));
        }
    }
}
