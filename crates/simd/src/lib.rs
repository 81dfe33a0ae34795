//! Explicit-SIMD execution layer for the batched training engine.
//!
//! The paper's accelerator wins by keeping the encode → MLP → composite
//! datapath wide and busy; the software spine mirrors that with an explicit
//! eight-lane vector type, [`f32x8`], and a runtime-selected [`Backend`].
//! Hot kernels in `inerf_mlp`, `inerf_encoding`, and `inerf_render` are
//! written against `f32x8` and wrapped in [`vectorize`], which dispatches
//! the whole kernel through a `#[target_feature]` frame so LLVM emits AVX2
//! code for the lane loops on x86-64 without the workspace having to be
//! compiled with non-portable target flags. The lane loops are the only
//! body of every `f32x8` op: build flags never select code.
//!
//! # Backend selection
//!
//! The active backend is resolved once, from the `INERF_SIMD` environment
//! variable:
//!
//! | value                | meaning                                        |
//! |----------------------|------------------------------------------------|
//! | unset, `native`, `auto` | best backend the CPU supports               |
//! | `scalar`             | no frame: lane loops at the build's baseline   |
//! | `avx2`               | AVX2 frames (falls back to scalar if absent)   |
//! | anything else        | hard error naming the offending value          |
//!
//! Tests may override the cached choice with [`force_backend`]; overrides
//! are clamped to what the CPU actually supports, so forcing `Avx2` on a
//! non-AVX2 host degrades to `Scalar` instead of hitting undefined
//! behaviour.
//!
//! # Determinism contract
//!
//! Every backend must produce **bitwise identical** results:
//!
//! * All `f32x8` operations are lane-wise IEEE 754 single-precision ops.
//!   [`f32x8::madd`] is an explicit **two-rounding** multiply-then-add —
//!   never a fused multiply-add. The dispatch frame enables only `avx2`
//!   (not `fma`), and rustc keeps LLVM's floating-point contraction off,
//!   so the compiler cannot silently fuse them either.
//! * Reductions are never reassociated by lane width: kernels accumulate
//!   across lanes in the same fixed order as the scalar reference, exactly
//!   as the thread pool preserves order by fixed chunking.
//! * Transcendentals ([`f32x8::exp_lanes`]) are evaluated lane-serially
//!   with `f32::exp`; no polynomial vector approximations.
//!
//! `unsafe` is confined to this crate (the `simd-lane` lint rule rejects
//! raw `std::arch` usage anywhere else in the workspace).

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(unreachable_pub)]

mod vec8;

pub use vec8::f32x8;

use std::sync::atomic::{AtomicU8, Ordering};

/// Lane count of the one vector width this layer exposes.
pub const LANES: usize = 8;

/// Which dispatch frame [`vectorize`] routes kernels through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Backend {
    /// No frame: lane loops at the build's baseline features (SSE2 on
    /// x86-64, NEON on aarch64). Always available.
    Scalar = 0,
    /// x86-64 AVX2 `#[target_feature]` frame (`std::arch` detection).
    Avx2 = 1,
}

impl Backend {
    /// Stable lower-case name, as accepted by `INERF_SIMD` and reported in
    /// bench artifacts.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Avx2 => "avx2",
        }
    }

    /// Whether the running CPU can execute this backend.
    fn is_available(self) -> bool {
        match self {
            Backend::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(not(target_arch = "x86_64"))]
            Backend::Avx2 => false,
        }
    }

    fn from_raw(raw: u8) -> Backend {
        match raw {
            1 => Backend::Avx2,
            _ => Backend::Scalar,
        }
    }
}

/// All backends the running CPU supports, `Scalar` first. Equivalence tests
/// sweep this list and pin every entry against the scalar engine.
// inerf-lint: allow(pub-reach) -- test support: the backend sweeps of other crates' tests (inerf_trainer's tests/engine_equivalence.rs, inerf_mlp's mlp::tests) iterate it
pub fn available_backends() -> Vec<Backend> {
    [Backend::Scalar, Backend::Avx2]
        .into_iter()
        .filter(|b| b.is_available())
        .collect()
}

const BACKEND_UNSET: u8 = u8::MAX;
static ACTIVE: AtomicU8 = AtomicU8::new(BACKEND_UNSET);

/// Best backend the running CPU supports.
fn native_backend() -> Backend {
    if Backend::Avx2.is_available() {
        Backend::Avx2
    } else {
        Backend::Scalar
    }
}

/// Resolves a raw `INERF_SIMD` value to a backend.
///
/// Unknown values are a *hard error* naming the offending string — a typo
/// like `INERF_SIMD=sclar` must not silently run a benchmark on the wrong
/// path. A recognized-but-unavailable backend (`avx2` on an aarch64 host)
/// still clamps to `Scalar`: the request is meaningful, the CPU just
/// cannot honor it, and every backend is bitwise identical by contract.
fn try_resolve(raw: Option<&str>) -> Result<Backend, String> {
    let requested = match raw {
        None => return Ok(native_backend()),
        Some(s) => s.trim().to_ascii_lowercase(),
    };
    match requested.as_str() {
        "" | "native" | "auto" => Ok(native_backend()),
        "scalar" => Ok(Backend::Scalar),
        "avx2" => Ok(if Backend::Avx2.is_available() {
            Backend::Avx2
        } else {
            Backend::Scalar
        }),
        other => Err(format!(
            "INERF_SIMD={other:?} is not a recognized backend; \
             expected one of: scalar, avx2, native, auto"
        )),
    }
}

/// The active backend, resolving `INERF_SIMD` on first use and caching the
/// result for the life of the process (unless a test calls
/// [`force_backend`]).
///
/// # Panics
///
/// Panics if `INERF_SIMD` is set to an unrecognized or non-Unicode value
/// (see `try_resolve`) — configuration typos fail loudly at startup.
pub fn backend() -> Backend {
    let raw = ACTIVE.load(Ordering::Relaxed);
    if raw != BACKEND_UNSET {
        return Backend::from_raw(raw);
    }
    let var = match std::env::var("INERF_SIMD") {
        Ok(v) => Some(v),
        Err(std::env::VarError::NotPresent) => None,
        Err(std::env::VarError::NotUnicode(v)) => {
            panic!("INERF_SIMD={v:?} is not valid Unicode")
        }
    };
    let resolved = match try_resolve(var.as_deref()) {
        Ok(b) => b,
        Err(msg) => panic!("{msg}"),
    };
    ACTIVE.store(resolved as u8, Ordering::Relaxed);
    resolved
}

/// Overrides the active backend (test hook for backend-sweep suites) and
/// returns the previously active one so callers can restore it.
///
/// The request is clamped to what the CPU supports: forcing an unavailable
/// backend selects `Scalar`. Callers that sweep backends should serialize
/// on a lock; a race is still *safe* (all backends are bitwise identical by
/// contract), it just muddies which backend a concurrent kernel used.
// inerf-lint: allow(pub-reach) -- test support: other crates' backend sweeps (inerf_trainer's tests/engine_equivalence.rs, inerf_mlp's mlp::tests) select each backend through it
pub fn force_backend(requested: Backend) -> Backend {
    let previous = backend();
    let clamped = if requested.is_available() {
        requested
    } else {
        Backend::Scalar
    };
    ACTIVE.store(clamped as u8, Ordering::Relaxed);
    previous
}

/// Runs `kernel` inside the active backend's `#[target_feature]` frame.
///
/// The closure is monomorphized per call site, and once LLVM inlines it
/// into the frame its lane loops compile with the frame's feature set —
/// this is how the portable `f32x8` lane loops become AVX2 code on a
/// build whose baseline target lacks those features. That inlining is not
/// automatic: the closure is called from two arms here (frame and scalar
/// fallback), so a large one gets no single-call-site bonus and is left
/// out of line, compiled for the baseline target. Pass hot kernels as
/// `vectorize(#[inline(always)] || { .. })`. The frame enables only the
/// lane-width feature (never `fma`), preserving the two-rounding `madd`
/// contract documented on [`f32x8`].
#[inline]
pub fn vectorize<R>(kernel: impl FnOnce() -> R) -> R {
    match backend() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: Backend::Avx2 is only ever stored into ACTIVE after
        // `is_x86_feature_detected!("avx2")` confirmed support (see
        // `Backend::is_available`, which both `try_resolve` and
        // `force_backend` clamp through), so the AVX2 frame cannot execute
        // on a CPU without AVX2.
        Backend::Avx2 => unsafe { frame_avx2(kernel) },
        _ => kernel(),
    }
}

/// AVX2 dispatch frame. Calling this on a CPU without AVX2 is undefined
/// behaviour, which is why it is `unsafe` and only reachable through
/// [`vectorize`]'s detection-guarded match arm.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
// SAFETY: `unsafe fn` by the target_feature contract — the caller must
// guarantee AVX2 support, which `vectorize` does via runtime detection.
unsafe fn frame_avx2<R>(kernel: impl FnOnce() -> R) -> R {
    kernel()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Serializes tests that mutate the process-global backend choice.
    pub(crate) static BACKEND_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn resolve_env_values() {
        assert_eq!(try_resolve(Some("scalar")), Ok(Backend::Scalar));
        assert_eq!(try_resolve(Some("SCALAR ")), Ok(Backend::Scalar));
        assert_eq!(try_resolve(None), Ok(native_backend()));
        assert_eq!(try_resolve(Some("native")), Ok(native_backend()));
        assert_eq!(try_resolve(Some("auto")), Ok(native_backend()));
        assert_eq!(try_resolve(Some("")), Ok(native_backend()));
        // Unavailable explicit requests clamp to scalar.
        if !Backend::Avx2.is_available() {
            assert_eq!(try_resolve(Some("avx2")), Ok(Backend::Scalar));
        }
    }

    #[test]
    fn unknown_env_values_are_hard_errors_naming_the_value() {
        for bad in ["avx512", "wide", "sclar", "simd on", "neon"] {
            let err = try_resolve(Some(bad)).unwrap_err();
            assert!(
                err.contains("INERF_SIMD") && err.contains(bad.trim()),
                "error must name the variable and the offending value: {err}"
            );
        }
    }

    #[test]
    fn available_backends_starts_with_scalar() {
        let avail = available_backends();
        assert_eq!(avail[0], Backend::Scalar);
        for b in &avail {
            assert!(b.is_available());
        }
    }

    #[test]
    fn force_backend_round_trips_and_clamps() {
        let _guard = BACKEND_LOCK.lock().unwrap();
        let original = backend();
        for requested in [Backend::Scalar, Backend::Avx2] {
            force_backend(requested);
            let active = backend();
            if requested.is_available() {
                assert_eq!(active, requested);
            } else {
                assert_eq!(active, Backend::Scalar);
            }
        }
        force_backend(original);
        assert_eq!(backend(), original);
    }

    #[test]
    fn vectorize_runs_kernel_on_every_backend() {
        let _guard = BACKEND_LOCK.lock().unwrap();
        let original = backend();
        let reference: f32 = (0..64).map(|i| (i as f32).sin()).sum();
        for b in available_backends() {
            force_backend(b);
            let got = vectorize(|| (0..64).map(|i| (i as f32).sin()).sum::<f32>());
            assert_eq!(got.to_bits(), reference.to_bits(), "backend {:?}", b);
        }
        force_backend(original);
    }
}
