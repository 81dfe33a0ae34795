//! Mixed-precision parameter storage.
//!
//! The paper's accelerator keeps hash-table entries and MLP weights in
//! half precision (32-bit vectors of two FP16 features, Sec. IV-A) while
//! accumulating in FP32. [`ParamStore`] makes that storage decision a
//! first-class parameter of the software model: every trainable parameter
//! group lives behind a store whose [`Precision`] selects the backend.
//!
//! * [`Precision::F32`] — a plain `f32` vector. Bit-identical to the
//!   pre-store code path; this is the equivalence anchor the refactor is
//!   tested against.
//! * [`Precision::Fp16`] — fp16 storage with f32 *master weights*. The
//!   optimizer updates the master copy (so sub-fp16-resolution updates
//!   accumulate instead of vanishing), and every [`ParamStore::commit`]
//!   re-quantizes the working copy with round-to-nearest-even through
//!   [`crate::fp16::f32_to_f16_bits`]. Compute kernels read the decoded
//!   working values, so the forward/backward math sees exactly what fp16
//!   hardware storage would deliver.
//!
//! The modeled storage footprint ([`ParamStore::storage_bytes`]) is what
//! the hardware would keep resident: 4 bytes per parameter for f32, 2 for
//! fp16 — the quantity the DRAM traffic and table-size models consume.

use crate::fp16::quantize_f16;

/// Storage precision of a trainable parameter group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Precision {
    /// Full single precision (4 bytes per parameter) — the software
    /// reference and the pre-refactor behavior.
    F32,
    /// IEEE 754 binary16 storage (2 bytes per parameter) with f32 master
    /// weights for the optimizer — the paper's hardware storage format.
    Fp16,
}

impl Precision {
    /// Modeled storage bytes per parameter scalar.
    #[inline]
    pub const fn bytes_per_param(self) -> usize {
        match self {
            Precision::F32 => 4,
            Precision::Fp16 => 2,
        }
    }

    /// Lower-case label for reports and JSON dumps.
    pub const fn label(self) -> &'static str {
        match self {
            Precision::F32 => "f32",
            Precision::Fp16 => "fp16",
        }
    }
}

/// A flat parameter vector stored at a chosen [`Precision`].
///
/// Compute reads [`ParamStore::values`]; the optimizer mutates
/// [`ParamStore::master_mut`] and then calls [`ParamStore::commit`] (or
/// uses [`ParamStore::update`], which pairs the two). For `F32` the master
/// *is* the working copy and `commit` is a no-op, so the f32 backend is
/// bit-identical to a plain `Vec<f32>`.
///
/// # Example
///
/// ```
/// use inerf_mlp::{ParamStore, Precision};
///
/// let mut store = ParamStore::new(Precision::Fp16, vec![0.1f32, -0.2]);
/// // Compute sees the quantized working copy...
/// assert_ne!(store.values()[0], 0.1);
/// // ...while the optimizer accumulates into exact f32 master weights.
/// store.update(|master| master[0] += 1e-5);
/// assert!((store.master()[0] - (0.1 + 1e-5)).abs() < 1e-9);
/// assert_eq!(store.storage_bytes(), 2 * 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ParamStore {
    precision: Precision,
    /// f32 master weights — what the optimizer updates.
    master: Vec<f32>,
    /// The fp16-rounded working values the compute kernels read — each
    /// element is exactly representable in binary16, so this *is* the
    /// stored table, decoded (empty for F32; [`ParamStore::values`]
    /// falls back to `master`).
    active: Vec<f32>,
}

impl ParamStore {
    /// Wraps `values` as the initial master weights, quantizing the
    /// working copy for fp16 stores.
    pub fn new(precision: Precision, values: Vec<f32>) -> Self {
        let mut store = ParamStore {
            precision,
            master: values,
            active: Vec::new(),
        };
        if precision == Precision::Fp16 {
            store.active = store.master.iter().map(|&v| quantize_f16(v)).collect();
        }
        store
    }

    /// An f32 store — the pre-refactor default backend.
    pub fn f32(values: Vec<f32>) -> Self {
        Self::new(Precision::F32, values)
    }

    /// The storage precision.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Number of parameter scalars.
    pub fn len(&self) -> usize {
        self.master.len()
    }

    /// Whether the store holds no parameters.
    pub fn is_empty(&self) -> bool {
        self.master.is_empty()
    }

    /// The working values compute kernels read: the master weights for
    /// f32, the decoded fp16 working copy otherwise.
    #[inline]
    pub fn values(&self) -> &[f32] {
        match self.precision {
            Precision::F32 => &self.master,
            Precision::Fp16 => &self.active,
        }
    }

    /// The f32 master weights (equal to [`ParamStore::values`] for f32).
    pub fn master(&self) -> &[f32] {
        &self.master
    }

    /// Mutable master weights for an optimizer sweep. Callers must invoke
    /// [`ParamStore::commit`] afterwards so fp16 stores re-quantize the
    /// working copy; prefer [`ParamStore::update`], which pairs the two.
    pub fn master_mut(&mut self) -> &mut [f32] {
        &mut self.master
    }

    /// Master weights plus the fp16 working copy (`None` for f32 stores),
    /// for fused update-and-commit loops that re-quantize each scalar
    /// while its cache line is still hot. Callers must uphold the store
    /// invariant themselves: every modified `master[i]` needs
    /// `active[i] = quantize_f16(master[i])` before the next read
    /// ([`ParamStore::commit`] restores it wholesale if in doubt).
    pub fn master_active_mut(&mut self) -> (&mut [f32], Option<&mut [f32]>) {
        match self.precision {
            Precision::F32 => (&mut self.master, None),
            Precision::Fp16 => (&mut self.master, Some(&mut self.active)),
        }
    }

    /// Re-quantizes the working copy from the master weights (RNE through
    /// the fp16 storage path). No-op for f32 stores.
    pub fn commit(&mut self) {
        if self.precision == Precision::Fp16 {
            for (a, &m) in self.active.iter_mut().zip(&self.master) {
                *a = quantize_f16(m);
            }
        }
    }

    /// Re-quantizes the working copy at just the listed scalar indices —
    /// the sparse-optimizer counterpart of [`ParamStore::commit`]. Sound
    /// whenever only those master weights changed since the last commit;
    /// the result is then bitwise-identical to a full `commit`. No-op for
    /// f32 stores.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn commit_indices(&mut self, indices: &[u32]) {
        if self.precision == Precision::Fp16 {
            for &i in indices {
                let i = i as usize;
                self.active[i] = quantize_f16(self.master[i]);
            }
        }
    }

    /// Applies `f` to the master weights, then commits.
    pub fn update(&mut self, f: impl FnOnce(&mut [f32])) {
        f(&mut self.master);
        self.commit();
    }

    /// Overwrites one master weight and commits it (test/tooling hook).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn set(&mut self, idx: usize, value: f32) {
        self.master[idx] = value;
        if self.precision == Precision::Fp16 {
            self.active[idx] = quantize_f16(value);
        }
    }

    /// Modeled storage footprint in bytes: what the hardware would keep
    /// resident for this parameter group at this precision.
    pub fn storage_bytes(&self) -> usize {
        self.master.len() * self.precision.bytes_per_param()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fp16::quantize_f16;

    #[test]
    fn precision_bytes_halve() {
        assert_eq!(Precision::F32.bytes_per_param(), 4);
        assert_eq!(Precision::Fp16.bytes_per_param(), 2);
        assert_eq!(Precision::F32.label(), "f32");
        assert_eq!(Precision::Fp16.label(), "fp16");
    }

    #[test]
    fn f32_store_is_transparent() {
        let vals = vec![0.1f32, -2.5, 1e-7, 12345.678];
        let mut store = ParamStore::f32(vals.clone());
        assert_eq!(store.values(), vals.as_slice());
        assert_eq!(store.master(), vals.as_slice());
        store.update(|m| m[0] = 9.0);
        assert_eq!(store.values()[0], 9.0);
        assert_eq!(store.storage_bytes(), 4 * 4);
    }

    #[test]
    fn fp16_store_quantizes_values_but_keeps_master_exact() {
        let vals = vec![0.1f32, -0.37, 7.625];
        let mut store = ParamStore::new(Precision::Fp16, vals.clone());
        for (i, &v) in vals.iter().enumerate() {
            assert_eq!(store.values()[i], quantize_f16(v), "value {i}");
            assert_eq!(store.master()[i], v, "master {i}");
        }
        // A sub-resolution master update survives even though the working
        // copy cannot represent it...
        let before = store.values()[0];
        store.update(|m| m[0] += 1e-8);
        assert_eq!(store.values()[0], before);
        assert!(store.master()[0] > vals[0]);
        // ...and accumulating enough of them eventually moves the value.
        for _ in 0..100_000 {
            store.update(|m| m[0] += 1e-8);
        }
        assert!(store.values()[0] > before);
    }

    #[test]
    fn storage_bytes_half_of_f32() {
        let vals: Vec<f32> = (0..1000).map(|i| i as f32 * 0.01).collect();
        let full = ParamStore::new(Precision::F32, vals.clone());
        let half = ParamStore::new(Precision::Fp16, vals);
        assert_eq!(full.storage_bytes(), 2 * half.storage_bytes());
    }

    #[test]
    fn set_commits_one_slot() {
        let mut store = ParamStore::new(Precision::Fp16, vec![0.0f32; 4]);
        store.set(2, 0.3);
        assert_eq!(store.values()[2], quantize_f16(0.3));
        assert_eq!(store.master()[2], 0.3);
        assert_eq!(store.values()[0], 0.0);
    }

    #[test]
    fn commit_indices_matches_full_commit() {
        let vals = vec![0.1f32, -0.37, 7.625, 1.0e-3];
        let mut sparse = ParamStore::new(Precision::Fp16, vals.clone());
        let mut full = ParamStore::new(Precision::Fp16, vals);
        let touch = |s: &mut ParamStore| {
            s.master_mut()[1] = 0.91;
            s.master_mut()[3] = -2.5e-4;
        };
        touch(&mut sparse);
        touch(&mut full);
        sparse.commit_indices(&[1, 3]);
        full.commit();
        assert_eq!(sparse.values(), full.values());
        // f32 stores: master is the working copy, nothing to do.
        let mut f32s = ParamStore::f32(vec![1.0, 2.0]);
        f32s.master_mut()[0] = 5.0;
        f32s.commit_indices(&[0]);
        assert_eq!(f32s.values(), &[5.0, 2.0]);
    }

    #[test]
    fn commit_is_idempotent() {
        let mut store = ParamStore::new(Precision::Fp16, vec![0.12345f32, -7.7]);
        let once = store.values().to_vec();
        store.commit();
        store.commit();
        assert_eq!(store.values(), once.as_slice());
    }
}
