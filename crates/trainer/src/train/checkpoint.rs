//! Complete-training-state capture and bit-identical resume.
//!
//! A snapshot taken at an iteration boundary (after flushing lazily
//! deferred optimizer updates) captures *everything* the future
//! trajectory depends on:
//!
//! * the hash-grid [`ParamStore`] and all five MLP layer stores — f32
//!   masters plus, at fp16, the half-precision working copy (which
//!   doubles as an integrity cross-check and preserves the per-level
//!   table layout, so DRAM address mapping stays valid on load),
//! * the three Adam states: packed `{m, v, stamp}` records as bit
//!   patterns, the global step `t` (the lazy-replay epoch) and the mode
//!   flag,
//! * the trainer's RNG state (xoshiro256++ words), step counter,
//!   query counter, and the occupancy-grid state if enabled,
//! * a canonical encoding of `TrainConfig` + `ModelConfig` — the
//!   fingerprint a resume is validated against, so a mismatched resume
//!   is rejected with [`SnapshotError::ConfigMismatch`] instead of
//!   silently diverging.
//!
//! Deliberately *not* captured: gradient buffers (zeroed by
//! `begin_batch`), hash-grid touch stamps (behaviourally fresh after
//! the pre-snapshot sync leaves every Adam stamp equal to `t`), and the
//! engine scratch arenas (rebuilt on first use). The thread count is
//! also excluded — training results are thread-count independent by
//! construction, so a snapshot may be resumed at any parallelism.
//!
//! The file keeps fields for values the build fixes: the features per
//! hash-grid entry ([`HashGridConfig::FEATURES`]) and Adam's `β₁`, `β₂`
//! and `ε` ([`inerf_mlp::adam::BETA1`] and its siblings). They are written
//! as those constants, and a file that stores any other value is refused
//! as [`SnapshotError::Corrupt`].
//!
//! The resume-equivalence suite pins the headline property: train-2N
//! straight is *bitwise* identical (losses, master and working parameter
//! bits, DRAM request statistics) to train-N → snapshot → drop →
//! resume → train-N, across both engines, both precisions, both
//! optimizer paths, at 1/2/8 threads.

use super::{Engine, OccupancyState, TrainConfig, TrainReport, Trainer};
use crate::model::{IngpModel, ModelConfig, OptPath, TrainableField};
use crate::occupancy::OccupancyGrid;
use inerf_encoding::{HashFunction, HashGridConfig};
use inerf_mlp::adam::{BETA1, BETA2, EPSILON};
use inerf_mlp::fp16::f32_to_f16_bits;
use inerf_mlp::{AdamState, AdamStateSnapshot, Mlp, ParamStore, Precision};
use inerf_scenes::Dataset;
use inerf_snapshot::codec::{
    put_column, put_f32, put_f32_slice, put_u32, put_u64, put_u64_slice, put_u8, Reader,
};
use inerf_snapshot::{load_latest, write_snapshot, Snapshot, SnapshotError, SnapshotIo, StdIo};
use rand::rngs::SmallRng;

/// Section tags of the trainer snapshot (all ≤ 8 bytes).
mod tag {
    pub const CONFIG: &str = "config";
    pub const TRAINER: &str = "trainer";
    pub const OCCUPANC: &str = "occ";
    pub const GRID: &str = "grid";
    pub const MLP_DENSITY: &str = "mlpd";
    pub const MLP_COLOR: &str = "mlpc";
    pub const ADAM_GRID: &str = "adamgrid";
    pub const ADAM_DENSITY: &str = "adamden";
    pub const ADAM_COLOR: &str = "adamcol";
}

/// Sanity cap on a restored occupancy resolution: `res³` bits must not
/// overflow, and anything past this is corrupt data, not a real grid.
const MAX_OCC_RESOLUTION: u32 = 1 << 12;

/// A section buffer allocated once at its exact size `len`.
fn section(len: usize, fill: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut out = Vec::with_capacity(len);
    fill(&mut out);
    debug_assert_eq!(out.len(), len, "section size mispredicted");
    out
}

// ---------------------------------------------------------------------
// Enum tags: explicit, stable bytes — `as u8` on `#[derive]`d enums
// would silently renumber if a variant were ever inserted.

fn engine_tag(e: Engine) -> u8 {
    match e {
        Engine::Scalar => 0,
        Engine::Batched => 1,
    }
}

fn engine_from(t: u8) -> Result<Engine, SnapshotError> {
    match t {
        0 => Ok(Engine::Scalar),
        1 => Ok(Engine::Batched),
        _ => Err(SnapshotError::Corrupt(format!("unknown engine tag {t}"))),
    }
}

fn precision_tag(p: Precision) -> u8 {
    match p {
        Precision::F32 => 0,
        Precision::Fp16 => 1,
    }
}

fn precision_from(t: u8) -> Result<Precision, SnapshotError> {
    match t {
        0 => Ok(Precision::F32),
        1 => Ok(Precision::Fp16),
        _ => Err(SnapshotError::Corrupt(format!("unknown precision tag {t}"))),
    }
}

fn opt_tag(o: OptPath) -> u8 {
    match o {
        OptPath::Sparse => 0,
        OptPath::Dense => 1,
    }
}

fn opt_from(t: u8) -> Result<OptPath, SnapshotError> {
    match t {
        0 => Ok(OptPath::Sparse),
        1 => Ok(OptPath::Dense),
        _ => Err(SnapshotError::Corrupt(format!(
            "unknown optimizer-path tag {t}"
        ))),
    }
}

fn hash_tag(h: HashFunction) -> u8 {
    match h {
        HashFunction::Original => 0,
        HashFunction::Morton => 1,
    }
}

fn hash_from(t: u8) -> Result<HashFunction, SnapshotError> {
    match t {
        0 => Ok(HashFunction::Original),
        1 => Ok(HashFunction::Morton),
        _ => Err(SnapshotError::Corrupt(format!(
            "unknown hash-function tag {t}"
        ))),
    }
}

/// Checks a stored value that this build fixes: a file holding any other
/// describes a model or optimizer the build cannot construct.
fn fixed<T: PartialEq + std::fmt::Debug>(
    what: &str,
    stored: T,
    want: T,
) -> Result<(), SnapshotError> {
    if stored == want {
        Ok(())
    } else {
        Err(SnapshotError::Corrupt(format!(
            "{what} is {stored:?}; this build fixes it at {want:?}"
        )))
    }
}

// ---------------------------------------------------------------------
// Config fingerprint.

/// Canonical bytes of the full (train, model) configuration pair.
pub fn encode_configs(train: &TrainConfig, model: &ModelConfig) -> Vec<u8> {
    section(72, |out| {
        put_u64(out, train.rays_per_batch as u64);
        put_u64(out, train.samples_per_ray as u64);
        put_u64(out, train.eval_samples_per_ray as u64);
        put_u8(out, engine_tag(train.engine));
        put_u8(out, precision_tag(train.precision));
        put_u8(out, opt_tag(train.opt));
        put_u32(out, model.grid.levels);
        put_u32(out, model.grid.table_size_log2);
        put_u32(out, HashGridConfig::FEATURES);
        put_u32(out, model.grid.n_min);
        put_u32(out, model.grid.n_max);
        put_u8(out, hash_tag(model.grid.hash));
        put_u64(out, model.density_hidden as u64);
        put_u64(out, model.density_out as u64);
        put_u64(out, model.color_hidden as u64);
    })
}

/// Decodes [`encode_configs`] output.
pub fn decode_configs(bytes: &[u8]) -> Result<(TrainConfig, ModelConfig), SnapshotError> {
    let mut r = Reader::new(bytes);
    let train = TrainConfig {
        rays_per_batch: r.u64()? as usize,
        samples_per_ray: r.u64()? as usize,
        eval_samples_per_ray: r.u64()? as usize,
        engine: engine_from(r.u8()?)?,
        precision: precision_from(r.u8()?)?,
        opt: opt_from(r.u8()?)?,
    };
    let levels = r.u32()?;
    let table_size_log2 = r.u32()?;
    fixed("hash-grid features", r.u32()?, HashGridConfig::FEATURES)?;
    let model = ModelConfig {
        grid: HashGridConfig {
            levels,
            table_size_log2,
            n_min: r.u32()?,
            n_max: r.u32()?,
            hash: hash_from(r.u8()?)?,
        },
        density_hidden: r.u64()? as usize,
        density_out: r.u64()? as usize,
        color_hidden: r.u64()? as usize,
    };
    r.finish()?;
    Ok((train, model))
}

// ---------------------------------------------------------------------
// ParamStore payloads.

/// Encodes a [`ParamStore`]: precision tag, f32 master bits, and (at
/// fp16) the half-precision working copy. The fp16 payload is exact —
/// working values are fp16-representable, so `f32→f16 bits` loses
/// nothing — and doubles as an integrity cross-check on load.
pub fn encode_param_store(out: &mut Vec<u8>, store: &ParamStore) {
    put_u8(out, precision_tag(store.precision()));
    put_f32_slice(out, store.master());
    if store.precision() == Precision::Fp16 {
        let half = store.values().iter().map(|&v| f32_to_f16_bits(v));
        put_column(out, half, u16::to_le_bytes);
    }
}

/// Bytes [`encode_param_store`] writes for `store`.
fn param_store_bytes(store: &ParamStore) -> usize {
    let half = usize::from(store.precision() == Precision::Fp16) * (8 + 2 * store.len());
    1 + 8 + 4 * store.len() + half
}

/// Decodes [`encode_param_store`] output from `r`, validating the
/// precision, the length, and (at fp16) that the stored working copy
/// matches re-quantization of the masters bit for bit.
pub fn decode_param_store(
    r: &mut Reader<'_>,
    expected_len: usize,
    expected_precision: Precision,
) -> Result<ParamStore, SnapshotError> {
    let precision = precision_from(r.u8()?)?;
    if precision != expected_precision {
        return Err(SnapshotError::Corrupt(format!(
            "parameter store precision {} does not match configured {}",
            precision.label(),
            expected_precision.label()
        )));
    }
    let master = r.f32_vec()?;
    if master.len() != expected_len {
        return Err(SnapshotError::Corrupt(format!(
            "parameter store length {} does not match model layout {expected_len}",
            master.len()
        )));
    }
    let store = ParamStore::new(precision, master);
    if precision == Precision::Fp16 {
        let half = r.u16_vec()?;
        let recomputed: Vec<u16> = store.values().iter().map(|&v| f32_to_f16_bits(v)).collect();
        if half != recomputed {
            return Err(SnapshotError::Corrupt(
                "fp16 working copy does not match re-quantized masters".to_string(),
            ));
        }
    }
    Ok(store)
}

fn encode_mlp(mlp: &Mlp) -> Vec<u8> {
    let stores = || mlp.layers().iter().flat_map(|l| [l.weights(), l.bias()]);
    section(4 + stores().map(param_store_bytes).sum::<usize>(), |out| {
        put_u32(out, mlp.layers().len() as u32);
        stores().for_each(|store| encode_param_store(out, store));
    })
}

fn restore_mlp(mlp: &mut Mlp, bytes: &[u8], precision: Precision) -> Result<(), SnapshotError> {
    let mut r = Reader::new(bytes);
    let count = r.u32()? as usize;
    if count != mlp.layers().len() {
        return Err(SnapshotError::Corrupt(format!(
            "MLP layer count {count} does not match model layout {}",
            mlp.layers().len()
        )));
    }
    for layer in mlp.layers_mut() {
        let w_len = layer.weights().len();
        let b_len = layer.bias().len();
        *layer.weights_mut() = decode_param_store(&mut r, w_len, precision)?;
        *layer.bias_mut() = decode_param_store(&mut r, b_len, precision)?;
    }
    r.finish()
}

// ---------------------------------------------------------------------
// Adam payloads.

/// Writes the `m`, `v` and stamp columns straight from the live records.
fn encode_adam(adam: &AdamState) -> Vec<u8> {
    section(25 + 3 * (8 + 4 * adam.records().len()), |out| {
        put_f32(out, adam.learning_rate);
        put_f32(out, BETA1);
        put_f32(out, BETA2);
        put_f32(out, EPSILON);
        put_u64(out, adam.steps());
        put_u8(out, u8::from(adam.is_lazy()));
        for column in 0..3 {
            put_column(out, adam.records().map(|r| r[column]), u32::to_le_bytes);
        }
    })
}

fn decode_adam(bytes: &[u8], expected_n: usize) -> Result<AdamState, SnapshotError> {
    let mut r = Reader::new(bytes);
    let learning_rate = r.f32()?;
    fixed("Adam beta1", r.f32()?, BETA1)?;
    fixed("Adam beta2", r.f32()?, BETA2)?;
    fixed("Adam epsilon", r.f32()?, EPSILON)?;
    let t = r.u64()?;
    let lazy = match r.u8()? {
        0 => false,
        1 => true,
        other => {
            return Err(SnapshotError::Corrupt(format!(
                "unknown adam mode tag {other}"
            )))
        }
    };
    let m_bits = r.u32_vec()?;
    let v_bits = r.u32_vec()?;
    let step_stamps = r.u32_vec()?;
    r.finish()?;
    if m_bits.len() != expected_n || v_bits.len() != expected_n || step_stamps.len() != expected_n {
        return Err(SnapshotError::Corrupt(format!(
            "adam record count {}/{}/{} does not match model layout {expected_n}",
            m_bits.len(),
            v_bits.len(),
            step_stamps.len()
        )));
    }
    Ok(AdamState::from_snapshot(&AdamStateSnapshot {
        m_bits,
        v_bits,
        step_stamps,
        t,
        lazy,
        learning_rate,
    }))
}

// ---------------------------------------------------------------------
// Trainer integration.

impl Trainer<IngpModel> {
    /// Captures the complete training state as an in-memory snapshot.
    ///
    /// Flushes lazily deferred optimizer updates first (trajectory-
    /// neutral — the same sync every render/eval already performs), so
    /// the captured state needs no touch-stamp bookkeeping: after the
    /// sync every Adam stamp equals the global step.
    pub fn capture_snapshot(&mut self) -> Snapshot {
        self.model.sync_parameters();
        let mut snap = Snapshot::new();
        snap.push(
            tag::CONFIG,
            encode_configs(&self.config, self.model.config()),
        );

        let trainer_bytes = section(48, |out| {
            let words = [self.steps, self.points_queried].into_iter();
            words.chain(self.rng.state()).for_each(|w| put_u64(out, w));
        });
        snap.push(tag::TRAINER, trainer_bytes);

        let occ_bytes = match &self.occupancy {
            None => vec![0],
            Some(occ) => section(33 + 8 * occ.grid.words().len(), |out| {
                put_u8(out, 1);
                put_u32(out, occ.grid.resolution());
                put_f32(out, occ.threshold);
                put_u64(out, occ.refresh_every as u64);
                put_u64(out, occ.iteration as u64);
                put_u64_slice(out, occ.grid.words());
            }),
        };
        snap.push(tag::OCCUPANC, occ_bytes);

        let grid = self.model.grid().parameter_store();
        snap.push(
            tag::GRID,
            section(param_store_bytes(grid), |out| encode_param_store(out, grid)),
        );
        snap.push(tag::MLP_DENSITY, encode_mlp(self.model.density_mlp()));
        snap.push(tag::MLP_COLOR, encode_mlp(self.model.color_mlp()));

        let [grid_adam, density_adam, color_adam] = self.model.adam_states();
        snap.push(tag::ADAM_GRID, encode_adam(grid_adam));
        snap.push(tag::ADAM_DENSITY, encode_adam(density_adam));
        snap.push(tag::ADAM_COLOR, encode_adam(color_adam));
        snap
    }

    /// Writes a checkpoint of the current state through `io` using the
    /// atomic protocol, pruning to `keep_last` snapshots. Returns the
    /// step the checkpoint is named after.
    pub fn save_checkpoint_to(
        &mut self,
        io: &mut dyn SnapshotIo,
        keep_last: usize,
    ) -> Result<u64, SnapshotError> {
        let snap = self.capture_snapshot();
        write_snapshot(io, self.steps, &snap, keep_last)?;
        Ok(self.steps)
    }

    /// [`Trainer::train`] with periodic crash-safe checkpoints: every
    /// `every_n` completed iterations a snapshot is written atomically
    /// under `dir`, keeping the newest `keep_last` (see `inerf_snapshot`
    /// for the protocol). Both counts are taken as at least 1.
    pub fn train_checkpointed(
        &mut self,
        dataset: &Dataset,
        iterations: usize,
        dir: impl Into<std::path::PathBuf>,
        every_n: usize,
        keep_last: usize,
    ) -> Result<TrainReport, SnapshotError> {
        let mut io = StdIo::new(dir);
        let (every_n, keep_last) = (every_n.max(1) as u64, keep_last.max(1));
        let mut losses = Vec::with_capacity(iterations);
        for _ in 0..iterations {
            losses.push(self.train_step(dataset));
            if self.steps.is_multiple_of(every_n) {
                self.save_checkpoint_to(&mut io, keep_last)?;
            }
        }
        Ok(TrainReport {
            iterations,
            first_loss: losses.first().copied().unwrap_or(0.0),
            last_loss: losses.last().copied().unwrap_or(0.0),
            losses,
        })
    }

    /// Resumes from the newest loadable checkpoint under `dir`.
    ///
    /// `config` must match the snapshot's stored configuration exactly;
    /// a mismatch is a typed [`SnapshotError::ConfigMismatch`], because
    /// continuing under different hyper-parameters would silently
    /// diverge from the trajectory the checkpoint promises. The thread
    /// count is *not* part of the fingerprint — chain
    /// [`Trainer::with_threads`] freely after resuming.
    pub fn resume_from(
        dir: impl Into<std::path::PathBuf>,
        config: TrainConfig,
    ) -> Result<Self, SnapshotError> {
        Self::resume_from_io(&StdIo::new(dir.into()), config)
    }

    /// [`Trainer::resume_from`] over any [`SnapshotIo`] backend.
    pub fn resume_from_io(io: &dyn SnapshotIo, config: TrainConfig) -> Result<Self, SnapshotError> {
        let (_, snap) = load_latest(io)?;
        Self::restore_snapshot(&snap, config)
    }

    /// Rebuilds a trainer from a decoded snapshot, bit-exactly.
    pub fn restore_snapshot(snap: &Snapshot, config: TrainConfig) -> Result<Self, SnapshotError> {
        let (stored_train, model_config) = decode_configs(snap.section(tag::CONFIG)?)?;
        if stored_train != config {
            return Err(SnapshotError::ConfigMismatch(format!(
                "snapshot was trained with {stored_train:?}, resume requested {config:?}"
            )));
        }

        // Rebuild the model skeleton (layout, scratch, touch tracking,
        // lazy mode) from the stored config, then overwrite every
        // parameter and optimizer record with the snapshot bits.
        let mut model = IngpModel::with_options(model_config, 0, config.precision, config.opt);

        let grid_len = model.grid().parameter_store().len();
        let mut grid_reader = Reader::new(snap.section(tag::GRID)?);
        let grid_store = decode_param_store(&mut grid_reader, grid_len, config.precision)?;
        grid_reader.finish()?;
        *model.grid_mut().parameter_store_mut() = grid_store;

        {
            let (density, color) = model.mlps_mut();
            restore_mlp(density, snap.section(tag::MLP_DENSITY)?, config.precision)?;
            restore_mlp(color, snap.section(tag::MLP_COLOR)?, config.precision)?;
        }

        let expected_ns = [
            grid_len,
            model.density_mlp().parameter_count(),
            model.color_mlp().parameter_count(),
        ];
        let sections = [tag::ADAM_GRID, tag::ADAM_DENSITY, tag::ADAM_COLOR];
        let adams = model.adam_states_mut();
        for ((adam, section), expected_n) in adams.into_iter().zip(sections).zip(expected_ns) {
            *adam = decode_adam(snap.section(section)?, expected_n)?;
        }

        let mut r = Reader::new(snap.section(tag::TRAINER)?);
        let steps = r.u64()?;
        let points_queried = r.u64()?;
        let rng_state = [r.u64()?, r.u64()?, r.u64()?, r.u64()?];
        r.finish()?;

        let mut occ_reader = Reader::new(snap.section(tag::OCCUPANC)?);
        let occupancy = match occ_reader.u8()? {
            0 => None,
            1 => {
                let resolution = occ_reader.u32()?;
                if resolution == 0 || resolution > MAX_OCC_RESOLUTION {
                    return Err(SnapshotError::Corrupt(format!(
                        "implausible occupancy resolution {resolution}"
                    )));
                }
                let threshold = occ_reader.f32()?;
                let refresh_every = occ_reader.u64()? as usize;
                let iteration = occ_reader.u64()? as usize;
                let words = occ_reader.u64_vec()?;
                let expected_words = (resolution as usize).pow(3).div_ceil(64);
                if words.len() != expected_words {
                    return Err(SnapshotError::Corrupt(format!(
                        "occupancy word count {} does not match resolution {resolution}",
                        words.len()
                    )));
                }
                Some(OccupancyState {
                    grid: OccupancyGrid::from_words(resolution, words),
                    threshold,
                    refresh_every: refresh_every.max(1),
                    iteration,
                })
            }
            other => {
                return Err(SnapshotError::Corrupt(format!(
                    "unknown occupancy flag {other}"
                )))
            }
        };
        occ_reader.finish()?;

        let mut trainer = Trainer::new(model, config, 0);
        trainer.rng = SmallRng::from_state(rng_state);
        trainer.steps = steps;
        trainer.points_queried = points_queried;
        trainer.occupancy = occupancy;
        Ok(trainer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_fingerprint_round_trips() {
        let train = TrainConfig::tiny()
            .with_engine(Engine::Batched)
            .with_precision(Precision::Fp16)
            .with_opt(OptPath::Dense);
        let model = ModelConfig::tiny();
        let bytes = encode_configs(&train, &model);
        let (t2, m2) = decode_configs(&bytes).unwrap();
        assert_eq!(t2, train);
        assert_eq!(m2, model);
    }

    #[test]
    fn config_section_with_a_streaming_order_byte_is_refused() {
        // Older snapshots carried a one-byte streaming-order tag after
        // `samples_per_ray`: their 73-byte section must fail typed.
        let bytes = encode_configs(&TrainConfig::tiny(), &ModelConfig::tiny());
        assert_eq!(bytes.len(), 72);
        for order_tag in [0u8, 1] {
            let mut old = bytes.clone();
            old.insert(16, order_tag);
            assert!(matches!(
                decode_configs(&old),
                Err(SnapshotError::Corrupt(_))
            ));
        }
    }

    #[test]
    fn param_store_decode_rejects_layout_mismatches() {
        let store = ParamStore::new(Precision::Fp16, vec![0.1, -0.2, 0.3]);
        let mut bytes = Vec::new();
        encode_param_store(&mut bytes, &store);
        // Wrong expected length.
        let mut r = Reader::new(&bytes);
        assert!(matches!(
            decode_param_store(&mut r, 4, Precision::Fp16),
            Err(SnapshotError::Corrupt(_))
        ));
        // Wrong expected precision.
        let mut r = Reader::new(&bytes);
        assert!(matches!(
            decode_param_store(&mut r, 3, Precision::F32),
            Err(SnapshotError::Corrupt(_))
        ));
        // Matching expectations round-trip bit-exactly.
        let mut r = Reader::new(&bytes);
        let restored = decode_param_store(&mut r, 3, Precision::Fp16).unwrap();
        r.finish().unwrap();
        assert_eq!(restored, store);
    }

    #[test]
    fn adam_decode_rejects_wrong_counts_and_mode() {
        let adam = AdamState::new(4, 0.01);
        let bytes = encode_adam(&adam);
        assert!(matches!(
            decode_adam(&bytes, 5),
            Err(SnapshotError::Corrupt(_))
        ));
        let restored = decode_adam(&bytes, 4).unwrap();
        assert_eq!(restored, adam);
        // A mode byte that is neither 0 nor 1 is corruption.
        let mut bad = bytes.clone();
        bad[24] = 7; // lr,b1,b2,eps (16) + t (8) → mode byte at offset 24
        assert!(matches!(
            decode_adam(&bad, 4),
            Err(SnapshotError::Corrupt(_))
        ));
    }
}
