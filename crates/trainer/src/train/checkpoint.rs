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
//! resume → train-N, across both precisions, both optimizer paths, at
//! 1/2/8 threads. Checkpoints are an `IngpModel` trainer's: a model
//! trained per point ([`crate::model::PerPoint`]) has no checkpoint
//! path, and the step a model takes is not part of the fingerprint —
//! the trajectory no more depends on it than on the thread count.

use super::{OccupancyState, TrainConfig, TrainReport, Trainer};
use crate::model::{IngpModel, ModelConfig, OptPath, TrainableField};
use crate::occupancy::OccupancyGrid;
use inerf_encoding::{HashFunction, HashGridConfig};
use inerf_mlp::adam::{BETA1, BETA2, EPSILON};
use inerf_mlp::fp16::f32_to_f16_bits;
use inerf_mlp::{AdamState, Mlp, ParamStore, Precision};
use inerf_scenes::Dataset;
use inerf_snapshot::codec::{Reader, Sink};
use inerf_snapshot::{
    load_latest, write_sections, Section, Snapshot, SnapshotError, SnapshotIo, StdIo,
};
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

/// Bytes of the config section.
const CONFIG_BYTES: usize = 71;

// ---------------------------------------------------------------------
// Enum tags: explicit, stable bytes — `as u8` on `#[derive]`d enums
// would silently renumber if a variant were ever inserted.

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

/// Writes the canonical bytes of the full (train, model) configuration
/// pair.
fn put_configs<S: Sink>(out: &mut S, train: &TrainConfig, model: &ModelConfig) {
    out.put_u64(train.rays_per_batch as u64);
    out.put_u64(train.samples_per_ray as u64);
    out.put_u64(train.eval_samples_per_ray as u64);
    out.put_u8(precision_tag(train.precision));
    out.put_u8(opt_tag(train.opt));
    out.put_u32(model.grid.levels);
    out.put_u32(model.grid.table_size_log2);
    out.put_u32(HashGridConfig::FEATURES);
    out.put_u32(model.grid.n_min);
    out.put_u32(model.grid.n_max);
    out.put_u8(hash_tag(model.grid.hash));
    out.put_u64(model.density_hidden as u64);
    out.put_u64(model.density_out as u64);
    out.put_u64(model.color_hidden as u64);
}

/// Canonical bytes of the full (train, model) configuration pair.
pub fn encode_configs(train: &TrainConfig, model: &ModelConfig) -> Vec<u8> {
    let mut out = Vec::with_capacity(CONFIG_BYTES);
    put_configs(&mut out, train, model);
    out
}

/// Decodes [`encode_configs`] output.
pub fn decode_configs(bytes: &[u8]) -> Result<(TrainConfig, ModelConfig), SnapshotError> {
    let mut r = Reader::new(bytes);
    let train = TrainConfig {
        rays_per_batch: r.u64()? as usize,
        samples_per_ray: r.u64()? as usize,
        eval_samples_per_ray: r.u64()? as usize,
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
pub fn encode_param_store<S: Sink>(out: &mut S, store: &ParamStore) {
    out.put_u8(precision_tag(store.precision()));
    out.put_column(store.master().iter().map(|v| v.to_bits()), u32::to_le_bytes);
    if store.precision() == Precision::Fp16 {
        let half = store.values().iter().map(|&v| f32_to_f16_bits(v));
        out.put_column(half, u16::to_le_bytes);
    }
}

/// Bytes [`encode_param_store`] writes for `store`.
fn param_store_bytes(store: &ParamStore) -> usize {
    let half = usize::from(store.precision() == Precision::Fp16) * (8 + 2 * store.len());
    1 + 8 + 4 * store.len() + half
}

/// Decodes [`encode_param_store`] output from `r` into a fresh store of
/// `expected_len` scalars at `expected_precision`, validating the
/// precision, the length, and (at fp16) that the stored working copy
/// matches re-quantization of the masters bit for bit.
pub fn decode_param_store(
    r: &mut Reader<'_>,
    expected_len: usize,
    expected_precision: Precision,
) -> Result<ParamStore, SnapshotError> {
    let mut store = ParamStore::new(expected_precision, vec![0.0; expected_len]);
    restore_param_store(r, &mut store)?;
    Ok(store)
}

/// Decodes [`encode_param_store`] output from `r` straight into `store`,
/// validating the precision and the length against the store's, and (at
/// fp16) that the stored working copy matches re-quantization of the
/// masters bit for bit. On an error `store` holds no usable state.
fn restore_param_store(r: &mut Reader<'_>, store: &mut ParamStore) -> Result<(), SnapshotError> {
    let precision = precision_from(r.u8()?)?;
    if precision != store.precision() {
        return Err(SnapshotError::Corrupt(format!(
            "parameter store precision {} does not match configured {}",
            precision.label(),
            store.precision().label()
        )));
    }
    let master = r.column()?;
    if master.len() != store.len() {
        return Err(SnapshotError::Corrupt(format!(
            "parameter store length {} does not match model layout {}",
            master.len(),
            store.len()
        )));
    }
    store.update(|dst| {
        for (d, le) in dst.iter_mut().zip(master) {
            *d = f32::from_bits(u32::from_le_bytes(le));
        }
    });
    if precision == Precision::Fp16 {
        let half = r.column()?;
        let requantized = store.values().iter().map(|&v| f32_to_f16_bits(v));
        if half.len() != store.len() || !half.map(u16::from_le_bytes).eq(requantized) {
            return Err(SnapshotError::Corrupt(
                "fp16 working copy does not match re-quantized masters".to_string(),
            ));
        }
    }
    Ok(())
}

/// The section of one MLP: its layer count, then each layer's weight
/// and bias stores.
fn mlp_section<'a>(tag: &str, mlp: &'a Mlp) -> Section<'a> {
    let stores = || mlp.layers().iter().flat_map(|l| [l.weights(), l.bias()]);
    let len = 4 + stores().map(param_store_bytes).sum::<usize>();
    Section::new(tag, len, move |out| {
        out.put_u32(mlp.layers().len() as u32);
        stores().for_each(|store| encode_param_store(out, store));
    })
}

fn restore_mlp(mlp: &mut Mlp, bytes: &[u8]) -> Result<(), SnapshotError> {
    let mut r = Reader::new(bytes);
    let count = r.u32()? as usize;
    if count != mlp.layers().len() {
        return Err(SnapshotError::Corrupt(format!(
            "MLP layer count {count} does not match model layout {}",
            mlp.layers().len()
        )));
    }
    for layer in mlp.layers_mut() {
        restore_param_store(&mut r, layer.weights_mut())?;
        restore_param_store(&mut r, layer.bias_mut())?;
    }
    r.finish()
}

// ---------------------------------------------------------------------
// Adam payloads.

/// Bytes of one Adam record: `m` and `v` bit patterns, then the stamp.
const ADAM_RECORD_BYTES: usize = 12;

/// Writes the hyper-parameters, the step and the mode, then the
/// `[m, v, stamp]` records in memory order, straight from the live state.
fn encode_adam<S: Sink>(out: &mut S, adam: &AdamState) {
    out.put_f32(adam.learning_rate);
    out.put_f32(BETA1);
    out.put_f32(BETA2);
    out.put_f32(EPSILON);
    out.put_u64(adam.steps());
    out.put_u8(u8::from(adam.is_lazy()));
    out.put_column(adam.records(), |record| {
        let mut le = [0u8; ADAM_RECORD_BYTES];
        for (dst, word) in le.chunks_exact_mut(4).zip(record) {
            dst.copy_from_slice(&word.to_le_bytes());
        }
        le
    });
}

fn adam_section<'a>(tag: &str, adam: &'a AdamState) -> Section<'a> {
    // lr, β₁, β₂, ε (16), t (8), mode (1), record count (8), records.
    let len = 33 + ADAM_RECORD_BYTES * adam.records().len();
    Section::new(tag, len, move |out| encode_adam(out, adam))
}

/// Decodes [`encode_adam`] output straight into `adam`, whose parameter
/// count the records must match.
fn restore_adam(adam: &mut AdamState, bytes: &[u8]) -> Result<(), SnapshotError> {
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
    let records = r.column::<ADAM_RECORD_BYTES>()?;
    r.finish()?;
    let expected_n = adam.records().len();
    if records.len() != expected_n {
        return Err(SnapshotError::Corrupt(format!(
            "adam record count {} does not match model layout {expected_n}",
            records.len()
        )));
    }
    let words = records.map(|le| {
        std::array::from_fn(|i| {
            u32::from_le_bytes([le[4 * i], le[4 * i + 1], le[4 * i + 2], le[4 * i + 3]])
        })
    });
    adam.restore(words, t, lazy, learning_rate);
    Ok(())
}

// ---------------------------------------------------------------------
// Trainer integration.

impl Trainer<IngpModel> {
    /// The sections of the complete training state, each encoding
    /// straight from live memory when a writer pulls it. The model must
    /// be synced first.
    fn sections(&self) -> [Section<'_>; 9] {
        let model = &self.model;
        let occupancy = match &self.occupancy {
            None => Section::new(tag::OCCUPANC, 1, |out| out.put_u8(0)),
            Some(occ) => Section::new(tag::OCCUPANC, 33 + 8 * occ.grid.words().len(), move |out| {
                out.put_u8(1);
                out.put_u32(occ.grid.resolution());
                out.put_f32(occ.threshold);
                out.put_u64(occ.refresh_every as u64);
                out.put_u64(occ.iteration as u64);
                out.put_column(occ.grid.words().iter().copied(), u64::to_le_bytes);
            }),
        };
        let grid = model.grid().parameter_store();
        let [grid_adam, density_adam, color_adam] = model.adam_states();
        [
            Section::new(tag::CONFIG, CONFIG_BYTES, move |out| {
                put_configs(out, &self.config, model.config());
            }),
            Section::new(tag::TRAINER, 48, move |out| {
                let words = [self.steps, self.points_queried].into_iter();
                words.chain(self.rng.state()).for_each(|w| out.put_u64(w));
            }),
            occupancy,
            Section::new(tag::GRID, param_store_bytes(grid), move |out| {
                encode_param_store(out, grid);
            }),
            mlp_section(tag::MLP_DENSITY, model.density_mlp()),
            mlp_section(tag::MLP_COLOR, model.color_mlp()),
            adam_section(tag::ADAM_GRID, grid_adam),
            adam_section(tag::ADAM_DENSITY, density_adam),
            adam_section(tag::ADAM_COLOR, color_adam),
        ]
    }

    /// Captures the complete training state as an in-memory snapshot,
    /// through the same writer [`Trainer::save_checkpoint_to`] streams a
    /// file with: the bytes are the file's.
    ///
    /// Flushes lazily deferred optimizer updates first (trajectory-
    /// neutral — the same sync every render/eval already performs), so
    /// the captured state needs no touch-stamp bookkeeping: after the
    /// sync every Adam stamp equals the global step.
    pub fn capture_snapshot(&mut self) -> Snapshot {
        self.model.sync_parameters();
        Snapshot::from_sections(&self.sections())
    }

    /// Writes a checkpoint of the current state through `io` using the
    /// atomic protocol, pruning to `keep_last` snapshots. Returns the
    /// step the checkpoint is named after. Every section encodes from
    /// the live state straight into the pieces appended to the file, so
    /// the save reads the state once and writes the file once.
    pub fn save_checkpoint_to(
        &mut self,
        io: &mut dyn SnapshotIo,
        keep_last: usize,
    ) -> Result<u64, SnapshotError> {
        self.model.sync_parameters();
        write_sections(io, self.steps, &self.sections(), keep_last)?;
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
        let mut model = IngpModel::for_config(model_config, &config, 0);

        let mut grid_reader = Reader::new(snap.section(tag::GRID)?);
        restore_param_store(&mut grid_reader, model.grid_mut().parameter_store_mut())?;
        grid_reader.finish()?;

        {
            let (density, color) = model.mlps_mut();
            restore_mlp(density, snap.section(tag::MLP_DENSITY)?)?;
            restore_mlp(color, snap.section(tag::MLP_COLOR)?)?;
        }

        let sections = [tag::ADAM_GRID, tag::ADAM_DENSITY, tag::ADAM_COLOR];
        for (adam, section) in model.adam_states_mut().into_iter().zip(sections) {
            restore_adam(adam, snap.section(section)?)?;
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
        assert_eq!(bytes.len(), 71);
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
    fn config_section_with_an_engine_byte_is_refused() {
        // Older snapshots carried a one-byte engine tag after
        // `eval_samples_per_ray`: their 72-byte section must fail typed,
        // not be read with the engine byte as the precision.
        let bytes = encode_configs(&TrainConfig::tiny(), &ModelConfig::tiny());
        for engine_tag in [0u8, 1] {
            let mut old = bytes.clone();
            old.insert(24, engine_tag);
            assert_eq!(old.len(), 72);
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
    fn a_save_writes_the_bytes_of_a_captured_snapshot() {
        use inerf_scenes::{zoo, DatasetConfig};
        use inerf_snapshot::{snapshot_name, write_snapshot, MemIo};
        let ds = DatasetConfig::tiny().generate(&zoo::scene(zoo::SceneKind::Mic));
        // f32 without and fp16 with the occupancy grid: every section
        // kind, with and without its optional parts.
        for (precision, occupancy) in [(Precision::F32, false), (Precision::Fp16, true)] {
            let cfg = TrainConfig::tiny().with_precision(precision);
            let model = IngpModel::for_config(ModelConfig::tiny(), &cfg, 8);
            let mut trainer = Trainer::new(model, cfg, 3);
            if occupancy {
                trainer = trainer.with_occupancy_grid(8, 0.02, 2);
            }
            trainer.train(&ds, 3);
            let (mut saved, mut captured) = (MemIo::new(), MemIo::new());
            trainer.save_checkpoint_to(&mut saved, 1).unwrap();
            let snap = trainer.capture_snapshot();
            write_snapshot(&mut captured, trainer.global_step(), &snap, 1).unwrap();
            assert_eq!(saved.files(), captured.files());
            assert_eq!(snap.encode(), saved.files()[&snapshot_name(3)]);
            assert_eq!(snap.tags().len(), 9);
        }
    }

    #[test]
    fn adam_decode_rejects_wrong_counts_and_mode() {
        let mut adam = AdamState::new(4, 0.01);
        adam.enable_lazy();
        adam.step_sparse(
            &mut [0.5, -0.25, 1.0, 2.0],
            &[0.1, 0.0, -0.3, 0.0],
            &[0, 2],
            1.0,
        );
        let mut bytes = Vec::new();
        encode_adam(&mut bytes, &adam);
        assert!(matches!(
            restore_adam(&mut AdamState::new(5, 0.01), &bytes),
            Err(SnapshotError::Corrupt(_))
        ));
        let mut restored = AdamState::new(4, 0.5);
        restore_adam(&mut restored, &bytes).unwrap();
        assert_eq!(restored, adam);
        // A mode byte that is neither 0 nor 1 is corruption.
        let mut bad = bytes.clone();
        bad[24] = 7; // lr,b1,b2,eps (16) + t (8) → mode byte at offset 24
        assert!(matches!(
            restore_adam(&mut AdamState::new(4, 0.01), &bad),
            Err(SnapshotError::Corrupt(_))
        ));
    }
}
