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
//!   patterns and the global step `t` (the lazy-replay epoch),
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
//! Sections hold state only; the config section is the one description
//! of the layout. A restore builds the model that section describes and
//! takes from it every store's length and precision, the optimizer mode
//! and the learning rate. Every other section must then be exactly as
//! long as the writer declares it for that model (the same `*_bytes`
//! functions size both), and a section of any other length is refused as
//! [`SnapshotError::Corrupt`] naming the section. Values the build fixes —
//! the features per hash-grid entry, Adam's `β₁`, `β₂` and `ε` — are not
//! stored at all. The payloads, all little-endian:
//!
//! * `config` (67 bytes): see [`encode_configs`];
//! * `trainer` (48 bytes): steps, points queried, the four RNG words;
//! * `occ`: a flag byte; with a grid, then its resolution, threshold,
//!   refresh period, iteration and `⌈res³ / 64⌉` cell-bit words;
//! * `grid`, `mlpd`, `mlpc`: each store's f32 master bits, followed at
//!   fp16 by its half working copy; an MLP's stores in layer order, the
//!   weights before the bias;
//! * `adamgrid`, `adamden`, `adamcol`: `t`, then one 12-byte `{m, v,
//!   stamp}` record per parameter.
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
const CONFIG_BYTES: usize = 67;

/// Bytes of the trainer section: steps, points queried, four RNG words.
const TRAINER_BYTES: usize = 48;

/// Bytes of one Adam record: `m` and `v` bit patterns, then the stamp.
const ADAM_RECORD_BYTES: usize = 12;

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

/// Reads [`encode_configs`] output.
fn decode_configs(r: &mut Reader<'_>) -> Result<(TrainConfig, ModelConfig), SnapshotError> {
    let train = TrainConfig {
        rays_per_batch: r.u64()? as usize,
        samples_per_ray: r.u64()? as usize,
        eval_samples_per_ray: r.u64()? as usize,
        precision: precision_from(r.u8()?)?,
        opt: opt_from(r.u8()?)?,
    };
    let model = ModelConfig {
        grid: HashGridConfig {
            levels: r.u32()?,
            table_size_log2: r.u32()?,
            n_min: r.u32()?,
            n_max: r.u32()?,
            hash: hash_from(r.u8()?)?,
        },
        density_hidden: r.u64()? as usize,
        density_out: r.u64()? as usize,
        color_hidden: r.u64()? as usize,
    };
    Ok((train, model))
}

// ---------------------------------------------------------------------
// Payload layouts: one `*_bytes` function per section sizes both the
// writer's `Section` and the length a restore demands.

/// Writes a [`ParamStore`]: its f32 master bits, then (at fp16) the
/// half-precision working copy. The fp16 payload is exact — working
/// values are fp16-representable, so `f32→f16 bits` loses nothing — and
/// doubles as an integrity cross-check on load.
fn encode_param_store<S: Sink>(out: &mut S, store: &ParamStore) {
    out.put_elems(store.master().iter().map(|v| v.to_bits()), u32::to_le_bytes);
    if store.precision() == Precision::Fp16 {
        let half = store.values().iter().map(|&v| f32_to_f16_bits(v));
        out.put_elems(half, u16::to_le_bytes);
    }
}

/// Bytes [`encode_param_store`] writes for `store`.
fn param_store_bytes(store: &ParamStore) -> usize {
    let half = if store.precision() == Precision::Fp16 {
        2
    } else {
        0
    };
    (4 + half) * store.len()
}

/// Reads [`encode_param_store`] output from `r` straight into `store`,
/// whose length and precision the payload takes, checking (at fp16) that
/// the stored working copy matches re-quantization of the masters bit
/// for bit. On an error `store` holds no usable state.
fn restore_param_store(r: &mut Reader<'_>, store: &mut ParamStore) -> Result<(), SnapshotError> {
    let master = r.elems(store.len())?;
    store.update(|dst| {
        for (d, le) in dst.iter_mut().zip(master) {
            *d = f32::from_bits(u32::from_le_bytes(le));
        }
    });
    if store.precision() == Precision::Fp16 {
        let half = r.elems(store.len())?.map(u16::from_le_bytes);
        if !half.eq(store.values().iter().map(|&v| f32_to_f16_bits(v))) {
            return Err(SnapshotError::Corrupt(
                "fp16 working copy does not match re-quantized masters".to_string(),
            ));
        }
    }
    Ok(())
}

/// An MLP's stores in layer order, each layer's weights before its bias.
fn mlp_stores(mlp: &Mlp) -> impl Iterator<Item = &ParamStore> {
    mlp.layers().iter().flat_map(|l| [l.weights(), l.bias()])
}

fn mlp_bytes(mlp: &Mlp) -> usize {
    mlp_stores(mlp).map(param_store_bytes).sum()
}

fn mlp_section<'a>(tag: &str, mlp: &'a Mlp) -> Section<'a> {
    Section::new(tag, mlp_bytes(mlp), move |out| {
        mlp_stores(mlp).for_each(|store| encode_param_store(out, store));
    })
}

fn restore_mlp(r: &mut Reader<'_>, mlp: &mut Mlp) -> Result<(), SnapshotError> {
    for layer in mlp.layers_mut() {
        restore_param_store(r, layer.weights_mut())?;
        restore_param_store(r, layer.bias_mut())?;
    }
    Ok(())
}

/// Writes the step, then the `[m, v, stamp]` records in memory order,
/// straight from the live state.
fn encode_adam<S: Sink>(out: &mut S, adam: &AdamState) {
    out.put_u64(adam.steps());
    out.put_elems(adam.records(), |record| {
        let mut le = [0u8; ADAM_RECORD_BYTES];
        for (dst, word) in le.chunks_exact_mut(4).zip(record) {
            dst.copy_from_slice(&word.to_le_bytes());
        }
        le
    });
}

fn adam_bytes(adam: &AdamState) -> usize {
    8 + ADAM_RECORD_BYTES * adam.records().len()
}

fn adam_section<'a>(tag: &str, adam: &'a AdamState) -> Section<'a> {
    Section::new(tag, adam_bytes(adam), move |out| encode_adam(out, adam))
}

/// Reads [`encode_adam`] output straight into `adam`, whose parameter
/// count the payload takes; the mode and learning rate stay `adam`'s.
fn restore_adam(r: &mut Reader<'_>, adam: &mut AdamState) -> Result<(), SnapshotError> {
    let t = r.u64()?;
    let records = r.elems::<ADAM_RECORD_BYTES>(adam.records().len())?;
    let words = records.map(|le| {
        std::array::from_fn(|i| {
            u32::from_le_bytes([le[4 * i], le[4 * i + 1], le[4 * i + 2], le[4 * i + 3]])
        })
    });
    adam.restore(words, t);
    Ok(())
}

/// Cell-bit words of an occupancy grid of `resolution` cells per axis.
fn occupancy_words(resolution: u32) -> usize {
    (resolution as usize).pow(3).div_ceil(64)
}

/// Bytes of the occupancy section: the flag, and for a grid of
/// `resolution` cells per axis its four scalars and cell-bit words.
fn occupancy_bytes(resolution: Option<u32>) -> usize {
    resolution.map_or(1, |res| 25 + 8 * occupancy_words(res))
}

/// Decodes the occupancy section, whose length its stored resolution
/// fixes.
fn restore_occupancy(bytes: &[u8]) -> Result<Option<OccupancyState>, SnapshotError> {
    let mut r = Reader::new(bytes);
    let resolution = match r.u8()? {
        0 => None,
        1 => Some(r.u32()?),
        other => {
            return Err(SnapshotError::Corrupt(format!(
                "unknown occupancy flag {other}"
            )))
        }
    };
    if let Some(res) = resolution.filter(|&res| res == 0 || res > MAX_OCC_RESOLUTION) {
        return Err(SnapshotError::Corrupt(format!(
            "implausible occupancy resolution {res}"
        )));
    }
    expect_len(bytes.len(), occupancy_bytes(resolution))?;
    let Some(resolution) = resolution else {
        return Ok(None);
    };
    let threshold = r.f32()?;
    let refresh_every = r.u64()? as usize;
    let iteration = r.u64()? as usize;
    let words = r.elems(occupancy_words(resolution))?;
    Ok(Some(OccupancyState {
        grid: OccupancyGrid::from_words(resolution, words.map(u64::from_le_bytes).collect()),
        threshold,
        refresh_every: refresh_every.max(1),
        iteration,
    }))
}

/// Refuses a payload of `len` bytes where the layout declares `want`.
fn expect_len(len: usize, want: usize) -> Result<(), SnapshotError> {
    if len == want {
        Ok(())
    } else {
        Err(SnapshotError::Corrupt(format!(
            "{len} bytes where the configured layout declares {want}"
        )))
    }
}

/// Decodes section `tag` of `snap` with `decode`, once it has checked
/// that the section holds the `len` bytes the writer declares; a
/// `Corrupt` error names the section.
fn restore_section<'a, T>(
    snap: &'a Snapshot,
    tag: &str,
    len: usize,
    decode: impl FnOnce(&mut Reader<'a>) -> Result<T, SnapshotError>,
) -> Result<T, SnapshotError> {
    let bytes = snap.section(tag)?;
    let decoded = expect_len(bytes.len(), len).and_then(|()| decode(&mut Reader::new(bytes)));
    decoded.map_err(|err| in_section(tag, err))
}

/// `err`, if it is corruption, with the section it was found in.
fn in_section(tag: &str, err: SnapshotError) -> SnapshotError {
    match err {
        SnapshotError::Corrupt(msg) => SnapshotError::Corrupt(format!("section `{tag}`: {msg}")),
        other => other,
    }
}

// ---------------------------------------------------------------------
// Trainer integration.

impl Trainer<IngpModel> {
    /// The sections of the complete training state, each encoding
    /// straight from live memory when a writer pulls it. The model must
    /// be synced first.
    fn sections(&self) -> [Section<'_>; 9] {
        let model = &self.model;
        let resolution = self.occupancy.as_ref().map(|occ| occ.grid.resolution());
        let occupancy = Section::new(tag::OCCUPANC, occupancy_bytes(resolution), move |out| {
            let Some(occ) = &self.occupancy else {
                return out.put_u8(0);
            };
            out.put_u8(1);
            out.put_u32(occ.grid.resolution());
            out.put_f32(occ.threshold);
            out.put_u64(occ.refresh_every as u64);
            out.put_u64(occ.iteration as u64);
            out.put_elems(occ.grid.words().iter().copied(), u64::to_le_bytes);
        });
        let grid = model.grid().parameter_store();
        let [grid_adam, density_adam, color_adam] = model.adam_states();
        [
            Section::new(tag::CONFIG, CONFIG_BYTES, move |out| {
                put_configs(out, &self.config, model.config());
            }),
            Section::new(tag::TRAINER, TRAINER_BYTES, move |out| {
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
        let (stored_train, model_config) =
            restore_section(snap, tag::CONFIG, CONFIG_BYTES, decode_configs)?;
        if stored_train != config {
            return Err(SnapshotError::ConfigMismatch(format!(
                "snapshot was trained with {stored_train:?}, resume requested {config:?}"
            )));
        }

        // Rebuild the model skeleton (layout, scratch, touch tracking,
        // lazy mode, learning rates) from the stored config, then
        // overwrite every parameter and optimizer record with the
        // snapshot bits, each section sized by that skeleton.
        let mut model = IngpModel::for_config(model_config, &config, 0);

        let grid = model.grid_mut().parameter_store_mut();
        restore_section(snap, tag::GRID, param_store_bytes(grid), |r| {
            restore_param_store(r, grid)
        })?;
        let (density, color) = model.mlps_mut();
        for (section, mlp) in [(tag::MLP_DENSITY, density), (tag::MLP_COLOR, color)] {
            restore_section(snap, section, mlp_bytes(mlp), |r| restore_mlp(r, mlp))?;
        }
        let sections = [tag::ADAM_GRID, tag::ADAM_DENSITY, tag::ADAM_COLOR];
        for (adam, section) in model.adam_states_mut().into_iter().zip(sections) {
            restore_section(snap, section, adam_bytes(adam), |r| restore_adam(r, adam))?;
        }

        let [steps, points_queried, rng @ ..] =
            restore_section(snap, tag::TRAINER, TRAINER_BYTES, |r| {
                let mut words = [0u64; TRAINER_BYTES / 8];
                for w in &mut words {
                    *w = r.u64()?;
                }
                Ok(words)
            })?;
        let occupancy = restore_occupancy(snap.section(tag::OCCUPANC)?)
            .map_err(|err| in_section(tag::OCCUPANC, err))?;

        let mut trainer = Trainer::new(model, config, 0);
        trainer.rng = SmallRng::from_state(rng);
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
        assert_eq!(bytes.len(), CONFIG_BYTES);
        let mut r = Reader::new(&bytes);
        let (t2, m2) = decode_configs(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(t2, train);
        assert_eq!(m2, model);
    }

    /// `payload` as section `tag` of a one-section snapshot.
    fn one_section(tag: &str, payload: Vec<u8>) -> Snapshot {
        let mut snap = Snapshot::new();
        snap.push(tag, payload);
        snap
    }

    fn is_corrupt_in(res: Result<(), SnapshotError>, tag: &str) -> bool {
        matches!(res, Err(SnapshotError::Corrupt(msg)) if msg.contains(&format!("`{tag}`")))
    }

    /// Restores `old` as the config section, as a resume does.
    fn restore_config(old: Vec<u8>) -> Result<(), SnapshotError> {
        let snap = one_section(tag::CONFIG, old);
        restore_section(&snap, tag::CONFIG, CONFIG_BYTES, decode_configs).map(drop)
    }

    #[test]
    fn config_section_with_a_streaming_order_byte_is_refused() {
        // Older snapshots carried a one-byte streaming-order tag after
        // `samples_per_ray`: a section with it must fail typed.
        let bytes = encode_configs(&TrainConfig::tiny(), &ModelConfig::tiny());
        for order_tag in [0u8, 1] {
            let mut old = bytes.clone();
            old.insert(16, order_tag);
            assert!(is_corrupt_in(restore_config(old), tag::CONFIG));
        }
    }

    #[test]
    fn config_section_with_an_engine_byte_is_refused() {
        // Older snapshots carried a one-byte engine tag after
        // `eval_samples_per_ray`: a section with it must fail typed, not
        // be read with the engine byte as the precision.
        let bytes = encode_configs(&TrainConfig::tiny(), &ModelConfig::tiny());
        for engine_tag in [0u8, 1] {
            let mut old = bytes.clone();
            old.insert(24, engine_tag);
            assert!(is_corrupt_in(restore_config(old), tag::CONFIG));
        }
    }

    #[test]
    fn param_store_decode_rejects_layout_mismatches() {
        let store = ParamStore::new(Precision::Fp16, vec![0.1, -0.2, 0.3]);
        let mut bytes = Vec::new();
        encode_param_store(&mut bytes, &store);
        assert_eq!(bytes.len(), param_store_bytes(&store));
        let restore = |bytes: &[u8], target: &mut ParamStore| {
            let snap = one_section(tag::GRID, bytes.to_vec());
            let len = param_store_bytes(target);
            restore_section(&snap, tag::GRID, len, |r| restore_param_store(r, target))
        };
        // A store of another length or precision declares another layout.
        let mut longer = ParamStore::new(Precision::Fp16, vec![0.0; 4]);
        assert!(is_corrupt_in(restore(&bytes, &mut longer), tag::GRID));
        let mut single = ParamStore::new(Precision::F32, vec![0.0; 3]);
        assert!(is_corrupt_in(restore(&bytes, &mut single), tag::GRID));
        // A working copy that is not the re-quantized masters is corrupt.
        let mut flipped = bytes.clone();
        flipped[12] ^= 1;
        let mut target = ParamStore::new(Precision::Fp16, vec![0.0; 3]);
        assert!(is_corrupt_in(restore(&flipped, &mut target), tag::GRID));
        // Matching expectations round-trip bit-exactly.
        restore(&bytes, &mut target).unwrap();
        assert_eq!(target, store);
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
        let restore = |target: &mut AdamState| {
            let snap = one_section(tag::ADAM_GRID, bytes.clone());
            let len = adam_bytes(target);
            restore_section(&snap, tag::ADAM_GRID, len, |r| restore_adam(r, target))
        };
        assert!(is_corrupt_in(
            restore(&mut AdamState::new(5, 0.01)),
            tag::ADAM_GRID
        ));
        assert!(is_corrupt_in(
            restore(&mut AdamState::new(3, 0.01)),
            tag::ADAM_GRID
        ));
        let mut restored = AdamState::new(4, 0.01);
        restored.enable_lazy();
        restore(&mut restored).unwrap();
        assert_eq!(restored, adam);
        // The mode and the learning rate are the target's, not the file's.
        let mut dense = AdamState::new(4, 0.5);
        restore(&mut dense).unwrap();
        assert!(!dense.is_lazy());
        assert_eq!(dense.learning_rate, 0.5);
        assert!(dense.records().eq(adam.records()));
    }
}
