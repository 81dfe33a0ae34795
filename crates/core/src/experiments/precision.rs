//! The `precision` experiment: the mixed-precision sweep the `ParamStore`
//! refactor opens up.
//!
//! Trains the Tab. II "small" workload twice — parameters stored as f32
//! and as fp16 (f32 master weights, RNE commits) — with the NMP memory
//! system co-simulated online at the matching entry width, and compares:
//!
//! * **quality** — final loss and held-out PSNR (the fp16 run must stay
//!   within a fraction of a dB of f32);
//! * **storage** — modeled hash-table and total parameter bytes (exactly
//!   half at fp16);
//! * **DRAM traffic** — embedding payload bytes per iteration (exactly
//!   half: the lookup stream is identical, each entry is half as wide),
//!   row-granularity requests, row hits/misses and energy from the
//!   cycle-level replay (better than half-proportional improvements,
//!   because narrower entries also pack more of a cube into one row);
//! * **modeled time** — the pipelined iteration estimate.
//!
//! The sampled point stream depends only on the trainer's rng, so both
//! precisions stream byte-identical cube events; every hardware-side
//! difference is purely the storage width.

use crate::report;
use inerf_accel::{CosimSink, PipelineModel};
use inerf_encoding::{CountingSink, EntryLayout, HashFunction};
use inerf_scenes::{zoo, Dataset, DatasetConfig};
use inerf_trainer::{IngpModel, ModelConfig, Precision, TrainConfig, Trainer};
use serde::Serialize;

/// One precision's measurements.
#[derive(Debug, Clone, Serialize)]
pub struct PrecisionPath {
    /// Storage precision label ("f32" or "fp16").
    pub precision: String,
    /// Modeled bytes per hash-table entry (`F` features).
    pub entry_bytes: u32,
    /// Modeled bytes of the stored hash table.
    pub table_bytes: usize,
    /// Modeled bytes of all stored parameters (table + MLPs).
    pub param_bytes: usize,
    /// Loss after the final iteration.
    pub final_loss: f64,
    /// Held-out PSNR after training, in dB.
    pub psnr_db: f64,
    /// Embedding payload bytes the lookup stream demands over the run
    /// (cubes × 8 vertices × entry width — scales exactly with precision).
    pub request_payload_bytes: u64,
    /// Row-granularity DRAM requests issued by the HT + HT_b replays.
    pub dram_requests: u64,
    /// Row-buffer hits in the HT replay.
    pub ht_row_hits: u64,
    /// Row-buffer misses (activations) in the HT replay.
    pub ht_row_misses: u64,
    /// Simulated DRAM energy over the run, picojoules.
    pub sim_dram_energy_pj: f64,
    /// Simulated pipelined seconds over the run.
    pub sim_pipelined_seconds: f64,
    /// Mean simulated pipelined seconds per iteration.
    pub sim_seconds_per_iteration: f64,
}

/// The full precision-sweep result.
#[derive(Debug, Clone, Serialize)]
pub struct PrecisionResult {
    /// Training iterations per precision.
    pub iterations: usize,
    /// Nominal sampled points per iteration.
    pub points_per_iteration: usize,
    /// The f32 baseline (bit-identical to the pre-`ParamStore` trainer).
    pub full: PrecisionPath,
    /// The fp16 run (paper-faithful storage).
    pub half: PrecisionPath,
    /// `full.psnr_db - half.psnr_db` (positive = fp16 lost quality).
    pub psnr_gap_db: f64,
}

fn workload() -> (Dataset, TrainConfig, ModelConfig) {
    let scene = zoo::scene(zoo::SceneKind::Lego);
    let dataset = DatasetConfig::tiny().generate(&scene);
    (
        dataset,
        TrainConfig::small(),
        ModelConfig::small(HashFunction::Morton),
    )
}

fn run_path(
    dataset: &Dataset,
    config: TrainConfig,
    model_cfg: ModelConfig,
    iterations: usize,
    seed: u64,
) -> PrecisionPath {
    let precision = config.precision;
    let batch_points = config.points_per_iteration() as u64;
    let pipeline = PipelineModel::paper(model_cfg).with_precision(precision);
    let entry_bytes = model_cfg.grid.entry_bytes(precision);
    let layout = EntryLayout::new(entry_bytes);
    let model = IngpModel::for_config(model_cfg, &config, seed ^ 0xA1);
    let table_bytes = model.grid().storage_bytes();
    let param_bytes = model.parameter_storage_bytes();
    let mut trainer = Trainer::new(model, config, seed);
    let mut sink = (
        CosimSink::new(pipeline, batch_points),
        CountingSink::default(),
    );
    let report = trainer.train_with_sink(dataset, iterations, &mut sink);
    let (cosim, counter) = sink;
    let stats = cosim.stats();
    PrecisionPath {
        precision: precision.label().to_string(),
        entry_bytes,
        table_bytes,
        param_bytes,
        final_loss: report.last_loss,
        psnr_db: trainer.eval_psnr(dataset),
        request_payload_bytes: counter.cubes * layout.cube_payload_bytes() as u64,
        dram_requests: stats.dram_requests,
        ht_row_hits: stats.ht_row_hits,
        ht_row_misses: stats.ht_row_misses,
        sim_dram_energy_pj: stats.dram_energy_pj,
        sim_pipelined_seconds: stats.pipelined_seconds,
        sim_seconds_per_iteration: stats.seconds_per_iteration(),
    }
}

/// Runs the sweep: `iterations` training steps of the Tab. II small
/// workload at f32 and at fp16 storage, same seeds, same sampled points.
pub fn run(iterations: usize, seed: u64) -> PrecisionResult {
    let (dataset, config, model_cfg) = workload();
    let full = run_path(
        &dataset,
        config.with_precision(Precision::F32),
        model_cfg,
        iterations,
        seed,
    );
    let half = run_path(
        &dataset,
        config.with_precision(Precision::Fp16),
        model_cfg,
        iterations,
        seed,
    );
    PrecisionResult {
        iterations,
        points_per_iteration: config.points_per_iteration(),
        psnr_gap_db: full.psnr_db - half.psnr_db,
        full,
        half,
    }
}

/// Pretty-prints the sweep.
pub fn render(r: &PrecisionResult) -> String {
    let mut out = format!(
        "Precision sweep: f32 vs fp16 parameter storage ({} iterations)\n",
        r.iterations
    );
    let row = |p: &PrecisionPath| {
        vec![
            p.precision.clone(),
            p.entry_bytes.to_string(),
            format!("{:.2}", p.table_bytes as f64 / (1024.0 * 1024.0)),
            report::f(p.psnr_db, 2),
            (p.request_payload_bytes / r.iterations as u64).to_string(),
            (p.dram_requests / r.iterations as u64).to_string(),
            report::f(p.sim_seconds_per_iteration * 1e3, 3),
            report::f(p.sim_dram_energy_pj * 1e-9, 3),
        ]
    };
    out.push_str(&report::table(
        &[
            "store",
            "entry B",
            "table MB",
            "PSNR dB",
            "payload B/iter",
            "DRAM req/iter",
            "sim ms/iter",
            "energy mJ",
        ],
        &[row(&r.full), row(&r.half)],
    ));
    out.push_str(&format!(
        "PSNR gap (f32 - fp16): {:.3} dB | table bytes halved: {} | payload halved: {}\n",
        r.psnr_gap_db,
        2 * r.half.table_bytes == r.full.table_bytes,
        2 * r.half.request_payload_bytes == r.full.request_payload_bytes,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fp16_halves_modeled_storage_and_payload() {
        let r = run(3, 9);
        assert_eq!(r.full.entry_bytes, 8);
        assert_eq!(r.half.entry_bytes, 4);
        assert_eq!(2 * r.half.table_bytes, r.full.table_bytes);
        assert_eq!(2 * r.half.param_bytes, r.full.param_bytes);
        // Same cube stream, half the payload per entry.
        assert_eq!(
            2 * r.half.request_payload_bytes,
            r.full.request_payload_bytes
        );
        // Row-granularity effects go the right way: wider entries touch
        // more rows, cost more requests and more energy.
        assert!(r.half.dram_requests < r.full.dram_requests);
        assert!(r.half.ht_row_misses <= r.full.ht_row_misses);
        assert!(r.half.sim_dram_energy_pj < r.full.sim_dram_energy_pj);
        assert!(r.half.sim_pipelined_seconds <= r.full.sim_pipelined_seconds);
    }

    #[test]
    fn fp16_training_stays_within_half_db_of_f32() {
        // The acceptance bound: on the Tab. II small workload, fp16
        // storage with f32 master weights must track f32 training to
        // within 0.5 dB of held-out PSNR.
        let r = run(40, 7);
        assert!(
            r.full.psnr_db > 10.0,
            "f32 run should have trained ({:.2} dB)",
            r.full.psnr_db
        );
        assert!(
            r.psnr_gap_db.abs() < 0.5,
            "fp16 PSNR {:.2} dB vs f32 {:.2} dB: gap {:.3} dB exceeds 0.5",
            r.half.psnr_db,
            r.full.psnr_db,
            r.psnr_gap_db
        );
    }

    #[test]
    fn render_reports_both_precisions() {
        let r = run(2, 3);
        let s = render(&r);
        assert!(s.contains("f32") && s.contains("fp16"));
        assert!(s.contains("table bytes halved: true"));
        assert!(s.contains("payload halved: true"));
    }
}
