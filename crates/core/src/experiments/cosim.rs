//! The `cosim` experiment: train a Tab. II workload while the NMP memory
//! system is simulated *online*, iteration by iteration, through the
//! streaming trace bus — the full-training-run co-simulation the offline
//! trace-replay architecture could not afford.
//!
//! Two paths run the same training trajectory (same seeds):
//!
//! * **streamed** — the trainer's sink slot holds an
//!   [`inerf_accel::CosimSink`]; every iteration's hash-table access
//!   stream is mapped to DRAM requests and replayed through the
//!   cycle-level simulator as training executes, at constant trace memory.
//! * **buffered** — the reference: every iteration's trace is materialized
//!   (memory grows with run length), then replayed offline, each through
//!   a fresh [`PipelineModel::iteration_sink`] — which also checks the
//!   reused online sink's in-place resets.
//!
//! The two must agree bit-for-bit on the simulated quantities; the
//! experiment records both peak trace-memory footprints, which is the
//! refactor's measurable payoff. (The host cost of simulating online is
//! `inerf-bench`'s `accel.cosim_overhead_ratio`.)

use crate::report;
use inerf_accel::{CosimSink, CosimStats, PipelineModel};
use inerf_encoding::{BatchBufferSink, HashFunction};
use inerf_scenes::{zoo, Dataset, DatasetConfig};
use inerf_trainer::{IngpModel, ModelConfig, TrainConfig, Trainer};
use serde::Serialize;

/// One path's measurements (streamed or buffered).
#[derive(Debug, Clone, Serialize)]
pub struct CosimPath {
    /// Peak bytes of trace state: the sink's constant co-simulation state
    /// (streamed) or the accumulated materialized traces (buffered).
    pub peak_trace_bytes: usize,
    /// Accumulated simulated pipelined seconds over the run.
    pub sim_pipelined_seconds: f64,
    /// Accumulated simulated serial (unpipelined) seconds.
    pub sim_serial_seconds: f64,
    /// Accumulated simulated DRAM energy, picojoules.
    pub sim_dram_energy_pj: f64,
    /// Iterations that contributed simulated stats.
    pub sim_iterations: u64,
}

/// The full `cosim` experiment result.
#[derive(Debug, Clone, Serialize)]
pub struct CosimResult {
    /// Training iterations executed.
    pub iterations: usize,
    /// Nominal sampled points per iteration (Tab. II batch unit).
    pub points_per_iteration: usize,
    /// The online co-simulation path.
    pub streamed: CosimPath,
    /// The materialized-trace reference path.
    pub buffered: CosimPath,
    /// Whether the two paths' simulated stats agree bit-for-bit.
    pub stats_match: bool,
    /// The streamed run's full accumulated statistics.
    pub cosim: CosimStats,
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

/// Runs the co-simulation experiment: `iterations` training steps of the
/// Tab. II "small" workload, once with online co-simulation and once
/// against the buffered reference.
pub fn run(iterations: usize, seed: u64) -> CosimResult {
    let (dataset, config, model_cfg) = workload();
    let batch_points = config.points_per_iteration() as u64;
    let pipeline = PipelineModel::paper(model_cfg);

    // --- Streamed: the memory system simulated while training runs. ---
    let mut cosim = CosimSink::new(pipeline.clone(), batch_points);
    let mut trainer = Trainer::new(IngpModel::new(model_cfg, seed ^ 0xA1), config, seed);
    trainer.train_with_sink(&dataset, iterations, &mut cosim);
    let streamed_points = trainer.points_queried();
    let stats = cosim.stats().clone();
    let streamed = CosimPath {
        peak_trace_bytes: stats.peak_state_bytes,
        sim_pipelined_seconds: stats.pipelined_seconds,
        sim_serial_seconds: stats.serial_seconds,
        sim_dram_energy_pj: stats.dram_energy_pj,
        sim_iterations: stats.iterations,
    };

    // --- Buffered reference: identical trajectory, materialized traces,
    // offline replay. ---
    let mut buffer = BatchBufferSink::new();
    let mut trainer = Trainer::new(IngpModel::new(model_cfg, seed ^ 0xA1), config, seed);
    trainer.train_with_sink(&dataset, iterations, &mut buffer);
    let buffered_points = trainer.points_queried();
    let peak_trace_bytes = buffer.heap_bytes();
    let mut sim_pipelined = 0.0f64;
    let mut sim_serial = 0.0f64;
    let mut sim_energy = 0.0f64;
    let mut sim_iterations = 0u64;
    for trace in buffer.batches() {
        if trace.point_count() == 0 {
            continue; // matches the online path skipping empty iterations
        }
        let mut sink = pipeline.iteration_sink();
        trace.replay(&mut sink);
        let est = pipeline.estimate_streamed(&mut sink, batch_points);
        sim_pipelined += est.pipelined_seconds;
        sim_serial += est.serial_seconds;
        sim_energy += est.dram_energy_pj;
        sim_iterations += 1;
    }
    let buffered = CosimPath {
        peak_trace_bytes,
        sim_pipelined_seconds: sim_pipelined,
        sim_serial_seconds: sim_serial,
        sim_dram_energy_pj: sim_energy,
        sim_iterations,
    };

    let stats_match = streamed.sim_iterations == buffered.sim_iterations
        && streamed.sim_pipelined_seconds == buffered.sim_pipelined_seconds
        && streamed.sim_serial_seconds == buffered.sim_serial_seconds
        && streamed.sim_dram_energy_pj == buffered.sim_dram_energy_pj
        && streamed_points == buffered_points;

    CosimResult {
        iterations,
        points_per_iteration: config.points_per_iteration(),
        streamed,
        buffered,
        stats_match,
        cosim: stats,
    }
}

/// Pretty-prints the experiment.
pub fn render(r: &CosimResult) -> String {
    let mut out = format!(
        "Cosim: online NMP co-simulation of a full training run ({} iterations)\n",
        r.iterations
    );
    let rows = vec![
        vec![
            "streamed".to_string(),
            r.streamed.peak_trace_bytes.to_string(),
            report::f(r.streamed.sim_pipelined_seconds * 1e3, 3),
            report::f(r.streamed.sim_dram_energy_pj * 1e-9, 3),
        ],
        vec![
            "buffered".to_string(),
            r.buffered.peak_trace_bytes.to_string(),
            report::f(r.buffered.sim_pipelined_seconds * 1e3, 3),
            report::f(r.buffered.sim_dram_energy_pj * 1e-9, 3),
        ],
    ];
    out.push_str(&report::table(
        &[
            "path",
            "peak trace bytes",
            "sim time (ms)",
            "DRAM energy (mJ)",
        ],
        &rows,
    ));
    out.push_str(&format!(
        "stats bit-identical: {}\n",
        if r.stats_match { "yes" } else { "NO" }
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streamed_and_buffered_stats_are_bit_identical() {
        let r = run(3, 9);
        assert!(r.stats_match, "online co-sim diverged from the reference");
        assert_eq!(r.streamed.sim_iterations, 3);
        assert!(r.streamed.sim_pipelined_seconds > 0.0);
    }

    #[test]
    fn streamed_path_uses_constant_small_state() {
        let r = run(4, 11);
        // The buffered path's footprint grows with run length; the
        // streamed path's stays a small constant.
        assert!(
            r.streamed.peak_trace_bytes * 4 < r.buffered.peak_trace_bytes,
            "streamed {} bytes vs buffered {} bytes",
            r.streamed.peak_trace_bytes,
            r.buffered.peak_trace_bytes
        );
    }

    #[test]
    fn render_reports_both_paths() {
        let r = run(2, 3);
        let s = render(&r);
        assert!(s.contains("streamed") && s.contains("buffered"));
        assert!(s.contains("bit-identical: yes"));
    }
}
