//! Online algorithm/accelerator co-simulation.
//!
//! [`CosimSink`] closes the loop the paper's co-design argues for: it
//! plugs into the trainer's trace-bus slot, so while a training run
//! executes, every iteration's hash-table access stream is mapped to DRAM
//! requests and replayed through the cycle-level NMP memory simulator
//! *online* — no materialized [`inerf_encoding::LookupTrace`], no
//! run-length-proportional buffering. At each `end_batch` (one training
//! iteration) it produces the [`IterationEstimate`] a fresh
//! [`PipelineModel::iteration_sink`] fed the same iteration yields,
//! bit-identically, and folds it into running totals.

use crate::pipeline::{IterationEstimate, PipelineModel, SceneEstimate};
use inerf_dram::SimStats;
use inerf_encoding::trace::CubeLookup;
use inerf_encoding::TraceSink;
use serde::Serialize;

/// Running totals of an online co-simulated training run.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct CosimStats {
    /// Training iterations co-simulated (one per `end_batch`).
    pub iterations: u64,
    /// Total sample points streamed through the memory system.
    pub points: u64,
    /// Summed steady-state pipelined iteration time (seconds of simulated
    /// accelerator time for the whole run).
    pub pipelined_seconds: f64,
    /// Summed serial (unpipelined) iteration time — the ablation total.
    pub serial_seconds: f64,
    /// Summed DRAM energy over the run, picojoules.
    pub dram_energy_pj: f64,
    /// HT-replay row hits over the run (unscaled simulator counts).
    pub ht_row_hits: u64,
    /// HT-replay row misses over the run.
    pub ht_row_misses: u64,
    /// HT-replay bank conflicts over the run.
    pub ht_bank_conflicts: u64,
    /// DRAM requests issued by the HT and HT_b replays together.
    pub dram_requests: u64,
    /// Cubes streamed that the mapping cannot place: on a level it does not
    /// hold (a grid deeper than the mapped table), or with an entry at or
    /// past the mapped table's 2^19. They cause no DRAM request, so a non-zero
    /// count means the totals above under-report the run's traffic.
    pub dropped_cubes: u64,
    /// Peak heap bytes of the co-simulation state observed at any
    /// iteration boundary — the constant-memory claim, measured.
    pub peak_state_bytes: usize,
}

impl CosimStats {
    /// Mean pipelined seconds per iteration.
    pub fn seconds_per_iteration(&self) -> f64 {
        if self.iterations == 0 {
            0.0
        } else {
            self.pipelined_seconds / self.iterations as f64
        }
    }
}

/// The trainer-facing co-simulation sink: cube events in, per-iteration
/// NMP memory-system estimates out.
///
/// Stream order of operations per iteration: the trainer pushes every
/// sample point's cubes (`push_cube`/`end_point`), then signals
/// `end_batch`; the sink reads HT's statistics off the one replay of the
/// read sweep, streams the HT_b write-back drain into it, drains it,
/// computes the iteration estimate and accumulates it. Bank state and
/// request-generation registers are reset in place — the run's memory
/// footprint stays constant regardless of length.
#[derive(Debug, Clone)]
pub struct CosimSink {
    model: PipelineModel,
    inner: crate::pipeline::IterationSink,
    /// Points the estimate scales each iteration to (the workload's
    /// nominal batch size; streamed points are the trace sample).
    batch_points: u64,
    stats: CosimStats,
    last: Option<IterationEstimate>,
}

impl CosimSink {
    /// Creates a sink co-simulating `model`, scaling each iteration to
    /// `batch_points` sampled points.
    pub fn new(model: PipelineModel, batch_points: u64) -> Self {
        CosimSink {
            inner: model.iteration_sink(),
            model,
            batch_points,
            stats: CosimStats::default(),
            last: None,
        }
    }

    /// The accumulated run totals.
    pub fn stats(&self) -> &CosimStats {
        &self.stats
    }

    /// The most recent iteration's estimate, if any iteration completed.
    pub fn last_estimate(&self) -> Option<&IterationEstimate> {
        self.last.as_ref()
    }

    /// Scales the accumulated mean iteration to a full training run of
    /// `iterations` steps (the Fig. 11 quantity, from live training).
    pub fn scene_estimate(&self, iterations: u64) -> Option<SceneEstimate> {
        self.last.as_ref().map(|est| {
            let mean = IterationEstimate {
                pipelined_seconds: self.stats.seconds_per_iteration(),
                dram_energy_pj: if self.stats.iterations == 0 {
                    0.0
                } else {
                    self.stats.dram_energy_pj / self.stats.iterations as f64
                },
                ..est.clone()
            };
            self.model.scene_estimate(&mean, iterations)
        })
    }

    /// Approximate heap bytes of the co-simulation state right now.
    pub fn state_bytes(&self) -> usize {
        self.inner.state_bytes()
    }

    fn accumulate(&mut self, ht: &SimStats, htb: &SimStats, points: u64) {
        let est = self
            .model
            .estimate_iteration_from_stats(ht, htb, points, self.batch_points);
        self.stats.iterations += 1;
        self.stats.points += points;
        self.stats.pipelined_seconds += est.pipelined_seconds;
        self.stats.serial_seconds += est.serial_seconds;
        self.stats.dram_energy_pj += est.dram_energy_pj;
        self.stats.ht_row_hits += ht.row_hits;
        self.stats.ht_row_misses += ht.row_misses;
        self.stats.ht_bank_conflicts += ht.bank_conflicts;
        self.stats.dram_requests += ht.requests + htb.requests;
        self.last = Some(est);
    }
}

impl TraceSink for CosimSink {
    fn push_cube(&mut self, cube: &CubeLookup) {
        self.inner.push_cube(cube);
    }

    fn end_point(&mut self) {
        self.inner.end_point();
    }

    fn end_batch(&mut self) {
        let state_bytes = self.inner.state_bytes();
        self.stats.peak_state_bytes = self.stats.peak_state_bytes.max(state_bytes);
        self.stats.dropped_cubes = self.inner.dropped_cubes();
        let (ht, htb, points) = self.inner.drain();
        if points == 0 {
            return; // an empty iteration (all rays missed the bounds)
        }
        self.accumulate(&ht, &htb, points);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::ray_points;
    use inerf_encoding::{BufferSink, HashFunction, HashGrid};
    use inerf_trainer::ModelConfig;

    #[test]
    fn online_iterations_match_offline_estimates_bitwise() {
        let model_cfg = ModelConfig::paper(HashFunction::Morton);
        let grid = HashGrid::new(model_cfg.grid, 7);
        let pm = PipelineModel::paper(model_cfg);
        let batch = 64 * 1024;
        let mut cosim = CosimSink::new(PipelineModel::paper(model_cfg), batch);
        let mut offline_pipelined = 0.0f64;
        let mut offline_energy = 0.0f64;
        for iter in 0..3 {
            let pts = ray_points(2 + iter, 64, 0.45);
            let mut trace = BufferSink::new();
            grid.stream_batch(&pts, &mut (&mut cosim, &mut trace));
            cosim.end_batch();
            // The recorded iteration through a fresh sink: the reused
            // sink's in-place resets must leave no trace of earlier ones.
            let mut fresh = pm.iteration_sink();
            trace.replay(&mut fresh);
            let est = pm.estimate_streamed(&mut fresh, batch);
            offline_pipelined += est.pipelined_seconds;
            offline_energy += est.dram_energy_pj;
            assert_eq!(
                cosim.last_estimate().expect("estimate"),
                &est,
                "iteration {iter} diverged"
            );
        }
        let stats = cosim.stats();
        assert_eq!(stats.iterations, 3);
        assert_eq!(stats.pipelined_seconds, offline_pipelined);
        assert_eq!(stats.dram_energy_pj, offline_energy);
        assert!(stats.peak_state_bytes > 0);
    }

    #[test]
    fn empty_iteration_is_skipped() {
        let model_cfg = ModelConfig::paper(HashFunction::Morton);
        let mut cosim = CosimSink::new(PipelineModel::paper(model_cfg), 1024);
        cosim.end_batch();
        assert_eq!(cosim.stats().iterations, 0);
        assert!(cosim.last_estimate().is_none());
    }

    #[test]
    fn state_stays_constant_across_iterations() {
        // The constant-memory claim: after a warm-up iteration sizes the
        // buffers, further identical iterations must not grow the state —
        // the request stream and its touched-row filter, and the
        // simulator, all counted by `state_bytes` — and must repeat the
        // first estimate exactly.
        let model_cfg = ModelConfig::paper(HashFunction::Morton);
        let grid = HashGrid::new(model_cfg.grid, 3);
        let mut cosim = CosimSink::new(PipelineModel::paper(model_cfg), 4096);
        let pts = ray_points(4, 64, 0.45);
        grid.stream_batch(&pts, &mut cosim);
        cosim.end_batch();
        let after_first = cosim.state_bytes();
        let first = cosim.last_estimate().expect("estimate").clone();
        for iter in 1..5 {
            grid.stream_batch(&pts, &mut cosim);
            cosim.end_batch();
            assert_eq!(
                cosim.state_bytes(),
                after_first,
                "co-simulation state must not grow with run length (iteration {iter})"
            );
            assert_eq!(cosim.last_estimate(), Some(&first), "iteration {iter}");
        }
        assert_eq!(cosim.stats().peak_state_bytes, after_first);
    }

    #[test]
    fn cubes_on_unmapped_levels_are_reported() {
        // A 17-level grid on the paper's 16-level mapping: one cube per
        // point has no bank to go to. The run still co-simulates, and its
        // statistics say how much traffic they leave out.
        let mut model_cfg = ModelConfig::paper(HashFunction::Morton);
        model_cfg.grid.table_size_log2 = 12;
        let pts = ray_points(2, 32, 0.45);
        for (levels, dropped) in [(16, 0), (17, pts.len() as u64)] {
            model_cfg.grid.levels = levels;
            let grid = HashGrid::new(model_cfg.grid, 3);
            let mut cosim = CosimSink::new(PipelineModel::paper(model_cfg), 4096);
            for iter in 1..=2 {
                grid.stream_batch(&pts, &mut cosim);
                cosim.end_batch();
                assert_eq!(
                    cosim.stats().dropped_cubes,
                    iter * dropped,
                    "{levels} levels"
                );
            }
            assert_eq!(cosim.stats().iterations, 2);
        }
    }
}
