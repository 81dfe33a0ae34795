//! End-to-end equivalence of the online co-simulation pipeline: training
//! with the NMP memory system simulated live (streaming trace bus →
//! request generation → incremental cycle-level DRAM simulation) must be
//! bit-identical to recording per-iteration traces and replaying each into
//! a fresh sink offline — for a model trained per point and through its
//! chunk phases, and for both hash functions.

use instant_nerf::accel::{CosimSink, CosimStats, PipelineModel};
use instant_nerf::encoding::{BatchBufferSink, BufferSink, HashFunction, TraceSink};
use instant_nerf::experiments::{cosim, traces};
use instant_nerf::prelude::*;
use instant_nerf::scenes::zoo::scene;
use instant_nerf::trainer::PerPoint;

/// `iterations` steps of a trainer (seed 17, `TrainConfig::tiny()`) of
/// `model`, per point or through its chunk phases, into `sink`.
fn train_into(
    dataset: &Dataset,
    model: IngpModel,
    per_point: bool,
    iterations: usize,
    sink: &mut dyn TraceSink,
) {
    fn run<M: TrainableField>(dataset: &Dataset, model: M, n: usize, sink: &mut dyn TraceSink) {
        Trainer::new(model, TrainConfig::tiny(), 17).train_with_sink(dataset, n, sink);
    }
    if per_point {
        run(dataset, PerPoint(model), iterations, sink);
    } else {
        run(dataset, model, iterations, sink);
    }
}

#[test]
fn online_cosim_matches_buffered_replay_for_all_combinations() {
    let dataset = DatasetConfig::tiny().generate(&scene(SceneKind::Mic));
    for hash in [HashFunction::Morton, HashFunction::Original] {
        for per_point in [true, false] {
            let model_cfg = ModelConfig::small(hash);
            let config = TrainConfig::tiny();
            let batch = config.points_per_iteration() as u64;
            let pipeline = PipelineModel::paper(model_cfg);

            // Online path.
            let mut cosim_sink = CosimSink::new(pipeline.clone(), batch);
            let model = IngpModel::new(model_cfg, 3);
            train_into(&dataset, model, per_point, 2, &mut cosim_sink);

            // Buffered reference on the identical trajectory.
            let mut buffer = BatchBufferSink::new();
            let model = IngpModel::new(model_cfg, 3);
            train_into(&dataset, model, per_point, 2, &mut buffer);

            let tag = format!("{hash:?}/per point {per_point}");
            let stats = cosim_sink.stats();
            let mut pipelined = 0.0f64;
            let mut energy = 0.0f64;
            let mut iterations = 0u64;
            for trace in buffer.batches() {
                if trace.point_count() == 0 {
                    continue;
                }
                let mut fresh = pipeline.iteration_sink();
                trace.replay(&mut fresh);
                let est = pipeline.estimate_streamed(&mut fresh, batch);
                pipelined += est.pipelined_seconds;
                energy += est.dram_energy_pj;
                iterations += 1;
            }
            assert_eq!(stats.iterations, iterations, "{tag}: iteration count");
            assert_eq!(
                stats.pipelined_seconds, pipelined,
                "{tag}: pipelined seconds diverged"
            );
            assert_eq!(stats.dram_energy_pj, energy, "{tag}: DRAM energy diverged");
            assert!(
                stats.peak_state_bytes > 0 && stats.peak_state_bytes < buffer.heap_bytes().max(1),
                "{tag}: online state {} bytes should undercut the {} byte buffer",
                stats.peak_state_bytes,
                buffer.heap_bytes()
            );
        }
    }
}

#[test]
fn streamed_pipeline_estimate_matches_offline_trace_replay() {
    // The Fig. 11 data path: scene access stream → iteration sink →
    // estimate, against the recorded stream replayed into a second sink.
    let model = ModelConfig::paper(HashFunction::Morton);
    let grid = HashGrid::new(model.grid, 5);
    let sc = scene(SceneKind::Drums);
    let pipeline = PipelineModel::paper(model);

    let mut sink = pipeline.iteration_sink();
    let mut trace = BufferSink::new();
    let stats = traces::scene_trace_into(&sc, &grid, 300, 48, 5, &mut (&mut sink, &mut trace));
    assert_eq!(trace.point_count() as u64, stats.points);
    let online = pipeline.estimate_streamed(&mut sink, 256 * 1024);

    let mut replayed = pipeline.iteration_sink();
    trace.replay(&mut replayed);
    let offline = pipeline.estimate_streamed(&mut replayed, 256 * 1024);
    assert_eq!(offline, online);
}

#[test]
fn cosim_experiment_runs_constant_memory_with_identical_stats() {
    // The acceptance-criteria check: a training run of the Tab. II small
    // workload co-simulates online with bit-identical stats and a trace
    // footprint that does not scale with run length.
    let r = cosim::run(3, 7);
    assert!(r.stats_match, "streamed/buffered stats diverged");
    assert!(r.streamed.sim_pipelined_seconds > 0.0);
    assert!(
        r.streamed.peak_trace_bytes * 10 < r.buffered.peak_trace_bytes,
        "streamed {} vs buffered {} bytes",
        r.streamed.peak_trace_bytes,
        r.buffered.peak_trace_bytes
    );
    // Longer runs must not grow the streamed footprint.
    let longer = cosim::run(6, 7);
    assert_eq!(
        longer.streamed.peak_trace_bytes, r.streamed.peak_trace_bytes,
        "co-simulation state grew with run length"
    );
    assert!(longer.buffered.peak_trace_bytes > r.buffered.peak_trace_bytes);
}

#[test]
fn per_point_and_chunked_cosimulate_identically() {
    // Same seed → same gathered points → the same streamed statistics,
    // whether the model trains per point or through its chunk phases.
    let dataset = DatasetConfig::tiny().generate(&scene(SceneKind::Lego));
    let model_cfg = ModelConfig::small(HashFunction::Morton);
    let batch = TrainConfig::tiny().points_per_iteration() as u64;
    let stats = |per_point: bool| -> CosimStats {
        let mut sink = CosimSink::new(PipelineModel::paper(model_cfg), batch);
        let model = IngpModel::new(model_cfg, 5 ^ 0xA1);
        train_into(&dataset, model, per_point, 2, &mut sink);
        sink.stats().clone()
    };
    let (per_point, chunked) = (stats(true), stats(false));
    assert_eq!(per_point.iterations, 2);
    assert!(per_point.pipelined_seconds > 0.0);
    assert_eq!(per_point, chunked);
}
