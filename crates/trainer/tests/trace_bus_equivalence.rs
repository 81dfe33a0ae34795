//! Equivalence suite for the streaming trace bus: what the trainer puts on
//! the bus, and that a recorded stream (`BufferSink`) replays into fresh
//! sinks to exactly the state the live stream left — on identical inputs,
//! for a model trained per point and through its chunk phases, and for
//! both hash functions.

use inerf_encoding::locality::LocalitySink;
use inerf_encoding::requests::{MeanRequestSink, RegisterCacheSink};
use inerf_encoding::{BufferSink, CountingSink, HashFunction, TraceSink};
use inerf_scenes::{zoo, Dataset, DatasetConfig};
use inerf_trainer::{IngpModel, ModelConfig, PerPoint, TrainConfig, TrainableField, Trainer};

const HASHES: [HashFunction; 2] = [HashFunction::Morton, HashFunction::Original];

fn dataset() -> Dataset {
    DatasetConfig::tiny().generate(&zoo::scene(zoo::SceneKind::Lego))
}

/// The losses of `iterations` steps of a trainer of `model` (seed 13,
/// `TrainConfig::tiny()`), per point or through its chunk phases, with the
/// trace-bus slot filled by `sink` if there is one.
fn train_surface(
    dataset: &Dataset,
    model: IngpModel,
    per_point: bool,
    iterations: usize,
    sink: Option<&mut dyn TraceSink>,
) -> Vec<f64> {
    fn run<M: TrainableField>(
        dataset: &Dataset,
        model: M,
        iterations: usize,
        sink: Option<&mut dyn TraceSink>,
    ) -> Vec<f64> {
        let mut trainer = Trainer::new(model, TrainConfig::tiny(), 13);
        match sink {
            Some(sink) => trainer.train_with_sink(dataset, iterations, sink),
            None => trainer.train(dataset, iterations),
        }
        .losses
    }
    if per_point {
        run(dataset, PerPoint(model), iterations, sink)
    } else {
        run(dataset, model, iterations, sink)
    }
}

fn trained_trace(dataset: &Dataset, hash: HashFunction, per_point: bool) -> BufferSink {
    let model = IngpModel::new(ModelConfig::small(hash), 21);
    let mut buffer = BufferSink::new();
    train_surface(dataset, model, per_point, 2, Some(&mut buffer));
    buffer
}

#[test]
fn engines_emit_identical_trace_streams() {
    // Both surfaces share the gathered batch, so the access stream on the
    // bus must be byte-identical for a fixed seed.
    let ds = dataset();
    for hash in HASHES {
        let scalar = trained_trace(&ds, hash, true);
        let batched = trained_trace(&ds, hash, false);
        assert!(scalar.point_count() > 0, "{hash:?}: empty trace");
        assert_eq!(
            scalar, batched,
            "{hash:?}: the surfaces diverged on the bus"
        );
    }
}

#[test]
fn buffered_trace_replays_to_the_live_stream_bitwise() {
    // Train with a fan-out sink: one lane records the stream, the other
    // lanes accumulate statistics live. The recording replayed into fresh
    // sinks must then reproduce every statistic and both counts.
    let ds = dataset();
    for hash in HASHES {
        for per_point in [true, false] {
            let cfg = ModelConfig::small(hash);
            let levels = cfg.grid.levels;
            let consumers = || {
                (
                    (LocalitySink::new(levels), CountingSink::default()),
                    (RegisterCacheSink::new(levels), MeanRequestSink::new()),
                )
            };
            let model = IngpModel::new(cfg, 21);
            let mut sinks = (BufferSink::new(), consumers());
            train_surface(&ds, model, per_point, 2, Some(&mut sinks));
            let (buffer, live) = sinks;
            let mut replayed = consumers();
            buffer.replay(&mut replayed);

            let tag = format!("{hash:?}/per point {per_point}");
            assert!(buffer.point_count() > 0, "{tag}: empty trace");
            let ((locality, counts), (register, mean)) = live;
            let ((r_locality, r_counts), (r_register, r_mean)) = replayed;
            assert_eq!(
                locality.histogram(),
                r_locality.histogram(),
                "{tag}: histogram diverged"
            );
            assert_eq!(
                locality.sharing_per_level(),
                r_locality.sharing_per_level(),
                "{tag}: sharing diverged"
            );
            assert_eq!(
                register.stats(),
                r_register.stats(),
                "{tag}: register-cache stats diverged"
            );
            assert_eq!(mean.mean(), r_mean.mean(), "{tag}: requests/cube diverged");
            assert_eq!(
                (counts.cubes, counts.points),
                (r_counts.cubes, r_counts.points),
                "{tag}: stream shape diverged"
            );
            // `replay` owns no batch boundary.
            assert_eq!((counts.batches, r_counts.batches), (2, 0), "{tag}");
        }
    }
}

#[test]
fn stream_shape_follows_the_bus_protocol() {
    // One end_batch per iteration, one end_point per kept sample point,
    // levels cubes per point.
    let ds = dataset();
    let cfg = ModelConfig::small(HashFunction::Morton);
    let model = IngpModel::new(cfg, 21);
    let mut trainer = Trainer::new(model, TrainConfig::tiny(), 13);
    let mut counter = CountingSink::default();
    trainer.train_with_sink(&ds, 3, &mut counter);
    assert_eq!(counter.batches, 3);
    assert_eq!(counter.points, trainer.points_queried());
    assert_eq!(counter.cubes, counter.points * cfg.grid.levels as u64);
}

#[test]
fn sink_slot_does_not_change_training() {
    // Filling the trace-bus slot must not perturb the math: identical
    // losses with and without a sink.
    let ds = dataset();
    for per_point in [true, false] {
        let model = || IngpModel::new(ModelConfig::small(HashFunction::Morton), 21);
        let plain = train_surface(&ds, model(), per_point, 3, None);
        let mut sink = CountingSink::default();
        let traced = train_surface(&ds, model(), per_point, 3, Some(&mut sink));
        assert_eq!(plain, traced, "per point {per_point}: sink changed math");
    }
}
