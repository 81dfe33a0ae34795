//! Tests for the checkpoint payloads: the config section's byte layout is
//! pinned and earlier layouts of it are refused; every section of another
//! length than its writer declares is refused as corrupt, naming the
//! section; and arbitrary parameter contents at both precisions restore
//! bit-exactly, while truncated payloads fail typed, never panic.

use inerf_encoding::HashFunction;
use inerf_mlp::fp16::f32_to_f16_bits;
use inerf_mlp::{ParamStore, Precision};
use inerf_snapshot::{Snapshot, SnapshotError};
use inerf_trainer::train::checkpoint::encode_configs;
use inerf_trainer::{IngpModel, ModelConfig, TrainConfig, Trainer};
use proptest::prelude::*;

#[test]
fn config_section_keeps_its_recorded_layout() {
    #[rustfmt::skip]
    let recorded: [u8; 67] = [
        0, 1, 0, 0, 0, 0, 0, 0, 32, 0, 0, 0, 0, 0, 0, 0, 48, 0, 0, 0, 0, 0, 0, 0,
        0, 0, 8, 0, 0, 0, 14, 0, 0, 0, 4, 0, 0, 0, 96, 0, 0, 0, 1,
        32, 0, 0, 0, 0, 0, 0, 0, 8, 0, 0, 0, 0, 0, 0, 0, 32, 0, 0, 0, 0, 0, 0, 0,
    ];
    let bytes = encode_configs(
        &TrainConfig::small(),
        &ModelConfig::small(HashFunction::Morton),
    );
    assert_eq!(bytes, recorded);
}

/// The config section of `TrainConfig::small()` and
/// `ModelConfig::small(Morton)` as files stored it while the section
/// carried the features per hash-grid entry (offset 34, value 2).
#[rustfmt::skip]
const WITH_FEATURES: [u8; 71] = [
    0, 1, 0, 0, 0, 0, 0, 0, 32, 0, 0, 0, 0, 0, 0, 0, 48, 0, 0, 0, 0, 0, 0, 0,
    0, 0, 8, 0, 0, 0, 14, 0, 0, 0, 2, 0, 0, 0, 4, 0, 0, 0, 96, 0, 0, 0, 1,
    32, 0, 0, 0, 0, 0, 0, 0, 8, 0, 0, 0, 0, 0, 0, 0, 32, 0, 0, 0, 0, 0, 0, 0,
];

/// A fresh tiny trainer at `precision`, with an occupancy grid or
/// without.
fn tiny_trainer(precision: Precision, occupancy: bool) -> Trainer<IngpModel> {
    let cfg = TrainConfig::tiny().with_precision(precision);
    let trainer = Trainer::new(IngpModel::for_config(ModelConfig::tiny(), &cfg, 8), cfg, 3);
    match occupancy {
        true => trainer.with_occupancy_grid(8, 0.02, 2),
        false => trainer,
    }
}

/// `snap` with section `tag`'s payload passed through `edit`.
fn with_section(snap: &Snapshot, tag: &str, edit: impl Fn(&mut Vec<u8>)) -> Snapshot {
    let mut out = Snapshot::new();
    for t in snap.tags() {
        let mut payload = snap.section(&t).unwrap().to_vec();
        if t == tag {
            edit(&mut payload);
        }
        out.push(&t, payload);
    }
    out
}

/// Panics unless restoring `snap` under `cfg` fails as `Corrupt` with a
/// message naming section `tag`.
fn assert_corrupt_in(snap: &Snapshot, cfg: TrainConfig, tag: &str, case: &str) {
    match Trainer::restore_snapshot(snap, cfg) {
        Err(SnapshotError::Corrupt(msg)) => {
            assert!(msg.contains(&format!("`{tag}`")), "{case}: {msg}");
        }
        Err(e) => panic!("{case}: expected Corrupt, got {e:?}"),
        Ok(_) => panic!("{case}: restored"),
    }
}

#[test]
fn config_sections_of_earlier_layouts_are_refused_as_corrupt() {
    // The 71-byte section with the features word, the 72-byte one that
    // also carried an engine byte at offset 24, and the 73-byte one with a
    // streaming-order byte after `samples_per_ray` as well.
    let mut with_engine = WITH_FEATURES.to_vec();
    with_engine.insert(24, 1);
    let mut with_order = with_engine.clone();
    with_order.insert(16, 0);
    let snap = tiny_trainer(Precision::F32, false).capture_snapshot();
    for old in [WITH_FEATURES.to_vec(), with_engine, with_order] {
        let case = format!("{}-byte config", old.len());
        let old_snap = with_section(&snap, "config", |payload| payload.clone_from(&old));
        assert_corrupt_in(&old_snap, TrainConfig::small(), "config", &case);
        assert_corrupt_in(&old_snap, TrainConfig::tiny(), "config", &case);
    }
}

#[test]
fn sections_one_byte_short_or_long_are_refused_naming_the_section() {
    for (precision, occupancy) in [(Precision::F32, false), (Precision::Fp16, true)] {
        let cfg = TrainConfig::tiny().with_precision(precision);
        let snap = tiny_trainer(precision, occupancy).capture_snapshot();
        assert!(Trainer::restore_snapshot(&snap, cfg).is_ok());
        let tags = snap.tags();
        assert_eq!(tags.len(), 9);
        for tag in &tags {
            let short = with_section(&snap, tag, |payload| {
                payload.pop();
            });
            let long = with_section(&snap, tag, |payload| payload.push(0));
            assert_corrupt_in(&short, cfg, tag, &format!("{tag} one byte short"));
            assert_corrupt_in(&long, cfg, tag, &format!("{tag} one byte long"));
        }
    }
}

/// Builds a store whose contents mix ordinary weights with the
/// fp16-quantization edge cases: signed zeros and sub-fp16-normal
/// magnitudes that flush differently than round values. The edge cases
/// overwrite the leading scalars of `base`.
fn build_store(base: &ParamStore, bulk: Vec<f32>, tiny: Vec<f32>) -> ParamStore {
    let mut edge = bulk;
    edge.extend(tiny.into_iter().map(|v| v * 1e-6));
    edge.push(0.0);
    edge.push(-0.0);
    let mut values = base.master().to_vec();
    values[..edge.len()].copy_from_slice(&edge);
    ParamStore::new(base.precision(), values)
}

/// The grid section that holds `store`: its master bits, then at fp16 the
/// half working copy.
fn grid_payload(store: &ParamStore) -> Vec<u8> {
    let mut out: Vec<u8> = store
        .master()
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .collect();
    if store.precision() == Precision::Fp16 {
        out.extend(
            store
                .values()
                .iter()
                .flat_map(|&v| f32_to_f16_bits(v).to_le_bytes()),
        );
    }
    out
}

/// A fresh tiny trainer's config, grid store and snapshot.
fn grid_and_snapshot(fp16: bool) -> (TrainConfig, ParamStore, Snapshot) {
    let precision = if fp16 {
        Precision::Fp16
    } else {
        Precision::F32
    };
    let mut trainer = tiny_trainer(precision, false);
    let grid = trainer.model().grid().parameter_store().clone();
    (*trainer.config(), grid, trainer.capture_snapshot())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn param_store_round_trips_bit_exactly_at_both_precisions(
        bulk in proptest::collection::vec(-10.0f32..10.0, 0..64),
        tiny in proptest::collection::vec(-1.0f32..1.0, 0..16),
        fp16 in 0u8..2,
    ) {
        let (cfg, base, snap) = grid_and_snapshot(fp16 == 1);
        let store = build_store(&base, bulk, tiny);
        let payload = grid_payload(&store);
        let snap = with_section(&snap, "grid", |p| p.clone_from(&payload));
        let trainer = Trainer::restore_snapshot(&snap, cfg).unwrap();
        let restored = trainer.model().grid().parameter_store();

        // Bit-level equality of both copies, not just value equality.
        let master_bits = |s: &ParamStore| -> Vec<u32> {
            s.master().iter().map(|v| v.to_bits()).collect()
        };
        let working_bits = |s: &ParamStore| -> Vec<u32> {
            s.values().iter().map(|v| v.to_bits()).collect()
        };
        prop_assert_eq!(master_bits(restored), master_bits(&store));
        prop_assert_eq!(working_bits(restored), working_bits(&store));
    }

    #[test]
    fn truncated_param_store_payloads_error_cleanly(
        bulk in proptest::collection::vec(-10.0f32..10.0, 1..32),
        fp16 in 0u8..2,
        cut_frac in 0.0f32..1.0,
    ) {
        let (cfg, base, snap) = grid_and_snapshot(fp16 == 1);
        let payload = grid_payload(&build_store(&base, bulk, Vec::new()));
        let keep = ((payload.len() as f64) * f64::from(cut_frac)) as usize; // < len
        let snap = with_section(&snap, "grid", |p| *p = payload[..keep].to_vec());
        let outcome = Trainer::restore_snapshot(&snap, cfg);
        let named = matches!(&outcome, Err(SnapshotError::Corrupt(msg)) if msg.contains("`grid`"));
        prop_assert!(named, "truncated grid payload: {:?}", outcome.err());
    }
}
