//! Property tests for the checkpoint payload codecs: arbitrary
//! parameter contents at both precisions must round-trip bit-exactly,
//! and truncated payloads must decode to typed errors, never panics.
//! The config section's byte layout is pinned, and a snapshot storing a
//! value the build fixes at another one is refused as corrupt.

use inerf_encoding::HashFunction;
use inerf_mlp::{ParamStore, Precision};
use inerf_snapshot::codec::Reader;
use inerf_snapshot::{Snapshot, SnapshotError};
use inerf_trainer::train::checkpoint::{decode_param_store, encode_configs, encode_param_store};
use inerf_trainer::{IngpModel, ModelConfig, TrainConfig, Trainer};
use proptest::prelude::*;

#[test]
fn config_section_keeps_its_recorded_layout() {
    // The features per entry keep the field they had as a config value
    // (offset 34, value 2). The engine byte that sat at offset 24 left the
    // section with the `Engine` knob.
    #[rustfmt::skip]
    let recorded: [u8; 71] = [
        0, 1, 0, 0, 0, 0, 0, 0, 32, 0, 0, 0, 0, 0, 0, 0, 48, 0, 0, 0, 0, 0, 0, 0,
        0, 0, 8, 0, 0, 0, 14, 0, 0, 0, 2, 0, 0, 0, 4, 0, 0, 0, 96, 0, 0, 0, 1,
        32, 0, 0, 0, 0, 0, 0, 0, 8, 0, 0, 0, 0, 0, 0, 0, 32, 0, 0, 0, 0, 0, 0, 0,
    ];
    let bytes = encode_configs(
        &TrainConfig::small(),
        &ModelConfig::small(HashFunction::Morton),
    );
    assert_eq!(bytes, recorded);
}

/// `snap` with the four bytes at `at` of section `tag` replaced by `word`.
fn with_word(snap: &Snapshot, tag: &str, at: usize, word: [u8; 4]) -> Snapshot {
    let mut out = Snapshot::new();
    for t in snap.tags() {
        let mut payload = snap.section(&t).unwrap().to_vec();
        if t == tag {
            payload[at..at + 4].copy_from_slice(&word);
        }
        out.push(&t, payload);
    }
    out
}

#[test]
fn snapshots_storing_another_fixed_value_are_refused_as_corrupt() {
    let cfg = TrainConfig::tiny();
    let mut trainer = Trainer::new(IngpModel::for_config(ModelConfig::tiny(), &cfg, 8), cfg, 3);
    let snap = trainer.capture_snapshot();
    // Writing back the value already stored restores: the rewrite alone
    // breaks nothing.
    assert!(
        Trainer::restore_snapshot(&with_word(&snap, "adamgrid", 4, 0.9f32.to_le_bytes()), cfg)
            .is_ok()
    );
    // Config: F at offset 34. Adam sections: learning rate, β₁, β₂, ε.
    let cases = [
        ("config", 34, 4u32.to_le_bytes(), "hash-grid features"),
        ("adamgrid", 4, 0.8f32.to_le_bytes(), "Adam beta1"),
        ("adamden", 12, 0.0f32.to_le_bytes(), "Adam epsilon"),
    ];
    for (tag, at, word, what) in cases {
        match Trainer::restore_snapshot(&with_word(&snap, tag, at, word), cfg) {
            Err(SnapshotError::Corrupt(msg)) => assert!(msg.starts_with(what), "{tag}: {msg}"),
            Err(e) => panic!("{tag}: expected Corrupt, got {e:?}"),
            Ok(_) => panic!("{tag}: a snapshot storing another {what} was restored"),
        }
    }
}

/// Builds a store whose contents mix ordinary weights with the
/// fp16-quantization edge cases: signed zeros and sub-fp16-normal
/// magnitudes that flush differently than round values.
fn build_store(bulk: Vec<f32>, tiny: Vec<f32>, fp16: bool) -> ParamStore {
    let precision = if fp16 {
        Precision::Fp16
    } else {
        Precision::F32
    };
    let mut values = bulk;
    values.extend(tiny.into_iter().map(|v| v * 1e-6));
    values.push(0.0);
    values.push(-0.0);
    ParamStore::new(precision, values)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn param_store_round_trips_bit_exactly_at_both_precisions(
        bulk in proptest::collection::vec(-10.0f32..10.0, 0..64),
        tiny in proptest::collection::vec(-1.0f32..1.0, 0..16),
        fp16 in 0u8..2,
    ) {
        let store = build_store(bulk, tiny, fp16 == 1);
        let mut bytes = Vec::new();
        encode_param_store(&mut bytes, &store);

        let mut r = Reader::new(&bytes);
        let restored = decode_param_store(&mut r, store.len(), store.precision()).unwrap();
        prop_assert!(r.finish().is_ok());

        // Bit-level equality of both copies, not just value equality.
        let master_bits = |s: &ParamStore| -> Vec<u32> {
            s.master().iter().map(|v| v.to_bits()).collect()
        };
        let working_bits = |s: &ParamStore| -> Vec<u32> {
            s.values().iter().map(|v| v.to_bits()).collect()
        };
        prop_assert_eq!(master_bits(&restored), master_bits(&store));
        prop_assert_eq!(working_bits(&restored), working_bits(&store));
    }

    #[test]
    fn truncated_param_store_payloads_error_cleanly(
        bulk in proptest::collection::vec(-10.0f32..10.0, 1..32),
        fp16 in 0u8..2,
        cut_frac in 0.0f32..1.0,
    ) {
        let store = build_store(bulk, Vec::new(), fp16 == 1);
        let mut bytes = Vec::new();
        encode_param_store(&mut bytes, &store);

        let keep = ((bytes.len() as f32) * cut_frac) as usize; // < len
        let mut r = Reader::new(&bytes[..keep]);
        let outcome = decode_param_store(&mut r, store.len(), store.precision());
        let trailing_ok = outcome.is_ok() && r.finish().is_ok();
        prop_assert!(!trailing_ok, "truncated payload decoded cleanly");
    }
}
