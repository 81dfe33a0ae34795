//! The exhaustive corruption sweep (satellite: fuzz-style byte flips).
//!
//! Flip every byte of a small snapshot — one at a time, every bit of
//! every byte — and assert the loader always returns a checksum/format
//! error: never a panic, never a successful load of wrong data.

use inerf_snapshot::Snapshot;

fn small_snapshot() -> Snapshot {
    let mut s = Snapshot::new();
    s.push("config", vec![0x5A; 24]);
    s.push("rng", vec![1, 2, 3, 4, 5, 6, 7, 8]);
    s.push("params", (0u8..64).collect());
    s.push("empty", vec![]);
    // Three whole 32-byte checksum blocks and a 13-byte tail, so the
    // sweep reaches the word lanes as well as the bytewise tail.
    s.push("adam", (0..109u32).map(|i| (i * 37 + 11) as u8).collect());
    s
}

#[test]
fn every_single_byte_flip_is_detected() {
    let clean = small_snapshot();
    let bytes = clean.encode();
    let mut checked = 0usize;
    for i in 0..bytes.len() {
        for bit in 0..8 {
            let mut bad = bytes.clone();
            bad[i] ^= 1 << bit;
            match Snapshot::decode(&bad) {
                Err(e) if e.is_detected_corruption() => checked += 1,
                Err(e) => panic!("byte {i} bit {bit}: wrong error class: {e}"),
                Ok(loaded) => panic!(
                    "byte {i} bit {bit}: corrupted snapshot loaded silently \
                     (equal to clean: {})",
                    loaded == clean
                ),
            }
        }
    }
    assert_eq!(checked, bytes.len() * 8, "sweep must cover every bit");
}

#[test]
fn every_whole_byte_corruption_is_detected() {
    // Same sweep with the byte replaced by its complement — a different
    // corruption model than a single-bit flip.
    let bytes = small_snapshot().encode();
    for i in 0..bytes.len() {
        let mut bad = bytes.clone();
        bad[i] = !bad[i];
        let err = Snapshot::decode(&bad)
            .err()
            .unwrap_or_else(|| panic!("byte {i}: complemented byte loaded silently"));
        assert!(err.is_detected_corruption(), "byte {i}: {err}");
    }
}

#[test]
fn random_garbage_never_panics() {
    // Deterministic pseudo-garbage of many lengths: the decoder must
    // return typed errors (or, astronomically unlikely, a valid file),
    // but never panic. xorshift keeps the sweep reproducible.
    let mut state = 0x243F_6A88_85A3_08D3u64;
    let mut rand_byte = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 56) as u8
    };
    for len in 0..512 {
        let garbage: Vec<u8> = (0..len).map(|_| rand_byte()).collect();
        if let Err(e) = Snapshot::decode(&garbage) {
            assert!(
                e.is_detected_corruption(),
                "len {len}: garbage produced non-corruption error {e}"
            );
        }
    }
}
