//! The crash-point sweep: kill the writer at every IO boundary and
//! prove recovery is always safe.
//!
//! For a checkpoint write on top of an existing checkpoint, every
//! injected fault must leave storage in one of exactly two recoverable
//! states: the *previous* snapshot loads clean (the write never
//! committed), or the *new* snapshot loads clean (the crash hit after
//! the rename commit point). Never silent corruption, never a panic.

use inerf_snapshot::{
    load_latest, snapshot_name, write_snapshot, FaultIo, MemIo, Snapshot, SnapshotError,
};

fn snapshot_with(tag_byte: u8, len: usize) -> Snapshot<'static> {
    let mut s = Snapshot::new();
    s.push("config", vec![tag_byte; 32]);
    s.push(
        "params",
        (0..len).map(|i| (i as u8).wrapping_mul(tag_byte)).collect(),
    );
    s
}

/// Number of mutating IO operations one checkpoint write performs.
fn count_write_ops(base: &MemIo, step: u64, snap: &Snapshot<'_>, keep: usize) -> u64 {
    let mut io = FaultIo::counting(base.clone());
    write_snapshot(&mut io, step, snap, keep).expect("dry run must succeed");
    io.ops()
}

/// Runs the full kill-point sweep for one torn-write configuration.
/// Returns the number of crash points exercised.
fn sweep(torn_prefix: Option<usize>) -> u64 {
    // Storage already holds a valid checkpoint at step 10 plus stale
    // temp residue from an earlier crash — the realistic starting state.
    let mut base = MemIo::new();
    write_snapshot(&mut base, 10, &snapshot_with(3, 1000), 2).expect("seed checkpoint");
    base.insert("snap-00000000000000000009.inerf.tmp", vec![0xAB; 17]);

    let old = snapshot_with(3, 1000);
    let new = snapshot_with(7, 1000);
    let total_ops = count_write_ops(&base, 20, &new, 2);
    assert!(total_ops >= 4, "protocol must cross several IO boundaries");

    for kill_at in 0..total_ops {
        let mut io = FaultIo::failing_at(base.clone(), kill_at);
        if let Some(keep) = torn_prefix {
            io = io.with_torn_prefix(keep);
        }
        let result = write_snapshot(&mut io, 20, &new, 2);
        assert!(
            matches!(result, Err(SnapshotError::Io { .. })),
            "kill point {kill_at}: injected fault must surface as a typed IO error"
        );
        // The "process" is dead; recovery runs over whatever survived.
        let survivor = io.into_inner();
        let (step, loaded) = load_latest(&survivor)
            .unwrap_or_else(|e| panic!("kill point {kill_at}: no checkpoint recoverable: {e}"));
        match step {
            10 => assert_eq!(
                loaded, old,
                "kill point {kill_at}: previous checkpoint mutated"
            ),
            20 => assert_eq!(
                loaded, new,
                "kill point {kill_at}: committed checkpoint wrong"
            ),
            other => panic!("kill point {kill_at}: recovered unexpected step {other}"),
        }
    }
    total_ops
}

#[test]
fn kill_at_every_io_boundary_clean_failure() {
    // The failing append lands nothing: crash strictly between writes.
    let points = sweep(Some(0));
    assert!(points > 0);
}

#[test]
fn kill_at_every_io_boundary_with_torn_append() {
    // The failing append lands a partial prefix: a torn write. Sweep a
    // few representative tear sizes.
    for keep in [1, 7, 64] {
        sweep(Some(keep));
    }
}

#[test]
fn crash_after_commit_keeps_the_new_snapshot() {
    // Killing during prune (after the rename) must leave the *new*
    // snapshot live even though old files were not yet cleaned up.
    let mut base = MemIo::new();
    write_snapshot(&mut base, 1, &snapshot_with(1, 200), 1).unwrap();
    let new = snapshot_with(2, 200);
    let total_ops = count_write_ops(&base, 2, &new, 1);
    // The last mutating op is the prune's remove of the old snapshot;
    // kill right before it.
    let mut io = FaultIo::failing_at(base, total_ops - 1);
    assert!(write_snapshot(&mut io, 2, &new, 1).is_err());
    let survivor = io.into_inner();
    let (step, loaded) = load_latest(&survivor).unwrap();
    assert_eq!((step, &loaded), (2, &new));
    // Both generations still on disk (prune never ran) — and the next
    // successful write cleans up.
    let mut survivor = survivor;
    write_snapshot(&mut survivor, 3, &snapshot_with(3, 200), 1).unwrap();
    assert_eq!(inerf_snapshot::list_snapshots(&survivor).unwrap(), vec![3]);
}

#[test]
fn truncation_at_every_length_is_detected_or_recovered() {
    // Simulate a torn committed file: for every possible truncation
    // length of the newest snapshot, recovery must either fall back to
    // the previous checkpoint or (at full length) load the new one.
    let mut base = MemIo::new();
    write_snapshot(&mut base, 1, &snapshot_with(5, 300), 2).unwrap();
    write_snapshot(&mut base, 2, &snapshot_with(9, 300), 2).unwrap();
    let old = snapshot_with(5, 300);
    let new = snapshot_with(9, 300);
    let name = snapshot_name(2);
    let full = base.read_file(&name);
    for cut in 0..=full.len() {
        let mut io = base.clone();
        io.insert(&name, full[..cut].to_vec());
        let (step, loaded) =
            load_latest(&io).unwrap_or_else(|e| panic!("cut {cut}: nothing recoverable: {e}"));
        if cut == full.len() {
            assert_eq!((step, &loaded), (2, &new), "cut {cut}");
        } else {
            assert_eq!(
                (step, &loaded),
                (1, &old),
                "cut {cut}: truncated file not skipped"
            );
        }
    }
}

/// Test-side convenience: read a file out of a `MemIo`.
trait ReadFile {
    fn read_file(&self, name: &str) -> Vec<u8>;
}
impl ReadFile for MemIo {
    fn read_file(&self, name: &str) -> Vec<u8> {
        use inerf_snapshot::SnapshotIo as _;
        self.read(name).expect("file present").into_owned()
    }
}
