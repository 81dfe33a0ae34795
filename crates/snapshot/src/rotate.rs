//! Snapshot naming, the atomic write protocol, keep-last-K rotation,
//! and crash recovery.
//!
//! A checkpoint for step `S` is written as:
//!
//! 1. `create  snap-<S>.inerf.tmp`, sized for the whole container
//! 2. `append` the header, then each section's payload as it encodes
//!    from live state, then the index trailer — one pass, in pieces of at
//!    most 64 KiB, each checksummed as it is staged
//! 3. `flush_sync` — the bytes are durable but the name is not live yet
//! 4. `rename  snap-<S>.inerf.tmp → snap-<S>.inerf` — the commit point
//! 5. prune: delete stale `.tmp` residue and snapshots beyond keep-last-K
//!
//! A crash strictly before step 4 leaves at worst a `.tmp` file the
//! recovery scan ignores; a crash during or after step 4 leaves either
//! the old set or the new snapshot — rename is the single atomic commit.
//! Recovery ([`load_latest`]) walks the surviving names newest-first and
//! returns the first container that passes *full* validation, so even a
//! non-atomic rename (torn metadata) degrades to "detected and skipped",
//! never to silently loading garbage.

use crate::error::SnapshotError;
use crate::format::{container_len, stream, Section, Snapshot};
use crate::io::SnapshotIo;

/// Prefix of every snapshot file name.
pub const SNAPSHOT_PREFIX: &str = "snap-";
/// Suffix of every committed snapshot file name.
pub const SNAPSHOT_SUFFIX: &str = ".inerf";
/// Suffix marking an uncommitted write in progress.
pub const TMP_SUFFIX: &str = ".tmp";

/// File name of the snapshot for `step` (zero-padded so lexicographic
/// and numeric order agree).
pub fn snapshot_name(step: u64) -> String {
    format!("{SNAPSHOT_PREFIX}{step:020}{SNAPSHOT_SUFFIX}")
}

/// Parses a committed snapshot name back to its step, if it is one.
pub fn snapshot_step(name: &str) -> Option<u64> {
    name.strip_prefix(SNAPSHOT_PREFIX)?
        .strip_suffix(SNAPSHOT_SUFFIX)?
        .parse()
        .ok()
}

/// Writes the container of `sections` for `step` through the atomic
/// protocol, then prunes old snapshots and stale temp files down to
/// `keep_last` (minimum 1). This is the one writer: each section encodes
/// once, straight into the pieces appended to the file.
pub fn write_sections(
    io: &mut dyn SnapshotIo,
    step: u64,
    sections: &[Section<'_>],
    keep_last: usize,
) -> Result<(), SnapshotError> {
    let name = snapshot_name(step);
    let tmp = format!("{name}{TMP_SUFFIX}");
    io.create(&tmp, container_len(sections))?;
    // After a failed append the rest of the stream is dropped: the
    // process is as good as dead, and `tmp` is residue for recovery.
    let mut failed = None;
    stream(sections, &mut |piece| {
        if failed.is_none() {
            failed = io.append(&tmp, piece).err();
        }
    });
    if let Some(e) = failed {
        return Err(e);
    }
    io.flush_sync(&tmp)?;
    io.rename(&tmp, &name)?;
    prune(io, keep_last.max(1))
}

/// [`write_sections`] for the sections of an in-memory snapshot.
pub fn write_snapshot(
    io: &mut dyn SnapshotIo,
    step: u64,
    snap: &Snapshot,
    keep_last: usize,
) -> Result<(), SnapshotError> {
    write_sections(io, step, &snap.parts(), keep_last)
}

/// Deletes stale `.tmp` residue and all but the newest `keep` snapshots.
fn prune(io: &mut dyn SnapshotIo, keep: usize) -> Result<(), SnapshotError> {
    let names = io.list()?;
    let mut steps: Vec<u64> = names.iter().filter_map(|n| snapshot_step(n)).collect();
    steps.sort_unstable_by(|a, b| b.cmp(a));
    for &s in steps.iter().skip(keep) {
        io.remove(&snapshot_name(s))?;
    }
    for n in names.iter().filter(|n| n.ends_with(TMP_SUFFIX)) {
        io.remove(n)?;
    }
    Ok(())
}

/// Steps of all committed snapshots, newest first.
pub fn list_snapshots(io: &dyn SnapshotIo) -> Result<Vec<u64>, SnapshotError> {
    let mut steps: Vec<u64> = io.list()?.iter().filter_map(|n| snapshot_step(n)).collect();
    steps.sort_unstable_by(|a, b| b.cmp(a));
    Ok(steps)
}

/// Recovers the newest loadable snapshot.
///
/// Scans committed names newest-first and returns the first container
/// that passes full validation; torn or corrupted files (crash residue)
/// are skipped. Returns [`SnapshotError::NoSnapshot`] if none exist, or
/// the last validation error if snapshots exist but none load.
pub fn load_latest(io: &dyn SnapshotIo) -> Result<(u64, Snapshot), SnapshotError> {
    let mut last_err = SnapshotError::NoSnapshot;
    for s in list_snapshots(io)? {
        match io.read(&snapshot_name(s)).and_then(Snapshot::decode_owned) {
            Ok(snap) => return Ok((s, snap)),
            Err(e) => last_err = e,
        }
    }
    Err(last_err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::MemIo;

    fn snap(marker: u8) -> Snapshot {
        let mut s = Snapshot::new();
        s.push("payload", vec![marker; 100]);
        s
    }

    #[test]
    fn names_round_trip_and_sort_numerically() {
        assert_eq!(snapshot_step(&snapshot_name(0)), Some(0));
        assert_eq!(snapshot_step(&snapshot_name(u64::MAX)), Some(u64::MAX));
        assert!(snapshot_name(9) < snapshot_name(10)); // lexicographic == numeric
        assert_eq!(snapshot_step("snap-5.inerf.tmp"), None);
        assert_eq!(snapshot_step("other.bin"), None);
    }

    #[test]
    fn rotation_keeps_last_k_and_clears_tmp_residue() {
        let mut io = MemIo::new();
        io.insert("stale.inerf.tmp", vec![0; 3]);
        for step in 1..=5 {
            write_snapshot(&mut io, step, &snap(step as u8), 2).unwrap();
        }
        assert_eq!(list_snapshots(&io).unwrap(), vec![5, 4]);
        assert!(io.list().unwrap().iter().all(|n| !n.ends_with(TMP_SUFFIX)));
        let (step, loaded) = load_latest(&io).unwrap();
        assert_eq!(step, 5);
        assert_eq!(loaded.section("payload").unwrap(), &[5u8; 100][..]);
        // The file was allocated once at its final size, not grown.
        let file = &io.files()[&snapshot_name(5)];
        assert_eq!(file.capacity(), file.len());
    }

    #[test]
    fn recovery_skips_a_corrupted_newest_snapshot() {
        let mut io = MemIo::new();
        write_snapshot(&mut io, 1, &snap(1), 3).unwrap();
        write_snapshot(&mut io, 2, &snap(2), 3).unwrap();
        // Corrupt the newest committed file in place.
        let name = snapshot_name(2);
        let mut bytes = io.read(&name).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        io.insert(&name, bytes);
        let (step, loaded) = load_latest(&io).unwrap();
        assert_eq!(step, 1);
        assert_eq!(loaded.section("payload").unwrap(), &[1u8; 100][..]);
    }

    #[test]
    fn recovery_skips_a_newer_version_1_file() {
        let mut io = MemIo::new();
        write_snapshot(&mut io, 1, &snap(1), 3).unwrap();
        io.insert(&snapshot_name(2), crate::format::tests::V1_FILE.to_vec());
        let (step, loaded) = load_latest(&io).unwrap();
        assert_eq!(step, 1);
        assert_eq!(loaded.section("payload").unwrap(), &[1u8; 100][..]);
    }

    #[test]
    fn empty_store_reports_no_snapshot() {
        let io = MemIo::new();
        assert!(matches!(load_latest(&io), Err(SnapshotError::NoSnapshot)));
    }

    #[test]
    fn all_corrupt_reports_the_validation_error() {
        let mut io = MemIo::new();
        io.insert(&snapshot_name(7), vec![0; 4]); // far too short
        assert!(matches!(load_latest(&io), Err(SnapshotError::Corrupt(_))));
    }
}
