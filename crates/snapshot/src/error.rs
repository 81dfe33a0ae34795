//! The typed error surface of the snapshot crate.
//!
//! Every failure mode a checkpoint store or load can hit is enumerated
//! here. Library code in this crate never panics on bad input or failed
//! IO — all failures surface as a [`SnapshotError`] (enforced by the
//! `panic-path` lint rule), so a corrupted artifact is always *detected*,
//! never silently loaded and never a crash.

use std::fmt;

/// Why a snapshot operation failed.
#[derive(Debug)]
pub enum SnapshotError {
    /// An underlying IO operation failed (or a fault was injected).
    Io {
        /// Which [`SnapshotIo`](crate::io::SnapshotIo) operation failed.
        op: &'static str,
        /// The file the operation targeted.
        name: String,
        /// The underlying error, rendered as text.
        detail: String,
    },
    /// The file does not start with the snapshot magic — not a snapshot
    /// (or one whose very first bytes were destroyed).
    BadMagic,
    /// The container claims a format version newer than this build
    /// understands; loading would misinterpret the payload.
    UnsupportedVersion(u32),
    /// Structural or checksum validation failed; the payload cannot be
    /// trusted. The string names the first check that tripped.
    Corrupt(String),
    /// The snapshot was produced under a different training or model
    /// configuration; resuming would silently diverge from the original
    /// trajectory, so it is rejected instead.
    ConfigMismatch(String),
    /// No snapshot exists at the given location.
    NoSnapshot,
}

impl SnapshotError {
    /// Wraps a `std::io` failure with the operation and file it hit.
    pub fn io(op: &'static str, name: &str, err: &std::io::Error) -> Self {
        SnapshotError::Io {
            op,
            name: name.to_string(),
            detail: err.to_string(),
        }
    }

    /// True for the variants that mean "the artifact itself is bad"
    /// (as opposed to IO failures or a missing file). The fault sweeps
    /// assert that corruption is reported through these and only these.
    // inerf-lint: allow(pub-reach) -- test support: this crate's tests/corruption.rs sorts every flipped-byte load through it
    pub fn is_detected_corruption(&self) -> bool {
        matches!(
            self,
            SnapshotError::BadMagic
                | SnapshotError::UnsupportedVersion(_)
                | SnapshotError::Corrupt(_)
        )
    }
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io { op, name, detail } => {
                write!(f, "snapshot io: {op} `{name}`: {detail}")
            }
            SnapshotError::BadMagic => write!(f, "snapshot: bad magic (not a snapshot file)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(f, "snapshot: unsupported format version {v}")
            }
            SnapshotError::Corrupt(detail) => write!(f, "snapshot: corrupt: {detail}"),
            SnapshotError::ConfigMismatch(detail) => {
                write!(f, "snapshot: config mismatch: {detail}")
            }
            SnapshotError::NoSnapshot => write!(f, "snapshot: no snapshot found"),
        }
    }
}

impl std::error::Error for SnapshotError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_operation_and_file() {
        let e = SnapshotError::io(
            "append",
            "snap-1.inerf.tmp",
            &std::io::Error::other("disk gone"),
        );
        let s = e.to_string();
        assert!(s.contains("append"), "{s}");
        assert!(s.contains("snap-1.inerf.tmp"), "{s}");
        assert!(s.contains("disk gone"), "{s}");
    }

    #[test]
    fn corruption_classification() {
        assert!(SnapshotError::BadMagic.is_detected_corruption());
        assert!(SnapshotError::UnsupportedVersion(9).is_detected_corruption());
        assert!(SnapshotError::Corrupt("x".into()).is_detected_corruption());
        assert!(!SnapshotError::NoSnapshot.is_detected_corruption());
        assert!(!SnapshotError::ConfigMismatch("x".into()).is_detected_corruption());
    }
}
