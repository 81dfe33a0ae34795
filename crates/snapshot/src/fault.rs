//! Fault injection for the atomic write protocol.
//!
//! [`FaultIo`] wraps any [`SnapshotIo`] and fails the N-th mutating
//! operation, optionally landing a prefix of the failing append first (a
//! torn write — exactly what a power cut mid-`write(2)` leaves behind).
//! The crash-point sweep in `tests/fault_injection.rs` first dry-runs a
//! checkpoint write with [`FaultIo::counting`] to learn how many IO
//! boundaries it crosses, then replays it once per boundary, proving
//! recovery never sees silent corruption and never panics.
//!
//! Read-side operations (`list`, `read`) are passed through un-gated:
//! they model the *recovery* process, which runs after the crash.

use crate::error::SnapshotError;
use crate::io::SnapshotIo;

/// A `SnapshotIo` wrapper that injects one failure at a chosen
/// operation index.
#[derive(Debug)]
pub struct FaultIo<I> {
    inner: I,
    ops: u64,
    fail_at: Option<u64>,
    torn_prefix: Option<usize>,
}

impl<I: SnapshotIo> FaultIo<I> {
    /// Never fails; counts mutating operations (the dry-run mode).
    pub fn counting(inner: I) -> Self {
        FaultIo {
            inner,
            ops: 0,
            fail_at: None,
            torn_prefix: None,
        }
    }

    /// Fails the `op`-th mutating operation (0-based) and every
    /// operation after it — a crashed process does not come back.
    pub fn failing_at(inner: I, op: u64) -> Self {
        FaultIo {
            inner,
            ops: 0,
            fail_at: Some(op),
            torn_prefix: None,
        }
    }

    /// If the failing operation is an append, land the first `keep`
    /// bytes before failing (a torn write).
    pub fn with_torn_prefix(mut self, keep: usize) -> Self {
        self.torn_prefix = Some(keep);
        self
    }

    /// Mutating operations attempted so far.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// The wrapped backend — i.e. the storage state "after the crash".
    pub fn into_inner(self) -> I {
        self.inner
    }

    fn tripped(&mut self) -> bool {
        let n = self.ops;
        self.ops += 1;
        self.fail_at.is_some_and(|f| n >= f)
    }

    fn injected(op: &'static str, name: &str) -> SnapshotError {
        SnapshotError::Io {
            op,
            name: name.to_string(),
            detail: "injected fault".to_string(),
        }
    }
}

impl<I: SnapshotIo> SnapshotIo for FaultIo<I> {
    fn create(&mut self, name: &str, len: usize) -> Result<(), SnapshotError> {
        if self.tripped() {
            return Err(Self::injected("create", name));
        }
        self.inner.create(name, len)
    }

    fn append(&mut self, name: &str, data: &[u8]) -> Result<(), SnapshotError> {
        if self.tripped() {
            if let Some(keep) = self.torn_prefix {
                let keep = keep.min(data.len());
                if keep > 0 {
                    self.inner.append(name, &data[..keep])?;
                }
            }
            return Err(Self::injected("append", name));
        }
        self.inner.append(name, data)
    }

    fn flush_sync(&mut self, name: &str) -> Result<(), SnapshotError> {
        if self.tripped() {
            return Err(Self::injected("flush", name));
        }
        self.inner.flush_sync(name)
    }

    fn rename(&mut self, from: &str, to: &str) -> Result<(), SnapshotError> {
        if self.tripped() {
            return Err(Self::injected("rename", from));
        }
        self.inner.rename(from, to)
    }

    fn remove(&mut self, name: &str) -> Result<(), SnapshotError> {
        if self.tripped() {
            return Err(Self::injected("remove", name));
        }
        self.inner.remove(name)
    }

    fn list(&self) -> Result<Vec<String>, SnapshotError> {
        self.inner.list()
    }

    fn read(&self, name: &str) -> Result<Vec<u8>, SnapshotError> {
        self.inner.read(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::MemIo;

    #[test]
    fn counting_mode_counts_without_failing() {
        let mut io = FaultIo::counting(MemIo::new());
        io.create("a", 4).unwrap();
        io.append("a", &[1]).unwrap();
        io.flush_sync("a").unwrap();
        assert_eq!(io.ops(), 3);
    }

    #[test]
    fn fails_at_the_chosen_op_and_stays_down() {
        let mut io = FaultIo::failing_at(MemIo::new(), 1);
        io.create("a", 4).unwrap();
        assert!(io.append("a", &[1]).is_err());
        // A crashed process never succeeds again.
        assert!(io.flush_sync("a").is_err());
        assert!(io.into_inner().read("a").unwrap().is_empty());
    }

    #[test]
    fn torn_prefix_lands_partial_bytes() {
        let mut io = FaultIo::failing_at(MemIo::new(), 1).with_torn_prefix(2);
        io.create("a", 4).unwrap();
        assert!(io.append("a", &[1, 2, 3, 4]).is_err());
        assert_eq!(io.into_inner().read("a").unwrap(), vec![1, 2]);
    }
}
