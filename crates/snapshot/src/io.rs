//! The injectable IO layer behind the atomic write protocol.
//!
//! Everything the snapshot store does to storage goes through the
//! [`SnapshotIo`] trait — create, append, flush, rename, remove, list,
//! read — so the fault-injection harness ([`crate::fault::FaultIo`]) can
//! kill a "process" at any IO boundary and the recovery sweep can prove
//! the protocol safe. [`StdIo`] is the real filesystem backend;
//! [`MemIo`] is the in-memory backend the tests drive (its state after a
//! simulated crash is exactly what a kill at that boundary would leave
//! on disk: partially appended temp files stay visible).
//!
//! A read hands the file over without a copy where the backend can:
//! [`MemIo`] lends its buffer, and [`StdIo`] gives up the one it read the
//! file into. Either way a resume holds the file's bytes once.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use crate::error::SnapshotError;

/// Minimal storage interface the snapshot protocol is written against.
///
/// Names are flat (no directory components); the backend decides where
/// they live. All operations return the crate's typed error — backends
/// must not panic on IO failure.
pub trait SnapshotIo {
    /// Creates (or truncates) `name` and opens it for appending; `len` is
    /// the size to expect, a hint a backend may allocate up front.
    fn create(&mut self, name: &str, len: usize) -> Result<(), SnapshotError>;
    /// Appends `data` to a file previously opened with [`Self::create`].
    fn append(&mut self, name: &str, data: &[u8]) -> Result<(), SnapshotError>;
    /// Flushes buffered writes of `name` down to durable storage.
    fn flush_sync(&mut self, name: &str) -> Result<(), SnapshotError>;
    /// Atomically renames `from` to `to`, replacing any existing `to`.
    fn rename(&mut self, from: &str, to: &str) -> Result<(), SnapshotError>;
    /// Deletes `name`.
    fn remove(&mut self, name: &str) -> Result<(), SnapshotError>;
    /// All file names currently present, sorted.
    fn list(&self) -> Result<Vec<String>, SnapshotError>;
    /// The full contents of `name`: borrowed from the backend if it holds
    /// them in memory, owned if it had to read them.
    fn read(&self, name: &str) -> Result<Cow<'_, [u8]>, SnapshotError>;
}

/// Real-filesystem backend: every name lives under one root directory.
#[derive(Debug)]
pub struct StdIo {
    root: PathBuf,
    open: BTreeMap<String, fs::File>,
}

impl StdIo {
    /// A backend rooted at `root` (created on first write).
    pub fn new(root: impl Into<PathBuf>) -> Self {
        StdIo {
            root: root.into(),
            open: BTreeMap::new(),
        }
    }

    /// The directory this backend writes into.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn path(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }
}

impl SnapshotIo for StdIo {
    fn create(&mut self, name: &str, _len: usize) -> Result<(), SnapshotError> {
        fs::create_dir_all(&self.root).map_err(|e| SnapshotError::io("create", name, &e))?;
        let f =
            fs::File::create(self.path(name)).map_err(|e| SnapshotError::io("create", name, &e))?;
        self.open.insert(name.to_string(), f);
        Ok(())
    }

    fn append(&mut self, name: &str, data: &[u8]) -> Result<(), SnapshotError> {
        let f = self.open.get_mut(name).ok_or_else(|| SnapshotError::Io {
            op: "append",
            name: name.to_string(),
            detail: "file not open".to_string(),
        })?;
        f.write_all(data)
            .map_err(|e| SnapshotError::io("append", name, &e))
    }

    fn flush_sync(&mut self, name: &str) -> Result<(), SnapshotError> {
        let f = self.open.get_mut(name).ok_or_else(|| SnapshotError::Io {
            op: "flush",
            name: name.to_string(),
            detail: "file not open".to_string(),
        })?;
        f.flush()
            .map_err(|e| SnapshotError::io("flush", name, &e))?;
        f.sync_all()
            .map_err(|e| SnapshotError::io("sync", name, &e))
    }

    fn rename(&mut self, from: &str, to: &str) -> Result<(), SnapshotError> {
        // Close the handle first; some platforms refuse to rename an
        // open file.
        self.open.remove(from);
        fs::rename(self.path(from), self.path(to))
            .map_err(|e| SnapshotError::io("rename", from, &e))
    }

    fn remove(&mut self, name: &str) -> Result<(), SnapshotError> {
        self.open.remove(name);
        fs::remove_file(self.path(name)).map_err(|e| SnapshotError::io("remove", name, &e))
    }

    fn list(&self) -> Result<Vec<String>, SnapshotError> {
        if !self.root.exists() {
            return Ok(Vec::new());
        }
        let entries = fs::read_dir(&self.root).map_err(|e| SnapshotError::io("list", ".", &e))?;
        let mut names = Vec::new();
        for entry in entries {
            let entry = entry.map_err(|e| SnapshotError::io("list", ".", &e))?;
            if entry.path().is_file() {
                names.push(entry.file_name().to_string_lossy().into_owned());
            }
        }
        names.sort();
        Ok(names)
    }

    fn read(&self, name: &str) -> Result<Cow<'_, [u8]>, SnapshotError> {
        fs::read(self.path(name))
            .map(Cow::Owned)
            .map_err(|e| SnapshotError::io("read", name, &e))
    }
}

/// In-memory backend for tests and fault sweeps.
///
/// Semantics deliberately mirror a crashed filesystem: a file created
/// and partially appended is visible with exactly the bytes that landed
/// before the crash — there is no hidden buffering to hide a torn write.
#[derive(Debug, Clone, Default)]
pub struct MemIo {
    files: BTreeMap<String, Vec<u8>>,
}

impl MemIo {
    /// An empty in-memory store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Seeds a file directly (test setup).
    pub fn insert(&mut self, name: &str, bytes: Vec<u8>) {
        self.files.insert(name.to_string(), bytes);
    }

    /// Direct view of the stored files (test assertions).
    pub fn files(&self) -> &BTreeMap<String, Vec<u8>> {
        &self.files
    }

    fn get_mut(&mut self, op: &'static str, name: &str) -> Result<&mut Vec<u8>, SnapshotError> {
        self.files.get_mut(name).ok_or_else(|| SnapshotError::Io {
            op,
            name: name.to_string(),
            detail: "no such file".to_string(),
        })
    }
}

impl SnapshotIo for MemIo {
    fn create(&mut self, name: &str, len: usize) -> Result<(), SnapshotError> {
        // Allocated once: growth by doubling would vary with heap history.
        self.files.insert(name.to_string(), Vec::with_capacity(len));
        Ok(())
    }

    fn append(&mut self, name: &str, data: &[u8]) -> Result<(), SnapshotError> {
        self.get_mut("append", name)?.extend_from_slice(data);
        Ok(())
    }

    fn flush_sync(&mut self, name: &str) -> Result<(), SnapshotError> {
        self.get_mut("flush", name).map(|_| ())
    }

    fn rename(&mut self, from: &str, to: &str) -> Result<(), SnapshotError> {
        let bytes = self.files.remove(from).ok_or_else(|| SnapshotError::Io {
            op: "rename",
            name: from.to_string(),
            detail: "no such file".to_string(),
        })?;
        self.files.insert(to.to_string(), bytes);
        Ok(())
    }

    fn remove(&mut self, name: &str) -> Result<(), SnapshotError> {
        self.files
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| SnapshotError::Io {
                op: "remove",
                name: name.to_string(),
                detail: "no such file".to_string(),
            })
    }

    fn list(&self) -> Result<Vec<String>, SnapshotError> {
        Ok(self.files.keys().cloned().collect())
    }

    fn read(&self, name: &str) -> Result<Cow<'_, [u8]>, SnapshotError> {
        self.files
            .get(name)
            .map(|bytes| Cow::Borrowed(bytes.as_slice()))
            .ok_or_else(|| SnapshotError::Io {
                op: "read",
                name: name.to_string(),
                detail: "no such file".to_string(),
            })
    }
}

/// Atomically replaces `path` with `bytes`: write to `<path>.tmp` in the
/// same directory, flush and sync, then rename over the target.
///
/// An interrupted writer leaves either the previous file intact or a
/// `.tmp` residue next to it — never a truncated target. This is the
/// same protocol the snapshot store uses, exposed plainly so the bench
/// harness JSON records and similar artifacts can share it.
pub fn atomic_write_file(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut tmp_os = path.as_os_str().to_owned();
    tmp_os.push(".tmp");
    let tmp = PathBuf::from(tmp_os);
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.flush()?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memio_mirrors_crash_visible_state() {
        let mut io = MemIo::new();
        io.create("a.tmp", 3).unwrap();
        io.append("a.tmp", &[1, 2]).unwrap();
        io.append("a.tmp", &[3]).unwrap();
        // A crash here must leave the partial bytes visible.
        assert_eq!(io.read("a.tmp").unwrap(), vec![1, 2, 3]);
        io.flush_sync("a.tmp").unwrap();
        io.rename("a.tmp", "a").unwrap();
        assert_eq!(io.list().unwrap(), vec!["a"]);
        io.remove("a").unwrap();
        assert!(io.list().unwrap().is_empty());
        assert!(io.read("a").is_err());
        assert!(io.append("a", &[0]).is_err());
        assert!(io.remove("a").is_err());
    }

    #[test]
    fn memio_lends_its_buffer_to_a_read() {
        let mut io = MemIo::new();
        io.insert("a", vec![1, 2, 3]);
        let read = io.read("a").unwrap();
        assert!(matches!(read, Cow::Borrowed(_)));
        assert_eq!(read.as_ptr(), io.files()["a"].as_ptr());
    }

    #[test]
    fn stdio_round_trips_on_disk() {
        let root = std::env::temp_dir().join(format!("inerf-snap-io-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        let mut io = StdIo::new(&root);
        io.create("x.tmp", 11).unwrap();
        io.append("x.tmp", b"hello ").unwrap();
        io.append("x.tmp", b"world").unwrap();
        io.flush_sync("x.tmp").unwrap();
        io.rename("x.tmp", "x").unwrap();
        let read = io.read("x").unwrap();
        assert!(matches!(read, Cow::Owned(_)));
        assert_eq!(read, &b"hello world"[..]);
        assert_eq!(io.list().unwrap(), vec!["x"]);
        io.remove("x").unwrap();
        assert!(io.list().unwrap().is_empty());
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn atomic_write_file_replaces_without_residue() {
        let root = std::env::temp_dir().join(format!("inerf-snap-aw-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(&root).unwrap();
        let target = root.join("report.json");
        atomic_write_file(&target, b"{\"v\":1}").unwrap();
        atomic_write_file(&target, b"{\"v\":2}").unwrap();
        assert_eq!(fs::read(&target).unwrap(), b"{\"v\":2}");
        // No temp residue after a clean write.
        let names: Vec<_> = fs::read_dir(&root)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, vec![std::ffi::OsString::from("report.json")]);
        fs::remove_dir_all(&root).unwrap();
    }
}
