//! Crash-safe training snapshots.
//!
//! A training run that can be killed at any byte boundary and resume
//! with a bit-identical loss trajectory needs three things, and this
//! crate provides exactly those, with no dependencies beyond `std`:
//!
//! * **A validated container** ([`Snapshot`], [`mod@format`]) — versioned
//!   (older versions are refused, not migrated), magic-tagged, with the
//!   section index and each payload checksummed at memory speed
//!   ([`checksum`]). Any flipped bit, truncation or trailing garbage
//!   anywhere in the file is *detected* and reported as a typed
//!   [`SnapshotError`]; decoding never panics and never returns wrong data.
//!   It validates the file where it lies and copies nothing: a snapshot
//!   holds the bytes as the reader handed them over, borrowed or owned.
//! * **An atomic write protocol** ([`rotate`]) — temp file → flush →
//!   rename, with keep-last-K rotation and stale-temp cleanup. One
//!   writer ([`write_sections`]) streams the file in a single pass: each
//!   [`Section`] encodes straight from the caller's live state into
//!   ≤ 64 KiB pieces that are checksummed and appended in turn. The
//!   rename is the single commit point, so a crash leaves either the
//!   previous checkpoint set or the new one, never a half-written
//!   artifact under a live name.
//! * **An injectable IO seam** ([`SnapshotIo`], [`io`], [`fault`]) —
//!   every storage touch goes through a trait, so the fault harness can
//!   simulate a kill at every create/append/flush/rename/remove
//!   boundary (including torn appends) and the test suite can prove the
//!   protocol safe instead of asserting it.
//!
//! The trainer-facing state capture (parameter stores, Adam moments,
//! RNG, config fingerprint) lives in `inerf_trainer::checkpoint`, whose
//! sections encode through [`codec`] into this container.
//!
//! # Example
//!
//! ```
//! use inerf_snapshot::{load_latest, write_snapshot, MemIo, Snapshot};
//!
//! let mut io = MemIo::new();
//! let mut snap = Snapshot::new();
//! snap.push("params", vec![1, 2, 3]);
//! write_snapshot(&mut io, 100, &snap, 2).unwrap();
//! let (step, loaded) = load_latest(&io).unwrap();
//! assert_eq!(step, 100);
//! assert_eq!(loaded.section("params").unwrap(), &[1, 2, 3]);
//! ```

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod checksum;
pub mod codec;
pub mod error;
pub mod fault;
pub mod format;
pub mod io;
pub mod rotate;

pub use error::SnapshotError;
pub use fault::FaultIo;
pub use format::{Section, SectionWriter, Snapshot};
pub use io::{atomic_write_file, MemIo, SnapshotIo, StdIo};
pub use rotate::{list_snapshots, load_latest, snapshot_name, write_sections, write_snapshot};
