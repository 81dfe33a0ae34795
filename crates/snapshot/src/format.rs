//! The snapshot container: magic, version, checksummed section index.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"INERFSNP"
//! 8       4     format version (currently 2)
//! 12      4     section count S  (capped at 1024)
//! 16      24*S  index: per section { tag: [u8;8], payload len: u64,
//!                                    payload checksum64: u64 }
//! 16+24S  8     checksum64 of every byte above (header + index)
//! ...           the S payloads, concatenated in index order
//! ```
//!
//! Version 1 (FNV-1a 64 in both checksum fields) is refused as
//! [`SnapshotError::UnsupportedVersion`], not migrated.
//!
//! Validation order matters: the index checksum is verified *before* any
//! payload length from the index is trusted, the total length must match
//! the sum of section lengths *exactly* (no trailing bytes — a torn
//! append or a concatenated pair of files is corruption, not slack), and
//! each payload is checksummed independently so the error names the
//! section that went bad. Under this scheme any single corrupted byte —
//! header, index, checksum field or payload — is detected (the checksum
//! step is injective in its word, see [`crate::checksum`]), which the
//! byte-flip sweep in `tests/corruption.rs` verifies exhaustively.

use crate::checksum::checksum64;
use crate::codec::{put_u32, put_u64};
use crate::error::SnapshotError;

/// First eight bytes of every snapshot file.
pub const MAGIC: [u8; 8] = *b"INERFSNP";
/// Current container format version.
pub const VERSION: u32 = 2;
/// Upper bound on the section count — a corrupted count must not drive
/// a huge index allocation before checksum verification can run.
const MAX_SECTIONS: u32 = 1024;
const HEADER_BYTES: usize = 16;
const INDEX_ENTRY_BYTES: usize = 24;

/// An in-memory snapshot: an ordered list of tagged, independently
/// checksummed byte sections.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    sections: Vec<([u8; 8], Vec<u8>)>,
}

fn tag8(tag: &str) -> [u8; 8] {
    debug_assert!(tag.len() <= 8, "section tag `{tag}` longer than 8 bytes");
    let mut t = [0u8; 8];
    let n = tag.len().min(8);
    t[..n].copy_from_slice(&tag.as_bytes()[..n]);
    t
}

fn tag_str(tag: &[u8; 8]) -> String {
    let end = tag.iter().position(|&b| b == 0).unwrap_or(8);
    String::from_utf8_lossy(&tag[..end]).into_owned()
}

impl Snapshot {
    /// An empty snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a section. Tags are at most 8 bytes, zero-padded.
    pub fn push(&mut self, tag: &str, payload: Vec<u8>) {
        self.sections.push((tag8(tag), payload));
    }

    /// The payload of the section tagged `tag`, or `Corrupt` if the
    /// snapshot has no such section (a well-formed container missing a
    /// required record is still not loadable state).
    pub fn section(&self, tag: &str) -> Result<&[u8], SnapshotError> {
        let t = tag8(tag);
        self.sections
            .iter()
            .find(|(st, _)| *st == t)
            .map(|(_, p)| p.as_slice())
            .ok_or_else(|| SnapshotError::Corrupt(format!("missing section `{tag}`")))
    }

    /// Section tags in file order (diagnostics and tests).
    pub fn tags(&self) -> Vec<String> {
        self.sections.iter().map(|(t, _)| tag_str(t)).collect()
    }

    /// The header and the checksummed index, which precede the payloads.
    pub(crate) fn head(&self) -> Vec<u8> {
        let mut head = MAGIC.to_vec();
        put_u32(&mut head, VERSION);
        put_u32(&mut head, self.sections.len() as u32);
        for (tag, payload) in &self.sections {
            head.extend_from_slice(tag);
            put_u64(&mut head, payload.len() as u64);
            put_u64(&mut head, checksum64(payload));
        }
        let index_crc = checksum64(&head);
        put_u64(&mut head, index_crc);
        head
    }

    /// The payloads in file order, borrowed.
    pub(crate) fn payloads(&self) -> impl Iterator<Item = &[u8]> {
        self.sections.iter().map(|(_, p)| p.as_slice())
    }

    /// Serializes the container.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = self.head();
        for payload in self.payloads() {
            out.extend_from_slice(payload);
        }
        out
    }

    /// Parses and fully validates a container. Any structural damage —
    /// truncation, trailing bytes, or a flipped bit anywhere in the file
    /// — yields a typed error, never a panic and never wrong data.
    pub fn decode(bytes: &[u8]) -> Result<Self, SnapshotError> {
        if bytes.len() < HEADER_BYTES {
            return Err(SnapshotError::Corrupt(format!(
                "file too short for header: {} bytes",
                bytes.len()
            )));
        }
        if bytes[..8] != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
        if version != VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        let count = u32::from_le_bytes([bytes[12], bytes[13], bytes[14], bytes[15]]);
        if count > MAX_SECTIONS {
            return Err(SnapshotError::Corrupt(format!(
                "implausible section count {count}"
            )));
        }
        let index_end = HEADER_BYTES + count as usize * INDEX_ENTRY_BYTES;
        let payload_start = index_end + 8;
        if bytes.len() < payload_start {
            return Err(SnapshotError::Corrupt(format!(
                "file truncated inside section index: {} < {payload_start} bytes",
                bytes.len()
            )));
        }
        let stored_index_crc = u64::from_le_bytes(
            bytes[index_end..payload_start]
                .try_into()
                .map_err(|_| SnapshotError::Corrupt("index checksum unreadable".into()))?,
        );
        if checksum64(&bytes[..index_end]) != stored_index_crc {
            return Err(SnapshotError::Corrupt("index checksum mismatch".into()));
        }
        // The index is now trustworthy; lengths and checksums from it
        // can drive payload slicing.
        let mut entries = Vec::with_capacity(count as usize);
        let mut expected_total = payload_start as u64;
        for i in 0..count as usize {
            let e = HEADER_BYTES + i * INDEX_ENTRY_BYTES;
            let mut tag = [0u8; 8];
            tag.copy_from_slice(&bytes[e..e + 8]);
            let len = u64::from_le_bytes(
                bytes[e + 8..e + 16]
                    .try_into()
                    .map_err(|_| SnapshotError::Corrupt("index entry unreadable".into()))?,
            );
            let crc = u64::from_le_bytes(
                bytes[e + 16..e + 24]
                    .try_into()
                    .map_err(|_| SnapshotError::Corrupt("index entry unreadable".into()))?,
            );
            expected_total = expected_total.checked_add(len).ok_or_else(|| {
                SnapshotError::Corrupt("section lengths overflow the file size".into())
            })?;
            entries.push((tag, len, crc));
        }
        if expected_total != bytes.len() as u64 {
            return Err(SnapshotError::Corrupt(format!(
                "file length {} does not match declared contents {expected_total}",
                bytes.len()
            )));
        }
        let mut sections = Vec::with_capacity(entries.len());
        let mut off = payload_start;
        for (tag, len, crc) in entries {
            let len = len as usize; // fits: expected_total == bytes.len()
            let payload = &bytes[off..off + len];
            if checksum64(payload) != crc {
                return Err(SnapshotError::Corrupt(format!(
                    "section `{}` checksum mismatch",
                    tag_str(&tag)
                )));
            }
            sections.push((tag, payload.to_vec()));
            off += len;
        }
        Ok(Snapshot { sections })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn sample() -> Snapshot {
        let mut s = Snapshot::new();
        s.push("alpha", vec![1, 2, 3, 4]);
        s.push("beta", vec![]);
        s.push("gamma", (0u8..=255).collect());
        s
    }

    #[test]
    fn round_trip_preserves_sections_and_order() {
        let s = sample();
        let decoded = Snapshot::decode(&s.encode()).unwrap();
        assert_eq!(decoded, s);
        assert_eq!(decoded.tags(), vec!["alpha", "beta", "gamma"]);
        assert_eq!(decoded.section("gamma").unwrap().len(), 256);
        assert!(matches!(
            decoded.section("delta"),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let s = Snapshot::new();
        assert_eq!(Snapshot::decode(&s.encode()).unwrap(), s);
    }

    #[test]
    fn bad_magic_and_version_are_typed() {
        let mut bytes = sample().encode();
        bytes[0] ^= 0xFF;
        assert!(matches!(
            Snapshot::decode(&bytes),
            Err(SnapshotError::BadMagic)
        ));
        let mut bytes = sample().encode();
        bytes[8] = 99;
        assert!(matches!(
            Snapshot::decode(&bytes),
            Err(SnapshotError::UnsupportedVersion(99))
        ));
    }

    /// A valid version-1 container (FNV-1a 64 checksums) holding one
    /// section `params` = `[1, 2, 3]`, as version-1 code wrote it.
    pub(crate) const V1_FILE: [u8; 51] = [
        0x49, 0x4e, 0x45, 0x52, 0x46, 0x53, 0x4e, 0x50, 0x01, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00,
        0x00, 0x70, 0x61, 0x72, 0x61, 0x6d, 0x73, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0xab, 0xf5, 0x2c, 0x67, 0x18, 0x62, 0xaa, 0xd0, 0xb4, 0xa8, 0xcb, 0x7e, 0x8c,
        0x15, 0xf5, 0xf4, 0x01, 0x02, 0x03,
    ];

    #[test]
    fn version_1_files_are_refused_not_migrated() {
        let err = Snapshot::decode(&V1_FILE).unwrap_err();
        assert!(matches!(err, SnapshotError::UnsupportedVersion(1)), "{err}");
        assert!(err.is_detected_corruption());
        // The same section written today differs in the version word and
        // the checksum fields only.
        let mut s = Snapshot::new();
        s.push("params", vec![1, 2, 3]);
        let v2 = s.encode();
        let differing: Vec<usize> = (0..v2.len()).filter(|&i| v2[i] != V1_FILE[i]).collect();
        assert_eq!(differing.first(), Some(&8));
        assert!(differing[1..].iter().all(|i| (32..48).contains(i)));
    }

    #[test]
    fn every_prefix_truncation_is_detected() {
        let bytes = sample().encode();
        for n in 0..bytes.len() {
            let err = Snapshot::decode(&bytes[..n]).unwrap_err();
            assert!(err.is_detected_corruption(), "prefix {n}: {err}");
        }
    }

    #[test]
    fn trailing_garbage_is_detected() {
        let mut bytes = sample().encode();
        bytes.push(0);
        assert!(matches!(
            Snapshot::decode(&bytes),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    #[test]
    fn implausible_section_count_is_rejected_cheaply() {
        let mut bytes = Snapshot::new().encode();
        bytes[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            Snapshot::decode(&bytes),
            Err(SnapshotError::Corrupt(_))
        ));
    }
}
