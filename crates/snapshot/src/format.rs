//! The snapshot container: magic, version, the section payloads, and a
//! checksummed section index as a trailer.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! offset      size  field
//! 0           8     magic  b"INERFSNP"
//! 8           4     format version (currently 3)
//! 12          4     section count S  (capped at 1024)
//! 16          ...   the S payloads, concatenated in index order
//! E-8-24S     24*S  index: per section { tag: [u8;8], payload len: u64,
//!                                        payload checksum64: u64 }
//! E-8         8     checksum64 of the header (bytes 0..16) followed by
//!                   the index                     (E = file length)
//! ```
//!
//! The index trails the payloads so that one writer ([`SectionWriter`])
//! can stream the file in a single pass: each section encodes straight
//! from live state into ≤ 64 KiB pieces, each piece is checksummed while
//! it is still in cache and appended, and the index — whose lengths and
//! checksums are only known by then — goes last. Version 1 (FNV-1a 64 in
//! both checksum fields) and version 2 (the same index, between header
//! and payloads) are refused as [`SnapshotError::UnsupportedVersion`],
//! not migrated.
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

use std::ops::Range;

use crate::checksum::{checksum64, Checksum64};
use crate::codec::Sink;
use crate::error::SnapshotError;

/// First eight bytes of every snapshot file.
pub const MAGIC: [u8; 8] = *b"INERFSNP";
/// Current container format version.
pub const VERSION: u32 = 3;
/// Upper bound on the section count — a corrupted count must not drive
/// a huge index allocation before checksum verification can run.
const MAX_SECTIONS: u32 = 1024;
const HEADER_BYTES: usize = 16;
const INDEX_ENTRY_BYTES: usize = 24;
/// The writer hands the file over in pieces of at most this many bytes:
/// small enough to stay in cache between encode, checksum and append,
/// and a kill-point sweep exercises torn multi-piece writes on
/// realistically sized snapshots.
const WRITE_CHUNK: usize = 64 * 1024;

/// Each section's tag and the byte range of its payload in the file.
type Table = Vec<([u8; 8], Range<usize>)>;

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

/// One section of a container, encoded on demand: the writer pulls its
/// bytes once, straight into the file.
pub struct Section<'a> {
    tag: [u8; 8],
    len: usize,
    encode: Box<dyn Fn(&mut SectionWriter<'_>) + 'a>,
}

impl<'a> Section<'a> {
    /// The section tagged `tag` (at most 8 bytes) whose payload `encode`
    /// writes: exactly `len` bytes.
    pub fn new(tag: &str, len: usize, encode: impl Fn(&mut SectionWriter<'_>) + 'a) -> Self {
        Section {
            tag: tag8(tag),
            len,
            encode: Box::new(encode),
        }
    }

    /// A payload already in memory.
    fn stored(tag: [u8; 8], payload: &'a [u8]) -> Self {
        Section {
            tag,
            len: payload.len(),
            encode: Box::new(move |out| out.put_bytes(payload)),
        }
    }
}

/// Bytes of the container holding `sections`.
pub(crate) fn container_len(sections: &[Section<'_>]) -> usize {
    let payloads: usize = sections.iter().map(|s| s.len).sum();
    HEADER_BYTES + payloads + INDEX_ENTRY_BYTES * sections.len() + 8
}

/// The container writer: a [`Sink`] that stages bytes in one 64 KiB
/// buffer and, whenever it fills, checksums the current section's share
/// of it and hands it to the output.
pub struct SectionWriter<'a> {
    /// Staging buffer, allocated once at `WRITE_CHUNK` bytes; `fill`
    /// of them are live.
    buf: Vec<u8>,
    fill: usize,
    /// Start of the current section's bytes not yet checksummed.
    mark: usize,
    /// Bytes already handed to `out`.
    flushed: usize,
    sum: Checksum64,
    out: &'a mut dyn FnMut(&[u8]),
}

impl<'a> SectionWriter<'a> {
    fn new(out: &'a mut dyn FnMut(&[u8])) -> Self {
        SectionWriter {
            buf: vec![0; WRITE_CHUNK],
            fill: 0,
            mark: 0,
            flushed: 0,
            sum: Checksum64::new(),
            out,
        }
    }

    /// Bytes written so far.
    fn position(&self) -> usize {
        self.flushed + self.fill
    }

    /// Checksums the staged bytes of the current section and hands the
    /// whole piece to the output.
    fn flush(&mut self) {
        self.sum.update(&self.buf[self.mark..self.fill]);
        (self.out)(&self.buf[..self.fill]);
        self.flushed += self.fill;
        self.fill = 0;
        self.mark = 0;
    }

    /// Ends the current section: the checksum of every byte written
    /// since the previous call.
    fn close(&mut self) -> u64 {
        self.sum.update(&self.buf[self.mark..self.fill]);
        self.mark = self.fill;
        std::mem::replace(&mut self.sum, Checksum64::new()).finish()
    }
}

impl Sink for SectionWriter<'_> {
    /// Whole pieces of bytes already in memory go out as they are, with
    /// no staging copy.
    fn put_bytes(&mut self, mut bytes: &[u8]) {
        while !bytes.is_empty() {
            if self.fill == WRITE_CHUNK {
                self.flush();
            }
            if self.fill == 0 && bytes.len() >= WRITE_CHUNK {
                let (piece, rest) = bytes.split_at(WRITE_CHUNK);
                self.sum.update(piece);
                (self.out)(piece);
                self.flushed += WRITE_CHUNK;
                bytes = rest;
                continue;
            }
            let n = (WRITE_CHUNK - self.fill).min(bytes.len());
            self.buf[self.fill..self.fill + n].copy_from_slice(&bytes[..n]);
            self.fill += n;
            bytes = &bytes[n..];
        }
    }

    /// Fills the staging buffer with whole elements, a piece at a time.
    fn put_elems<T, const N: usize>(
        &mut self,
        mut xs: impl ExactSizeIterator<Item = T>,
        to_le: impl Fn(T) -> [u8; N],
    ) {
        const { assert!(N > 0 && N <= WRITE_CHUNK) };
        let mut left = xs.len();
        while left > 0 {
            let room = (WRITE_CHUNK - self.fill) / N;
            if room == 0 {
                self.flush();
                continue;
            }
            let k = room.min(left);
            let dst = &mut self.buf[self.fill..self.fill + k * N];
            for (d, x) in dst.chunks_exact_mut(N).zip(xs.by_ref()) {
                d.copy_from_slice(&to_le(x));
            }
            self.fill += k * N;
            left -= k;
        }
    }
}

/// Streams the container holding `sections` to `out` in one pass: the
/// header, each payload as its section encodes it, then the index and
/// its checksum. Returns the payload table.
pub(crate) fn stream(sections: &[Section<'_>], out: &mut dyn FnMut(&[u8])) -> Table {
    let mut w = SectionWriter::new(out);
    let mut header = [0u8; HEADER_BYTES];
    header[..8].copy_from_slice(&MAGIC);
    header[8..12].copy_from_slice(&VERSION.to_le_bytes());
    header[12..].copy_from_slice(&(sections.len() as u32).to_le_bytes());
    w.put_bytes(&header);
    w.close();
    let mut index = Vec::with_capacity(INDEX_ENTRY_BYTES * sections.len());
    let mut table = Vec::with_capacity(sections.len());
    for section in sections {
        let start = w.position();
        (section.encode)(&mut w);
        let crc = w.close();
        let range = start..w.position();
        debug_assert_eq!(range.len(), section.len, "section size mispredicted");
        index.put_bytes(&section.tag);
        index.put_u64(range.len() as u64);
        index.put_u64(crc);
        table.push((section.tag, range));
    }
    let mut index_sum = Checksum64::new();
    index_sum.update(&header);
    index_sum.update(&index);
    w.put_bytes(&index);
    w.put_u64(index_sum.finish());
    w.flush();
    table
}

/// A snapshot: an ordered list of tagged, independently checksummed
/// byte sections, held in one buffer.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// The container this snapshot was captured or decoded as, or the
    /// pushed payloads back to back.
    bytes: Vec<u8>,
    sections: Table,
}

impl PartialEq for Snapshot {
    /// Equal tags and payloads in the same order, wherever they sit.
    fn eq(&self, other: &Self) -> bool {
        self.payloads().eq(other.payloads())
    }
}

impl Eq for Snapshot {}

impl Snapshot {
    /// An empty snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Encodes `sections` into an in-memory container through the same
    /// writer a checkpoint save streams to storage with.
    pub fn from_sections(sections: &[Section<'_>]) -> Self {
        let mut bytes = Vec::with_capacity(container_len(sections));
        let sections = stream(sections, &mut |piece| bytes.extend_from_slice(piece));
        Snapshot { bytes, sections }
    }

    /// Appends a section. Tags are at most 8 bytes, zero-padded.
    pub fn push(&mut self, tag: &str, payload: Vec<u8>) {
        let start = self.bytes.len();
        self.bytes.extend_from_slice(&payload);
        self.sections.push((tag8(tag), start..self.bytes.len()));
    }

    /// Tags and payloads in file order, borrowed.
    fn payloads(&self) -> impl Iterator<Item = ([u8; 8], &[u8])> {
        let payload = |(tag, range): &([u8; 8], Range<usize>)| (*tag, &self.bytes[range.clone()]);
        self.sections.iter().map(payload)
    }

    /// The sections in file order, as payloads already in memory.
    pub(crate) fn parts(&self) -> Vec<Section<'_>> {
        let part = |(tag, payload)| Section::stored(tag, payload);
        self.payloads().map(part).collect()
    }

    /// The payload of the section tagged `tag`, or `Corrupt` if the
    /// snapshot has no such section (a well-formed container missing a
    /// required record is still not loadable state).
    pub fn section(&self, tag: &str) -> Result<&[u8], SnapshotError> {
        let t = tag8(tag);
        self.payloads()
            .find(|&(st, _)| st == t)
            .map(|(_, payload)| payload)
            .ok_or_else(|| SnapshotError::Corrupt(format!("missing section `{tag}`")))
    }

    /// Section tags in file order (diagnostics and tests).
    pub fn tags(&self) -> Vec<String> {
        self.sections.iter().map(|(t, _)| tag_str(t)).collect()
    }

    /// Serializes the container.
    pub fn encode(&self) -> Vec<u8> {
        Self::from_sections(&self.parts()).bytes
    }

    /// Parses and fully validates a copy of a container. Any structural
    /// damage — truncation, trailing bytes, or a flipped bit anywhere in
    /// the file — yields a typed error, never a panic and never wrong
    /// data.
    pub fn decode(bytes: &[u8]) -> Result<Self, SnapshotError> {
        Self::decode_owned(bytes.to_vec())
    }

    /// [`Snapshot::decode`] keeping `bytes` as the snapshot's buffer:
    /// sections are handed out as slices of the file as it was read.
    pub(crate) fn decode_owned(bytes: Vec<u8>) -> Result<Self, SnapshotError> {
        let sections = validate(&bytes)?;
        Ok(Snapshot { bytes, sections })
    }
}

fn le_u64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().unwrap_or_default())
}

/// Validates a container and returns its payload table.
fn validate(bytes: &[u8]) -> Result<Table, SnapshotError> {
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
    let index_len = count as usize * INDEX_ENTRY_BYTES;
    let trailer = index_len + 8;
    if bytes.len() < HEADER_BYTES + trailer {
        return Err(SnapshotError::Corrupt(format!(
            "file too short for its section index: {} < {} bytes",
            bytes.len(),
            HEADER_BYTES + trailer
        )));
    }
    let (index, stored_index_crc) = bytes[bytes.len() - trailer..].split_at(index_len);
    let mut index_sum = Checksum64::new();
    index_sum.update(&bytes[..HEADER_BYTES]);
    index_sum.update(index);
    if index_sum.finish() != le_u64(stored_index_crc) {
        return Err(SnapshotError::Corrupt("index checksum mismatch".into()));
    }
    // The index is now trustworthy; lengths and checksums from it can
    // drive payload slicing.
    let mut expected_total = (HEADER_BYTES + trailer) as u64;
    for entry in index.chunks_exact(INDEX_ENTRY_BYTES) {
        expected_total = expected_total
            .checked_add(le_u64(&entry[8..16]))
            .ok_or_else(|| {
                SnapshotError::Corrupt("section lengths overflow the file size".into())
            })?;
    }
    if expected_total != bytes.len() as u64 {
        return Err(SnapshotError::Corrupt(format!(
            "file length {} does not match declared contents {expected_total}",
            bytes.len()
        )));
    }
    let mut sections = Vec::with_capacity(count as usize);
    let mut off = HEADER_BYTES;
    for entry in index.chunks_exact(INDEX_ENTRY_BYTES) {
        let tag: [u8; 8] = entry[..8].try_into().unwrap_or_default();
        // Fits: the lengths sum to the file size.
        let range = off..off + le_u64(&entry[8..16]) as usize;
        if checksum64(&bytes[range.clone()]) != le_u64(&entry[16..]) {
            return Err(SnapshotError::Corrupt(format!(
                "section `{}` checksum mismatch",
                tag_str(&tag)
            )));
        }
        off = range.end;
        sections.push((tag, range));
    }
    Ok(sections)
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

    /// `params` = `[1, 2, 3]`, the one section of the pinned old files.
    fn params_123() -> Snapshot {
        let mut s = Snapshot::new();
        s.push("params", vec![1, 2, 3]);
        s
    }

    /// `old`, a 51-byte container of versions 1 or 2 (header, one index
    /// entry, index checksum, 3-byte payload), with its payload moved
    /// ahead of its index: where version 3 puts each byte.
    fn payload_first(old: &[u8; 51]) -> Vec<u8> {
        [&old[..16], &old[48..], &old[16..48]].concat()
    }

    /// A valid version-1 container (FNV-1a 64 checksums) holding one
    /// section `params` = `[1, 2, 3]`, as version-1 code wrote it.
    pub(crate) const V1_FILE: [u8; 51] = [
        0x49, 0x4e, 0x45, 0x52, 0x46, 0x53, 0x4e, 0x50, 0x01, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00,
        0x00, 0x70, 0x61, 0x72, 0x61, 0x6d, 0x73, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0xab, 0xf5, 0x2c, 0x67, 0x18, 0x62, 0xaa, 0xd0, 0xb4, 0xa8, 0xcb, 0x7e, 0x8c,
        0x15, 0xf5, 0xf4, 0x01, 0x02, 0x03,
    ];

    /// The same section as version-2 code wrote it: the index between
    /// header and payload, four-lane checksums.
    const V2_FILE: [u8; 51] = [
        0x49, 0x4e, 0x45, 0x52, 0x46, 0x53, 0x4e, 0x50, 0x02, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00,
        0x00, 0x70, 0x61, 0x72, 0x61, 0x6d, 0x73, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0xe0, 0x33, 0x2e, 0x26, 0x3d, 0xe2, 0x18, 0xd6, 0xa0, 0x43, 0x06, 0x12, 0xbb,
        0x8f, 0x54, 0x34, 0x01, 0x02, 0x03,
    ];

    #[test]
    fn version_1_files_are_refused_not_migrated() {
        let err = Snapshot::decode(&V1_FILE).unwrap_err();
        assert!(matches!(err, SnapshotError::UnsupportedVersion(1)), "{err}");
        assert!(err.is_detected_corruption());
        // The same section written today differs, once version 1's
        // payload is moved ahead of its index, in the version word and
        // the checksum fields only (payload checksum at 35..43, index
        // checksum at 43..51).
        let v3 = params_123().encode();
        let v1 = payload_first(&V1_FILE);
        assert_eq!(v3.len(), v1.len());
        let differing: Vec<usize> = (0..v3.len()).filter(|&i| v3[i] != v1[i]).collect();
        assert_eq!(differing.first(), Some(&8));
        assert!(differing[1..].iter().all(|i| (35..51).contains(i)));
    }

    #[test]
    fn version_2_files_are_refused_not_migrated() {
        let err = Snapshot::decode(&V2_FILE).unwrap_err();
        assert!(matches!(err, SnapshotError::UnsupportedVersion(2)), "{err}");
        assert!(err.is_detected_corruption());
        // Version 3 keeps version 2's checksums and moves the index
        // behind the payloads: only the version word and the index
        // checksum, which covers it, differ.
        let v3 = params_123().encode();
        let v2 = payload_first(&V2_FILE);
        assert_eq!(v3.len(), v2.len());
        let differing: Vec<usize> = (0..v3.len()).filter(|&i| v3[i] != v2[i]).collect();
        assert_eq!(differing.first(), Some(&8));
        assert!(differing[1..].iter().all(|i| (43..51).contains(i)));
    }

    /// A payload of 2-, 12- and 8-byte columns around loose bytes, several
    /// pieces long: the loose bytes put the columns off the piece
    /// boundaries, and 12-byte records do not divide a piece.
    fn columns<S: Sink>(out: &mut S, words: &[u64]) {
        out.put_u8(7);
        out.put_elems(words.iter().map(|&w| w as u16), u16::to_le_bytes);
        out.put_elems(
            words
                .iter()
                .map(|&w| [w as u32, (w >> 32) as u32, !(w as u32)]),
            |r| {
                let mut b = [0u8; 12];
                for (d, x) in b.chunks_exact_mut(4).zip(r) {
                    d.copy_from_slice(&x.to_le_bytes());
                }
                b
            },
        );
        out.put_bytes(&[1, 2, 3]);
        out.put_elems(words.iter().copied(), u64::to_le_bytes);
    }

    #[test]
    fn sections_stream_across_pieces_as_a_vec_encodes_them() {
        let words: Vec<u64> = (0..20_000u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        let mut want = Vec::new();
        columns(&mut want, &words);
        assert!(want.len() > 6 * WRITE_CHUNK);
        let sections = [
            Section::new("small", 2, |out| out.put_bytes(&[9, 8])),
            Section::new("big", want.len(), |out| columns(out, &words)),
            Section::new("empty", 0, |_| {}),
        ];
        let snap = Snapshot::from_sections(&sections);
        assert_eq!(snap.tags(), vec!["small", "big", "empty"]);
        assert_eq!(snap.section("big").unwrap(), &want[..]);
        assert_eq!(snap.section("small").unwrap(), &[9, 8]);
        // The file goes out in whole pieces of at most `WRITE_CHUNK`
        // bytes, and its piecewise checksums validate.
        let mut pieces = Vec::new();
        stream(&sections, &mut |piece| pieces.push(piece.len()));
        assert!(pieces.len() > 6);
        assert!(pieces.iter().all(|&n| 0 < n && n <= WRITE_CHUNK));
        // Re-encoding the stored payloads, whole pieces straight from the
        // buffer, gives the same file.
        let bytes = snap.encode();
        assert_eq!(bytes, snap.bytes);
        assert_eq!(pieces.iter().sum::<usize>(), bytes.len());
        assert_eq!(bytes.len(), container_len(&sections));
        assert_eq!(Snapshot::decode_owned(bytes).unwrap(), snap);
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
