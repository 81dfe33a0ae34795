//! Little-endian byte codec used by the snapshot format and its payloads.
//!
//! Writers append to a [`Sink`]: a plain `Vec<u8>`, or the container
//! writer ([`crate::format::SectionWriter`]) that streams a section
//! straight into the file. Readers consume through [`Reader`], which
//! surfaces every overrun, length overflow or trailing garbage as
//! [`SnapshotError::Corrupt`] instead of panicking — the
//! no-panic-on-any-input invariant the byte-flip sweep relies on.
//!
//! Columns are encoded as a `u64` element count followed by the raw
//! little-endian elements; floats travel as their IEEE 754 bit patterns
//! so round-trips are bit-exact (including NaN payloads and signed
//! zeros — a resume must reproduce *bits*, not values).

use crate::error::SnapshotError;

/// A destination for little-endian encoded bytes.
pub trait Sink {
    /// Appends raw bytes.
    fn put_bytes(&mut self, bytes: &[u8]);

    /// Appends each element of `xs` as its `N` little-endian bytes, with
    /// no length prefix, in bulk.
    fn put_elems<T, const N: usize>(
        &mut self,
        xs: impl ExactSizeIterator<Item = T>,
        to_le: impl Fn(T) -> [u8; N],
    );

    /// Appends a `u8`.
    fn put_u8(&mut self, v: u8) {
        self.put_bytes(&[v]);
    }

    /// Appends a `u32`, little-endian.
    fn put_u32(&mut self, v: u32) {
        self.put_bytes(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    fn put_u64(&mut self, v: u64) {
        self.put_bytes(&v.to_le_bytes());
    }

    /// Appends an `f32` as its bit pattern, little-endian.
    fn put_f32(&mut self, v: f32) {
        self.put_u32(v.to_bits());
    }

    /// Appends a length-prefixed column of `N`-byte little-endian
    /// elements; an iterator needs no intermediate slice.
    fn put_column<T, const N: usize>(
        &mut self,
        xs: impl ExactSizeIterator<Item = T>,
        to_le: impl Fn(T) -> [u8; N],
    ) {
        self.put_u64(xs.len() as u64);
        self.put_elems(xs, to_le);
    }
}

/// Reserves once per column, then appends each element's bytes.
impl Sink for Vec<u8> {
    fn put_bytes(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }

    fn put_elems<T, const N: usize>(
        &mut self,
        xs: impl ExactSizeIterator<Item = T>,
        to_le: impl Fn(T) -> [u8; N],
    ) {
        self.reserve(xs.len() * N);
        for x in xs {
            self.extend_from_slice(&to_le(x));
        }
    }
}

/// A bounds-checked cursor over an untrusted byte buffer.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Starts reading `buf` from the beginning.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes left to consume.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if n > self.remaining() {
            return Err(SnapshotError::Corrupt(format!(
                "record truncated: need {n} bytes, have {}",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads a `u8`.
    pub fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapshotError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapshotError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads an `f32` bit pattern.
    pub fn f32(&mut self) -> Result<f32, SnapshotError> {
        Ok(f32::from_bits(self.u32()?))
    }

    /// Reads a length prefix, guarding against lengths that cannot fit
    /// in the remaining bytes (a corrupted prefix must not trigger a
    /// huge allocation before the bounds check catches it).
    fn len_prefix(&mut self, elem_bytes: usize) -> Result<usize, SnapshotError> {
        let raw = self.u64()?;
        let n = usize::try_from(raw)
            .ok()
            .and_then(|n| n.checked_mul(elem_bytes).map(|total| (n, total)));
        match n {
            Some((n, total)) if total <= self.remaining() => Ok(n),
            _ => Err(SnapshotError::Corrupt(format!(
                "slice length {raw} overruns record ({} bytes remain)",
                self.remaining()
            ))),
        }
    }

    /// Reads a length-prefixed column of `N`-byte little-endian elements,
    /// yielding each element's bytes straight from the buffer.
    pub fn column<const N: usize>(
        &mut self,
    ) -> Result<impl ExactSizeIterator<Item = [u8; N]> + 'a, SnapshotError> {
        const { assert!(N > 0) };
        let n = self.len_prefix(N)?;
        let bytes = self.take(n * N)?.chunks_exact(N);
        Ok(bytes.map(|c| c.try_into().unwrap_or([0; N])))
    }

    /// Reads a length-prefixed `u64` slice.
    pub fn u64_vec(&mut self) -> Result<Vec<u64>, SnapshotError> {
        Ok(self.column()?.map(u64::from_le_bytes).collect())
    }

    /// Consumes the reader, failing if any bytes were left unread —
    /// trailing garbage means the record is not what the decoder thinks
    /// it is.
    pub fn finish(self) -> Result<(), SnapshotError> {
        if self.remaining() != 0 {
            return Err(SnapshotError::Corrupt(format!(
                "{} trailing bytes after record",
                self.remaining()
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::{Section, Snapshot};
    use proptest::prelude::*;

    fn u16s(r: &mut Reader<'_>) -> Result<Vec<u16>, SnapshotError> {
        Ok(r.column()?.map(u16::from_le_bytes).collect())
    }

    fn u32s(r: &mut Reader<'_>) -> Result<Vec<u32>, SnapshotError> {
        Ok(r.column()?.map(u32::from_le_bytes).collect())
    }

    fn f32s(r: &mut Reader<'_>) -> Result<Vec<f32>, SnapshotError> {
        Ok(u32s(r)?.into_iter().map(f32::from_bits).collect())
    }

    #[test]
    fn scalar_and_slice_round_trip_bit_exact() {
        let mut buf = Vec::new();
        buf.put_u8(7);
        buf.put_u32(0xDEAD_BEEF);
        buf.put_u64(u64::MAX - 3);
        buf.put_f32(-0.0);
        buf.put_column(
            [f32::NAN, 1.5, -3.25].map(f32::to_bits).into_iter(),
            u32::to_le_bytes,
        );
        buf.put_column([1u16, 2, 3].into_iter(), u16::to_le_bytes);
        buf.put_column([9u32, 8].into_iter(), u32::to_le_bytes);
        buf.put_column([u64::MAX].into_iter(), u64::to_le_bytes);

        let mut r = Reader::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.f32().unwrap().to_bits(), (-0.0f32).to_bits());
        let fs = f32s(&mut r).unwrap();
        assert_eq!(fs.len(), 3);
        assert_eq!(fs[0].to_bits(), f32::NAN.to_bits());
        assert_eq!(fs[1], 1.5);
        assert_eq!(u16s(&mut r).unwrap(), vec![1, 2, 3]);
        assert_eq!(u32s(&mut r).unwrap(), vec![9, 8]);
        assert_eq!(r.u64_vec().unwrap(), vec![u64::MAX]);
        r.finish().unwrap();
    }

    #[test]
    fn overrun_is_corrupt_not_panic() {
        let mut r = Reader::new(&[1, 2]);
        assert!(matches!(r.u32(), Err(SnapshotError::Corrupt(_))));
    }

    #[test]
    fn huge_length_prefix_is_rejected_before_allocation() {
        let mut buf = Vec::new();
        buf.put_u64(u64::MAX); // claims ~1.8e19 elements
        let mut r = Reader::new(&buf);
        assert!(matches!(f32s(&mut r), Err(SnapshotError::Corrupt(_))));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let r = Reader::new(&[0]);
        assert!(matches!(r.finish(), Err(SnapshotError::Corrupt(_))));
    }

    /// The per-element writer the bulk writers replaced: the reference
    /// for their bytes.
    fn reference<T: Copy, const N: usize>(xs: &[T], to_le: impl Fn(T) -> [u8; N]) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&(xs.len() as u64).to_le_bytes());
        for &x in xs {
            out.extend_from_slice(&to_le(x));
        }
        out
    }

    /// A column written by both sinks: into a `Vec`, and by the container
    /// writer as one section of a snapshot. Both must give `reference`.
    fn both_sinks<T: Copy, const N: usize>(
        xs: &[T],
        to_le: impl Fn(T) -> [u8; N] + Copy,
    ) -> Result<Vec<u8>, TestCaseError> {
        let mut out = Vec::new();
        out.put_column(xs.iter().copied(), to_le);
        let want = reference(xs, to_le);
        prop_assert_eq!(&out, &want);
        let col = Section::new("col", want.len(), |w| {
            w.put_column(xs.iter().copied(), to_le)
        });
        let snap = Snapshot::from_sections(&[col]);
        prop_assert_eq!(snap.section("col").ok(), Some(&want[..]));
        Ok(out)
    }

    /// Every strict prefix of an encoded slice must read as `Corrupt`.
    fn every_truncation_is_corrupt<'a, T>(
        bytes: &'a [u8],
        read: impl Fn(&mut Reader<'a>) -> Result<T, SnapshotError>,
    ) -> Result<(), TestCaseError> {
        for cut in 0..bytes.len() {
            let res = read(&mut Reader::new(&bytes[..cut]));
            prop_assert!(
                matches!(res, Err(SnapshotError::Corrupt(_))),
                "prefix {cut} of {} not Corrupt",
                bytes.len()
            );
        }
        Ok(())
    }

    /// Bit patterns the float path must carry unchanged: NaNs with
    /// payloads (quiet and signalling, both signs), both zeros, both
    /// infinities and the smallest subnormal.
    const SPECIAL_F32_BITS: [u32; 8] = [
        0x7fc0_0001,
        0xffa0_0000,
        0x7f80_0001,
        0x8000_0000,
        0x0000_0000,
        0x7f80_0000,
        0xff80_0000,
        0x0000_0001,
    ];

    proptest! {
        #[test]
        fn bulk_writers_match_the_per_element_reference_and_round_trip(
            words in collection::vec(0u64..=u64::MAX, 0..40),
            with_specials in 0u8..2,
        ) {
            let u16s_in: Vec<u16> = words.iter().map(|&w| w as u16).collect();
            let u32s_in: Vec<u32> = words.iter().map(|&w| (w >> 16) as u32).collect();
            let mut f32_bits = u32s_in.clone();
            if with_specials == 1 {
                f32_bits.extend(SPECIAL_F32_BITS);
            }
            let f32s_in: Vec<f32> = f32_bits.iter().map(|&b| f32::from_bits(b)).collect();

            let out = both_sinks(&u16s_in, u16::to_le_bytes)?;
            prop_assert_eq!(u16s(&mut Reader::new(&out)).ok(), Some(u16s_in));
            every_truncation_is_corrupt(&out, u16s)?;

            let out = both_sinks(&u32s_in, u32::to_le_bytes)?;
            prop_assert_eq!(u32s(&mut Reader::new(&out)).ok(), Some(u32s_in));
            every_truncation_is_corrupt(&out, u32s)?;

            let out = both_sinks(&words, u64::to_le_bytes)?;
            prop_assert_eq!(Reader::new(&out).u64_vec().ok(), Some(words));
            every_truncation_is_corrupt(&out, Reader::u64_vec)?;

            let out = both_sinks(&f32s_in, |x: f32| x.to_bits().to_le_bytes())?;
            let back = f32s(&mut Reader::new(&out)).unwrap_or_default();
            let back_bits: Vec<u32> = back.iter().map(|x| x.to_bits()).collect();
            prop_assert_eq!(back_bits, f32_bits);
            every_truncation_is_corrupt(&out, f32s)?;
        }
    }

    #[test]
    fn empty_slices_are_a_bare_zero_length() {
        let mut out = Vec::new();
        out.put_column(std::iter::empty(), u16::to_le_bytes);
        out.put_column(std::iter::empty(), u32::to_le_bytes);
        out.put_column(std::iter::empty(), u64::to_le_bytes);
        out.put_column(std::iter::empty(), |x: f32| x.to_bits().to_le_bytes());
        out.put_column(std::iter::empty(), u32::to_le_bytes);
        assert_eq!(out, vec![0; 40]);
        let mut r = Reader::new(&out);
        assert!(u16s(&mut r).unwrap().is_empty());
        assert!(u32s(&mut r).unwrap().is_empty());
        assert!(r.u64_vec().unwrap().is_empty());
        assert!(f32s(&mut r).unwrap().is_empty());
        assert!(u32s(&mut r).unwrap().is_empty());
        r.finish().unwrap();
    }
}
