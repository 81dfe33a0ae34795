//! Little-endian byte codec used by the snapshot format and its payloads.
//!
//! Writers append to a [`Sink`]: a plain `Vec<u8>`, or the container
//! writer ([`crate::format::SectionWriter`]) that streams a section
//! straight into the file. Readers consume through [`Reader`], which
//! surfaces every overrun, length overflow or trailing garbage as
//! [`SnapshotError::Corrupt`] instead of panicking — the
//! no-panic-on-any-input invariant the byte-flip sweep relies on.
//!
//! Columns are the raw little-endian elements with no count: the reader
//! names how many it expects, from a layout it knows without the file.
//! Floats travel as their IEEE 754 bit patterns so round-trips are
//! bit-exact (including NaN payloads and signed zeros — a resume must
//! reproduce *bits*, not values).

use crate::error::SnapshotError;

/// A destination for little-endian encoded bytes.
pub trait Sink {
    /// Appends raw bytes.
    fn put_bytes(&mut self, bytes: &[u8]);

    /// Appends each element of `xs` as its `N` little-endian bytes, in
    /// bulk.
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
    fn remaining(&self) -> usize {
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

    /// Reads a column of `n` elements of `N` little-endian bytes each,
    /// yielding each element's bytes straight from the buffer. A count
    /// whose bytes overflow or overrun the record is refused before
    /// anything is read, so a count from corrupt data cannot drive an
    /// allocation.
    pub fn elems<const N: usize>(
        &mut self,
        n: usize,
    ) -> Result<impl ExactSizeIterator<Item = [u8; N]> + 'a, SnapshotError> {
        const { assert!(N > 0) };
        let total = n.checked_mul(N).ok_or_else(|| {
            SnapshotError::Corrupt(format!("{n} elements of {N} bytes overflow a length"))
        })?;
        let bytes = self.take(total)?.chunks_exact(N);
        Ok(bytes.map(|c| c.try_into().unwrap_or([0; N])))
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

    fn u16s(r: &mut Reader<'_>, n: usize) -> Result<Vec<u16>, SnapshotError> {
        Ok(r.elems(n)?.map(u16::from_le_bytes).collect())
    }

    fn u32s(r: &mut Reader<'_>, n: usize) -> Result<Vec<u32>, SnapshotError> {
        Ok(r.elems(n)?.map(u32::from_le_bytes).collect())
    }

    fn u64s(r: &mut Reader<'_>, n: usize) -> Result<Vec<u64>, SnapshotError> {
        Ok(r.elems(n)?.map(u64::from_le_bytes).collect())
    }

    fn f32s(r: &mut Reader<'_>, n: usize) -> Result<Vec<f32>, SnapshotError> {
        Ok(u32s(r, n)?.into_iter().map(f32::from_bits).collect())
    }

    #[test]
    fn scalar_and_slice_round_trip_bit_exact() {
        let mut buf = Vec::new();
        buf.put_u8(7);
        buf.put_u32(0xDEAD_BEEF);
        buf.put_u64(u64::MAX - 3);
        buf.put_f32(-0.0);
        buf.put_elems(
            [f32::NAN, 1.5, -3.25].map(f32::to_bits).into_iter(),
            u32::to_le_bytes,
        );
        buf.put_elems([1u16, 2, 3].into_iter(), u16::to_le_bytes);
        buf.put_elems([9u32, 8].into_iter(), u32::to_le_bytes);
        buf.put_elems([u64::MAX].into_iter(), u64::to_le_bytes);
        assert_eq!(buf.len(), 17 + 12 + 6 + 8 + 8);

        let mut r = Reader::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.f32().unwrap().to_bits(), (-0.0f32).to_bits());
        let fs = f32s(&mut r, 3).unwrap();
        assert_eq!(fs[0].to_bits(), f32::NAN.to_bits());
        assert_eq!(fs[1], 1.5);
        assert_eq!(u16s(&mut r, 3).unwrap(), vec![1, 2, 3]);
        assert_eq!(u32s(&mut r, 2).unwrap(), vec![9, 8]);
        assert_eq!(u64s(&mut r, 1).unwrap(), vec![u64::MAX]);
        r.finish().unwrap();
    }

    #[test]
    fn overrun_is_corrupt_not_panic() {
        let mut r = Reader::new(&[1, 2]);
        assert!(matches!(r.u32(), Err(SnapshotError::Corrupt(_))));
        let mut r = Reader::new(&[1, 2, 3]);
        assert!(matches!(u16s(&mut r, 2), Err(SnapshotError::Corrupt(_))));
    }

    #[test]
    fn huge_length_prefix_is_rejected_before_allocation() {
        // A caller that reads a count from the record: one whose byte
        // length overflows `usize`, one that merely overruns the record.
        for n in [u64::MAX, u64::MAX / 4 + 1, 3] {
            let mut buf = Vec::new();
            buf.put_u64(n);
            buf.put_u64(0);
            let mut r = Reader::new(&buf);
            let n = r.u64().unwrap() as usize;
            assert!(matches!(u64s(&mut r, n), Err(SnapshotError::Corrupt(_))));
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let r = Reader::new(&[0]);
        assert!(matches!(r.finish(), Err(SnapshotError::Corrupt(_))));
    }

    /// The per-element writer the bulk writers replaced: the reference
    /// for their bytes.
    fn reference<T: Copy, const N: usize>(xs: &[T], to_le: impl Fn(T) -> [u8; N]) -> Vec<u8> {
        xs.iter().flat_map(|&x| to_le(x)).collect()
    }

    /// A column written by both sinks: into a `Vec`, and by the container
    /// writer as one section of a snapshot. Both must give `reference`.
    fn both_sinks<T: Copy, const N: usize>(
        xs: &[T],
        to_le: impl Fn(T) -> [u8; N] + Copy,
    ) -> Result<Vec<u8>, TestCaseError> {
        let mut out = Vec::new();
        out.put_elems(xs.iter().copied(), to_le);
        let want = reference(xs, to_le);
        prop_assert_eq!(&out, &want);
        let col = Section::new("col", want.len(), |w| {
            w.put_elems(xs.iter().copied(), to_le)
        });
        let snap = Snapshot::from_sections(&[col]);
        prop_assert_eq!(snap.section("col").ok(), Some(&want[..]));
        Ok(out)
    }

    /// Every strict prefix of an encoded column of `n` elements must read
    /// as `Corrupt`.
    fn every_truncation_is_corrupt<'a, T>(
        bytes: &'a [u8],
        n: usize,
        read: impl Fn(&mut Reader<'a>, usize) -> Result<T, SnapshotError>,
    ) -> Result<(), TestCaseError> {
        for cut in 0..bytes.len() {
            let res = read(&mut Reader::new(&bytes[..cut]), n);
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
            let n = words.len();

            let out = both_sinks(&u16s_in, u16::to_le_bytes)?;
            prop_assert_eq!(u16s(&mut Reader::new(&out), n).ok(), Some(u16s_in));
            every_truncation_is_corrupt(&out, n, u16s)?;

            let out = both_sinks(&u32s_in, u32::to_le_bytes)?;
            prop_assert_eq!(u32s(&mut Reader::new(&out), n).ok(), Some(u32s_in));
            every_truncation_is_corrupt(&out, n, u32s)?;

            let out = both_sinks(&words, u64::to_le_bytes)?;
            prop_assert_eq!(u64s(&mut Reader::new(&out), n).ok(), Some(words));
            every_truncation_is_corrupt(&out, n, u64s)?;

            let n = f32_bits.len();
            let out = both_sinks(&f32s_in, |x: f32| x.to_bits().to_le_bytes())?;
            let back = f32s(&mut Reader::new(&out), n).unwrap_or_default();
            let back_bits: Vec<u32> = back.iter().map(|x| x.to_bits()).collect();
            prop_assert_eq!(back_bits, f32_bits);
            every_truncation_is_corrupt(&out, n, f32s)?;
        }
    }

    #[test]
    fn empty_slices_are_a_bare_zero_length() {
        let mut out = Vec::new();
        out.put_elems(std::iter::empty(), u16::to_le_bytes);
        out.put_elems(std::iter::empty(), u64::to_le_bytes);
        out.put_elems(std::iter::empty(), |x: f32| x.to_bits().to_le_bytes());
        assert!(out.is_empty());
        let mut r = Reader::new(&out);
        assert!(u16s(&mut r, 0).unwrap().is_empty());
        assert!(u64s(&mut r, 0).unwrap().is_empty());
        assert!(f32s(&mut r, 0).unwrap().is_empty());
        r.finish().unwrap();
    }
}
