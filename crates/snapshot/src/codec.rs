//! Little-endian byte codec used by the snapshot format and its payloads.
//!
//! Writers append to a plain `Vec<u8>`; readers consume through
//! [`Reader`], which surfaces every overrun, length overflow or trailing
//! garbage as [`SnapshotError::Corrupt`] instead of panicking — the
//! no-panic-on-any-input invariant the byte-flip sweep relies on.
//!
//! Slices are encoded as a `u64` element count followed by the raw
//! little-endian elements; floats travel as their IEEE 754 bit patterns
//! so round-trips are bit-exact (including NaN payloads and signed
//! zeros — a resume must reproduce *bits*, not values).

use crate::error::SnapshotError;

/// Appends a `u8`.
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Appends a `u32`, little-endian.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u64`, little-endian.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends an `f32` as its bit pattern, little-endian.
pub fn put_f32(out: &mut Vec<u8>, v: f32) {
    put_u32(out, v.to_bits());
}

/// Appends a length-prefixed column of `N`-byte little-endian elements,
/// growing `out` once; an iterator needs no intermediate slice.
pub fn put_column<T, const N: usize>(
    out: &mut Vec<u8>,
    xs: impl ExactSizeIterator<Item = T>,
    to_le: impl Fn(T) -> [u8; N],
) {
    put_u64(out, xs.len() as u64);
    let start = out.len();
    out.resize(start + xs.len() * N, 0);
    for (dst, x) in out[start..].chunks_exact_mut(N).zip(xs) {
        dst.copy_from_slice(&to_le(x));
    }
}

/// Appends a length-prefixed `u64` slice.
pub fn put_u64_slice(out: &mut Vec<u8>, xs: &[u64]) {
    put_column(out, xs.iter().copied(), u64::to_le_bytes);
}

/// Appends a length-prefixed `f32` slice (bit patterns).
pub fn put_f32_slice(out: &mut Vec<u8>, xs: &[f32]) {
    put_column(out, xs.iter().map(|x| x.to_bits()), u32::to_le_bytes);
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

    /// Reads a length-prefixed column of `N`-byte little-endian elements.
    fn column<T, const N: usize>(
        &mut self,
        from_le: impl Fn([u8; N]) -> T,
    ) -> Result<Vec<T>, SnapshotError> {
        let n = self.len_prefix(N)?;
        let bytes = self.take(n * N)?.chunks_exact(N);
        Ok(bytes
            .map(|c| from_le(c.try_into().unwrap_or([0; N])))
            .collect())
    }

    /// Reads a length-prefixed `u16` slice.
    pub fn u16_vec(&mut self) -> Result<Vec<u16>, SnapshotError> {
        self.column(u16::from_le_bytes)
    }

    /// Reads a length-prefixed `u32` slice.
    pub fn u32_vec(&mut self) -> Result<Vec<u32>, SnapshotError> {
        self.column(u32::from_le_bytes)
    }

    /// Reads a length-prefixed `u64` slice.
    pub fn u64_vec(&mut self) -> Result<Vec<u64>, SnapshotError> {
        self.column(u64::from_le_bytes)
    }

    /// Reads a length-prefixed `f32` slice (bit patterns).
    pub fn f32_vec(&mut self) -> Result<Vec<f32>, SnapshotError> {
        self.column(|le| f32::from_bits(u32::from_le_bytes(le)))
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
    use proptest::prelude::*;

    #[test]
    fn scalar_and_slice_round_trip_bit_exact() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 7);
        put_u32(&mut buf, 0xDEAD_BEEF);
        put_u64(&mut buf, u64::MAX - 3);
        put_f32(&mut buf, -0.0);
        put_f32_slice(&mut buf, &[f32::NAN, 1.5, -3.25]);
        put_column(&mut buf, [1u16, 2, 3].into_iter(), u16::to_le_bytes);
        put_column(&mut buf, [9u32, 8].into_iter(), u32::to_le_bytes);
        put_u64_slice(&mut buf, &[u64::MAX]);

        let mut r = Reader::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.f32().unwrap().to_bits(), (-0.0f32).to_bits());
        let fs = r.f32_vec().unwrap();
        assert_eq!(fs.len(), 3);
        assert_eq!(fs[0].to_bits(), f32::NAN.to_bits());
        assert_eq!(fs[1], 1.5);
        assert_eq!(r.u16_vec().unwrap(), vec![1, 2, 3]);
        assert_eq!(r.u32_vec().unwrap(), vec![9, 8]);
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
        put_u64(&mut buf, u64::MAX); // claims ~1.8e19 elements
        let mut r = Reader::new(&buf);
        assert!(matches!(r.f32_vec(), Err(SnapshotError::Corrupt(_))));
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
        put_u64(&mut out, xs.len() as u64);
        for &x in xs {
            out.extend_from_slice(&to_le(x));
        }
        out
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
            let u16s: Vec<u16> = words.iter().map(|&w| w as u16).collect();
            let u32s: Vec<u32> = words.iter().map(|&w| (w >> 16) as u32).collect();
            let mut f32_bits = u32s.clone();
            if with_specials == 1 {
                f32_bits.extend(SPECIAL_F32_BITS);
            }
            let f32s: Vec<f32> = f32_bits.iter().map(|&b| f32::from_bits(b)).collect();

            let mut out = Vec::new();
            put_column(&mut out, u16s.iter().copied(), u16::to_le_bytes);
            prop_assert_eq!(&out, &reference(&u16s, u16::to_le_bytes));
            prop_assert_eq!(Reader::new(&out).u16_vec().ok(), Some(u16s));
            every_truncation_is_corrupt(&out, Reader::u16_vec)?;

            let mut out = Vec::new();
            put_column(&mut out, u32s.iter().copied(), u32::to_le_bytes);
            prop_assert_eq!(&out, &reference(&u32s, u32::to_le_bytes));
            prop_assert_eq!(Reader::new(&out).u32_vec().ok(), Some(u32s));
            every_truncation_is_corrupt(&out, Reader::u32_vec)?;

            let mut out = Vec::new();
            put_u64_slice(&mut out, &words);
            prop_assert_eq!(&out, &reference(&words, u64::to_le_bytes));
            prop_assert_eq!(Reader::new(&out).u64_vec().ok(), Some(words));
            every_truncation_is_corrupt(&out, Reader::u64_vec)?;

            let mut out = Vec::new();
            put_f32_slice(&mut out, &f32s);
            prop_assert_eq!(&out, &reference(&f32s, |x: f32| x.to_bits().to_le_bytes()));
            let back = Reader::new(&out).f32_vec().unwrap_or_default();
            let back_bits: Vec<u32> = back.iter().map(|x| x.to_bits()).collect();
            prop_assert_eq!(back_bits, f32_bits);
            every_truncation_is_corrupt(&out, Reader::f32_vec)?;
        }
    }

    #[test]
    fn empty_slices_are_a_bare_zero_length() {
        let mut out = Vec::new();
        put_column(&mut out, std::iter::empty(), u16::to_le_bytes);
        put_column(&mut out, std::iter::empty(), u32::to_le_bytes);
        put_u64_slice(&mut out, &[]);
        put_f32_slice(&mut out, &[]);
        put_column(&mut out, std::iter::empty(), u32::to_le_bytes);
        assert_eq!(out, vec![0; 40]);
        let mut r = Reader::new(&out);
        assert!(r.u16_vec().unwrap().is_empty());
        assert!(r.u32_vec().unwrap().is_empty());
        assert!(r.u64_vec().unwrap().is_empty());
        assert!(r.f32_vec().unwrap().is_empty());
        assert!(r.u32_vec().unwrap().is_empty());
        r.finish().unwrap();
    }
}
