//! 3D Morton (Z-order) codes.
//!
//! The paper's locality-sensitive hash mapping function (Eq. 2) is
//!
//! ```text
//! h(x) = ( f(x0) + (f(x1) << 1) + (f(x2) << 2) )  mod  T
//! ```
//!
//! where `f` is the "separate-one-by-two" bit-spreading function that inserts
//! two zero bits between every pair of adjacent bits (e.g. `f(0b1011) =
//! 0b1000001001`). The sum of the three spread-and-shifted coordinates is
//! exactly the 3D Morton code of the vertex, so neighbouring lattice vertices
//! receive nearby codes — the property the NMP mapping exploits.

/// Spreads the low 21 bits of `v` so two zero bits separate each input bit.
///
/// This is the paper's `f(x)` ("separate one by two"). Only the low 21 bits
/// participate, which is sufficient for grid resolutions up to 2^21 per axis.
///
/// # Example
///
/// ```
/// use inerf_geom::morton::spread_bits;
/// assert_eq!(spread_bits(0b1011), 0b1_000_001_001);
/// ```
#[inline]
pub const fn spread_bits(v: u32) -> u64 {
    // Classic magic-number bit interleave for 21-bit inputs.
    let mut x = (v as u64) & 0x1f_ffff;
    x = (x | (x << 32)) & 0x1f00000000ffff;
    x = (x | (x << 16)) & 0x1f0000ff0000ff;
    x = (x | (x << 8)) & 0x100f00f00f00f00f;
    x = (x | (x << 4)) & 0x10c30c30c30c30c3;
    x = (x | (x << 2)) & 0x1249249249249249;
    x
}

/// Inverse of [`spread_bits`]: gathers every third bit back together.
#[cfg(test)]
const fn compact_bits(v: u64) -> u32 {
    let mut x = v & 0x1249249249249249;
    x = (x | (x >> 2)) & 0x10c30c30c30c30c3;
    x = (x | (x >> 4)) & 0x100f00f00f00f00f;
    x = (x | (x >> 8)) & 0x1f0000ff0000ff;
    x = (x | (x >> 16)) & 0x1f00000000ffff;
    x = (x | (x >> 32)) & 0x1f_ffff;
    x as u32
}

/// Encodes `(x, y, z)` lattice coordinates into a 3D Morton code.
///
/// Bit `3k` of the result is bit `k` of `x`, bit `3k+1` is bit `k` of `y`,
/// and bit `3k+2` is bit `k` of `z`, matching the paper's
/// `f(x0) + (f(x1) << 1) + (f(x2) << 2)`.
///
/// # Example
///
/// ```
/// use inerf_geom::morton::morton_encode;
/// // x = 0b11 -> bits 0, 3; y = 0b101 -> bits 1, 7; z = 0b1001 -> bits 2, 11.
/// assert_eq!(morton_encode(3, 5, 9), 0b1000_1000_1111);
/// ```
#[inline]
pub const fn morton_encode(x: u32, y: u32, z: u32) -> u64 {
    spread_bits(x) | (spread_bits(y) << 1) | (spread_bits(z) << 2)
}

/// Decodes a 3D Morton code back into `(x, y, z)`.
#[cfg(test)]
const fn morton_decode(code: u64) -> (u32, u32, u32) {
    (
        compact_bits(code),
        compact_bits(code >> 1),
        compact_bits(code >> 2),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn paper_example_spread() {
        // Paper: f(1011_2) = 1000001001_2.
        assert_eq!(spread_bits(0b1011), 0b1000001001);
    }

    #[test]
    fn spread_zero_and_one() {
        assert_eq!(spread_bits(0), 0);
        assert_eq!(spread_bits(1), 1);
        assert_eq!(spread_bits(0b11), 0b1001);
    }

    #[test]
    fn encode_axis_unit_steps() {
        assert_eq!(morton_encode(1, 0, 0), 0b001);
        assert_eq!(morton_encode(0, 1, 0), 0b010);
        assert_eq!(morton_encode(0, 0, 1), 0b100);
        assert_eq!(morton_encode(1, 1, 1), 0b111);
    }

    #[test]
    fn neighbours_have_small_code_distance_in_aligned_octants() {
        // Within an aligned 2x2x2 block, all 8 vertices map to 8 consecutive codes.
        let base = morton_encode(4, 2, 6); // all-even corner
        let mut codes: Vec<u64> = Vec::new();
        for dz in 0..2 {
            for dy in 0..2 {
                for dx in 0..2 {
                    codes.push(morton_encode(4 + dx, 2 + dy, 6 + dz));
                }
            }
        }
        codes.sort_unstable();
        for (i, c) in codes.iter().enumerate() {
            assert_eq!(*c, base + i as u64);
        }
    }

    #[test]
    fn spread_compact_roundtrip_exhaustive_21_bits() {
        // The magic-mask chain is easy to get subtly wrong (a transposed
        // mask passes most spot checks); verify the whole 21-bit domain.
        const LANE_MASK: u64 = 0x1249_2492_4924_9249; // bits 0, 3, 6, ...
        for v in 0..(1u32 << 21) {
            let s = spread_bits(v);
            assert_eq!(s & !LANE_MASK, 0, "v={v:#x}: spread bits left lane 0");
            assert_eq!(compact_bits(s), v, "v={v:#x}: round-trip");
        }
        // Inputs above 21 bits are explicitly truncated, not smeared.
        assert_eq!(spread_bits(1 << 21), 0);
        assert_eq!(spread_bits(u32::MAX), spread_bits(0x1f_ffff));
    }

    proptest! {
        #[test]
        fn spread_compact_roundtrip(v in 0u32..(1 << 21)) {
            prop_assert_eq!(compact_bits(spread_bits(v)), v);
        }

        #[test]
        fn morton_roundtrip(x in 0u32..(1 << 21), y in 0u32..(1 << 21), z in 0u32..(1 << 21)) {
            prop_assert_eq!(morton_decode(morton_encode(x, y, z)), (x, y, z));
        }

        #[test]
        fn morton_is_monotone_per_axis(x in 0u32..1000, y in 0u32..1000, z in 0u32..1000) {
            // Incrementing any single coordinate strictly increases the code.
            let c = morton_encode(x, y, z);
            prop_assert!(morton_encode(x + 1, y, z) > c);
            prop_assert!(morton_encode(x, y + 1, z) > c);
            prop_assert!(morton_encode(x, y, z + 1) > c);
        }

        #[test]
        fn spread_bits_disjoint_lanes(x in 0u32..(1 << 21), y in 0u32..(1 << 21), z in 0u32..(1 << 21)) {
            // The three shifted spreads occupy disjoint bit positions, so OR == ADD
            // (this is why the paper can write Eq. 2 with '+').
            let a = spread_bits(x);
            let b = spread_bits(y) << 1;
            let c = spread_bits(z) << 2;
            prop_assert_eq!(a & b, 0);
            prop_assert_eq!(a & c, 0);
            prop_assert_eq!(b & c, 0);
            prop_assert_eq!(a + b + c, a | b | c);
        }
    }
}
