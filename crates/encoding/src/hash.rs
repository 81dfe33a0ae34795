//! Hash mapping functions: original iNGP vs the paper's Morton variant.

use inerf_geom::grid::{GridCoord, GridLevel};
use inerf_geom::morton::morton_encode;

/// iNGP's spatial-hash prime multipliers (Müller et al. 2022).
const PRIME_Y: u32 = 2_654_435_761;
const PRIME_Z: u32 = 805_459_861;

/// The hash mapping function used to index the embedding table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HashFunction {
    /// The original iNGP spatial hash:
    /// `(x ⊕ y·2654435761 ⊕ z·805459861) mod T`.
    ///
    /// Scatters neighbouring vertices across the table — good uniformity,
    /// poor locality.
    Original,
    /// The paper's locality-sensitive Morton hash (Eq. 2):
    /// `(f(x) + (f(y)≪1) + (f(z)≪2)) mod T`, i.e. `morton(x,y,z) mod T`.
    ///
    /// Maps neighbouring vertices to nearby entries, enabling row-buffer
    /// locality in the NMP accelerator.
    Morton,
}

impl HashFunction {
    /// Hashes a lattice vertex into a table of `table_size` entries.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `table_size` is zero.
    #[inline]
    pub fn index(&self, v: GridCoord, table_size: u32) -> u32 {
        debug_assert!(table_size > 0);
        // Table sizes are 2^table_size_log2 throughout, so the modulo
        // reduces to a mask — a hardware division per corner lookup (64 per
        // encoded point) would otherwise dominate the index calculation.
        // The non-power-of-two fallback keeps the documented semantics for
        // arbitrary sizes.
        match self {
            HashFunction::Original => {
                let h = v.x ^ v.y.wrapping_mul(PRIME_Y) ^ v.z.wrapping_mul(PRIME_Z);
                if table_size.is_power_of_two() {
                    h & (table_size - 1)
                } else {
                    h % table_size
                }
            }
            HashFunction::Morton => {
                let m = morton_encode(v.x, v.y, v.z);
                if table_size.is_power_of_two() {
                    (m & (table_size as u64 - 1)) as u32
                } else {
                    (m % table_size as u64) as u32
                }
            }
        }
    }

    /// Short display label used in experiment output.
    pub fn label(&self) -> &'static str {
        match self {
            HashFunction::Original => "Org.",
            HashFunction::Morton => "Ours",
        }
    }
}

/// Computes the table index of vertex `v` at `level`.
///
/// The original iNGP design indexes coarse levels whose dense lattice fits
/// the table directly (row-major) and hashes the rest. The paper's Eq. (2)
/// applies the Morton mapping uniformly — that is what lets *every* level's
/// neighbouring vertices land in neighbouring entries (Fig. 6's 82%-within-16
/// statistic covers all levels).
#[inline]
pub fn level_index(hash: HashFunction, level: &GridLevel, v: GridCoord, table_size: u32) -> u32 {
    match hash {
        HashFunction::Morton => hash.index(v, table_size),
        HashFunction::Original => {
            let verts = level.vertices_per_axis() as u64;
            if verts * verts * verts <= table_size as u64 {
                // Dense level: row-major linear index.
                ((v.z as u64 * verts + v.y as u64) * verts + v.x as u64) as u32
            } else {
                hash.index(v, table_size)
            }
        }
    }
}

/// Table indices of all eight corners of the cube at `base` — equal,
/// corner for corner, to calling [`level_index`] on `base.corner(c)`, but
/// amortizing the per-axis work across the four corners that share each
/// coordinate: the Morton mapping needs six bit spreads instead of
/// twenty-four. This is the hot path of the batched encode.
#[inline]
pub fn cube_level_indices(
    hash: HashFunction,
    level: &GridLevel,
    base: GridCoord,
    table_size: u32,
) -> [u32; 8] {
    let mut out = [0u32; 8];
    match hash {
        HashFunction::Morton => {
            use inerf_geom::morton::spread_bits;
            let sx = [spread_bits(base.x), spread_bits(base.x + 1)];
            let sy = [spread_bits(base.y) << 1, spread_bits(base.y + 1) << 1];
            let sz = [spread_bits(base.z) << 2, spread_bits(base.z + 1) << 2];
            if table_size.is_power_of_two() {
                let mask = table_size as u64 - 1;
                for (c, o) in out.iter_mut().enumerate() {
                    *o = ((sx[c & 1] | sy[(c >> 1) & 1] | sz[(c >> 2) & 1]) & mask) as u32;
                }
            } else {
                for (c, o) in out.iter_mut().enumerate() {
                    *o = ((sx[c & 1] | sy[(c >> 1) & 1] | sz[(c >> 2) & 1]) % table_size as u64)
                        as u32;
                }
            }
        }
        // The original hash is two multiplies per vertex — nothing worth
        // amortizing; reuse the reference path.
        HashFunction::Original => {
            for (c, o) in out.iter_mut().enumerate() {
                *o = level_index(hash, level, base.corner(c as u8), table_size);
            }
        }
    }
    out
}

/// [`inerf_geom::morton::spread_bits`] of the low ten bits of `v`, in `u32`:
/// bit `k` moves to bit `3k`. Equal to `spread_bits(v) & (2^30 - 1)`, which
/// is all of a Morton code that a table mask of at most `2^30 - 1` keeps —
/// the batched encode's per-axis spread, four rounds short enough to run as
/// a lane loop over eight levels.
#[inline(always)]
pub(crate) const fn spread_low10(v: u32) -> u32 {
    let mut x = v & 0x3ff;
    x = (x | (x << 16)) & 0x0300_00ff;
    x = (x | (x << 8)) & 0x0300_f00f;
    x = (x | (x << 4)) & 0x030c_30c3;
    x = (x | (x << 2)) & 0x0924_9249;
    x
}

/// The number of INT32 operations the index calculation costs on the
/// accelerator, per vertex.
///
/// The paper observes the hash mapping dominates INT32 ALU utilization
/// (Sec. II-B, observation 3); the accelerator provisions dedicated INT32
/// PEs for it. The Morton spread uses shift/or stages; the original hash
/// uses two multiplies and two XORs plus the modulo.
pub fn index_int_ops(hash: HashFunction) -> u32 {
    match hash {
        // 2 mul + 2 xor + 1 mod
        HashFunction::Original => 5,
        // 3 coordinates × 5 shift/mask stages × 2 ops + 2 shifts + 2 adds + 1 mod
        HashFunction::Morton => 35,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const T: u32 = 1 << 14;

    #[test]
    fn original_matches_reference_formula() {
        let v = GridCoord::new(12, 34, 56);
        let expect = (12u32 ^ 34u32.wrapping_mul(PRIME_Y) ^ 56u32.wrapping_mul(PRIME_Z)) % T;
        assert_eq!(HashFunction::Original.index(v, T), expect);
    }

    #[test]
    fn morton_matches_eq2() {
        use inerf_geom::morton::spread_bits;
        let v = GridCoord::new(5, 9, 3);
        let eq2 = (spread_bits(5) + (spread_bits(9) << 1) + (spread_bits(3) << 2)) % T as u64;
        assert_eq!(HashFunction::Morton.index(v, T) as u64, eq2);
    }

    #[test]
    fn morton_neighbours_are_close() {
        // Neighbouring vertices in an aligned octant differ by < 8 in index
        // (when no modulo wrap occurs).
        let a = GridCoord::new(10, 20, 30);
        let ia = HashFunction::Morton.index(a, 1 << 30);
        for c in 1..8u8 {
            let ib = HashFunction::Morton.index(a.corner(c), 1 << 30);
            assert!(ib > ia && ib - ia < 8, "corner {c}: {ia} vs {ib}");
        }
    }

    #[test]
    fn original_neighbours_scatter() {
        // With the original hash most neighbours land far apart.
        let a = GridCoord::new(100, 200, 300);
        let ia = HashFunction::Original.index(a, T);
        let far = (1..8u8)
            .filter(|&c| {
                let ib = HashFunction::Original.index(a.corner(c), T);
                ia.abs_diff(ib) > 256
            })
            .count();
        assert!(far >= 4, "expected most neighbours to scatter, {far}/7 did");
    }

    #[test]
    fn dense_level_uses_linear_index_for_original_only() {
        let level = GridLevel::new(0, 7); // 8^3 = 512 vertices <= T
        let idx = level_index(HashFunction::Original, &level, GridCoord::new(1, 2, 3), T);
        assert_eq!(idx, (3 * 8 + 2) * 8 + 1);
        // The Morton mapping applies uniformly (Eq. 2), so it differs here.
        let idx2 = level_index(HashFunction::Morton, &level, GridCoord::new(1, 2, 3), T);
        assert_eq!(idx2, HashFunction::Morton.index(GridCoord::new(1, 2, 3), T));
    }

    #[test]
    fn sparse_level_uses_hash() {
        let level = GridLevel::new(10, 512); // 513^3 >> T
        let v = GridCoord::new(100, 200, 300);
        assert_eq!(
            level_index(HashFunction::Original, &level, v, T),
            HashFunction::Original.index(v, T)
        );
    }

    #[test]
    fn int_ops_morton_heavier() {
        assert!(index_int_ops(HashFunction::Morton) > index_int_ops(HashFunction::Original));
    }

    proptest! {
        #[test]
        fn spread_low10_is_the_masked_64_bit_spread(v in 0u32..=u32::MAX) {
            use inerf_geom::morton::spread_bits;
            prop_assert_eq!(spread_low10(v) as u64, spread_bits(v) & ((1 << 30) - 1));
        }

        #[test]
        fn cube_level_indices_match_per_corner_reference(
            x in 0u32..100_000, y in 0u32..100_000, z in 0u32..100_000,
            res_log2 in 2u32..18, log2 in 4u32..22
        ) {
            let level = GridLevel::new(0, 1 << res_log2);
            let t = 1u32 << log2;
            let base = GridCoord::new(x, y, z);
            for hash in [HashFunction::Original, HashFunction::Morton] {
                let fast = cube_level_indices(hash, &level, base, t);
                for c in 0..8u8 {
                    prop_assert_eq!(
                        fast[c as usize],
                        level_index(hash, &level, base.corner(c), t),
                        "hash {:?} corner {}", hash, c
                    );
                }
            }
        }

        #[test]
        fn index_always_in_range(
            x in 0u32..100_000, y in 0u32..100_000, z in 0u32..100_000,
            log2 in 4u32..22
        ) {
            let t = 1u32 << log2;
            let v = GridCoord::new(x, y, z);
            prop_assert!(HashFunction::Original.index(v, t) < t);
            prop_assert!(HashFunction::Morton.index(v, t) < t);
        }

        #[test]
        fn eq2_neighbouring_vertices_map_to_nearby_codes(
            x in 0u32..(1 << 20), y in 0u32..(1 << 20), z in 0u32..(1 << 20),
            log2 in 10u32..20
        ) {
            // Eq. 2's locality property: within any aligned 2x2x2 block the
            // eight vertices take eight *consecutive* Morton codes, so
            // their table indices sit within a circular distance of 7 of
            // each other for every power-of-two table size.
            let t = 1u32 << log2;
            let base = GridCoord::new(x & !1, y & !1, z & !1);
            let ib = HashFunction::Morton.index(base, t);
            for c in 1..8u8 {
                let ic = HashFunction::Morton.index(base.corner(c), t);
                let fwd = ic.wrapping_sub(ib) % t;
                let bwd = ib.wrapping_sub(ic) % t;
                prop_assert!(
                    fwd.min(bwd) <= 7,
                    "corner {c}: {ib} vs {ic} (T = 2^{log2})"
                );
            }
        }

        #[test]
        fn original_hash_spreads_uniformly(seed in 0u64..1000) {
            // Coarse uniformity check: hash 4096 vertices into 16 buckets of
            // a 2^14 table; no bucket should hold more than 3x the mean.
            let mut counts = [0u32; 16];
            let mut s = seed.wrapping_add(0x9E37_79B9_97F4_A7C5); // never zero
            for _ in 0..4096 {
                // xorshift for test-local determinism
                s ^= s << 13; s ^= s >> 7; s ^= s << 17;
                let v = GridCoord::new((s & 0x3ff) as u32, ((s >> 10) & 0x3ff) as u32, ((s >> 20) & 0x3ff) as u32);
                let idx = HashFunction::Original.index(v, T);
                counts[(idx / (T / 16)) as usize] += 1;
            }
            let mean = 4096 / 16;
            for c in counts {
                prop_assert!(c < 3 * mean, "bucket count {c} too large");
            }
        }
    }
}
