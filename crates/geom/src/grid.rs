//! Integer lattice coordinates for the multi-resolution grids.

use crate::Vec3;

/// An integer vertex coordinate on one resolution level's lattice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GridCoord {
    /// x lattice index.
    pub x: u32,
    /// y lattice index.
    pub y: u32,
    /// z lattice index.
    pub z: u32,
}

impl GridCoord {
    /// Creates a lattice coordinate.
    #[inline]
    pub const fn new(x: u32, y: u32, z: u32) -> Self {
        GridCoord { x, y, z }
    }

    /// Offsets the coordinate by a corner index `c in 0..8` of the containing
    /// cube: bit 0 → +x, bit 1 → +y, bit 2 → +z.
    #[inline]
    pub const fn corner(self, c: u8) -> Self {
        GridCoord {
            x: self.x + (c & 1) as u32,
            y: self.y + ((c >> 1) & 1) as u32,
            z: self.z + ((c >> 2) & 1) as u32,
        }
    }
}

/// One resolution level of the iNGP multi-resolution grid.
///
/// Level `l` has `resolution = floor(n_min * b^l)` cells per axis, where `b`
/// is the per-level growth factor. A point in `[0,1]^3` falls into exactly
/// one cube per level; [`GridLevel::cube_of`] returns its base vertex and the
/// fractional position inside the cube (the trilinear interpolation weights).
///
/// # Example
///
/// ```
/// use inerf_geom::{GridLevel, Vec3};
/// let level = GridLevel::new(0, 16);
/// let (base, frac) = level.cube_of(Vec3::new(0.5, 0.25, 0.75));
/// assert_eq!((base.x, base.y, base.z), (8, 4, 12));
/// assert!(frac.x.abs() < 1e-6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridLevel {
    /// Level index `l` (0-based).
    pub index: u32,
    /// Cells per axis at this level.
    pub resolution: u32,
}

impl GridLevel {
    /// Creates a level descriptor.
    ///
    /// # Panics
    ///
    /// Panics if `resolution == 0`.
    pub fn new(index: u32, resolution: u32) -> Self {
        assert!(resolution > 0, "grid resolution must be positive");
        GridLevel { index, resolution }
    }

    /// Number of vertices per axis (`resolution + 1`).
    #[inline]
    pub const fn vertices_per_axis(&self) -> u32 {
        self.resolution + 1
    }

    /// Total vertex count at this level (dense grid).
    #[inline]
    pub const fn dense_vertex_count(&self) -> u64 {
        let v = self.vertices_per_axis() as u64;
        v * v * v
    }

    /// Returns the base (min-corner) vertex of the cube containing `p`
    /// (in `[0,1]^3`) and the fractional position inside the cube.
    ///
    /// Points outside the unit cube are clamped.
    #[inline]
    pub fn cube_of(&self, p: Vec3) -> (GridCoord, Vec3) {
        let r = self.resolution as f32;
        let clamp = |v: f32| (v.clamp(0.0, 1.0) * r).min(r - 1e-4);
        let (sx, sy, sz) = (clamp(p.x), clamp(p.y), clamp(p.z));
        // The scaled coordinates lie in [0, r] (`min` maps even a NaN to
        // r - 1e-4), where the truncating cast already rounds down.
        let base = GridCoord::new(sx as u32, sy as u32, sz as u32);
        let frac = Vec3::new(sx - base.x as f32, sy - base.y as f32, sz - base.z as f32);
        (base, frac)
    }

    /// The trilinear interpolation weight of corner `c` given the fractional
    /// position `frac` inside the cube.
    #[inline]
    pub fn corner_weight(frac: Vec3, c: u8) -> f32 {
        let wx = if c & 1 == 0 { 1.0 - frac.x } else { frac.x };
        let wy = if (c >> 1) & 1 == 0 {
            1.0 - frac.y
        } else {
            frac.y
        };
        let wz = if (c >> 2) & 1 == 0 {
            1.0 - frac.z
        } else {
            frac.z
        };
        wx * wy * wz
    }
}

/// Computes the iNGP per-level growth factor `b` so that level `levels-1`
/// reaches `n_max` cells per axis starting from `n_min`.
///
/// iNGP (Müller et al. 2022) uses `b = exp((ln n_max - ln n_min) / (L - 1))`.
///
/// # Panics
///
/// Panics if `levels < 2` or `n_max < n_min`.
fn growth_factor(n_min: u32, n_max: u32, levels: u32) -> f64 {
    assert!(levels >= 2, "growth factor needs at least two levels");
    assert!(n_max >= n_min, "n_max must be >= n_min");
    (((n_max as f64).ln() - (n_min as f64).ln()) / (levels - 1) as f64).exp()
}

/// Builds all level descriptors for an iNGP grid configuration.
pub fn build_levels(n_min: u32, n_max: u32, levels: u32) -> Vec<GridLevel> {
    if levels == 1 {
        return vec![GridLevel::new(0, n_min)];
    }
    let b = growth_factor(n_min, n_max, levels);
    (0..levels)
        .map(|l| {
            let res = (n_min as f64 * b.powi(l as i32)).floor() as u32;
            GridLevel::new(l, res.max(1))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn corner_offsets_enumerate_cube() {
        let base = GridCoord::new(3, 4, 5);
        let mut seen = std::collections::BTreeSet::new();
        for c in 0..8u8 {
            let v = base.corner(c);
            assert!(v.x - base.x <= 1 && v.y - base.y <= 1 && v.z - base.z <= 1);
            seen.insert(v);
        }
        assert_eq!(seen.len(), 8);
    }

    #[test]
    fn cube_of_midpoint() {
        let level = GridLevel::new(0, 4);
        let (base, frac) = level.cube_of(Vec3::splat(0.5));
        assert_eq!(base, GridCoord::new(2, 2, 2));
        assert!(frac.length() < 1e-5);
    }

    #[test]
    fn cube_of_clamps_out_of_range() {
        let level = GridLevel::new(0, 8);
        let (base, _) = level.cube_of(Vec3::new(2.0, -1.0, 0.5));
        assert_eq!(base.x, 7); // clamped below resolution
        assert_eq!(base.y, 0);
    }

    #[test]
    fn growth_factor_matches_ingp_default() {
        // iNGP default: n_min=16, n_max=512, L=16 → b ≈ 1.26.
        let b = growth_factor(16, 512, 16);
        assert!((b - 1.26).abs() < 0.02, "b = {b}");
    }

    #[test]
    fn build_levels_monotone_resolutions() {
        let levels = build_levels(16, 512, 16);
        assert_eq!(levels.len(), 16);
        assert_eq!(levels[0].resolution, 16);
        for w in levels.windows(2) {
            assert!(w[1].resolution >= w[0].resolution);
        }
        assert!(levels[15].resolution >= 500);
    }

    proptest! {
        #[test]
        fn corner_weights_sum_to_one(
            fx in 0.0f32..1.0, fy in 0.0f32..1.0, fz in 0.0f32..1.0
        ) {
            let frac = Vec3::new(fx, fy, fz);
            let total: f32 = (0..8u8).map(|c| GridLevel::corner_weight(frac, c)).sum();
            prop_assert!((total - 1.0).abs() < 1e-5);
            for c in 0..8u8 {
                prop_assert!(GridLevel::corner_weight(frac, c) >= 0.0);
            }
        }

        #[test]
        fn cube_of_base_within_bounds(
            px in -0.5f32..1.5, py in -0.5f32..1.5, pz in -0.5f32..1.5,
            res in 1u32..256
        ) {
            let level = GridLevel::new(0, res);
            let (base, frac) = level.cube_of(Vec3::new(px, py, pz));
            prop_assert!(base.x < res && base.y < res && base.z < res);
            prop_assert!((0.0..=1.0).contains(&frac.x));
            prop_assert!((0.0..=1.0).contains(&frac.y));
            prop_assert!((0.0..=1.0).contains(&frac.z));
        }
    }
}
