//! Voxel traversal: the cells of a regular lattice a ray crosses, in order.
//!
//! Amanatides & Woo's incremental walk ("A Fast Voxel Traversal Algorithm
//! for Ray Tracing", Eurographics '87): per axis, the distance `t_max` to
//! the current cell's next boundary and the distance `t_delta` between two
//! boundaries; each step crosses whichever boundary comes first. Pure
//! geometry — what a cell means is the caller's business.

use crate::{Aabb, Ray, RayHit};

/// One lattice cell of a [`CellWalk`] with the stretch of the ray inside it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellSpan {
    /// Integer cell coordinate per axis, each below the walk's `cells`.
    pub cell: [u32; 3],
    /// Distance along the ray where it enters the cell.
    pub t_enter: f32,
    /// Distance where it leaves; the next span's `t_enter`.
    pub t_exit: f32,
}

/// Iterator over the cells of a `cells`³ lattice on `bounds` that `ray`
/// crosses from `hit.t_near` on, in ray order, until it leaves the lattice
/// or passes `hit.t_far`.
///
/// The spans tile `[hit.t_near, ..)`. Every boundary distance is the exact
/// crossing up to a few f32 roundings, so `ray.at(t)` with
/// `t_enter <= t < t_exit` lies within rounding of `cell`; a span is empty
/// where the start sits on a face. Consecutive cells share a face — or the
/// edge or corner the ray leaves through, where crossings fall on the very
/// same distance and are taken in one step. At most `3 · cells` spans,
/// for any ray: a non-finite distance ends the walk, in a last span whose
/// `t_exit` may be NaN (a subnormal direction component from an origin on
/// a lattice face is `0 · inf`) and places no sample.
///
/// ```
/// use inerf_geom::{Aabb, CellWalk, Ray, Vec3};
/// let ray = Ray::new(Vec3::new(-1.0, 0.3, 0.3), Vec3::new(1.0, 0.0, 0.0));
/// let hit = Aabb::unit().intersect(&ray).expect("ray points at the box");
/// let cells: Vec<_> = CellWalk::new(&ray, &Aabb::unit(), 4, hit).map(|s| s.cell).collect();
/// assert_eq!(cells, [[0, 1, 1], [1, 1, 1], [2, 1, 1], [3, 1, 1]]);
/// ```
#[derive(Debug, Clone)]
pub struct CellWalk {
    cell: [i32; 3],
    step: [i32; 3],
    t_max: [f32; 3],
    t_delta: [f32; 3],
    cells: i32,
    t: f32,
    t_far: f32,
    done: bool,
}

impl CellWalk {
    /// Starts the walk in the cell holding `ray.at(hit.t_near)` (clamped
    /// into the lattice).
    ///
    /// # Panics
    ///
    /// Panics if `cells` is zero.
    #[inline]
    pub fn new(ray: &Ray, bounds: &Aabb, cells: u32, hit: RayHit) -> Self {
        assert!(cells > 0, "a lattice needs at least one cell per axis");
        let start = ray.at(hit.t_near);
        let mut walk = CellWalk {
            cell: [0; 3],
            step: [0; 3],
            t_max: [f32::INFINITY; 3],
            t_delta: [f32::INFINITY; 3],
            cells: cells as i32,
            t: hit.t_near,
            t_far: hit.t_far,
            done: false,
        };
        for axis in 0..3 {
            let (o, d, lo) = (ray.origin[axis], ray.direction[axis], bounds.min[axis]);
            let extent = bounds.max[axis] - lo;
            let width = extent / cells as f32;
            // `as` saturates and maps NaN to 0: any start lands in a cell.
            let i = ((start[axis] - lo) * (cells as f32 / extent)) as i32;
            walk.cell[axis] = i.clamp(0, walk.cells - 1);
            if d != 0.0 {
                let (ahead, per_d) = (walk.cell[axis] + i32::from(d > 0.0), 1.0 / d);
                walk.step[axis] = if d > 0.0 { 1 } else { -1 };
                walk.t_max[axis] = (lo + ahead as f32 * width - o) * per_d;
                walk.t_delta[axis] = width * per_d.abs();
            }
        }
        walk
    }
}

impl Iterator for CellWalk {
    type Item = CellSpan;

    #[inline]
    fn next(&mut self) -> Option<CellSpan> {
        if self.done {
            return None;
        }
        // All three lanes are updated, by condition, rather than the one
        // crossed axis by index: a store to one lane of `t_max` stalls the
        // next step's load of the three (the indexed form walks ~10 % slower).
        let [m0, m1, m2] = self.t_max;
        let m01 = if m1 < m0 { m1 } else { m0 };
        let t_exit = if m2 < m01 { m2 } else { m01 };
        let cell = self.cell.map(|c| c as u32);
        for a in 0..3 {
            if self.t_max[a] <= t_exit {
                self.cell[a] += self.step[a];
                self.t_max[a] += self.t_delta[a];
            }
        }
        let t_enter = std::mem::replace(&mut self.t, t_exit);
        let inside = self.cell.iter().all(|c| (0..self.cells).contains(c));
        // Negated so that a NaN distance ends the walk too.
        self.done = !(t_exit < self.t_far && inside);
        Some(CellSpan {
            cell,
            t_enter,
            t_exit,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Vec3;
    use proptest::prelude::*;

    fn walk(ray: &Ray, bounds: &Aabb, cells: u32) -> Vec<CellSpan> {
        let hit = bounds.intersect(ray).expect("test rays hit the box");
        CellWalk::new(ray, bounds, cells, hit).collect()
    }

    #[test]
    fn oblique_ray_visits_face_connected_cells_to_the_far_corner() {
        let bounds = Aabb::new(Vec3::splat(-1.0), Vec3::splat(1.0));
        let ray = Ray::new(Vec3::new(-3.0, -2.9, -2.8), Vec3::ONE);
        let spans = walk(&ray, &bounds, 8);
        assert_eq!(spans.last().map(|s| s.cell), Some([7, 7, 7]));
        for w in spans.windows(2) {
            let moved: u32 = (0..3).map(|a| w[0].cell[a].abs_diff(w[1].cell[a])).sum();
            assert_eq!(moved, 1, "{:?} -> {:?}", w[0].cell, w[1].cell);
        }
    }

    #[test]
    fn origin_inside_starts_in_its_own_cell_and_walks_backwards_axes() {
        let ray = Ray::new(Vec3::new(0.6, 0.6, 0.1), Vec3::new(-1.0, 0.0, 0.0));
        let spans = walk(&ray, &Aabb::unit(), 4);
        let cells: Vec<_> = spans.iter().map(|s| s.cell).collect();
        assert_eq!(cells, [[2, 2, 0], [1, 2, 0], [0, 2, 0]]);
        assert_eq!(spans[0].t_enter, 0.0);
    }

    #[test]
    fn crossings_at_the_same_distance_are_one_step() {
        let bounds = Aabb::new(Vec3::splat(-1.0), Vec3::splat(1.0));
        let ray = Ray::new(Vec3::splat(-2.0), Vec3::ONE);
        let cells: Vec<_> = walk(&ray, &bounds, 4).iter().map(|s| s.cell).collect();
        assert_eq!(cells, [[0; 3], [1; 3], [2; 3], [3; 3]]);
    }

    #[test]
    fn a_single_cell_lattice_is_one_span_over_the_whole_hit() {
        let ray = Ray::new(Vec3::new(0.5, 0.5, -1.0), Vec3::new(0.0, 0.0, 1.0));
        let spans = walk(&ray, &Aabb::unit(), 1);
        assert_eq!(spans.len(), 1);
        assert_eq!((spans[0].t_enter, spans[0].t_exit), (1.0, 2.0));
    }

    #[test]
    fn degenerate_rays_terminate() {
        let hit = RayHit {
            t_near: 0.0,
            t_far: f32::INFINITY,
        };
        for direction in [
            Vec3::ZERO,
            Vec3::splat(f32::NAN),
            Vec3::new(1e-30, 0.0, 0.0),
        ] {
            let ray = Ray {
                origin: Vec3::splat(0.5),
                direction,
            };
            assert!(CellWalk::new(&ray, &Aabb::unit(), 8, hit).count() <= 24);
        }
    }

    proptest! {
        /// Spans tile the hit from `t_near` on, and a point strictly inside a
        /// span lies in the span's cell up to rounding.
        #[test]
        fn spans_tile_the_ray_and_contain_their_points(
            o in collection::vec(-3.0f32..3.0, 3..4),
            target in collection::vec(-1.0f32..2.0, 3..4),
            lo in collection::vec(-1.0f32..0.0, 3..4),
            hi in collection::vec(1.0f32..3.0, 3..4),
            cells in 1u32..20,
            flatten in 0usize..4,
        ) {
            let bounds = Aabb::new(Vec3::new(lo[0], lo[1], lo[2]), Vec3::new(hi[0], hi[1], hi[2]));
            let origin = Vec3::new(o[0], o[1], o[2]);
            // `flatten` zeroes one direction component: an axis-parallel ray.
            let keep = |a: usize| if a == flatten { 0.0 } else { target[a] - o[a] };
            let dir = Vec3::new(keep(0), keep(1), keep(2));
            prop_assume!(dir.length() > 1e-3);
            let ray = Ray::new(origin, dir);
            let Some(hit) = bounds.intersect(&ray) else { return Ok(()); };
            let spans: Vec<_> = CellWalk::new(&ray, &bounds, cells, hit).collect();
            prop_assert!(!spans.is_empty() && spans.len() <= 3 * cells as usize);
            prop_assert_eq!(spans[0].t_enter, hit.t_near);
            for w in spans.windows(2) {
                prop_assert_eq!(w[0].t_exit, w[1].t_enter);
            }
            let width = bounds.extent() / cells as f32;
            for s in spans.iter().filter(|s| s.t_exit > s.t_enter) {
                let p = ray.at(0.5 * (s.t_enter + s.t_exit.min(hit.t_far)));
                for a in 0..3 {
                    prop_assert!(s.cell[a] < cells);
                    let u = (p[a] - bounds.min[a]) / width[a] - s.cell[a] as f32;
                    prop_assert!((-1e-3..=1.0 + 1e-3).contains(&u), "axis {} offset {} in {:?}", a, u, s);
                }
            }
        }
    }
}
