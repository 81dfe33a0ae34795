//! Point streaming orders (paper Sec. III-B).
//!
//! A training batch holds `R` rays × `S` sample points. The math is
//! order-independent, but the *order* in which points stream through the
//! memory system decides how much locality the hash-table lookups exhibit:
//!
//! * [`StreamingOrder::RayFirst`] — all points of ray 0, then ray 1, …
//!   Consecutive points walk along a ray, sharing and neighbouring cubes
//!   (the paper's proposal).
//! * [`StreamingOrder::Random`] — a pseudo-random permutation of all points,
//!   modelling the scattered order a GPU warp scheduler produces (the iNGP
//!   baseline).

use inerf_encoding::{HashGrid, TraceSink};
use inerf_geom::{Aabb, Ray, Vec3};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// The order sample points stream into the processing engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamingOrder {
    /// Points along one ray complete before the next ray starts.
    RayFirst,
    /// Globally shuffled point order.
    Random,
}

impl StreamingOrder {
    /// Display label used by experiment output.
    pub fn label(&self) -> &'static str {
        match self {
            StreamingOrder::RayFirst => "ray-first",
            StreamingOrder::Random => "random",
        }
    }
}

/// A batch of sample points in streaming order.
#[derive(Debug, Clone, PartialEq)]
pub struct PointBatch {
    /// Sample positions, normalized into `[0,1]^3`.
    pub points: Vec<Vec3>,
}

/// Samples `samples_per_ray` stratified points along each ray's intersection
/// with `bounds`, normalizes them into `[0,1]^3`, and arranges them in the
/// requested streaming order.
///
/// Rays missing the bounds contribute no points. `seed` drives only the
/// random permutation (ray-first order is deterministic).
pub fn build_point_batch(
    rays: &[Ray],
    bounds: &Aabb,
    samples_per_ray: usize,
    order: StreamingOrder,
    seed: u64,
) -> PointBatch {
    let mut points = Vec::with_capacity(rays.len() * samples_per_ray);
    for ray in rays {
        let Some(hit) = bounds.intersect(ray) else {
            continue;
        };
        if hit.t_far - hit.t_near < 1e-6 {
            continue;
        }
        let ts = ray.stratified_ts(hit.t_near.max(1e-4), hit.t_far, samples_per_ray, None);
        points.extend(ts.into_iter().map(|t| bounds.normalize(ray.at(t))));
    }
    if order == StreamingOrder::Random {
        points.shuffle(&mut SmallRng::seed_from_u64(seed));
    }
    PointBatch { points }
}

/// Streams a point batch through the hash grid's address generation into
/// a trace-bus sink — the constant-memory path the hardware consumers use.
/// Does not emit `end_batch`; the caller owns iteration boundaries.
pub fn stream_batch(grid: &HashGrid, batch: &PointBatch, sink: &mut (impl TraceSink + ?Sized)) {
    grid.stream_batch(&batch.points, sink);
}

#[cfg(test)]
mod tests {
    use super::*;
    use inerf_encoding::requests::RegisterCacheSink;
    use inerf_encoding::{HashFunction, HashGridConfig};

    fn test_rays(n: usize) -> Vec<Ray> {
        (0..n)
            .map(|i| {
                let y = -0.8 + 1.6 * i as f32 / n.max(1) as f32;
                Ray::new(Vec3::new(-3.0, y, 0.1), Vec3::new(1.0, 0.0, 0.0))
            })
            .collect()
    }

    fn bounds() -> Aabb {
        Aabb::new(Vec3::splat(-1.0), Vec3::splat(1.0))
    }

    fn bits(points: &[Vec3]) -> Vec<[u32; 3]> {
        points
            .iter()
            .map(|p| [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()])
            .collect()
    }

    #[test]
    fn ray_first_keeps_ray_points_contiguous() {
        let rays = test_rays(4);
        let batch = build_point_batch(&rays, &bounds(), 8, StreamingOrder::RayFirst, 0);
        assert_eq!(batch.points.len(), 32);
        for (ri, ray_points) in batch.points.chunks(8).enumerate() {
            let alone =
                build_point_batch(&rays[ri..=ri], &bounds(), 8, StreamingOrder::RayFirst, 0);
            assert_eq!(bits(ray_points), bits(&alone.points), "ray {ri}");
        }
    }

    #[test]
    fn random_order_is_a_permutation() {
        let rf = build_point_batch(&test_rays(4), &bounds(), 8, StreamingOrder::RayFirst, 1);
        let rnd = build_point_batch(&test_rays(4), &bounds(), 8, StreamingOrder::Random, 1);
        let (mut a, mut b) = (bits(&rf.points), bits(&rnd.points));
        assert_ne!(a, b, "random order should differ");
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(
            a, b,
            "random order must be a permutation of the same points"
        );
    }

    #[test]
    fn points_are_normalized() {
        let batch = build_point_batch(&test_rays(3), &bounds(), 16, StreamingOrder::RayFirst, 0);
        for p in &batch.points {
            assert!((-1e-4..=1.0 + 1e-4).contains(&p.x), "{p:?}");
            assert!((-1e-4..=1.0 + 1e-4).contains(&p.y));
            assert!((-1e-4..=1.0 + 1e-4).contains(&p.z));
        }
    }

    #[test]
    fn missing_rays_are_skipped() {
        let mut rays = test_rays(2);
        rays.push(Ray::new(Vec3::new(0.0, 5.0, 0.0), Vec3::new(0.0, 1.0, 0.0)));
        let batch = build_point_batch(&rays, &bounds(), 4, StreamingOrder::RayFirst, 0);
        assert_eq!(
            batch.points.len(),
            8,
            "the escaping ray must contribute nothing"
        );
    }

    #[test]
    fn ray_first_order_reduces_row_requests() {
        // The paper's Sec. III-B claim, end to end: same rays, same grid,
        // only the streaming order differs — ray-first must need fewer DRAM
        // row requests after register-cache filtering.
        let grid = HashGrid::new(HashGridConfig::paper(HashFunction::Morton), 5);
        let rays = test_rays(16);
        let row_requests = |order| {
            let mut sink = RegisterCacheSink::new(grid.config().levels);
            let batch = build_point_batch(&rays, &bounds(), 64, order, 2);
            stream_batch(&grid, &batch, &mut sink);
            let stats = sink.stats();
            stats.levels.iter().map(|l| l.row_requests).sum::<u64>()
        };
        let rf = row_requests(StreamingOrder::RayFirst);
        let rnd = row_requests(StreamingOrder::Random);
        assert!(rf < rnd, "ray-first {rf} should beat random {rnd}");
    }
}
