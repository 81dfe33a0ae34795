//! Fig. 7: cube sharing along rays (a) and effective memory-bandwidth
//! improvement per level (b).

use crate::report;
use inerf_encoding::locality::LocalitySink;
use inerf_encoding::requests::{effective_bandwidth_improvement, RegisterCacheSink};
use inerf_encoding::{HashFunction, HashGrid, HashGridConfig};
use inerf_geom::{Aabb, Ray, Vec3};
use inerf_trainer::streaming::{build_point_batch, stream_batch, StreamingOrder};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

/// The Fig. 7 results.
#[derive(Debug, Clone, Serialize)]
pub struct Fig7 {
    /// (a) mean number of consecutive points sharing one cube, per level.
    pub sharing_per_level: Vec<f64>,
    /// (b) effective memory-bandwidth improvement per level of
    /// Morton + ray-first over original + random.
    pub bandwidth_improvement: Vec<f64>,
}

fn orbit_rays(n: usize, seed: u64) -> Vec<Ray> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let theta: f32 = rng.gen_range(0.0..std::f32::consts::TAU);
            let origin = Vec3::new(
                3.0 * theta.cos(),
                rng.gen_range(-0.5..0.5),
                3.0 * theta.sin(),
            );
            Ray::new(
                origin,
                -origin + Vec3::new(rng.gen_range(-0.3..0.3), 0.0, 0.0),
            )
        })
        .collect()
}

/// Runs the Fig. 7 experiment with `rays` rays × `samples` points: both
/// point batches stream straight into the locality / register-cache sinks
/// (one fan-out pass per configuration, no materialized traces).
pub fn run(rays: usize, samples: usize, seed: u64) -> Fig7 {
    let bounds = Aabb::new(Vec3::splat(-1.0), Vec3::splat(1.0));
    let ray_set = orbit_rays(rays, seed);
    let morton = HashGrid::new(HashGridConfig::paper(HashFunction::Morton), seed);
    let original = HashGrid::new(HashGridConfig::paper(HashFunction::Original), seed);
    let levels = morton.config().levels;

    let ours_batch = build_point_batch(&ray_set, &bounds, samples, StreamingOrder::RayFirst, seed);
    let base_batch = build_point_batch(&ray_set, &bounds, samples, StreamingOrder::Random, seed);
    let mut ours_sinks = (LocalitySink::new(levels), RegisterCacheSink::new(levels));
    stream_batch(&morton, &ours_batch, &mut ours_sinks);
    let mut base_sink = RegisterCacheSink::new(levels);
    stream_batch(&original, &base_batch, &mut base_sink);

    Fig7 {
        sharing_per_level: ours_sinks.0.sharing_per_level(),
        bandwidth_improvement: effective_bandwidth_improvement(
            &base_sink.stats(),
            &ours_sinks.1.stats(),
        ),
    }
}

/// Pretty-prints the figure.
pub fn render(fig: &Fig7) -> String {
    let mut out = String::from("Fig. 7(a): points sharing the same cube per level\n");
    let rows: Vec<Vec<String>> = fig
        .sharing_per_level
        .iter()
        .zip(&fig.bandwidth_improvement)
        .enumerate()
        .map(|(l, (s, b))| {
            vec![
                l.to_string(),
                report::f(*s, 2),
                format!("{}x", report::f(*b, 2)),
            ]
        })
        .collect();
    out.push_str(&report::table(&["level", "sharing", "eff. BW gain"], &rows));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig() -> Fig7 {
        run(24, 128, 5)
    }

    #[test]
    fn sharing_decays_from_coarse_to_fine() {
        // Fig. 7(a): ~12 points share a cube at level 0, ~none at level 15.
        let f = fig();
        assert_eq!(f.sharing_per_level.len(), 16);
        assert!(
            f.sharing_per_level[0] > 4.0,
            "coarse sharing {}",
            f.sharing_per_level[0]
        );
        assert!(
            f.sharing_per_level[15] < 2.0,
            "fine sharing {}",
            f.sharing_per_level[15]
        );
        assert!(f.sharing_per_level[0] > 2.0 * f.sharing_per_level[15]);
    }

    #[test]
    fn bandwidth_improvement_in_paper_band() {
        // Fig. 7(b): 3.27x–35.9x across levels. Allow generous slack while
        // requiring every level to improve and the peak to be large.
        let f = fig();
        for (l, &x) in f.bandwidth_improvement.iter().enumerate() {
            assert!(x > 1.5, "level {l}: improvement {x:.2}x too small");
            assert!(
                x < 300.0,
                "level {l}: improvement {x:.2}x implausibly large"
            );
        }
        let max = f
            .bandwidth_improvement
            .iter()
            .cloned()
            .fold(0.0f64, f64::max);
        let min = f
            .bandwidth_improvement
            .iter()
            .cloned()
            .fold(f64::MAX, f64::min);
        assert!(max > 5.0, "peak improvement {max:.1}x");
        assert!(max / min > 2.0, "improvement should vary across levels");
    }

    #[test]
    fn render_lists_all_levels() {
        let s = render(&fig());
        assert!(s.contains("15"));
        assert!(s.contains('x'));
    }
}
