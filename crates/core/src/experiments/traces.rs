//! Scene-dependent lookup traces shared by the hardware experiments.
//!
//! iNGP prunes empty space with an occupancy grid, so the points that
//! actually reach the hash table depend on the scene's density layout. The
//! trace generator emulates that: it samples stratified points along orbit
//! rays and keeps those in occupied space (plus a thin stream of empty
//! probes, as the occupancy grid itself must be maintained). The result is
//! the scene-specific access stream behind the per-scene spread in Fig. 11.

use inerf_encoding::{HashGrid, TraceSink};
use inerf_geom::{Camera, Pose};
use inerf_scenes::{RadianceField, Scene};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Summary statistics of a scene-conditioned access stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SceneTraceStats {
    /// Points streamed (kept by the emulated occupancy grid).
    pub points: u64,
    /// Fraction of sampled points that were in occupied space.
    pub occupancy: f64,
}

/// Streams the scene's access stream into `sink`, sampling orbit rays
/// (with `samples` stratified points each, ray-first order) until at least
/// `target_points` occupied points are collected or a ray budget is
/// exhausted. Does not emit `end_batch` — the caller owns batch
/// boundaries.
///
/// Points in empty space are skipped entirely — iNGP's occupancy grid
/// prevents them from ever reaching the hash table — so the stream is the
/// scene-conditioned access sequence the accelerator actually sees. Each
/// kept point streams straight into the sink, so memory is constant in the
/// stream length.
pub fn scene_trace_into(
    scene: &Scene,
    grid: &HashGrid,
    target_points: usize,
    samples: usize,
    seed: u64,
    sink: &mut (impl TraceSink + ?Sized),
) -> SceneTraceStats {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut kept = 0u64;
    let mut occupied = 0u64;
    let mut total = 0u64;
    let center = scene.bounds.center();
    let max_rays = 64 * target_points.div_ceil(samples).max(1);
    let mut r = 0usize;
    while kept < target_points as u64 && r < max_rays {
        let theta = std::f32::consts::TAU * rng.gen::<f32>();
        let phi = 0.15 + 0.5 * rng.gen::<f32>();
        let pose = Pose::orbit(center, 3.2, theta, phi);
        let cam = Camera::new(pose, 64, 64, 0.7);
        let ray = cam.ray_for_pixel(rng.gen_range(0..64), rng.gen_range(0..64));
        r += 1;
        let Some(hit) = scene.bounds.intersect(&ray) else {
            continue;
        };
        for t in ray.stratified_ts(hit.t_near.max(1e-4), hit.t_far, samples, None) {
            total += 1;
            let p = ray.at(t);
            let sample = scene.sample(p, ray.direction);
            if sample.sigma <= 0.05 {
                continue; // occupancy grid skips empty space
            }
            occupied += 1;
            kept += 1;
            grid.stream_point(scene.bounds.normalize(p), sink);
        }
    }
    SceneTraceStats {
        points: kept,
        occupancy: if total == 0 {
            0.0
        } else {
            occupied as f64 / total as f64
        },
    }
}

/// Maps a scene's access statistics to the GPU locality factor used by the
/// cost model's hash-table steps.
///
/// Scene occupancy is the discriminating statistic: dense scenes (Ship,
/// Materials, Lego) keep many live sample points per ray, so each training
/// batch touches a much larger slice of the hash table and thrashes the
/// small edge-GPU cache; sparse scenes (Mic, Ficus) concentrate their
/// lookups on a small working set. Returns a factor in roughly
/// `[0.8, 2.1]` (1.0 ≈ an average scene).
pub fn gpu_scene_factor(st: &SceneTraceStats) -> f64 {
    (0.7 + 8.0 * st.occupancy).clamp(0.6, 2.2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use inerf_encoding::{BufferSink, CountingSink, HashFunction, HashGridConfig};
    use inerf_scenes::zoo::{self, SceneKind};

    fn grid() -> HashGrid {
        HashGrid::new(HashGridConfig::paper(HashFunction::Morton), 11)
    }

    #[test]
    fn trace_is_nonempty_and_consistent() {
        let scene = zoo::scene(SceneKind::Lego);
        let mut trace = BufferSink::new();
        let st = scene_trace_into(&scene, &grid(), 400, 64, 3, &mut trace);
        assert!(st.points >= 400, "kept {} points", st.points);
        assert_eq!(trace.point_count() as u64, st.points);
        assert!(st.occupancy > 0.0 && st.occupancy < 1.0);
    }

    #[test]
    fn traces_differ_across_scenes() {
        let g = grid();
        let stats =
            |kind| scene_trace_into(&zoo::scene(kind), &g, 400, 64, 3, &mut BufferSink::new());
        let (a, b) = (stats(SceneKind::Mic), stats(SceneKind::Lego));
        // Mic is sparse, Lego is dense: occupancy must differ measurably.
        assert!(
            (a.occupancy - b.occupancy).abs() > 0.01,
            "Mic {} vs Lego {}",
            a.occupancy,
            b.occupancy
        );
    }

    #[test]
    fn factor_in_expected_band() {
        let g = grid();
        for kind in SceneKind::ALL {
            let st = scene_trace_into(&zoo::scene(kind), &g, 200, 48, 5, &mut BufferSink::new());
            let f = gpu_scene_factor(&st);
            assert!((0.5..2.5).contains(&f), "{kind}: factor {f}");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let g = grid();
        let scene = zoo::scene(SceneKind::Ship);
        let (mut a, mut b) = (BufferSink::new(), BufferSink::new());
        let stats = scene_trace_into(&scene, &g, 200, 32, 9, &mut a);
        assert_eq!(scene_trace_into(&scene, &g, 200, 32, 9, &mut b), stats);
        assert_eq!(a, b);
        // The statistics do not depend on what consumes the stream.
        let mut counts = CountingSink::default();
        assert_eq!(scene_trace_into(&scene, &g, 200, 32, 9, &mut counts), stats);
        assert_eq!(counts.points, stats.points);
        assert_eq!(counts.cubes as usize, a.cubes().len());
    }
}
