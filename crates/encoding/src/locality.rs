//! Locality statistics behind the paper's Fig. 6 and Fig. 7(a).
//!
//! [`LocalitySink`] accumulates both statistics online from the streaming
//! trace bus.

use crate::sink::TraceSink;
use crate::trace::CubeLookup;

/// Histogram bucket labels used by Fig. 6 (index distance between two
/// neighbouring vertices of one 3D cube).
pub const DISTANCE_BUCKET_LABELS: [&str; 5] = ["1~4", "4~16", "16~256", "256~5000", ">5000"];

/// Upper bounds (inclusive) of the first four Fig. 6 buckets.
const DISTANCE_BUCKET_BOUNDS: [u32; 4] = [4, 16, 256, 5000];

/// Buckets a single index distance per Fig. 6.
#[inline]
fn distance_bucket(dist: u32) -> usize {
    DISTANCE_BUCKET_BOUNDS
        .iter()
        .position(|&b| dist <= b)
        .unwrap_or(4)
}

/// The 12 edges of a cube expressed as corner-index pairs (corners that
/// differ in exactly one coordinate bit).
fn cube_edges() -> impl Iterator<Item = (usize, usize)> {
    (0..8usize).flat_map(|c| {
        [1usize, 2, 4].into_iter().filter_map(move |bit| {
            if c & bit == 0 {
                Some((c, c | bit))
            } else {
                None
            }
        })
    })
}

/// Per-level cube-run state of [`LocalitySink`].
#[derive(Debug, Clone, Copy, Default)]
struct LevelRuns {
    runs: u64,
    points: u64,
    last_id: Option<u64>,
}

/// Streaming accumulator of the Fig. 6 index-distance histogram and the
/// Fig. 7(a) consecutive-cube-sharing statistic.
///
/// Consumes the trace bus online at constant memory.
#[derive(Debug, Clone)]
pub struct LocalitySink {
    counts: [u64; 5],
    levels: Vec<LevelRuns>,
}

impl LocalitySink {
    /// Creates a sink tracking cube sharing for `levels` hash-table levels
    /// (cubes at higher levels still count toward the histogram).
    pub fn new(levels: u32) -> Self {
        LocalitySink {
            counts: [0; 5],
            levels: vec![LevelRuns::default(); levels as usize],
        }
    }

    /// The Fig. 6 breakdown: percentage of cube-edge index distances per
    /// bucket (sums to ~100; all zeros before any cube arrived).
    pub fn histogram(&self) -> [f64; 5] {
        let total: u64 = self.counts.iter().sum();
        if total == 0 {
            return [0.0; 5];
        }
        let mut out = [0.0; 5];
        for (o, c) in out.iter_mut().zip(self.counts) {
            *o = 100.0 * c as f64 / total as f64;
        }
        out
    }

    /// Fig. 7(a): per level, the mean number of consecutive points sharing
    /// one interpolation cube under the streamed order — the register-reuse
    /// opportunity the ray-first streaming order creates.
    pub fn sharing_per_level(&self) -> Vec<f64> {
        self.levels
            .iter()
            .map(|l| {
                if l.runs == 0 {
                    0.0
                } else {
                    l.points as f64 / l.runs as f64
                }
            })
            .collect()
    }
}

impl TraceSink for LocalitySink {
    fn push_cube(&mut self, cube: &CubeLookup) {
        for (a, b) in cube_edges() {
            let d = cube.entries[a].abs_diff(cube.entries[b]);
            self.counts[distance_bucket(d)] += 1;
        }
        if let Some(l) = self.levels.get_mut(cube.level as usize) {
            l.points += 1;
            if l.last_id != Some(cube.cube_id) {
                l.runs += 1;
                l.last_id = Some(cube.cube_id);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HashGridConfig;
    use crate::hash::HashFunction;
    use crate::table::HashGrid;
    use inerf_geom::Vec3;

    #[test]
    fn cube_edges_count_is_twelve() {
        assert_eq!(cube_edges().count(), 12);
        // Every pair differs in exactly one bit.
        for (a, b) in cube_edges() {
            assert_eq!((a ^ b).count_ones(), 1);
        }
    }

    #[test]
    fn bucket_boundaries() {
        assert_eq!(distance_bucket(0), 0);
        assert_eq!(distance_bucket(4), 0);
        assert_eq!(distance_bucket(5), 1);
        assert_eq!(distance_bucket(16), 1);
        assert_eq!(distance_bucket(256), 2);
        assert_eq!(distance_bucket(5000), 3);
        assert_eq!(distance_bucket(5001), 4);
    }

    /// Points along straight rays through the unit cube, in ray-first
    /// order.
    fn ray_first_points(rays: usize, samples: usize) -> Vec<Vec3> {
        let mut points = Vec::with_capacity(rays * samples);
        for r in 0..rays {
            let y = 0.1 + 0.8 * (r as f32 / rays.max(1) as f32);
            for s in 0..samples {
                let t = (s as f32 + 0.5) / samples as f32;
                points.push(Vec3::new(t, y, 0.5));
            }
        }
        points
    }

    /// The statistics of `points` streamed through `grid`.
    fn locality(grid: &HashGrid, points: &[Vec3]) -> LocalitySink {
        let mut sink = LocalitySink::new(grid.config().levels);
        grid.stream_batch(points, &mut sink);
        sink
    }

    #[test]
    fn morton_keeps_more_neighbours_close_than_original() {
        // The core Fig. 6 claim: Morton pushes mass into the small-distance
        // buckets and empties the >5000 bucket.
        let morton = HashGrid::new(HashGridConfig::paper(HashFunction::Morton), 1);
        let original = HashGrid::new(HashGridConfig::paper(HashFunction::Original), 1);
        let points = ray_first_points(8, 32);
        let hm = locality(&morton, &points).histogram();
        let ho = locality(&original, &points).histogram();
        let close_m = hm[0] + hm[1];
        let close_o = ho[0] + ho[1];
        assert!(
            close_m > close_o + 10.0,
            "Morton close-bucket share {close_m:.1}% should clearly beat original {close_o:.1}%"
        );
        assert!(
            hm[4] < ho[4],
            "Morton far bucket {:.1}% should be below original {:.1}%",
            hm[4],
            ho[4]
        );
    }

    #[test]
    fn histogram_percentages_sum_to_100() {
        let grid = HashGrid::new(HashGridConfig::tiny(HashFunction::Original), 3);
        let h = locality(&grid, &ray_first_points(4, 16)).histogram();
        let sum: f64 = h.iter().sum();
        assert!((sum - 100.0).abs() < 1e-6);
    }

    #[test]
    fn empty_trace_histogram_is_zero() {
        assert_eq!(LocalitySink::new(0).histogram(), [0.0; 5]);
    }

    #[test]
    fn sharing_decreases_with_level() {
        // Fig. 7(a): coarse levels share cubes across many consecutive
        // points; fine levels share almost none.
        let grid = HashGrid::new(HashGridConfig::paper(HashFunction::Morton), 1);
        let sharing = locality(&grid, &ray_first_points(4, 128)).sharing_per_level();
        assert!(
            sharing[0] > 4.0,
            "coarsest level sharing {} too low",
            sharing[0]
        );
        assert!(
            *sharing.last().expect("per-level sharing is nonempty") < 2.0,
            "finest level sharing {} too high",
            sharing.last().expect("per-level sharing is nonempty")
        );
        // Broadly decreasing: first level shares at least as much as the last.
        assert!(sharing[0] > *sharing.last().expect("per-level sharing is nonempty"));
    }

    #[test]
    fn sharing_counts_runs_not_global_matches() {
        // A synthetic stream: ids A A B A — the final A is a new run, so
        // mean run length is 4 points / 3 runs.
        let mut sink = LocalitySink::new(1);
        for cube_id in [7u64, 7, 9, 7] {
            sink.push_cube(&CubeLookup {
                level: 0,
                entries: [0; 8],
                cube_id,
            });
            sink.end_point();
        }
        let s = sink.sharing_per_level();
        assert!((s[0] - 4.0 / 3.0).abs() < 1e-9);
    }
}
