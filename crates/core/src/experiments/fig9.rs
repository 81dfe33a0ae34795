//! Fig. 9: normalized bank conflicts per hash-table level vs subarray count.

use crate::report;
use inerf_accel::{HashTableMapping, MappingScheme, RequestConsumer, RequestSink, RequestStream};
use inerf_dram::{DramConfig, DramSim, Request};
use inerf_encoding::trace::CubeLookup;
use inerf_encoding::{HashFunction, HashGrid, HashGridConfig, TraceSink};
use inerf_geom::Vec3;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

/// The subarray counts swept in Tab. III / Fig. 9.
pub const SUBARRAY_SWEEP: [u32; 7] = [1, 2, 4, 8, 16, 32, 64];

/// The Fig. 9 surface.
#[derive(Debug, Clone, Serialize)]
pub struct Fig9 {
    /// `conflicts[s][l]` = normalized bank conflicts at `SUBARRAY_SWEEP[s]`
    /// subarrays for level `l` (normalized to the global maximum = 1.0).
    pub normalized_conflicts: Vec<Vec<f64>>,
    /// Raw conflict counts with the same indexing.
    pub raw_conflicts: Vec<Vec<u64>>,
}

/// An incremental simulator whose streaming clock advances a fixed cadence
/// per request: the 32-point-parallel front end issues at the sustainable
/// tFAW-limited spacing (~3 DRAM cycles), so only genuine serialization
/// shows up as a conflict.
struct CadencedSim {
    sim: DramSim,
    cadence: u64,
}

impl RequestConsumer for CadencedSim {
    fn accept(&mut self, req: Request) {
        self.sim.push_request(&req);
        self.sim.tick(self.cadence);
    }
}

/// Routes each cube event to its level's private request stream +
/// simulator lane, so one pass over the point stream produces every
/// level's isolated conflict count — the streamed replacement for
/// materializing and re-filtering a full trace per level.
struct LevelDemux {
    lanes: Vec<RequestSink<CadencedSim>>,
}

impl TraceSink for LevelDemux {
    fn push_cube(&mut self, cube: &CubeLookup) {
        if let Some(lane) = self.lanes.get_mut(cube.level as usize) {
            lane.push_cube(cube);
        }
    }
}

/// Fans one cube stream out to every subarray configuration's demux, so
/// the whole Tab. III sweep consumes a single pass over the workload.
struct SweepFan {
    configs: Vec<LevelDemux>,
}

impl TraceSink for SweepFan {
    fn push_cube(&mut self, cube: &CubeLookup) {
        for demux in &mut self.configs {
            demux.push_cube(cube);
        }
    }
}

/// Runs the Fig. 9 sweep with a ray-first workload of `rays × samples`
/// points (the paper processes 32 points in parallel; request interleaving
/// is captured by the stream order). The workload is hashed once and
/// streamed to every sweep configuration simultaneously, at constant
/// memory.
pub fn run(rays: usize, samples: usize, seed: u64) -> Fig9 {
    let grid = HashGrid::new(HashGridConfig::paper(HashFunction::Morton), seed);
    let levels = grid.config().levels;
    let mut fan = SweepFan {
        configs: SUBARRAY_SWEEP
            .iter()
            .map(|&sa| {
                let dram = DramConfig::paper(sa);
                let mapping = HashTableMapping::paper(MappingScheme::Clustered, sa);
                LevelDemux {
                    lanes: (0..levels)
                        .map(|_| {
                            RequestSink::new(
                                RequestStream::new(&mapping, &dram, false),
                                CadencedSim {
                                    sim: DramSim::new(dram),
                                    cadence: 3,
                                },
                            )
                        })
                        .collect(),
                }
            })
            .collect(),
    };
    let mut rng = SmallRng::seed_from_u64(seed);
    for _ in 0..rays {
        let y: f32 = rng.gen();
        let z: f32 = rng.gen();
        for s in 0..samples {
            let x = (s as f32 + 0.5) / samples as f32;
            grid.stream_point(Vec3::new(x, y, z), &mut fan);
        }
    }
    let raw: Vec<Vec<u64>> = fan
        .configs
        .iter_mut()
        .map(|demux| {
            demux
                .lanes
                .iter_mut()
                .map(|lane| {
                    lane.end_batch();
                    lane.consumer_mut().sim.drain_stats().bank_conflicts
                })
                .collect()
        })
        .collect();
    let max = raw.iter().flatten().copied().max().unwrap_or(1).max(1) as f64;
    let normalized = raw
        .iter()
        .map(|row| row.iter().map(|&c| c as f64 / max).collect())
        .collect();
    Fig9 {
        normalized_conflicts: normalized,
        raw_conflicts: raw,
    }
}

/// Pretty-prints the figure.
pub fn render(fig: &Fig9) -> String {
    let mut out = String::from("Fig. 9: normalized bank conflicts per level vs subarrays\n");
    let levels = fig.normalized_conflicts[0].len();
    let headers: Vec<String> = std::iter::once("subarrays".to_string())
        .chain((0..levels).map(|l| format!("L{l}")))
        .collect();
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let rows: Vec<Vec<String>> = SUBARRAY_SWEEP
        .iter()
        .zip(&fig.normalized_conflicts)
        .map(|(sa, row)| {
            std::iter::once(sa.to_string())
                .chain(row.iter().map(|v| report::f(*v, 3)))
                .collect()
        })
        .collect();
    out.push_str(&report::table(&header_refs, &rows));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig() -> Fig9 {
        run(8, 64, 3)
    }

    #[test]
    fn subarrays_slash_conflicts_at_coarse_levels() {
        // The Fig. 9 shape: subarray parallelism nearly eliminates conflicts
        // at the coarse levels but the finest levels stay conflict-heavy —
        // the imbalance that motivates inter-level clustering (Sec. IV-B).
        let f = fig();
        let one = &f.raw_conflicts[0]; // 1 subarray
        let many = &f.raw_conflicts[6]; // 64 subarrays
        let coarse_one: u64 = one[..6].iter().sum();
        let coarse_many: u64 = many[..6].iter().sum();
        assert!(
            (coarse_many as f64) < 0.5 * coarse_one as f64,
            "coarse-level conflicts should drop >2x: {coarse_many} vs {coarse_one}"
        );
        // Fine levels keep a large share of their conflicts.
        let fine_one: u64 = one[13..].iter().sum();
        let fine_many: u64 = many[13..].iter().sum();
        assert!(
            (fine_many as f64) > 0.3 * fine_one as f64,
            "fine levels should stay conflict-heavy: {fine_many} vs {fine_one}"
        );
        // Overall, more subarrays help.
        let t1: u64 = one.iter().sum();
        let t64: u64 = many.iter().sum();
        assert!(t64 < t1, "64 subarrays {t64} vs 1 subarray {t1}");
    }

    #[test]
    fn conflicts_unbalanced_across_levels() {
        // The observation motivating inter-level clustering: some levels
        // conflict far more than others.
        let f = fig();
        let row = &f.raw_conflicts[3]; // 8 subarrays
        let max = *row.iter().max().expect("fig9 rows are nonempty");
        let min = *row.iter().min().expect("fig9 rows are nonempty");
        assert!(max > 3 * (min + 1), "levels too balanced: {row:?}");
    }

    #[test]
    fn normalization_caps_at_one() {
        let f = fig();
        let mut saw_one = false;
        for row in &f.normalized_conflicts {
            for &v in row {
                assert!((0.0..=1.0).contains(&v));
                if (v - 1.0).abs() < 1e-12 {
                    saw_one = true;
                }
            }
        }
        assert!(saw_one, "the maximum cell must normalize to exactly 1");
    }

    #[test]
    fn render_has_sweep_rows() {
        let s = render(&fig());
        for sa in SUBARRAY_SWEEP {
            assert!(s.contains(&format!("\n{sa}  ")) || s.contains(&format!("{sa} ")));
        }
    }
}
