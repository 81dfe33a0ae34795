//! Fig. 6: index-distance breakdown between neighbouring cube vertices,
//! plus the Sec. III-A requests-per-cube statistic (1.58 vs 4.02).

use crate::report;
use inerf_encoding::locality::{LocalitySink, DISTANCE_BUCKET_LABELS};
use inerf_encoding::requests::MeanRequestSink;
use inerf_encoding::{HashFunction, HashGrid, HashGridConfig};
use inerf_geom::Vec3;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

/// One hash function's Fig. 6 result.
#[derive(Debug, Clone, Serialize)]
pub struct Fig6Row {
    /// "Ours" (Morton) or "Org." (original iNGP hash).
    pub label: String,
    /// Percentages per distance bucket (sums to 100).
    pub histogram: [f64; 5],
    /// Mean DRAM row requests per cube (paper: 1.58 ours / 4.02 original).
    pub requests_per_cube: f64,
}

/// Runs the Fig. 6 experiment with `points` random batch points, streaming
/// each point's cube lookups straight into the two statistics sinks — no
/// materialized trace.
pub fn run(points: usize, seed: u64) -> Vec<Fig6Row> {
    [HashFunction::Morton, HashFunction::Original]
        .into_iter()
        .map(|hash| {
            let grid = HashGrid::new(HashGridConfig::paper(hash), seed);
            let mut rng = SmallRng::seed_from_u64(seed ^ 0x5EED);
            let mut sinks = (LocalitySink::new(0), MeanRequestSink::new());
            for _ in 0..points {
                let p = Vec3::new(rng.gen(), rng.gen(), rng.gen());
                grid.stream_point(p, &mut sinks);
            }
            Fig6Row {
                label: hash.label().to_string(),
                histogram: sinks.0.histogram(),
                requests_per_cube: sinks.1.mean(),
            }
        })
        .collect()
}

/// Pretty-prints the figure.
pub fn render(rows: &[Fig6Row]) -> String {
    let mut out =
        String::from("Fig. 6: index distance between two neighbouring cube vertices (%)\n");
    let mut headers = vec!["hash"];
    headers.extend(DISTANCE_BUCKET_LABELS);
    headers.push("req/cube");
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let mut cells = vec![r.label.clone()];
            cells.extend(r.histogram.iter().map(|p| report::f(*p, 1)));
            cells.push(report::f(r.requests_per_cube, 2));
            cells
        })
        .collect();
    out.push_str(&report::table(&headers, &table_rows));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<Fig6Row> {
        run(512, 7)
    }

    #[test]
    fn morton_concentrates_small_distances() {
        // Paper: 82.0% of Morton distances are <=16 entries; only 55.4% for
        // the original hash. Check the qualitative gap with slack.
        let rows = rows();
        let ours = &rows[0];
        let org = &rows[1];
        let close_ours = ours.histogram[0] + ours.histogram[1];
        let close_org = org.histogram[0] + org.histogram[1];
        assert!(close_ours > 60.0, "ours close share {close_ours:.1}%");
        assert!(
            close_ours > close_org + 15.0,
            "{close_ours:.1} vs {close_org:.1}"
        );
    }

    #[test]
    fn morton_never_lands_far() {
        // Paper: none of the Morton distances exceed 5000; 22.7% of the
        // original's do.
        let rows = rows();
        assert!(
            rows[0].histogram[4] < 5.0,
            "ours >5000 bucket: {:.1}%",
            rows[0].histogram[4]
        );
        assert!(
            rows[1].histogram[4] > 10.0,
            "org >5000 bucket: {:.1}%",
            rows[1].histogram[4]
        );
    }

    #[test]
    fn requests_per_cube_match_sec3a_bands() {
        // Paper: 1.58 (ours) vs 4.02 (original) average requests per cube.
        let rows = rows();
        assert!(
            (1.0..2.5).contains(&rows[0].requests_per_cube),
            "ours {:.2}",
            rows[0].requests_per_cube
        );
        assert!(
            (3.0..5.5).contains(&rows[1].requests_per_cube),
            "org {:.2}",
            rows[1].requests_per_cube
        );
    }

    #[test]
    fn render_contains_buckets() {
        let s = render(&rows());
        assert!(s.contains(">5000"));
        assert!(s.contains("Ours"));
        assert!(s.contains("Org."));
    }
}
