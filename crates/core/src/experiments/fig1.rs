//! Fig. 1: training time per device and its breakdown.

use crate::report;
use inerf_encoding::HashFunction;
use inerf_gpu::{GpuSpec, TrainingCost};
use inerf_trainer::ModelConfig;
use serde::Serialize;

/// The paper's training workload: 35 000 iterations of 256 K points.
pub const PAPER_ITERATIONS: u64 = 35_000;
/// Points per iteration.
pub const PAPER_BATCH: u64 = 256 * 1024;

/// One Fig. 1(a) bar plus its Fig. 1(b) breakdown.
#[derive(Debug, Clone, Serialize)]
pub struct Fig1Row {
    /// Device name.
    pub device: String,
    /// Modelled training time per scene in seconds.
    pub total_seconds: f64,
    /// The paper's measured value (None where unreported).
    pub paper_seconds: Option<f64>,
    /// `(step label, percent)` breakdown including "Other".
    pub breakdown: Vec<(String, f64)>,
}

/// Runs the Fig. 1 experiment over the profiled devices.
pub fn run() -> Vec<Fig1Row> {
    let model = ModelConfig::paper(HashFunction::Original); // iNGP baseline
    [GpuSpec::rtx2080ti(), GpuSpec::xnx(), GpuSpec::tx2()]
        .into_iter()
        .map(|spec| {
            let cost = TrainingCost::estimate(&spec, &model, PAPER_BATCH, PAPER_ITERATIONS, 1.0);
            Fig1Row {
                device: spec.name.clone(),
                total_seconds: cost.total_seconds,
                paper_seconds: spec.paper_seconds_per_scene,
                breakdown: cost.breakdown_percent(),
            }
        })
        .collect()
}

/// Pretty-prints the experiment like the paper's figure.
pub fn render(rows: &[Fig1Row]) -> String {
    let mut out = String::from("Fig. 1(a): iNGP training time per scene\n");
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.device.clone(),
                report::f(r.total_seconds, 0),
                r.paper_seconds.map_or("n/a".into(), |s| report::f(s, 0)),
            ]
        })
        .collect();
    out.push_str(&report::table(
        &["device", "model (s)", "paper (s)"],
        &table_rows,
    ));
    out.push_str("\nFig. 1(b): training-time breakdown (%)\n");
    for r in rows {
        out.push_str(&format!("{}: ", r.device));
        for (label, pct) in &r.breakdown {
            out.push_str(&format!("{label} {pct:.1}%  "));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_paper_totals_within_band() {
        for row in run() {
            if let Some(paper) = row.paper_seconds {
                let ratio = row.total_seconds / paper;
                assert!(
                    (0.5..2.0).contains(&ratio),
                    "{}: {:.0} s vs paper {:.0} s",
                    row.device,
                    row.total_seconds,
                    paper
                );
            }
        }
    }

    #[test]
    fn edge_gpus_are_far_slower_than_cloud() {
        let rows = run();
        let cloud = rows
            .iter()
            .find(|r| r.device == "2080Ti")
            .expect("fig1 rows must include the 2080Ti baseline");
        let xnx = rows
            .iter()
            .find(|r| r.device == "XNX")
            .expect("fig1 rows must include the XNX baseline");
        assert!(xnx.total_seconds > 10.0 * cloud.total_seconds);
    }

    #[test]
    fn bottleneck_steps_cover_roughly_three_quarters() {
        // Fig. 1(b): the six steps cover 76.4% on XNX.
        let rows = run();
        let xnx = rows
            .iter()
            .find(|r| r.device == "XNX")
            .expect("fig1 rows must include the XNX baseline");
        let other = xnx
            .breakdown
            .iter()
            .find(|(l, _)| l == "Other")
            .expect("XNX breakdown must carry an Other bucket")
            .1;
        assert!((15.0..35.0).contains(&other), "other = {other:.1}%");
    }

    #[test]
    fn render_includes_all_devices() {
        let rows = run();
        let s = render(&rows);
        for d in ["2080Ti", "XNX", "TX2"] {
            assert!(s.contains(d));
        }
    }
}
