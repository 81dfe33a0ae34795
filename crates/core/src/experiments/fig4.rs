//! Fig. 4: DRAM throughput and ALU utilization of the bottleneck kernels.

use crate::report;
use inerf_encoding::HashFunction;
use inerf_gpu::{GpuSpec, TrainingCost};
use inerf_trainer::workload::Step;
use inerf_trainer::ModelConfig;
use serde::Serialize;

/// One kernel bar group of Fig. 4.
#[derive(Debug, Clone, Serialize)]
pub struct Fig4Row {
    /// Step label.
    pub step: String,
    /// DRAM read throughput in GB/s.
    pub read_gbs: f64,
    /// DRAM write throughput in GB/s.
    pub write_gbs: f64,
    /// FP16 ALU utilization (fraction).
    pub fp16_util: f64,
    /// INT32 ALU utilization (fraction).
    pub int32_util: f64,
}

/// Approximate read share of each step's DRAM traffic (forward steps read
/// tables/activations and write small outputs; HT_b read-modify-writes).
fn read_fraction(step: Step) -> f64 {
    match step {
        Step::Ht => 0.95,
        Step::MlpD | Step::MlpC => 0.65,
        Step::MlpDB | Step::MlpCB => 0.55,
        Step::HtB => 0.6,
    }
}

/// Runs the Fig. 4 experiment on the XNX edge GPU.
pub fn run() -> Vec<Fig4Row> {
    let model = ModelConfig::paper(HashFunction::Original);
    let cost = TrainingCost::estimate(
        &GpuSpec::xnx(),
        &model,
        super::fig1::PAPER_BATCH,
        super::fig1::PAPER_ITERATIONS,
        1.0,
    );
    Step::ALL
        .iter()
        .map(|&step| {
            let s = cost.step(step);
            let total = s.dram_throughput / 1e9;
            Fig4Row {
                step: step.label().to_string(),
                read_gbs: total * read_fraction(step),
                write_gbs: total * (1.0 - read_fraction(step)),
                fp16_util: s.fp16_utilization,
                int32_util: s.int32_utilization,
            }
        })
        .collect()
}

/// Pretty-prints the figure.
pub fn render(rows: &[Fig4Row]) -> String {
    let mut out = String::from("Fig. 4: DRAM throughput and ALU utilization (XNX)\n");
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.step.clone(),
                report::f(r.read_gbs, 1),
                report::f(r.write_gbs, 1),
                report::f(100.0 * r.fp16_util, 2),
                report::f(100.0 * r.int32_util, 2),
            ]
        })
        .collect();
    out.push_str(&report::table(
        &["step", "rd GB/s", "wr GB/s", "FP16 %", "INT32 %"],
        &table_rows,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_below_peak_and_substantial() {
        for r in run() {
            let total = r.read_gbs + r.write_gbs;
            assert!(
                total <= 59.7 + 1e-6,
                "{}: {total} GB/s exceeds XNX peak",
                r.step
            );
            assert!(total > 5.0, "{}: {total} GB/s suspiciously idle", r.step);
        }
    }

    #[test]
    fn alu_utilization_is_low_everywhere() {
        // The memory-bound observation: ALU stays in single digits.
        for r in run() {
            assert!(
                r.fp16_util < 0.30,
                "{}: FP16 util {:.3}",
                r.step,
                r.fp16_util
            );
            assert!(
                r.int32_util < 0.30,
                "{}: INT32 util {:.3}",
                r.step,
                r.int32_util
            );
        }
    }

    #[test]
    fn ht_kernels_dominate_int_utilization() {
        // Observation 3: index calculation makes HT the top INT32 consumer.
        let rows = run();
        let ht_int = rows
            .iter()
            .find(|r| r.step == "HT")
            .expect("fig4 rows must include the HT step")
            .int32_util;
        for r in &rows {
            if !r.step.starts_with("HT") {
                assert!(
                    ht_int > 2.0 * r.int32_util,
                    "HT INT {:.4} should dominate {} ({:.4})",
                    ht_int,
                    r.step,
                    r.int32_util
                );
            }
        }
    }

    #[test]
    fn render_mentions_every_step() {
        let s = render(&run());
        for label in ["HT", "MLPd", "MLPc", "MLPc_b", "MLPd_b", "HT_b"] {
            assert!(s.contains(label), "missing {label}");
        }
    }
}
