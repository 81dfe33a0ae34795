//! Tab. I (device specs), Tab. II (workload sizes) and Tab. III
//! (accelerator configuration), printed in the paper's shape.

use crate::report;
use inerf_accel::AccelConfig;
use inerf_dram::DramConfig;
use inerf_encoding::HashFunction;
use inerf_gpu::GpuSpec;
use inerf_trainer::workload::{self, Step};
use inerf_trainer::{ModelConfig, Precision};

/// Renders Tab. I.
pub fn tab1() -> String {
    let rows: Vec<Vec<String>> = GpuSpec::all()
        .into_iter()
        .map(|s| {
            vec![
                s.name.clone(),
                format!("{:.0} W", s.power_w),
                format!("{:.1} GB/s", s.dram_bw / 1e9),
                format!("{} KB", s.l2_bytes / 1024),
                format!("{:.2} TFLOPS", s.fp16_flops / 1e12),
                s.paper_seconds_per_scene
                    .map_or("N/A".into(), |t| format!("{t:.0} s/scene")),
            ]
        })
        .collect();
    let mut out = String::from("Tab. I: SOTA GPU specifications\n");
    out.push_str(&report::table(
        &["device", "power", "DRAM BW", "L2", "FP16", "training time"],
        &rows,
    ));
    out
}

/// One Tab. II row in MB.
#[derive(Debug, Clone)]
pub struct Tab2Row {
    /// Step label ("MLP" aggregates MLPd→MLPc as in the paper).
    pub step: String,
    /// Parameter megabytes.
    pub param_mb: f64,
    /// Input megabytes.
    pub input_mb: f64,
    /// Output megabytes.
    pub output_mb: f64,
    /// Peak intermediate megabytes.
    pub intermediate_mb: f64,
}

/// Computes Tab. II for the paper batch size.
pub fn tab2_rows() -> Vec<Tab2Row> {
    let model = ModelConfig::paper(HashFunction::Morton);
    let points = super::fig1::PAPER_BATCH;
    // Tab. II stores entries and activations as fp16.
    let fp16 = Precision::Fp16;
    let sizes = |step| workload::step_sizes_at(&model, step, points, fp16);
    let mk = |label: &str, s: workload::StepSizes| Tab2Row {
        step: label.to_string(),
        param_mb: workload::to_mb(s.param_bytes),
        input_mb: workload::to_mb(s.input_bytes),
        output_mb: workload::to_mb(s.output_bytes),
        intermediate_mb: workload::to_mb(s.intermediate_bytes),
    };
    let mlp = workload::mlp_combined_sizes_at(&model, points, fp16);
    let mlp_b = workload::StepSizes {
        input_bytes: mlp.output_bytes,
        output_bytes: mlp.input_bytes,
        ..mlp
    };
    vec![
        mk("HT", sizes(Step::Ht)),
        mk("MLP", mlp),
        mk("MLP_b", mlp_b),
        mk("HT_b", sizes(Step::HtB)),
    ]
}

/// Renders Tab. II.
pub fn tab2() -> String {
    let rows: Vec<Vec<String>> = tab2_rows()
        .into_iter()
        .map(|r| {
            vec![
                r.step,
                report::f(r.param_mb, 3),
                report::f(r.input_mb, 1),
                report::f(r.output_mb, 1),
                report::f(r.intermediate_mb, 1),
            ]
        })
        .collect();
    let mut out =
        String::from("Tab. II: parameter/data sizes of iNGP's bottleneck steps (MB, 256K batch)\n");
    out.push_str(&report::table(
        &["step", "param", "input", "output", "intermediate"],
        &rows,
    ));
    out
}

/// Renders Tab. III plus the Sec. V-C area/power results.
pub fn tab3() -> String {
    let t = DramConfig::TIMING;
    let mut out = String::from("Tab. III: Instant-NeRF accelerator parameters\n");
    let rows = vec![
        vec!["technology".into(), "28 nm".into()],
        vec![
            "frequency".into(),
            format!("{} MHz", AccelConfig::FREQUENCY_MHZ),
        ],
        vec![
            "scratchpad".into(),
            format!("{} KB", AccelConfig::SCRATCHPAD_BYTES / 1024),
        ],
        vec![
            "compute".into(),
            format!(
                "{}x INT32 + {}x FP32 PEs",
                AccelConfig::INT_PES,
                AccelConfig::FP_PES
            ),
        ],
        vec!["banks".into(), format!("{}", DramConfig::BANKS)],
        vec!["DRAM".into(), "LPDDR4-2400, 16 GB, 1 KB rows".into()],
        vec![
            "timing".into(),
            format!(
                "tCL-tRCD-tRP {}-{}-{}, tRAS {}, tRRD {}, tFAW {}",
                t.cl, t.rcd, t.rp, t.ras, t.rrd, t.faw
            ),
        ],
        vec!["subarrays/bank".into(), "1-2-4-8-16-32-64 (swept)".into()],
        vec![
            "area".into(),
            format!(
                "{:.1} mm²/bank ({:.1} mm² total)",
                AccelConfig::AREA_MM2_PER_BANK,
                AccelConfig::total_area_mm2()
            ),
        ],
        vec![
            "power".into(),
            format!(
                "{:.1} mW/bank ({:.2} W total)",
                AccelConfig::POWER_MW_PER_BANK,
                AccelConfig::total_power_w()
            ),
        ],
    ];
    out.push_str(&report::table(&["parameter", "value"], &rows));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tab1_contains_all_devices_and_na() {
        let s = tab1();
        for d in ["XNX", "TX2", "2080Ti", "Quest Pro"] {
            assert!(s.contains(d), "missing {d}");
        }
        assert!(
            s.contains("N/A"),
            "Quest Pro training time is N/A in the paper"
        );
    }

    #[test]
    fn tab2_matches_paper_values() {
        let rows = tab2_rows();
        let ht = &rows[0];
        assert!(
            (ht.param_mb - 25.0).abs() < 5.0,
            "HT params {:.1} MB",
            ht.param_mb
        );
        assert!((ht.input_mb - 3.0).abs() < 0.1);
        assert!((ht.output_mb - 16.0).abs() < 0.1);
        let mlp = &rows[1];
        assert!(mlp.param_mb < 0.03, "MLP params {:.4} MB", mlp.param_mb);
        assert!((mlp.intermediate_mb - 32.0).abs() < 0.5);
        let mlp_b = &rows[2];
        assert_eq!(mlp_b.input_mb, mlp.output_mb);
        assert_eq!(mlp_b.output_mb, mlp.input_mb);
    }

    #[test]
    fn tab3_mentions_key_parameters() {
        let s = tab3();
        for needle in [
            "200 MHz",
            "2 KB",
            "256x INT32",
            "LPDDR4",
            "3.6 mm²",
            "596.3 mW",
        ] {
            assert!(s.contains(needle), "missing {needle} in:\n{s}");
        }
    }
}
