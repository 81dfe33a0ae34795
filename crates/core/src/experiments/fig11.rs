//! Fig. 11: per-scene speedup and energy efficiency of the Instant-NeRF
//! accelerator over the TX2 and XNX edge GPUs.

use super::traces::{gpu_scene_factor, scene_trace_into};
use crate::report;
use inerf_accel::PipelineModel;
use inerf_encoding::{HashFunction, HashGrid};
use inerf_gpu::{GpuSpec, TrainingCost};
use inerf_scenes::zoo::{self, SceneKind};
use inerf_trainer::ModelConfig;
use serde::Serialize;

/// One scene's Fig. 11 bars.
#[derive(Debug, Clone, Serialize)]
pub struct Fig11Row {
    /// Scene name.
    pub scene: String,
    /// Accelerator training time per scene (seconds).
    pub accel_seconds: f64,
    /// Accelerator training energy per scene (joules): PE power over the
    /// training time plus the modeled DRAM energy.
    pub accel_joules: f64,
    /// XNX / TX2 training times (seconds).
    pub xnx_seconds: f64,
    /// TX2 training time (seconds).
    pub tx2_seconds: f64,
    /// Speedup over XNX (paper band: 22.0x–49.3x).
    pub speedup_xnx: f64,
    /// Speedup over TX2 (paper band: 109.5x–266.1x).
    pub speedup_tx2: f64,
    /// Energy-efficiency gain over XNX (paper band: 46.4x–103.7x).
    pub energy_gain_xnx: f64,
    /// Energy-efficiency gain over TX2 (paper band: 172.9x–420.3x).
    pub energy_gain_tx2: f64,
}

/// Runs Fig. 11 over the given scenes, collecting at least `target_points`
/// occupied points per scene trace (`samples` stratified samples per ray).
/// Each scene's access stream feeds the accelerator's DRAM replays online
/// through the trace bus — no per-scene trace is materialized.
pub fn run(scenes: &[SceneKind], target_points: usize, samples: usize, seed: u64) -> Vec<Fig11Row> {
    let iterations = super::fig1::PAPER_ITERATIONS;
    let batch = super::fig1::PAPER_BATCH;
    let ours_model = ModelConfig::paper(HashFunction::Morton);
    let gpu_model = ModelConfig::paper(HashFunction::Original); // iNGP on GPU
    let grid = HashGrid::new(ours_model.grid, seed);
    let pipeline = PipelineModel::paper(ours_model);
    let mut sink = pipeline.iteration_sink();
    scenes
        .iter()
        .map(|&kind| {
            let scene = zoo::scene(kind);
            let st = scene_trace_into(&scene, &grid, target_points, samples, seed, &mut sink);
            let iter = pipeline.estimate_streamed(&mut sink, batch);
            let accel = pipeline.scene_estimate(&iter, iterations);
            let factor = gpu_scene_factor(&st);
            let xnx =
                TrainingCost::estimate(&GpuSpec::xnx(), &gpu_model, batch, iterations, factor);
            let tx2 =
                TrainingCost::estimate(&GpuSpec::tx2(), &gpu_model, batch, iterations, factor);
            Fig11Row {
                scene: kind.name().to_string(),
                accel_seconds: accel.training_seconds,
                accel_joules: accel.training_joules,
                xnx_seconds: xnx.total_seconds,
                tx2_seconds: tx2.total_seconds,
                speedup_xnx: xnx.total_seconds / accel.training_seconds,
                speedup_tx2: tx2.total_seconds / accel.training_seconds,
                energy_gain_xnx: xnx.total_joules / accel.training_joules,
                energy_gain_tx2: tx2.total_joules / accel.training_joules,
            }
        })
        .collect()
}

/// Pretty-prints the figure.
pub fn render(rows: &[Fig11Row]) -> String {
    let mut out =
        String::from("Fig. 11: Instant-NeRF accelerator vs edge GPUs (speedup / energy gain)\n");
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.scene.clone(),
                report::f(r.accel_seconds, 1),
                format!("{}x", report::f(r.speedup_xnx, 1)),
                format!("{}x", report::f(r.speedup_tx2, 1)),
                format!("{}x", report::f(r.energy_gain_xnx, 1)),
                format!("{}x", report::f(r.energy_gain_tx2, 1)),
            ]
        })
        .collect();
    out.push_str(&report::table(
        &[
            "scene",
            "accel (s)",
            "vs XNX",
            "vs TX2",
            "energy vs XNX",
            "energy vs TX2",
        ],
        &table_rows,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<Fig11Row> {
        // Two contrasting scenes keep the test fast.
        run(&[SceneKind::Mic, SceneKind::Lego], 768, 96, 3)
    }

    #[test]
    fn speedups_land_in_paper_order_of_magnitude() {
        for r in rows() {
            assert!(
                (8.0..80.0).contains(&r.speedup_xnx),
                "{}: XNX speedup {:.1}x outside the plausible band",
                r.scene,
                r.speedup_xnx
            );
            assert!(
                (40.0..500.0).contains(&r.speedup_tx2),
                "{}: TX2 speedup {:.1}x",
                r.scene,
                r.speedup_tx2
            );
            assert!(
                r.speedup_tx2 > 3.0 * r.speedup_xnx,
                "TX2 gain must exceed XNX gain"
            );
        }
    }

    #[test]
    fn energy_gains_exceed_speedups_on_xnx() {
        // P_xnx (20 W) > P_accel (~9.5 W + DRAM), so energy gains beat
        // speedups — the structure behind Fig. 11(b) > Fig. 11(a).
        let pe_watts = inerf_accel::AccelConfig::total_power_w();
        for r in rows() {
            // DRAM energy is positive, so the total exceeds PE power × time.
            assert!(
                r.accel_joules > r.accel_seconds * pe_watts,
                "{}: {:.1} J vs {:.1} s at {pe_watts:.2} W",
                r.scene,
                r.accel_joules,
                r.accel_seconds
            );
            assert!(
                r.energy_gain_xnx > r.speedup_xnx,
                "{}: energy {:.1}x vs speedup {:.1}x",
                r.scene,
                r.energy_gain_xnx,
                r.speedup_xnx
            );
        }
    }

    #[test]
    fn scenes_differ() {
        let rs = rows();
        assert!(
            (rs[0].speedup_xnx - rs[1].speedup_xnx).abs() > 0.5,
            "per-scene variation expected: {:.1} vs {:.1}",
            rs[0].speedup_xnx,
            rs[1].speedup_xnx
        );
    }

    #[test]
    fn render_has_all_columns() {
        let s = render(&rows());
        assert!(s.contains("vs XNX") && s.contains("energy vs TX2"));
        assert!(s.contains("Mic") && s.contains("Lego"));
    }
}
