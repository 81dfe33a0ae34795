//! Extension beyond the paper: predicting the Quest Pro.
//!
//! Tab. I lists the Meta Quest Pro's Adreno 650 GPU but reports its iNGP
//! training time as N/A — the motivating device the paper never measures.
//! With the calibrated cost model in place, we can fill that cell in, and
//! answer the question the introduction poses: what would instant on-device
//! reconstruction cost on the actual VR headset, with and without the NMP
//! accelerator?

use crate::report;
use inerf_encoding::HashFunction;
use inerf_gpu::{GpuSpec, TrainingCost};
use inerf_trainer::ModelConfig;
use serde::Serialize;

/// The Quest Pro prediction.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct QuestProPrediction {
    /// Predicted iNGP training time per scene on the Quest Pro GPU (s).
    pub gpu_seconds: f64,
    /// Predicted training energy on the GPU (J).
    pub gpu_joules: f64,
    /// Battery share: energy as a fraction of a 20.58 Wh Quest Pro battery.
    pub gpu_battery_fraction: f64,
    /// NMP accelerator time for the same workload (s) — from the Fig. 11
    /// average.
    pub accel_seconds: f64,
    /// NMP accelerator energy (J).
    pub accel_joules: f64,
    /// Accelerator battery share.
    pub accel_battery_fraction: f64,
}

/// Quest Pro battery capacity in joules (20.58 Wh).
pub const QUEST_PRO_BATTERY_J: f64 = 20.58 * 3600.0;

/// Predicts per-scene training cost on the Quest Pro and compares it with
/// the NMP accelerator (`accel_seconds`/`accel_joules` from a Fig. 11 run;
/// the average-scene values are fine).
pub fn predict(accel_seconds: f64, accel_joules: f64) -> QuestProPrediction {
    let model = ModelConfig::paper(HashFunction::Original);
    let cost = TrainingCost::estimate(
        &GpuSpec::quest_pro(),
        &model,
        super::fig1::PAPER_BATCH,
        super::fig1::PAPER_ITERATIONS,
        1.0,
    );
    QuestProPrediction {
        gpu_seconds: cost.total_seconds,
        gpu_joules: cost.total_joules,
        gpu_battery_fraction: cost.total_joules / QUEST_PRO_BATTERY_J,
        accel_seconds,
        accel_joules,
        accel_battery_fraction: accel_joules / QUEST_PRO_BATTERY_J,
    }
}

/// Pretty-prints the prediction.
pub fn render(p: &QuestProPrediction) -> String {
    let mut out =
        String::from("Extension: filling in Tab. I's N/A — iNGP training on the Meta Quest Pro\n");
    let rows = vec![
        vec![
            "Quest Pro GPU (predicted)".to_string(),
            report::f(p.gpu_seconds, 0),
            report::f(p.gpu_joules / 1000.0, 1),
            format!("{:.0}%", 100.0 * p.gpu_battery_fraction),
        ],
        vec![
            "Instant-NeRF NMP".to_string(),
            report::f(p.accel_seconds, 0),
            report::f(p.accel_joules / 1000.0, 1),
            format!("{:.1}%", 100.0 * p.accel_battery_fraction),
        ],
    ];
    out.push_str(&report::table(
        &["platform", "time (s)", "energy (kJ)", "battery"],
        &rows,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quest_pro_cannot_train_instantly() {
        // The motivating gap: hours of training and a large battery bite on
        // the headset GPU.
        let p = predict(300.0, 3000.0);
        assert!(
            p.gpu_seconds > 3600.0,
            "predicted {:.0} s should exceed an hour",
            p.gpu_seconds
        );
        assert!(
            p.gpu_battery_fraction > 0.2,
            "battery share {:.2}",
            p.gpu_battery_fraction
        );
    }

    #[test]
    fn nmp_makes_it_practical() {
        let p = predict(300.0, 3000.0);
        assert!(p.accel_seconds < p.gpu_seconds / 10.0);
        assert!(p.accel_battery_fraction < 0.1);
    }

    #[test]
    fn render_shows_both_platforms() {
        let s = render(&predict(300.0, 3000.0));
        assert!(s.contains("Quest Pro"));
        assert!(s.contains("Instant-NeRF NMP"));
    }
}
