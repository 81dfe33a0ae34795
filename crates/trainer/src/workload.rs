//! The iNGP training workload model (paper Tab. II and the op counts the
//! hardware cost models consume).
//!
//! All quantities derive from the architecture configuration and the batch
//! size. The storage width of table entries, features and activations is a
//! [`Precision`] parameter (input coordinates stay FP32); the paper's
//! Tab. II convention is [`Precision::Fp16`] (2 B) storage.

use crate::model::ModelConfig;
use inerf_encoding::HashGridConfig;
use inerf_mlp::Precision;

/// The bottleneck pipeline steps the paper analyzes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Step {
    /// Hash-table encode: hashing, lookup, interpolation (Steps 1–3 of Fig. 3).
    Ht,
    /// Density MLP forward.
    MlpD,
    /// Color MLP forward.
    MlpC,
    /// Color MLP backward.
    MlpCB,
    /// Density MLP backward.
    MlpDB,
    /// Hash-table backward (embedding gradient scatter).
    HtB,
}

impl Step {
    /// All steps in forward-then-backward pipeline order.
    pub const ALL: [Step; 6] = [
        Step::Ht,
        Step::MlpD,
        Step::MlpC,
        Step::MlpCB,
        Step::MlpDB,
        Step::HtB,
    ];

    /// The paper's label for this step.
    pub fn label(&self) -> &'static str {
        match self {
            Step::Ht => "HT",
            Step::MlpD => "MLPd",
            Step::MlpC => "MLPc",
            Step::MlpCB => "MLPc_b",
            Step::MlpDB => "MLPd_b",
            Step::HtB => "HT_b",
        }
    }
}

/// Byte sizes of one step's operands for a whole batch (one Tab. II row).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepSizes {
    /// Parameters read (and, for backward steps, written).
    pub param_bytes: u64,
    /// Input operand bytes.
    pub input_bytes: u64,
    /// Output operand bytes.
    pub output_bytes: u64,
    /// Peak intermediate data (level-by-level / layer-by-layer maximum).
    pub intermediate_bytes: u64,
}

const FP32: u64 = 4;

/// Bytes of the hash table stored at `precision` (dense coarse levels
/// stored compactly). Halves going from f32 to fp16.
fn hash_table_bytes_at(cfg: &ModelConfig, precision: Precision) -> u64 {
    let entry_bytes = u64::from(cfg.grid.entry_bytes(precision));
    cfg.grid
        .build_levels()
        .iter()
        .map(|l| {
            let entries = (l.dense_vertex_count()).min(cfg.grid.table_size() as u64);
            entries * entry_bytes
        })
        .sum()
}

/// Bytes of the two MLPs' weights stored at `precision`.
pub fn mlp_param_bytes_at(cfg: &ModelConfig, precision: Precision) -> u64 {
    let feat = cfg.grid.feature_dim() as u64;
    let dh = cfg.density_hidden as u64;
    let dout = cfg.density_out as u64;
    let ch = cfg.color_hidden as u64;
    let cin = (dout - 1) + 9;
    let density = feat * dh + dh + dh * dout + dout;
    let color = cin * ch + ch + ch * ch + ch + ch * 3 + 3;
    (density + color) * precision.bytes_per_param() as u64
}

/// Computes one Tab. II row for a batch of `points` sampled points, with
/// parameters and activations stored at `precision`.
pub fn step_sizes_at(
    cfg: &ModelConfig,
    step: Step,
    points: u64,
    precision: Precision,
) -> StepSizes {
    let sb = precision.bytes_per_param() as u64;
    let feat = cfg.grid.feature_dim() as u64;
    let encode_bytes = points * feat * sb; // HT output = MLP input
    let rgb_bytes = points * 3 * sb;
    let hidden_bytes = points * cfg.color_hidden.max(cfg.density_hidden) as u64 * sb;
    match step {
        Step::Ht => StepSizes {
            param_bytes: hash_table_bytes_at(cfg, precision),
            input_bytes: points * 3 * FP32, // 3D coordinates
            output_bytes: encode_bytes,
            intermediate_bytes: 0,
        },
        Step::MlpD | Step::MlpC => StepSizes {
            param_bytes: mlp_param_bytes_at(cfg, precision),
            input_bytes: encode_bytes,
            output_bytes: rgb_bytes,
            intermediate_bytes: hidden_bytes,
        },
        Step::MlpCB | Step::MlpDB => StepSizes {
            param_bytes: mlp_param_bytes_at(cfg, precision),
            input_bytes: rgb_bytes,
            output_bytes: encode_bytes,
            intermediate_bytes: hidden_bytes,
        },
        Step::HtB => StepSizes {
            param_bytes: hash_table_bytes_at(cfg, precision),
            input_bytes: encode_bytes,
            output_bytes: 0,
            intermediate_bytes: 0,
        },
    }
}

/// Aggregated "MLP" row of Tab. II (MLPd and MLPc applied sequentially)
/// at `precision`.
pub fn mlp_combined_sizes_at(cfg: &ModelConfig, points: u64, precision: Precision) -> StepSizes {
    let d = step_sizes_at(cfg, Step::MlpD, points, precision);
    StepSizes {
        param_bytes: mlp_param_bytes_at(cfg, precision),
        input_bytes: d.input_bytes,
        output_bytes: d.output_bytes,
        intermediate_bytes: d.intermediate_bytes,
    }
}

/// Per-point operation counts of one step, used by the GPU and NMP cost
/// models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepOps {
    /// Floating-point operations (MACs count as 2).
    pub fp_ops: u64,
    /// Integer ALU operations (index calculation via the hash mapping).
    pub int_ops: u64,
    /// Ideal DRAM traffic in bytes (before access-granularity amplification).
    pub dram_bytes: u64,
}

/// Per-point op counts for `step`, with storage traffic at `precision`
/// (the op counts themselves are precision-independent — computation runs
/// in FP32/INT32 either way).
pub fn step_ops_at(cfg: &ModelConfig, step: Step, precision: Precision) -> StepOps {
    let sb = precision.bytes_per_param() as u64;
    let levels = cfg.grid.levels as u64;
    let feats = u64::from(HashGridConfig::FEATURES);
    let feat_dim = cfg.grid.feature_dim() as u64;
    let dh = cfg.density_hidden as u64;
    let dout = cfg.density_out as u64;
    let ch = cfg.color_hidden as u64;
    let cin = (dout - 1) + 9;
    let hash_int_ops = inerf_encoding::hash::index_int_ops(cfg.grid.hash) as u64;
    match step {
        Step::Ht => StepOps {
            // Trilinear interpolation: 8 corners × F features × MAC, plus
            // weight computation (~3 muls per corner).
            fp_ops: levels * (8 * feats * 2 + 8 * 3),
            // 8 vertex hashes per level.
            int_ops: levels * 8 * hash_int_ops,
            // Read 8 entries per level + write the concatenated features.
            dram_bytes: levels * 8 * feats * sb + feat_dim * sb,
        },
        Step::MlpD => StepOps {
            fp_ops: 2 * (feat_dim * dh + dh * dout),
            int_ops: 0,
            dram_bytes: feat_dim * sb + dout * sb,
        },
        Step::MlpC => StepOps {
            fp_ops: 2 * (cin * ch + ch * ch + ch * 3),
            int_ops: 0,
            dram_bytes: cin * sb + 3 * sb,
        },
        Step::MlpCB => StepOps {
            fp_ops: 4 * (cin * ch + ch * ch + ch * 3),
            int_ops: 0,
            dram_bytes: (cin + 3) * sb + ch * sb,
        },
        Step::MlpDB => StepOps {
            fp_ops: 4 * (feat_dim * dh + dh * dout),
            int_ops: 0,
            dram_bytes: (feat_dim + dout) * sb + dh * sb,
        },
        Step::HtB => StepOps {
            // Gradient scatter: read-modify-write 8 entries per level.
            fp_ops: levels * 8 * feats * 2,
            int_ops: levels * 8 * hash_int_ops,
            dram_bytes: levels * 8 * feats * sb * 2 + feat_dim * sb,
        },
    }
}

const MB: f64 = 1024.0 * 1024.0;

/// Formats a byte count in MB for experiment tables.
pub fn to_mb(bytes: u64) -> f64 {
    bytes as f64 / MB
}

#[cfg(test)]
mod tests {
    use super::*;
    use inerf_encoding::HashFunction;

    const PAPER_BATCH: u64 = 256 * 1024;
    const FP16: Precision = Precision::Fp16;

    fn paper_cfg() -> ModelConfig {
        ModelConfig::paper(HashFunction::Morton)
    }

    #[test]
    fn tab2_ht_row() {
        let s = step_sizes_at(&paper_cfg(), Step::Ht, PAPER_BATCH, FP16);
        // Paper: 25 MB params, 3 MB input, 16 MB output, 0 intermediate.
        assert!(
            (20.0..30.0).contains(&to_mb(s.param_bytes)),
            "param {:.1}",
            to_mb(s.param_bytes)
        );
        assert!(
            (to_mb(s.input_bytes) - 3.0).abs() < 0.1,
            "input {:.2}",
            to_mb(s.input_bytes)
        );
        assert!(
            (to_mb(s.output_bytes) - 16.0).abs() < 0.1,
            "output {:.2}",
            to_mb(s.output_bytes)
        );
        assert_eq!(s.intermediate_bytes, 0);
    }

    #[test]
    fn tab2_mlp_row() {
        let s = mlp_combined_sizes_at(&paper_cfg(), PAPER_BATCH, FP16);
        // Paper: 0.014 MB params, 16 MB input, 1.5 MB output, 32 MB intermediate.
        assert!(
            (0.008..0.03).contains(&to_mb(s.param_bytes)),
            "param {:.4} MB",
            to_mb(s.param_bytes)
        );
        assert!((to_mb(s.input_bytes) - 16.0).abs() < 0.1);
        assert!((to_mb(s.output_bytes) - 1.5).abs() < 0.1);
        assert!((to_mb(s.intermediate_bytes) - 32.0).abs() < 0.1);
    }

    #[test]
    fn tab2_htb_row() {
        let s = step_sizes_at(&paper_cfg(), Step::HtB, PAPER_BATCH, FP16);
        assert!((20.0..30.0).contains(&to_mb(s.param_bytes)));
        assert!((to_mb(s.input_bytes) - 16.0).abs() < 0.1);
        assert_eq!(s.output_bytes, 0);
    }

    #[test]
    fn backward_rows_mirror_forward() {
        let f = step_sizes_at(&paper_cfg(), Step::MlpD, PAPER_BATCH, FP16);
        let b = step_sizes_at(&paper_cfg(), Step::MlpDB, PAPER_BATCH, FP16);
        assert_eq!(f.input_bytes, b.output_bytes);
        assert_eq!(f.output_bytes, b.input_bytes);
    }

    #[test]
    fn level_is_2mb_as_paper_states() {
        // Sec. II-B: "each individual level of the hash table is 2 MB".
        let cfg = paper_cfg();
        assert_eq!(
            cfg.grid.table_size() as usize * cfg.grid.entry_bytes(Precision::Fp16) as usize,
            2 * 1024 * 1024
        );
    }

    #[test]
    fn ht_is_memory_heavy_mlp_is_compute_heavy() {
        // The co-design premise: HT moves many bytes per FLOP, the MLPs the
        // reverse. Ratio of bytes to flops must differ by an order of
        // magnitude.
        let cfg = paper_cfg();
        let ht = step_ops_at(&cfg, Step::Ht, FP16);
        let mlp = step_ops_at(&cfg, Step::MlpD, FP16);
        let ht_intensity = ht.fp_ops as f64 / ht.dram_bytes as f64;
        let mlp_intensity = mlp.fp_ops as f64 / mlp.dram_bytes as f64;
        assert!(
            mlp_intensity > 10.0 * ht_intensity,
            "MLP intensity {mlp_intensity:.1} vs HT {ht_intensity:.1}"
        );
    }

    #[test]
    fn ht_dominates_int_ops() {
        // Observation 3 of Sec. II-B: index calculation dominates INT32 use.
        let cfg = paper_cfg();
        let total_int: u64 = Step::ALL
            .iter()
            .map(|&s| step_ops_at(&cfg, s, FP16).int_ops)
            .sum();
        let ht_int =
            step_ops_at(&cfg, Step::Ht, FP16).int_ops + step_ops_at(&cfg, Step::HtB, FP16).int_ops;
        assert_eq!(total_int, ht_int, "only HT steps use INT ops in this model");
        assert!(ht_int > 0);
    }

    #[test]
    fn step_labels_unique() {
        let mut labels: Vec<&str> = Step::ALL.iter().map(|s| s.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 6);
    }
}
