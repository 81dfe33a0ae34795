//! Per-bank compute-time model of the Instant-NeRF microarchitecture.
//!
//! The compute engine (paper Fig. 8) has separate INT32 and FP32 PE groups.
//! INT32 PEs execute the hash-index calculation; FP32 PEs the interpolation
//! and MLP arithmetic. The 2 KB scratchpad cannot hold the MLP weights
//! (~14 KB), so weight tiles stream from the local bank between GEMV tiles —
//! modelled as a per-layer reload overhead.

use crate::config::AccelConfig;
use inerf_trainer::workload::{mlp_param_bytes_at, step_ops_at, Step};
use inerf_trainer::{ModelConfig, Precision};

/// Compute cycles one bank needs to process `points` points of `step`, with
/// weights stored at `precision`.
///
/// PEs are throughput-1: one INT op or one FP MAC (2 FLOPs) per cycle. The
/// INT and FP groups run concurrently, so the step's compute time is the
/// maximum of the two pipelines. The op counts are precision-independent
/// (computation runs in FP32/INT32 either way); only the weight-tile
/// reload traffic scales with the storage width.
pub fn bank_compute_cycles_at(
    model: &ModelConfig,
    step: Step,
    points: u64,
    precision: Precision,
) -> u64 {
    let ops = step_ops_at(model, step, precision);
    let int_cycles = (ops.int_ops * points).div_ceil(AccelConfig::INT_PES as u64);
    let fp_cycles = (ops.fp_ops * points).div_ceil(2 * AccelConfig::FP_PES as u64);
    let compute = int_cycles.max(fp_cycles);
    compute + weight_reload_cycles(model, step, precision)
}

/// Extra cycles spent re-streaming MLP weight tiles that exceed the
/// scratchpad. HT steps keep their working set (hash registers + one cube)
/// on chip and pay nothing.
///
/// Weight-stationary dataflow: each scratchpad-sized weight tile is loaded
/// once per batch and the whole point stream flows through it (activation
/// traffic is accounted in the DRAM model), so the cost does not depend on
/// the point count. The load streams at the 128-bit (16 B/cycle) internal
/// width.
fn weight_reload_cycles(model: &ModelConfig, step: Step, precision: Precision) -> u64 {
    let weight_bytes = match step {
        Step::MlpD | Step::MlpDB | Step::MlpC | Step::MlpCB => {
            mlp_param_bytes_at(model, precision) / 2
        }
        Step::Ht | Step::HtB => return 0,
    };
    if weight_bytes <= AccelConfig::SCRATCHPAD_BYTES as u64 {
        return 0;
    }
    weight_bytes.div_ceil(16)
}

#[cfg(test)]
mod tests {
    use super::*;
    use inerf_encoding::HashFunction;

    const FP16: Precision = Precision::Fp16;

    fn setup() -> ModelConfig {
        ModelConfig::paper(HashFunction::Morton)
    }

    #[test]
    fn compute_scales_linearly_with_points() {
        let m = setup();
        let one = bank_compute_cycles_at(&m, Step::Ht, 1000, FP16);
        let two = bank_compute_cycles_at(&m, Step::Ht, 2000, FP16);
        let ratio = two as f64 / one as f64;
        assert!((ratio - 2.0).abs() < 0.05, "ratio {ratio}");
    }

    #[test]
    fn ht_cycles_pinned_for_both_hashes() {
        // Tab. III: 256 INT32 and 256 FP32 PEs per bank. The paper grid has
        // 16 levels, 8 vertex hashes per level, F = 2. Per point the INT side
        // runs 16 × 8 × ops hash ops (`index_int_ops`: 35 for Morton, 5 for
        // Original), so 512 points take 16 × 8 × ops × 512 / 256 cycles:
        // 8 960 (Morton) and 1 280 (Original). The FP side runs
        // 16 × (8·2·2 + 8·3) = 896 FLOPs a point, 896 × 512 / (2 × 256) =
        // 896 cycles, so both hashes are INT-bound and HT reloads no weights.
        for (hash, want) in [
            (HashFunction::Morton, 8_960),
            (HashFunction::Original, 1_280),
        ] {
            let m = ModelConfig::paper(hash);
            assert_eq!(bank_compute_cycles_at(&m, Step::Ht, 512, FP16), want);
        }
    }

    #[test]
    fn ht_is_int_bound_mlp_is_fp_bound() {
        let m = setup();
        // HT with the Morton hash runs many INT ops per point; MLPs none.
        let ht = step_ops_at(&m, Step::Ht, FP16);
        assert!(
            ht.int_ops * 2 * AccelConfig::FP_PES as u64 > ht.fp_ops * AccelConfig::INT_PES as u64
        );
        let mlp = step_ops_at(&m, Step::MlpD, FP16);
        assert_eq!(mlp.int_ops, 0);
    }

    #[test]
    fn mlp_pays_weight_reload() {
        let m = setup();
        let mlp_ops = step_ops_at(&m, Step::MlpD, FP16);
        let raw = (mlp_ops.fp_ops * 1000).div_ceil(2 * AccelConfig::FP_PES as u64);
        let with_reload = bank_compute_cycles_at(&m, Step::MlpD, 1000, FP16);
        assert!(
            with_reload > raw,
            "weights (~14 KB) exceed the 2 KB scratchpad"
        );
    }

    #[test]
    fn tiny_mlp_fits_scratchpad() {
        let m = ModelConfig::tiny();
        // Tiny config weights are small enough to fit in 2 KB.
        if mlp_param_bytes_at(&m, FP16) / 2 <= AccelConfig::SCRATCHPAD_BYTES as u64 {
            let ops = step_ops_at(&m, Step::MlpD, FP16);
            let raw = (ops.fp_ops * 500).div_ceil(2 * AccelConfig::FP_PES as u64);
            assert_eq!(bank_compute_cycles_at(&m, Step::MlpD, 500, FP16), raw);
        }
    }

    #[test]
    fn seconds_conversion() {
        assert!((200_000_000.0 * AccelConfig::cycle_seconds() - 1.0).abs() < 1e-9);
    }
}
