//! Heterogeneous inter-bank parallelism (paper Sec. IV-C, Fig. 10).
//!
//! Two classic options exist per step: *data parallelism* (duplicate
//! parameters, split inputs) and *parameter parallelism* (split parameters,
//! duplicate inputs). Inter-bank transfers are expensive (16-bit shared
//! channel I/O), so the paper chooses per step whichever duplicates the
//! *smaller* operand: parameter parallelism for HT/HT_b (the 25 MB table is
//! split; the 3 MB inputs are duplicated) and data parallelism for MLP/MLP_b
//! (the 0.014 MB weights are duplicated; the 16 MB activations are split).

use crate::config::AccelConfig;
use inerf_dram::DramConfig;
use inerf_trainer::workload::{mlp_combined_sizes_at, step_sizes_at, Step};
use inerf_trainer::{ModelConfig, Precision};

/// Inter-bank parallelization of one step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParallelismKind {
    /// Split inputs, duplicate parameters.
    Data,
    /// Split parameters, duplicate inputs.
    Parameter,
}

/// The per-step parallelism choices of a full design.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelismPlan {
    /// HT forward.
    pub ht: ParallelismKind,
    /// MLP forward (MLPd → MLPc).
    pub mlp: ParallelismKind,
    /// MLP backward.
    pub mlp_b: ParallelismKind,
    /// HT backward.
    pub ht_b: ParallelismKind,
}

impl ParallelismPlan {
    /// The paper's heterogeneous plan.
    pub const fn paper() -> Self {
        ParallelismPlan {
            ht: ParallelismKind::Parameter,
            mlp: ParallelismKind::Data,
            mlp_b: ParallelismKind::Data,
            ht_b: ParallelismKind::Parameter,
        }
    }

    /// Ablation: data parallelism everywhere (the table is duplicated!).
    pub const fn all_data() -> Self {
        ParallelismPlan {
            ht: ParallelismKind::Data,
            mlp: ParallelismKind::Data,
            mlp_b: ParallelismKind::Data,
            ht_b: ParallelismKind::Data,
        }
    }

    /// Ablation: parameter parallelism everywhere (activations shuttle
    /// between banks inside the MLP).
    pub const fn all_parameter() -> Self {
        ParallelismPlan {
            ht: ParallelismKind::Parameter,
            mlp: ParallelismKind::Parameter,
            mlp_b: ParallelismKind::Parameter,
            ht_b: ParallelismKind::Parameter,
        }
    }
}

/// Inter-bank traffic of one training iteration, split into the paper's
/// four categories (Fig. 10), in bytes crossing the die's shared I/O.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MovementBreakdown {
    /// Category 1: parameter/data duplication for the chosen parallelism.
    pub cat1_duplication: u64,
    /// Category 2: input/output transfer between sequential steps.
    pub cat2_sequential: u64,
    /// Category 3: intermediate transfers within a single step.
    pub cat3_intermediate: u64,
    /// Category 4: parameter-gradient partial-sum transfers.
    pub cat4_gradients: u64,
}

impl MovementBreakdown {
    /// Total bytes moved between banks per iteration.
    pub fn total(&self) -> u64 {
        self.cat1_duplication + self.cat2_sequential + self.cat3_intermediate + self.cat4_gradients
    }

    /// Seconds to move this traffic over the inter-bank interconnect.
    pub fn seconds(&self) -> f64 {
        self.total() as f64 / AccelConfig::INTERBANK_BW_BYTES_PER_S
    }
}

/// The per-iteration inter-bank traffic of `plan` for a batch of `points`
/// sampled points on the die's [`DramConfig::BANKS`] banks, with parameters
/// and activations stored at `precision` (f32 storage doubles the bytes
/// crossing the shared I/O).
///
/// Bytes are counted once per pass over the shared I/O: a duplication is a
/// broadcast that reaches every bank in one pass, while a gradient
/// all-reduce collects one partial per bank.
pub fn bus_bytes_at(
    model: &ModelConfig,
    plan: &ParallelismPlan,
    points: u64,
    precision: Precision,
) -> MovementBreakdown {
    let banks = DramConfig::BANKS as u64;
    let ht = step_sizes_at(model, Step::Ht, points, precision);
    let mlp = mlp_combined_sizes_at(model, points, precision);
    let ht_b = step_sizes_at(model, Step::HtB, points, precision);
    let mut m = MovementBreakdown::default();

    // Category 1 — duplication, broadcast once.
    m.cat1_duplication += match plan.ht {
        // Inputs (coordinates) broadcast to every table-holding bank.
        ParallelismKind::Parameter => ht.input_bytes,
        // The whole hash table replicated on every bank.
        ParallelismKind::Data => ht.param_bytes,
    };
    m.cat1_duplication += match plan.mlp {
        ParallelismKind::Data => mlp.param_bytes,
        ParallelismKind::Parameter => mlp.input_bytes,
    };

    // Category 2 — sequential-step transfers: HT output → MLP input when the
    // layouts differ (parameter-parallel HT leaves per-level features on
    // table banks; data-parallel MLP wants per-point partitions), and the
    // mirrored transfer feeding HT_b.
    if plan.ht != plan.mlp {
        m.cat2_sequential += ht.output_bytes;
    }
    if plan.mlp_b != plan.ht_b {
        m.cat2_sequential += ht_b.input_bytes;
    }

    // Category 3 — intra-step intermediates: parameter-parallel MLPs must
    // move activations between banks at every layer boundary.
    if plan.mlp == ParallelismKind::Parameter {
        m.cat3_intermediate += mlp.intermediate_bytes;
    }
    if plan.mlp_b == ParallelismKind::Parameter {
        m.cat3_intermediate += mlp.intermediate_bytes;
    }

    // Category 4 — gradient partial sums: data-parallel backward steps must
    // all-reduce their parameter gradients, one partial per bank.
    if plan.mlp_b == ParallelismKind::Data {
        m.cat4_gradients += mlp.param_bytes * banks;
    }
    if plan.ht_b == ParallelismKind::Data {
        m.cat4_gradients += ht_b.param_bytes * banks;
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use inerf_encoding::HashFunction;

    const POINTS: u64 = 256 * 1024;

    fn model() -> ModelConfig {
        ModelConfig::paper(HashFunction::Morton)
    }

    fn bus(plan: ParallelismPlan, precision: Precision) -> MovementBreakdown {
        bus_bytes_at(&model(), &plan, POINTS, precision)
    }

    #[test]
    fn paper_plan_matches_fig10_categories() {
        let m = bus(ParallelismPlan::paper(), Precision::Fp16);
        // Fig. 10 table: HT duplicates data (yes), MLP duplicates params
        // (yes), one sequential transfer each direction, no intermediates,
        // gradients only for the small MLPs.
        assert!(m.cat1_duplication > 0);
        assert!(m.cat2_sequential > 0);
        assert_eq!(
            m.cat3_intermediate, 0,
            "paper plan has no Category-3 traffic"
        );
        // Category 4 covers only the tiny MLP weights, not the 25 MB table.
        let mlp_params = mlp_combined_sizes_at(&model(), POINTS, Precision::Fp16).param_bytes;
        assert_eq!(m.cat4_gradients, mlp_params * DramConfig::BANKS as u64);
    }

    #[test]
    fn paper_plan_beats_both_homogeneous_plans() {
        // The central Sec. IV-C claim.
        let paper = bus(ParallelismPlan::paper(), Precision::Fp16).total();
        let all_data = bus(ParallelismPlan::all_data(), Precision::Fp16).total();
        let all_param = bus(ParallelismPlan::all_parameter(), Precision::Fp16).total();
        assert!(
            paper < all_data / 2,
            "paper {paper} should be far below all-data {all_data} (table duplication)"
        );
        assert!(
            paper < all_param,
            "paper {paper} should beat all-parameter {all_param} (activation shuttling)"
        );
    }

    #[test]
    fn all_data_duplicates_the_table() {
        let m = bus(ParallelismPlan::all_data(), Precision::Fp16);
        let table = step_sizes_at(&model(), Step::Ht, POINTS, Precision::Fp16).param_bytes;
        assert!(m.cat1_duplication >= table);
    }

    #[test]
    fn all_parameter_moves_intermediates() {
        let m = bus(ParallelismPlan::all_parameter(), Precision::Fp16);
        assert!(m.cat3_intermediate > 0);
        assert_eq!(
            m.cat4_gradients, 0,
            "parameter-parallel backward needs no all-reduce"
        );
    }

    #[test]
    fn bus_bytes_preserves_plan_ordering() {
        // The plan ordering does not hinge on the paper's fp16 storage.
        let paper = bus(ParallelismPlan::paper(), Precision::F32).total();
        let all_data = bus(ParallelismPlan::all_data(), Precision::F32).total();
        let all_param = bus(ParallelismPlan::all_parameter(), Precision::F32).total();
        assert!(paper < all_data, "paper {paper} vs all-data {all_data}");
        assert!(paper < all_param, "paper {paper} vs all-param {all_param}");
    }

    #[test]
    fn movement_seconds_positive() {
        let m = bus(ParallelismPlan::paper(), Precision::Fp16);
        assert!(m.seconds() > 0.0);
        assert_eq!(
            m.total(),
            m.cat1_duplication + m.cat2_sequential + m.cat4_gradients
        );
    }
}
