//! DRAM energy model.
//!
//! Per-command energies representative of LPDDR4 at 1.1 V (derived from the
//! device class of Oh et al., JSSC'15, reference \[18\] of the paper).
//! Absolute joules are not the reproduction target — *relative* energy
//! between the GPU baseline and the NMP design is — so representative
//! constants suffice; see DESIGN.md.

use crate::config::DramConfig;
use crate::stats::SimStats;

/// Energy cost per command type, in picojoules, and the background power
/// that every bank of the die draws.
#[derive(Debug, Clone, Copy)]
pub struct EnergyModel;

impl EnergyModel {
    /// One ACT (row open into local row buffer).
    const ACT_PJ: f64 = 900.0;
    /// One PRE.
    const PRE_PJ: f64 = 350.0;
    /// One read burst (32 B at the bank).
    const READ_PJ: f64 = 150.0;
    /// One write burst.
    const WRITE_PJ: f64 = 160.0;
    /// Background power per bank in milliwatts (standby + refresh share).
    const BACKGROUND_MW_PER_BANK: f64 = 1.5;

    /// Total energy of a finished simulation, in picojoules: the commands'
    /// dynamic energy plus the background draw of the die's
    /// [`DramConfig::BANKS`] banks over the run's cycles.
    pub fn total_pj(stats: &SimStats) -> f64 {
        let dynamic = stats.acts as f64 * Self::ACT_PJ
            + stats.pres as f64 * Self::PRE_PJ
            + stats.reads as f64 * Self::READ_PJ
            + stats.writes as f64 * Self::WRITE_PJ;
        let seconds = stats.total_cycles as f64 * DramConfig::cycle_seconds();
        // mW * s = mJ = 1e9 pJ.
        let background = Self::BACKGROUND_MW_PER_BANK * DramConfig::BANKS as f64 * seconds * 1e9;
        dynamic + background
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dynamic_energy_scales_with_commands() {
        let s1 = SimStats {
            acts: 10,
            pres: 10,
            reads: 100,
            ..Default::default()
        };
        let s2 = SimStats {
            acts: 20,
            pres: 20,
            reads: 200,
            ..Default::default()
        };
        let e1 = EnergyModel::total_pj(&s1);
        let e2 = EnergyModel::total_pj(&s2);
        assert!((e2 - 2.0 * e1).abs() < 1e-6);
    }

    #[test]
    fn background_scales_with_time_and_banks() {
        // 1.2 M cycles are 1 ms at 1200 MHz: 1.5 mW on each of 16 banks
        // draws 24 µJ.
        let at = |total_cycles| {
            EnergyModel::total_pj(&SimStats {
                total_cycles,
                ..Default::default()
            })
        };
        let per_bank_pj = EnergyModel::BACKGROUND_MW_PER_BANK * 1e-3 * 1e12 * 1e-3;
        assert!((at(1_200_000) / (DramConfig::BANKS as f64 * per_bank_pj) - 1.0).abs() < 1e-9);
        assert!((at(2_400_000) / at(1_200_000) - 2.0).abs() < 1e-9);
    }
}
