//! DRAM energy model.
//!
//! Per-command energies representative of LPDDR4 at 1.1 V (derived from the
//! device class of Oh et al., JSSC'15, reference \[18\] of the paper).
//! Absolute joules are not the reproduction target — *relative* energy
//! between the GPU baseline and the NMP design is — so representative
//! constants suffice; see DESIGN.md.

use crate::stats::SimStats;
use serde::{Deserialize, Serialize};

/// Energy cost per command type, in picojoules.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyModel {
    /// One ACT (row open into local row buffer).
    pub act_pj: f64,
    /// One PRE.
    pub pre_pj: f64,
    /// One read burst (32 B at the bank).
    pub read_pj: f64,
    /// One write burst.
    pub write_pj: f64,
    /// Background power per bank in milliwatts (standby + refresh share).
    pub background_mw_per_bank: f64,
}

impl EnergyModel {
    /// Representative LPDDR4 energies.
    pub const LPDDR4: Self = EnergyModel {
        act_pj: 900.0,
        pre_pj: 350.0,
        read_pj: 150.0,
        write_pj: 160.0,
        background_mw_per_bank: 1.5,
    };

    /// Total energy of a finished simulation, in picojoules.
    ///
    /// `banks` and `cycle_seconds` provide the background term.
    pub fn total_pj(&self, stats: &SimStats, banks: u32, cycle_seconds: f64) -> f64 {
        let dynamic = stats.acts as f64 * self.act_pj
            + stats.pres as f64 * self.pre_pj
            + stats.reads as f64 * self.read_pj
            + stats.writes as f64 * self.write_pj;
        let seconds = stats.total_cycles as f64 * cycle_seconds;
        // mW * s = mJ = 1e9 pJ.
        let background = self.background_mw_per_bank * banks as f64 * seconds * 1e9;
        dynamic + background
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dynamic_energy_scales_with_commands() {
        let e = EnergyModel::LPDDR4;
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
        let e1 = e.total_pj(&s1, 1, 0.0);
        let e2 = e.total_pj(&s2, 1, 0.0);
        assert!((e2 - 2.0 * e1).abs() < 1e-6);
    }

    #[test]
    fn background_scales_with_time_and_banks() {
        let e = EnergyModel::LPDDR4;
        let s = SimStats {
            total_cycles: 1_000_000,
            ..Default::default()
        };
        let one = e.total_pj(&s, 1, 1e-9);
        let many = e.total_pj(&s, 128, 1e-9);
        assert!((many / one - 128.0).abs() < 1e-9);
    }
}
