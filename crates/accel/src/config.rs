//! Accelerator configuration (paper Tab. III and Sec. V-C constants).

use inerf_dram::DramConfig;
use serde::{Deserialize, Serialize};

/// Instant-NeRF per-bank microarchitecture and system parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AccelConfig {
    /// Microarchitecture clock in MHz (Tab. III: 200 MHz).
    pub frequency_mhz: u32,
    /// INT32 PEs per bank (index calculation).
    pub int_pes: u32,
    /// FP32 PEs per bank (interpolation, MLPs).
    pub fp_pes: u32,
    /// Scratchpad bytes per bank.
    pub scratchpad_bytes: u32,
    /// Banks equipped with a microarchitecture (one DRAM die = 16 banks).
    pub banks: u32,
    /// Post-layout area per microarchitecture in mm² (Sec. V-C).
    pub area_mm2_per_bank: f64,
    /// Post-layout power per microarchitecture in mW (Sec. V-C).
    pub power_mw_per_bank: f64,
    /// Inter-bank transfer bandwidth in bytes/second (through the shared
    /// 16-bit channel I/O at 2400 MT/s).
    pub interbank_bw_bytes_per_s: f64,
}

impl AccelConfig {
    /// The paper's configuration.
    pub fn paper() -> Self {
        AccelConfig {
            frequency_mhz: 200,
            int_pes: 256,
            fp_pes: 256,
            scratchpad_bytes: 2048,
            banks: 16,
            area_mm2_per_bank: 3.6,
            power_mw_per_bank: 596.3,
            // 16-bit channel at 2400 MT/s = 4.8 GB/s.
            interbank_bw_bytes_per_s: 4.8e9,
        }
    }

    /// The die the accelerator computes in, with `subarrays` per bank:
    /// [`DramConfig::paper`]. Library code calls that directly; this alias
    /// stays for the benchmark's callers.
    pub fn nmp_dram(&self, subarrays: u32) -> DramConfig {
        DramConfig::paper(subarrays)
    }

    /// Total accelerator power in watts (all per-bank microarchitectures).
    pub fn total_power_w(&self) -> f64 {
        self.banks as f64 * self.power_mw_per_bank / 1000.0
    }

    /// Total accelerator area in mm².
    pub fn total_area_mm2(&self) -> f64 {
        self.banks as f64 * self.area_mm2_per_bank
    }

    /// Seconds per accelerator clock cycle.
    pub fn cycle_seconds(&self) -> f64 {
        1.0 / (self.frequency_mhz as f64 * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_constants() {
        let c = AccelConfig::paper();
        assert_eq!(c.frequency_mhz, 200);
        assert_eq!(c.int_pes, 256);
        assert_eq!(c.fp_pes, 256);
        assert_eq!(c.scratchpad_bytes, 2048);
        assert!((c.total_power_w() - 9.5408).abs() < 1e-3);
        assert!((c.total_area_mm2() - 57.6).abs() < 1e-9);
    }

    #[test]
    fn area_is_small_fraction_of_bank() {
        // Sec. V-C: 3.6 mm² is 1.5% of one DRAM bank area → bank ≈ 240 mm².
        let c = AccelConfig::paper();
        let bank_area = c.area_mm2_per_bank / 0.015;
        assert!((bank_area - 240.0).abs() < 1.0);
    }

    #[test]
    fn nmp_dram_shape() {
        let c = AccelConfig::paper();
        let d = c.nmp_dram(8);
        assert_eq!(d, DramConfig::paper(8));
        assert_eq!(DramConfig::BURST_CYCLES, 2);
        assert_eq!(DramConfig::TIMING.ccd, 2);
        assert_eq!(d.subarrays_per_bank, 8);
    }
}
