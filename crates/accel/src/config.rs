//! Accelerator configuration (paper Tab. III and Sec. V-C constants).

use inerf_dram::DramConfig;

/// Instant-NeRF per-bank microarchitecture and system parameters: the
/// paper's one design point, as associated constants. Every bank of the
/// die the accelerator computes in ([`DramConfig::BANKS`]) carries one.
#[derive(Debug, Clone, Copy)]
pub struct AccelConfig;

impl AccelConfig {
    /// Microarchitecture clock in MHz (Tab. III: 200 MHz).
    pub const FREQUENCY_MHZ: u32 = 200;
    /// INT32 PEs per bank (index calculation).
    pub const INT_PES: u32 = 256;
    /// FP32 PEs per bank (interpolation, MLPs).
    pub const FP_PES: u32 = 256;
    /// Scratchpad bytes per bank.
    pub const SCRATCHPAD_BYTES: u32 = 2048;
    /// Post-layout area per microarchitecture in mm² (Sec. V-C).
    pub const AREA_MM2_PER_BANK: f64 = 3.6;
    /// Post-layout power per microarchitecture in mW (Sec. V-C).
    pub const POWER_MW_PER_BANK: f64 = 596.3;
    /// Inter-bank transfer bandwidth in bytes/second: the shared 16-bit
    /// channel I/O at 2400 MT/s, 4.8 GB/s.
    pub const INTERBANK_BW_BYTES_PER_S: f64 = 4.8e9;

    /// The paper's configuration.
    pub fn paper() -> Self {
        AccelConfig
    }

    /// The die the accelerator computes in, with `subarrays` per bank:
    /// [`DramConfig::paper`]. Library code calls that directly; this alias
    /// stays for the benchmark's callers.
    pub fn nmp_dram(&self, subarrays: u32) -> DramConfig {
        DramConfig::paper(subarrays)
    }

    /// Total accelerator power in watts (all per-bank microarchitectures).
    pub fn total_power_w() -> f64 {
        DramConfig::BANKS as f64 * Self::POWER_MW_PER_BANK / 1000.0
    }

    /// Total accelerator area in mm².
    pub fn total_area_mm2() -> f64 {
        DramConfig::BANKS as f64 * Self::AREA_MM2_PER_BANK
    }

    /// Seconds per accelerator clock cycle.
    pub fn cycle_seconds() -> f64 {
        1.0 / (Self::FREQUENCY_MHZ as f64 * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_constants() {
        // Tab. III and Sec. V-C.
        assert_eq!(AccelConfig::FREQUENCY_MHZ, 200);
        assert_eq!(AccelConfig::INT_PES, 256);
        assert_eq!(AccelConfig::FP_PES, 256);
        assert_eq!(AccelConfig::SCRATCHPAD_BYTES, 2048);
        assert_eq!(AccelConfig::INTERBANK_BW_BYTES_PER_S, 4.8e9);
        // One microarchitecture per bank of the one LPDDR4 die.
        assert_eq!(DramConfig::BANKS, 16);
        assert!((AccelConfig::total_power_w() - 9.5408).abs() < 1e-3);
        assert!((AccelConfig::total_area_mm2() - 57.6).abs() < 1e-9);
    }

    #[test]
    fn area_is_small_fraction_of_bank() {
        // Sec. V-C: 3.6 mm² is 1.5% of one DRAM bank area → bank ≈ 240 mm².
        let bank_area = AccelConfig::AREA_MM2_PER_BANK / 0.015;
        assert!((bank_area - 240.0).abs() < 1.0);
    }

    #[test]
    fn nmp_dram_shape() {
        let d = AccelConfig::paper().nmp_dram(8);
        assert_eq!(d, DramConfig::paper(8));
        assert_eq!(DramConfig::BURST_CYCLES, 2);
        assert_eq!(DramConfig::TIMING.ccd, 2);
        assert_eq!(d.subarrays_per_bank, 8);
    }
}
