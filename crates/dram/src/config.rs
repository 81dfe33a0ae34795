//! DRAM organization and timing configuration (paper Tab. III).

use crate::address::PhysAddr;

/// Timing constraints in DRAM command-clock cycles.
///
/// [`DramConfig::TIMING`] is the one set the simulator uses: Tab. III's
/// LPDDR4-2400 values at the near-bank column path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timing {
    /// CAS (read) latency.
    pub cl: u64,
    /// ACT → RD/WR delay.
    pub rcd: u64,
    /// Per-bank precharge latency.
    pub rp: u64,
    /// Minimum row-open time (ACT → PRE).
    pub ras: u64,
    /// Column-to-column delay (back-to-back bursts on one bank).
    pub ccd: u64,
    /// ACT → ACT to different banks of the die.
    pub rrd: u64,
    /// Four-activate window.
    pub faw: u64,
    /// Write recovery (last write data → PRE).
    pub wr: u64,
    /// Read-to-any-command turnaround (Tab. III's `tRA`). Declared and not
    /// read. A near-bank read is timed by `cl` plus
    /// [`DramConfig::BURST_CYCLES`] to its data, and the next column
    /// command on its bank already waits `ccd`, which at 2 cycles equals
    /// `tRA`. A PRE is timed only by `ras` after its row's ACT and `wr`
    /// after its last write, never by the reads before it, so no command
    /// the simulator issues waits on a read's turnaround. Reading `ra`
    /// would change modeled cycles; it waits for an independent check of
    /// the command log.
    pub ra: u64,
    /// Write-to-any-command turnaround.
    pub wa: u64,
}

/// The one LPDDR4 die the accelerator computes in (paper Fig. 5): 16 banks
/// of 1 KB rows, each bank split into subarrays with local row buffers
/// (subarray-level parallelism, SALP [Kim et al., ISCA'12]). The near-bank
/// logic reads each bank's open row through the 128-bit internal interface,
/// so no request crosses the external channel.
///
/// Only the subarray count varies (the Fig. 9 sweep); everything else is
/// an associated constant or follows from it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramConfig {
    /// Subarrays per bank (the Fig. 9 sweep parameter: 1–64).
    pub subarrays_per_bank: u32,
}

impl DramConfig {
    /// Banks of the die (LPDDR4: 16 physical banks, one rank).
    pub const BANKS: u32 = 16;
    /// Per-bank capacity in bytes (128 MB).
    const BANK_BYTES: u64 = 128 * 1024 * 1024;
    /// Row-buffer (page) size in bytes.
    pub const ROW_BYTES: u32 = 1024;
    /// Command-clock frequency in MHz (LPDDR4-2400: 1200 MHz clock).
    pub const CLOCK_MHZ: u32 = 1200;
    /// Column-path occupancy of one 32 B burst in cycles: 2 at the 128-bit
    /// (16 B/cycle) internal prefetch interface.
    pub const BURST_CYCLES: u64 = 2;
    /// Tab. III: `tCL-tRCD-tRPpb = 4-4-6`, `tRAS = 9`, `tRRD = 2`,
    /// `tFAW = 9`, `tWR = 6`, `tRA = 2`, `tWA = 7`, and `tCCD = 2`.
    ///
    /// Tab. III's `tCCD = 8` spaces BL16 bursts on the 16-bit external
    /// channel. The near-bank logic takes its bursts from the row buffer
    /// through the internal interface, one burst every
    /// [`DramConfig::BURST_CYCLES`], so back-to-back column commands on a
    /// bank are 2 cycles apart.
    pub const TIMING: Timing = Timing {
        cl: 4,
        rcd: 4,
        rp: 6,
        ras: 9,
        ccd: 2,
        rrd: 2,
        faw: 9,
        wr: 6,
        ra: 2,
        wa: 7,
    };

    /// The die with `subarrays` per bank.
    ///
    /// # Panics
    ///
    /// Panics if `subarrays` is 0 or not a power of two.
    pub fn paper(subarrays: u32) -> Self {
        assert!(
            subarrays > 0 && subarrays.is_power_of_two(),
            "subarrays must be a power of two"
        );
        DramConfig {
            subarrays_per_bank: subarrays,
        }
    }

    /// Rows per subarray: the bank's 1 KB rows split evenly over its
    /// subarrays.
    pub const fn rows_per_subarray(&self) -> u32 {
        (Self::BANK_BYTES / Self::ROW_BYTES as u64) as u32 / self.subarrays_per_bank
    }

    /// Builds a physical address from components.
    ///
    /// # Panics
    ///
    /// Panics if any component exceeds the configured organization.
    pub fn address(&self, bank: u32, subarray: u32, row: u32) -> PhysAddr {
        assert!(bank < Self::BANKS, "bank {bank} out of range");
        assert!(
            subarray < self.subarrays_per_bank,
            "subarray {subarray} out of range"
        );
        assert!(row < self.rows_per_subarray(), "row {row} out of range");
        PhysAddr {
            bank,
            subarray,
            row,
        }
    }

    /// Seconds per command-clock cycle.
    pub fn cycle_seconds() -> f64 {
        1.0 / (Self::CLOCK_MHZ as f64 * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_timing_values() {
        let t = DramConfig::TIMING;
        assert_eq!((t.cl, t.rcd, t.rp), (4, 4, 6));
        assert_eq!(t.ras, 9);
        assert_eq!(t.ccd, 2);
        assert_eq!(t.faw, 9);
    }

    #[test]
    fn bank_capacity_independent_of_subarrays() {
        for s in [1u32, 2, 4, 8, 16, 32, 64] {
            let c = DramConfig::paper(s);
            let bytes = s as u64 * c.rows_per_subarray() as u64 * DramConfig::ROW_BYTES as u64;
            assert_eq!(bytes, 128 * 1024 * 1024, "128 MB per bank at {s} subarrays");
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_subarrays_rejected() {
        let _ = DramConfig::paper(3);
    }

    #[test]
    fn address_validation() {
        let c = DramConfig::paper(4);
        let a = c.address(15, 3, 100);
        assert_eq!((a.bank, a.subarray, a.row), (15, 3, 100));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_address_panics() {
        let c = DramConfig::paper(4);
        let _ = c.address(16, 0, 0);
    }

    #[test]
    fn cycle_time_matches_clock() {
        assert!((DramConfig::cycle_seconds() - 1.0 / 1.2e9).abs() < 1e-15);
    }
}
