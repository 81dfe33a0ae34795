//! Simulation statistics.

use serde::{Deserialize, Serialize};

/// Aggregate results of replaying a request stream.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SimStats {
    /// Requests served.
    pub requests: u64,
    /// Row-buffer hits.
    pub row_hits: u64,
    /// Row misses (ACT into an idle subarray).
    pub row_misses: u64,
    /// Bank conflicts (PRE + ACT because a different row was open in the
    /// target subarray) — the Fig. 9 metric.
    pub bank_conflicts: u64,
    /// Makespan: cycle at which the last data burst completed.
    pub total_cycles: u64,
    /// ACT commands issued.
    pub acts: u64,
    /// PRE commands issued.
    pub pres: u64,
    /// Read bursts issued.
    pub reads: u64,
    /// Write bursts issued.
    pub writes: u64,
    /// Total energy in picojoules.
    pub energy_pj: f64,
}

impl SimStats {
    /// Row-hit rate over all requests.
    pub fn hit_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.row_hits as f64 / self.requests as f64
        }
    }

    /// Conflict rate over all requests.
    pub fn conflict_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.bank_conflicts as f64 / self.requests as f64
        }
    }

    /// Wall-clock seconds at the given cycle time.
    pub fn seconds(&self, cycle_seconds: f64) -> f64 {
        self.total_cycles as f64 * cycle_seconds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates() {
        let s = SimStats {
            requests: 10,
            row_hits: 6,
            bank_conflicts: 2,
            ..Default::default()
        };
        assert!((s.hit_rate() - 0.6).abs() < 1e-12);
        assert!((s.conflict_rate() - 0.2).abs() < 1e-12);
        assert_eq!(SimStats::default().hit_rate(), 0.0);
    }
}
