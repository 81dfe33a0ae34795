//! Simulation statistics.

use crate::config::DramConfig;

/// Aggregate results of replaying a request stream.
#[derive(Debug, Clone, Default, PartialEq)]
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

    /// Wall-clock seconds at the die's clock.
    pub fn seconds(&self) -> f64 {
        self.total_cycles as f64 * DramConfig::cycle_seconds()
    }

    /// Adds `other` field by field: the statistics of the two streams
    /// served one after the other, each from an idle die.
    pub fn add(&mut self, other: &SimStats) {
        self.requests += other.requests;
        self.row_hits += other.row_hits;
        self.row_misses += other.row_misses;
        self.bank_conflicts += other.bank_conflicts;
        self.total_cycles += other.total_cycles;
        self.acts += other.acts;
        self.pres += other.pres;
        self.reads += other.reads;
        self.writes += other.writes;
        self.energy_pj += other.energy_pj;
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

    #[test]
    fn adding_sums_every_field_and_the_default_adds_nothing() {
        let s = SimStats {
            requests: 10,
            row_hits: 6,
            row_misses: 2,
            bank_conflicts: 2,
            total_cycles: 97,
            acts: 4,
            pres: 3,
            reads: 7,
            writes: 3,
            energy_pj: 0.1,
        };
        let mut sum = SimStats::default();
        sum.add(&s);
        assert_eq!(sum, s);
        assert_eq!(sum.energy_pj.to_bits(), s.energy_pj.to_bits());
        sum.add(&s);
        sum.add(&SimStats::default());
        let doubled = SimStats {
            requests: 20,
            row_hits: 12,
            row_misses: 4,
            bank_conflicts: 4,
            total_cycles: 194,
            acts: 8,
            pres: 6,
            reads: 14,
            writes: 6,
            energy_pj: 0.2,
        };
        assert_eq!(sum, doubled);
    }
}
