//! The drift reference: a frozen miniature of the library's inner loops —
//! a dense layer over a small batch, a streaming multiply-add, and random
//! gathers from an L2-sized table — timed between the measured operations.
//!
//! The box this benchmark was sized on is a 2-vCPU guest whose neighbours
//! slow it by 20-50%, for seconds or for minutes: the same code, seed and
//! binary then reads 30% slower for a whole run, and no statistic taken
//! over the run's operations can see it. The reference is code of this
//! file only (no library call, so no change to the library moves it) with
//! an instruction mix close to the workloads', so it slows with them. The
//! three timings the driver gates are therefore taken at the reference's
//! nominal speed: every operation's time is multiplied by
//! `NOMINAL_SECONDS / mean of the reference passes either side of it`
//! before the median over the run is formed. The raw medians and the
//! reference's own are printed beside them; README, "Steadiness", has what
//! the correction bought.

use crate::stats::{summarize, Summary};
use std::hint::black_box;
use std::time::Instant;

/// One pass of the reference on the sizing box while its neighbours were
/// quiet (median over a set of seventy runs). Any constant would do: it
/// only fixes the scale the corrected timings are printed in.
pub const NOMINAL_SECONDS: f64 = 3.5e-3;

const WIDTH: usize = 64;
const BATCH: usize = 256;
const DENSE_REPEATS: usize = 12;
const STREAM_LEN: usize = 64 * 1024;
const STREAM_PASSES: usize = 128;
const TABLE_LEN: usize = 1 << 20;
const GATHER_ROUNDS: usize = 48 * 1024;
const GATHER_LANES: usize = 8;

pub struct Reference {
    weights: Vec<f32>,
    inputs: Vec<f32>,
    outputs: Vec<f32>,
    stream_x: Vec<f32>,
    stream_y: Vec<f32>,
    table: Vec<f32>,
}

impl Reference {
    pub fn new() -> Self {
        Reference {
            weights: (0..WIDTH * WIDTH)
                .map(|i| ((i % 17) as f32 - 8.0) * 0.01)
                .collect(),
            inputs: (0..BATCH * WIDTH)
                .map(|i| ((i % 13) as f32 - 6.0) * 0.1)
                .collect(),
            outputs: vec![0.0; BATCH * WIDTH],
            stream_x: vec![1.0; STREAM_LEN],
            stream_y: vec![0.5; STREAM_LEN],
            table: (0..TABLE_LEN).map(|i| i as f32 * 1e-6).collect(),
        }
    }

    /// Runs the reference once and returns the seconds it took. The three
    /// parts take about a third of the time each.
    pub fn sample(&mut self) -> f64 {
        let t0 = Instant::now();
        self.dense();
        self.stream();
        self.gather();
        t0.elapsed().as_secs_f64()
    }

    /// `outputs = relu(inputs x weights)`, a point at a time: multiply-adds
    /// over L1-resident rows, as in the MLP kernels.
    #[inline(never)]
    fn dense(&mut self) {
        for _ in 0..DENSE_REPEATS {
            for (x, out) in self
                .inputs
                .chunks_exact(WIDTH)
                .zip(self.outputs.chunks_exact_mut(WIDTH))
            {
                out.fill(0.0);
                for (xv, row) in x.iter().zip(self.weights.chunks_exact(WIDTH)) {
                    for (o, w) in out.iter_mut().zip(row) {
                        *o += xv * w;
                    }
                }
                for o in out.iter_mut() {
                    *o = o.max(0.0);
                }
            }
            // Every repeat computes the same values; keep each one.
            black_box(&mut self.outputs);
        }
    }

    /// `y = 0.999 y + x` over 512 KB: sequential loads and stores through
    /// L2, as in the activation and gradient sweeps.
    #[inline(never)]
    fn stream(&mut self) {
        for _ in 0..STREAM_PASSES {
            for (y, x) in self.stream_y.iter_mut().zip(&self.stream_x) {
                *y = *y * 0.999 + *x;
            }
        }
        black_box(&mut self.stream_y);
    }

    /// Eight independent streams of pseudo-random reads from a 4 MB table,
    /// as in the hash-grid lookups and the simulator's state.
    #[inline(never)]
    fn gather(&mut self) {
        let mut index: [u32; GATHER_LANES] = [1, 7, 13, 29, 31, 37, 41, 43];
        let mut sums = [0.0f32; GATHER_LANES];
        let mask = (TABLE_LEN - 1) as u32;
        for _ in 0..GATHER_ROUNDS {
            for (i, sum) in index.iter_mut().zip(&mut sums) {
                *i = i.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                *sum += self.table[((*i >> 8) & mask) as usize];
            }
        }
        black_box(&sums);
    }
}

/// Share of a phase's wall time spent sampling the reference.
const REFERENCE_SHARE: f64 = 0.04;

/// Samples the reference through one phase of a run (the set-ups, then the
/// measuring loop) and says how much slower than nominal the machine ran
/// around each operation.
pub struct DriftGauge {
    reference: Reference,
    samples: Vec<f64>,
    phase_start: Instant,
}

impl DriftGauge {
    pub fn new() -> Self {
        DriftGauge {
            reference: Reference::new(),
            samples: Vec::with_capacity(1024),
            phase_start: Instant::now(),
        }
    }

    pub fn begin_phase(&mut self) {
        self.samples.clear();
        self.phase_start = Instant::now();
    }

    /// Called before each operation: samples the reference until it has
    /// had its share of the phase so far — once every few short
    /// operations, a burst after a long one — and returns the operation's
    /// place in the sample sequence for [`DriftGauge::slowdown_at`].
    pub fn top_up(&mut self) -> usize {
        let mut spent: f64 = self.samples.iter().sum();
        while spent <= REFERENCE_SHARE * self.phase_start.elapsed().as_secs_f64() {
            spent += self.sample();
        }
        self.samples.len()
    }

    /// One pass now, whatever the share: after the last operation of a
    /// phase, so that it too has a pass on either side.
    pub fn sample(&mut self) -> f64 {
        let secs = self.reference.sample();
        self.samples.push(secs);
        secs
    }

    /// The phase's reference samples in seconds; `None` before the first.
    pub fn summary(&self) -> Option<Summary> {
        summarize(&self.samples)
    }

    /// How much slower than nominal the machine ran around the operation
    /// at `place`: the mean of the passes just before and just after it
    /// over [`NOMINAL_SECONDS`] — 1.3 when it ran 30% slow.
    pub fn slowdown_at(&self, place: usize) -> f64 {
        let around = &self.samples[place.saturating_sub(1)..(place + 1).min(self.samples.len())];
        if around.is_empty() {
            return 1.0;
        }
        around.iter().sum::<f64>() / around.len() as f64 / NOMINAL_SECONDS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_gauge_keeps_the_reference_to_its_share() {
        let mut g = DriftGauge::new();
        assert_eq!(g.slowdown_at(0), 1.0, "no sample yet");
        g.begin_phase();
        assert_eq!(g.top_up(), 1, "first call samples once");
        assert_eq!(g.top_up(), 1, "and then waits for its share");
        g.begin_phase();
        assert!(g.summary().is_none());
    }

    #[test]
    fn slowdown_is_the_mean_of_the_passes_on_either_side() {
        let mut g = DriftGauge::new();
        g.samples = vec![
            NOMINAL_SECONDS,
            3.0 * NOMINAL_SECONDS,
            2.0 * NOMINAL_SECONDS,
        ];
        assert_eq!(g.slowdown_at(0), 1.0, "nothing before: the pass after");
        assert_eq!(g.slowdown_at(1), 2.0);
        assert_eq!(g.slowdown_at(2), 2.5);
        assert_eq!(g.slowdown_at(3), 2.0, "nothing after: the pass before");
    }

    #[test]
    fn a_sample_takes_measurable_time_and_repeats_its_values() {
        let mut r = Reference::new();
        assert!(r.sample() > 0.0);
        let first = (r.outputs.clone(), r.stream_y[0]);
        r.sample();
        // The dense part is idempotent, the stream part moves on.
        assert_eq!(first.0, r.outputs);
        assert!(r.stream_y[0] > first.1);
        assert!(r.outputs.iter().any(|&o| o > 0.0));
    }
}
