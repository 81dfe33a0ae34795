//! Order statistics and the benchmark's own seeded generator.

/// Median and quartiles of a sample, with its size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Summary {
    /// Summary of a single exact value (a count, a modeled quantity).
    pub fn exact(value: f64) -> Self {
        Summary {
            n: 1,
            median: value,
            q1: value,
            q3: value,
        }
    }

    /// The same sample with every value multiplied by `factor` (> 0).
    pub fn scaled(&self, factor: f64) -> Self {
        Summary {
            n: self.n,
            median: self.median * factor,
            q1: self.q1 * factor,
            q3: self.q3 * factor,
        }
    }

    /// Quartile distance as a share of the median — the in-run spread
    /// `compare` holds against a metric's bound.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Quantile `q` in `[0, 1]` of an ascending sample, linearly interpolated
/// between the two nearest ranks.
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median and quartiles of `xs`; `None` for an empty sample.
pub fn summarize(xs: &[f64]) -> Option<Summary> {
    if xs.is_empty() {
        return None;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(Summary {
        n: sorted.len(),
        median: quantile_sorted(&sorted, 0.5),
        q1: quantile_sorted(&sorted, 0.25),
        q3: quantile_sorted(&sorted, 0.75),
    })
}

/// Median of `xs`, 0.0 for an empty sample.
pub fn median(xs: &[f64]) -> f64 {
    summarize(xs).map_or(0.0, |s| s.median)
}

/// SplitMix64: the bench crate has no `rand` dependency, and the program
/// under test must see only inputs generated from `--seed`.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 24 random bits (exact in f32).
    pub fn next_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u32) -> u32 {
        (self.next_u64() % u64::from(n)) as u32
    }
}

/// An independent sub-seed of `seed` for purpose `stream` (model init,
/// trainer RNG, ray choice, …), so the purposes never share a sequence.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    SplitMix64::new(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F)).next_u64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_interpolate_between_ranks() {
        let s = summarize(&[4.0, 1.0, 3.0, 2.0]).unwrap();
        assert_eq!((s.n, s.median, s.q1, s.q3), (4, 2.5, 1.75, 3.25));
        let s = summarize(&[5.0, 1.0, 3.0]).unwrap();
        assert_eq!((s.median, s.q1, s.q3), (3.0, 2.0, 4.0));
        let s = summarize(&[7.0]).unwrap();
        assert_eq!((s.median, s.q1, s.q3), (7.0, 7.0, 7.0));
        assert!(summarize(&[]).is_none());
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn spread_is_quartile_distance_over_median() {
        let s = summarize(&[90.0, 100.0, 110.0, 100.0, 100.0]).unwrap();
        assert_eq!(s.spread(), 0.0);
        let s = summarize(&[80.0, 100.0, 120.0]).unwrap();
        assert!((s.spread() - 0.2).abs() < 1e-12);
        assert_eq!(Summary::exact(0.0).spread(), 0.0);
    }

    #[test]
    fn splitmix_repeats_per_seed_and_separates_streams() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        assert_eq!(a.next_u64(), b.next_u64());
        let f = a.next_f32();
        assert!((0.0..1.0).contains(&f));
        assert!(a.below(7) < 7);
        assert_ne!(sub_seed(1, 1), sub_seed(1, 2));
        assert_ne!(sub_seed(1, 1), sub_seed(2, 1));
        assert_eq!(sub_seed(9, 3), sub_seed(9, 3));
    }
}
