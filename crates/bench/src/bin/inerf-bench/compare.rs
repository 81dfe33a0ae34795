//! `inerf-bench compare <baseline> <candidate>`: holds two result files
//! against the benchmark's own bounds, one row per metric × workload.
//!
//! A file holds the flat lines of one or more runs (ten runs of a
//! workload concatenated is one *set*). A timing's verdict compares the
//! medians of the two sets; its spread is the quartile distance across a
//! set's runs, or — a single run — inside the run.

use crate::metrics::{metric, parse_flat_line, Better, Gate};
use crate::stats::{summarize, Summary};
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// Worse than the baseline by more than the metric's bound (or, for
    /// an exact metric, different at all).
    Regressed,
    /// The spread is wider than the bound, so the two sets cannot be told
    /// apart at this resolution: neither "unchanged" nor "regressed".
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The runs of one metric on one workload in one file.
type Runs = Vec<Summary>;

pub fn parse_file(text: &str) -> BTreeMap<(String, String), Runs> {
    let mut out: BTreeMap<(String, String), Runs> = BTreeMap::new();
    for r in text.lines().filter_map(parse_flat_line) {
        out.entry((r.workload, r.metric))
            .or_default()
            .push(r.summary);
    }
    out
}

/// Median across a set's runs and the set's spread as a share of it.
fn center_and_spread(runs: &[Summary]) -> (f64, f64) {
    let medians: Vec<f64> = runs.iter().map(|r| r.median).collect();
    let across = summarize(&medians).expect("a grouped metric has at least one run");
    let spread = if runs.len() == 1 {
        runs[0].spread()
    } else {
        across.spread()
    };
    (across.median, spread)
}

/// How much worse `cand` is than `base`, as a share of `base` (negative:
/// better).
fn worsening(base: f64, cand: f64, better: Better) -> f64 {
    if base == 0.0 {
        return if cand == base { 0.0 } else { f64::INFINITY };
    }
    match better {
        Better::Lower => (cand - base) / base.abs(),
        Better::Higher => (base - cand) / base.abs(),
    }
}

/// Verdict for a bounded metric.
pub fn judge_bounded(base: &[Summary], cand: &[Summary], better: Better, bound: f64) -> Verdict {
    let (b, b_spread) = center_and_spread(base);
    let (c, c_spread) = center_and_spread(cand);
    if b_spread.max(c_spread) > bound {
        // Still decidable when every candidate run beats every baseline run.
        let beats = |x: f64, y: f64| match better {
            Better::Lower => x < y,
            Better::Higher => x > y,
        };
        let clean_win = cand
            .iter()
            .all(|c| base.iter().all(|b| beats(c.median, b.median)));
        return if clean_win {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        };
    }
    if worsening(b, c, better) > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// Verdict for an exact metric: the two sets must hold the same values,
/// bit for bit (order of runs aside).
pub fn judge_exact(base: &[Summary], cand: &[Summary]) -> Verdict {
    let bits = |runs: &[Summary]| {
        let mut v: Vec<u64> = runs.iter().map(|r| r.median.to_bits()).collect();
        v.sort_unstable();
        v
    };
    if bits(base) == bits(cand) {
        Verdict::Ok
    } else {
        Verdict::Regressed
    }
}

/// Compares two result files; returns the printed table and whether any
/// row regressed. Metrics reported for attribution only are listed as
/// `info`, rows present on one side only as `missing`.
pub fn compare(baseline: &str, candidate: &str) -> (String, bool) {
    let base = parse_file(baseline);
    let cand = parse_file(candidate);
    let mut out = String::from("workload\tmetric\tbaseline\tcandidate\tchange\tbound\tverdict\n");
    let mut any_regressed = false;
    for ((workload, name), b) in &base {
        let Some(def) = metric(name) else {
            continue;
        };
        let Some(c) = cand.get(&(workload.clone(), name.clone())) else {
            out.push_str(&format!("{workload}\t{name}\t-\t-\t-\t-\tmissing\n"));
            continue;
        };
        let (bm, _) = center_and_spread(b);
        let (cm, _) = center_and_spread(c);
        let change = format!("{:+.2}%", worsening(bm, cm, def.better) * 100.0);
        let (bound, verdict) = match def.gate {
            Gate::EndToEnd(bound) | Gate::Bound(bound) => (
                format!("{:.0}%", bound * 100.0),
                Some(judge_bounded(b, c, def.better, bound)),
            ),
            Gate::Exact => ("exact".to_string(), Some(judge_exact(b, c))),
            Gate::Info => ("-".to_string(), None),
        };
        any_regressed |= verdict == Some(Verdict::Regressed);
        let verdict = verdict.map_or("info", Verdict::label);
        out.push_str(&format!(
            "{workload}\t{name}\t{bm}\t{cm}\t{change}\t{bound}\t{verdict}\n"
        ));
    }
    (out, any_regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timing(median: f64, spread: f64) -> Summary {
        Summary {
            n: 20,
            median,
            q1: median * (1.0 - spread / 2.0),
            q3: median * (1.0 + spread / 2.0),
        }
    }

    #[test]
    fn bounded_verdicts_on_single_runs() {
        let base = [timing(100.0, 0.02)];
        // 5% slower under a 10% bound: ok. 15% slower: regressed.
        assert_eq!(
            judge_bounded(&base, &[timing(105.0, 0.02)], Better::Lower, 0.10),
            Verdict::Ok
        );
        assert_eq!(
            judge_bounded(&base, &[timing(115.0, 0.02)], Better::Lower, 0.10),
            Verdict::Regressed
        );
        // Direction: a throughput that drops 15% regressed, one that rises did not.
        assert_eq!(
            judge_bounded(&base, &[timing(85.0, 0.02)], Better::Higher, 0.10),
            Verdict::Regressed
        );
        assert_eq!(
            judge_bounded(&base, &[timing(130.0, 0.02)], Better::Higher, 0.10),
            Verdict::Ok
        );
        // In-run spread wider than the bound: unresolved either way …
        assert_eq!(
            judge_bounded(&base, &[timing(115.0, 0.30)], Better::Lower, 0.10),
            Verdict::Unresolved
        );
        assert_eq!(
            judge_bounded(
                &[timing(100.0, 0.30)],
                &[timing(101.0, 0.02)],
                Better::Lower,
                0.10
            ),
            Verdict::Unresolved
        );
        // … unless the candidate's run beats the baseline's outright.
        assert_eq!(
            judge_bounded(
                &[timing(100.0, 0.30)],
                &[timing(60.0, 0.02)],
                Better::Lower,
                0.10
            ),
            Verdict::Ok
        );
    }

    #[test]
    fn bounded_verdicts_on_sets_use_the_spread_across_runs() {
        let set =
            |values: &[f64]| -> Vec<Summary> { values.iter().map(|&v| timing(v, 0.5)).collect() };
        // Tight sets: in-run spread (50%) no longer matters.
        let base = set(&[100.0, 101.0, 99.0, 100.0, 100.5]);
        assert_eq!(
            judge_bounded(
                &base,
                &set(&[104.0, 105.0, 103.0, 104.5, 104.0]),
                Better::Lower,
                0.10
            ),
            Verdict::Ok
        );
        assert_eq!(
            judge_bounded(
                &base,
                &set(&[120.0, 121.0, 119.0, 120.0, 120.5]),
                Better::Lower,
                0.10
            ),
            Verdict::Regressed
        );
        // A scattered candidate set cannot be resolved.
        assert_eq!(
            judge_bounded(
                &base,
                &set(&[80.0, 130.0, 95.0, 150.0, 101.0]),
                Better::Lower,
                0.10
            ),
            Verdict::Unresolved
        );
    }

    #[test]
    fn exact_metrics_compare_bit_for_bit() {
        let one = |v: f64| vec![Summary::exact(v)];
        assert_eq!(
            judge_exact(&one(0.008552083333333334), &one(0.008552083333333334)),
            Verdict::Ok
        );
        assert_eq!(
            judge_exact(&one(0.008552083333333334), &one(0.008552083333333336)),
            Verdict::Regressed
        );
        let two = |a: f64, b: f64| vec![Summary::exact(a), Summary::exact(b)];
        assert_eq!(judge_exact(&two(1.0, 2.0), &two(2.0, 1.0)), Verdict::Ok);
        assert_eq!(judge_exact(&two(1.0, 2.0), &one(1.0)), Verdict::Regressed);
    }

    #[test]
    fn compare_prints_one_row_per_metric_and_workload() {
        let a = "noise line\n\
                 train_lego\top_ms\t700\tms\t12\t690\t710\n\
                 train_lego\ttrainer.psnr_db\t24.5\tdB\t1\t24.5\t24.5\n\
                 train_lego\tgeom.gather_ns_per_pt\t20\tns\t1\t20\t20\n\
                 ckpt_resume\top_ms\t180\tms\t40\t178\t182\n";
        let b = "train_lego\top_ms\t900\tms\t12\t890\t910\n\
                 train_lego\ttrainer.psnr_db\t24.5\tdB\t1\t24.5\t24.5\n\
                 train_lego\tgeom.gather_ns_per_pt\t90\tns\t1\t90\t90\n";
        let (table, regressed) = compare(a, b);
        assert!(regressed);
        let rows: Vec<&str> = table.lines().collect();
        assert_eq!(rows.len(), 5, "{table}");
        assert!(rows[1].starts_with("ckpt_resume\top_ms") && rows[1].ends_with("missing"));
        assert!(
            rows[2].starts_with("train_lego\tgeom.gather_ns_per_pt") && rows[2].ends_with("info")
        );
        assert!(
            rows[3].starts_with("train_lego\top_ms\t700\t900\t+28.57%\t25%")
                && rows[3].ends_with("regressed")
        );
        assert!(rows[4].ends_with("exact\tok"));
        assert!(!compare(a, a).1);
    }
}
