//! One run of one workload: repeated set-up, the closed measuring loop
//! (one caller, the next operation starts when the previous one ends),
//! correctness accounting, and the end-to-end metrics every workload
//! reports the same way.

use crate::metrics::Results;
use crate::reference::DriftGauge;
use crate::stats::{median, summarize};
use crate::sys;
use crate::trace::Tracer;
use std::time::Instant;

/// Set-up is repeated so `setup_s` is a median: at least this often, and
/// (cheap set-ups) until it has been timed for [`SETUP_MIN_SECONDS`].
const SETUP_MIN_REPEATS: usize = 3;
const SETUP_MAX_REPEATS: usize = 9;
const SETUP_MIN_SECONDS: f64 = 1.0;

/// One measured operation.
struct Op {
    secs: f64,
    /// Work units completed (points, pixels, bytes — per workload).
    work: f64,
    /// Whether a traced run stored its span.
    stored: bool,
    /// Its place among the drift gauge's reference samples.
    place: usize,
}

pub struct Run {
    pub workload: &'static str,
    pub seed: u64,
    /// Length of the measuring loop, in seconds of wall time.
    pub seconds: f64,
    pub traced: bool,
    /// Smoke mode: ten times less work; its numbers are not comparable.
    pub quick: bool,
    pub tracer: Tracer,
    pub results: Results,
    pub attempted: u64,
    pub failed: u64,
    ops: Vec<Op>,
    loop_start: Option<Instant>,
    /// The reference kernel, sampled between set-ups and between
    /// operations; see `reference.rs`.
    drift: DriftGauge,
}

impl Run {
    pub fn new(workload: &'static str, seed: u64, seconds: f64, traced: bool, quick: bool) -> Self {
        Run {
            workload,
            seed,
            seconds: if quick { seconds / 10.0 } else { seconds },
            traced,
            quick,
            tracer: Tracer::new(traced),
            results: Results::default(),
            attempted: 0,
            failed: 0,
            ops: Vec::with_capacity(4096),
            loop_start: None,
            drift: DriftGauge::new(),
        }
    }

    /// A repeat count, ten times smaller in quick mode (never below 1).
    pub fn scaled(&self, n: usize) -> usize {
        if self.quick {
            (n / 10).max(1)
        } else {
            n
        }
    }

    /// Builds the workload's inputs and models several times, reports the
    /// median (at the reference's nominal speed) as `setup_s`, and hands
    /// back the last build. Earlier builds are dropped before the next
    /// starts, so they do not stack in memory.
    pub fn setup<T>(&mut self, mut build: impl FnMut(&mut Tracer) -> T) -> T {
        let min_repeats = if self.quick { 1 } else { SETUP_MIN_REPEATS };
        let (mut secs, mut places) = (Vec::new(), Vec::new());
        self.drift.begin_phase();
        loop {
            places.push(self.drift.top_up());
            let (built, s) = self
                .tracer
                .span("bench.setup", secs.len() as u64, &mut build);
            secs.push(s);
            let total: f64 = secs.iter().sum();
            let enough = secs.len() >= min_repeats
                && (total >= SETUP_MIN_SECONDS || secs.len() >= SETUP_MAX_REPEATS || self.quick);
            if enough {
                self.drift.sample();
                let corrected: Vec<f64> = secs
                    .iter()
                    .zip(&places)
                    .map(|(s, &p)| s / self.drift.slowdown_at(p))
                    .collect();
                self.results.set(
                    "setup_s",
                    summarize(&corrected).expect("at least one set-up ran"),
                );
                self.results.set(
                    "bench.setup_raw_s",
                    summarize(&secs).expect("at least one set-up ran"),
                );
                return built;
            }
            drop(built);
        }
    }

    pub fn ops_done(&self) -> usize {
        self.ops.len()
    }

    /// Whether the measuring loop runs another operation: always while the
    /// workload's fixed prefix is `pending` (the exact metrics are taken on
    /// it, so it must not depend on the machine's speed), then — untraced —
    /// until the loop has lasted `seconds`. A traced run stops at the
    /// prefix and spends the rest of its time on the per-layer pass.
    pub fn keep_going(&mut self, pending: bool) -> bool {
        if self.loop_start.is_none() {
            self.drift.begin_phase();
        }
        let start = *self.loop_start.get_or_insert_with(Instant::now);
        pending || (!self.traced && start.elapsed().as_secs_f64() < self.seconds)
    }

    /// Runs one measured operation; `f` returns its result and the work
    /// units it completed (points, pixels, bytes — per workload). A traced
    /// run stores the span of every other operation only, which is what
    /// `bench.trace_overhead_ratio` compares.
    pub fn op<R>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> (R, f64),
    ) -> (R, f64) {
        let place = self.drift.top_up();
        let id = self.ops.len() as u64;
        let stored = self.traced && id.is_multiple_of(2);
        self.tracer.set_enabled(stored);
        let ((r, work), secs) = self.tracer.span(name, id, f);
        self.tracer.set_enabled(self.traced);
        self.ops.push(Op {
            secs,
            work,
            stored,
            place,
        });
        (r, secs)
    }

    /// Counts `n` attempted operations of which `bad` failed, naming the
    /// failure on standard error.
    pub fn attempt(&mut self, n: u64, bad: u64, what: &str) {
        self.attempted += n;
        self.failed += bad;
        if bad > 0 {
            eprintln!("{}: FAILED {bad} of {n}: {what}", self.workload);
        }
    }

    /// Derives the end-to-end metrics from the measured operations: each
    /// operation's time and rate at the reference's nominal speed (by the
    /// reference passes on either side of it), then medians over the loop.
    pub fn finish(&mut self) {
        self.drift.sample();
        let slowdowns: Vec<f64> = self
            .ops
            .iter()
            .map(|o| self.drift.slowdown_at(o.place))
            .collect();
        let over_ops = |f: &dyn Fn(&Op, f64) -> f64| -> Vec<f64> {
            self.ops
                .iter()
                .zip(&slowdowns)
                .map(|(o, &s)| f(o, s))
                .collect()
        };
        if let Some(ms) = summarize(&over_ops(&|o, s| o.secs * 1e3 / s)) {
            self.results.set("op_ms", ms);
            self.results.set_exact("bench.op_q3_ms", ms.q3);
        }
        if let Some(rate) = summarize(&over_ops(&|o, s| o.work / o.secs * s)) {
            self.results.set("work_per_s", rate);
        }
        if let Some(raw) = summarize(&over_ops(&|o, _| o.secs * 1e3)) {
            self.results.set("bench.op_raw_ms", raw);
        }
        if let Some(reference) = self.drift.summary() {
            self.results.set("bench.ref_ms", reference.scaled(1e3));
        }
        if let Some(mb) = sys::peak_rss_mb() {
            self.results.set_exact("peak_rss_mb", mb);
        }
        self.results
            .set_exact("bench.ops_failed", self.failed as f64);
        if self.traced {
            let side = |stored: bool| -> Vec<f64> {
                self.ops
                    .iter()
                    .filter(|o| o.stored == stored)
                    .map(|o| o.secs)
                    .collect()
            };
            let (on, off) = (side(true), side(false));
            if !on.is_empty() && !off.is_empty() {
                self.results
                    .set_exact("bench.trace_overhead_ratio", median(&on) / median(&off));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_repeats_and_reports_the_median() {
        let mut run = Run::new("train_lego", 1, 8.0, false, false);
        let mut builds = 0;
        let last = run.setup(|_| {
            builds += 1;
            builds
        });
        // Instant set-ups repeat up to the cap, and the last build is kept.
        assert_eq!((builds, last), (SETUP_MAX_REPEATS, SETUP_MAX_REPEATS));
        assert_eq!(run.results.get("setup_s").unwrap().n, SETUP_MAX_REPEATS);
        let mut quick = Run::new("train_lego", 1, 8.0, false, true);
        quick.setup(|_| ());
        assert_eq!(quick.results.get("setup_s").unwrap().n, 1);
        assert_eq!(
            (quick.scaled(20), quick.scaled(4), run.scaled(20)),
            (2, 1, 20)
        );
    }

    #[test]
    fn the_loop_runs_the_prefix_then_the_clock() {
        let mut run = Run::new("train_lego", 1, 0.0, false, false);
        assert!(run.keep_going(true), "a pending prefix outlives the clock");
        assert!(!run.keep_going(false));
        let mut traced = Run::new("train_lego", 1, 1e9, true, false);
        assert!(
            !traced.keep_going(false),
            "a traced run stops at the prefix"
        );
    }

    #[test]
    fn finish_summarizes_operations_and_counts_failures() {
        let mut run = Run::new("render_sparse", 1, 8.0, true, false);
        for px in [100.0, 200.0, 300.0, 400.0] {
            let (v, secs) = run.op("op", |_| (7, px));
            assert_eq!(v, 7);
            assert!(secs >= 0.0);
        }
        run.attempt(4, 1, "synthetic");
        run.finish();
        assert_eq!(run.ops_done(), 4);
        assert_eq!(run.results.get("op_ms").unwrap().n, 4);
        assert!(run.results.get("work_per_s").unwrap().median > 0.0);
        // Raw medians and the reference's are reported beside them.
        assert_eq!(run.results.get("bench.op_raw_ms").unwrap().n, 4);
        assert!(run.results.get("bench.ref_ms").unwrap().n >= 2);
        assert_eq!(run.results.get("bench.ops_failed").unwrap().median, 1.0);
        assert!(run.results.get("bench.trace_overhead_ratio").is_some());
        // Spans of every other operation were stored.
        assert_eq!(
            run.tracer.spans().iter().filter(|s| s.name == "op").count(),
            2
        );
        assert_eq!((run.attempted, run.failed), (4, 1));
    }
}
