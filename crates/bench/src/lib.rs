//! What the two record benches under `benches/` (`throughput`, `render`)
//! share: the quick-mode switch, the median-of-windows timing protocol and
//! the atomic write of a `BENCH_<name>.json` record at the repo root. The
//! end-to-end `inerf-bench` binary under `src/bin/` uses none of it — it
//! is a package of its own (see its README).

#![forbid(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]

use serde::Serialize;
use std::path::Path;
use std::time::Instant;

/// Whether `INERF_BENCH_QUICK` asks for the short CI-sized run (set, and
/// not `0`).
pub fn quick_mode() -> bool {
    std::env::var("INERF_BENCH_QUICK").is_ok_and(|v| v != "0")
}

/// The median of `xs`; the upper middle element when the count is even.
///
/// # Panics
///
/// Panics if `xs` is empty.
pub fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Median seconds per call over `windows` timed calls of `f`, after one
/// untimed warm-up call (which fills arenas, scratch buffers and the
/// thread pool).
pub fn median_secs(windows: usize, f: &mut dyn FnMut()) -> f64 {
    f();
    let samples = (0..windows)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(samples)
}

/// Writes `record` as pretty JSON plus a newline to `BENCH_<name>.json` at
/// the repo root, atomically, and prints the path.
///
/// # Panics
///
/// Panics — failing the bench — if the record cannot be serialized or
/// written.
pub fn write_record(name: &str, record: &impl Serialize) {
    let path = format!("{}/../../BENCH_{name}.json", env!("CARGO_MANIFEST_DIR"));
    let json = serde_json::to_string_pretty(record).expect("record serializes");
    inerf_snapshot::atomic_write_file(Path::new(&path), (json + "\n").as_bytes())
        .unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("wrote {path}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_takes_the_upper_middle() {
        assert_eq!(median(vec![7.0]), 7.0);
        assert_eq!(median(vec![9.0, 1.0]), 9.0);
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn median_secs_calls_once_to_warm_up_then_once_per_window() {
        let mut calls = 0usize;
        median_secs(4, &mut || calls += 1);
        assert_eq!(calls, 5);
    }
}
