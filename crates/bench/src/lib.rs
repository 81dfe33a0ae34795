//! The benchmark harness: the Criterion benches under `benches/` and the
//! end-to-end `inerf-bench` binary under `src/bin/`.
//!
//! Every bench regenerates one table or figure of the paper (printing the
//! same rows/series) and times the computational kernel behind it with
//! Criterion. See EXPERIMENTS.md for recorded outputs.

#![forbid(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]
