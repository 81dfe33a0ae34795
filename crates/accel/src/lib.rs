//! The Instant-NeRF near-memory-processing accelerator model.
//!
//! Implements Sec. IV of the paper on top of the [`inerf_dram`] timing
//! simulator:
//!
//! * [`config`] — Tab. III microarchitecture constants (200 MHz, 256 INT32
//!   and 256 FP32 PEs and 2 KB scratchpad per bank, 3.6 mm² / 596.3 mW from
//!   the paper's post-layout results, taken as calibrated constants — see
//!   DESIGN.md).
//! * [`mapping`] — the hash-table mapping scheme: intra-level spreading of
//!   sequential rows across subarrays and inter-level clustering of levels
//!   onto banks (Sec. IV-B), plus request-stream generation with the
//!   row-buffer-sized `r0` register filter.
//! * [`microarch`] — per-bank compute-time model for the PE arrays.
//! * [`parallel`] — the heterogeneous inter-bank parallelism design
//!   (Sec. IV-C): parameter parallelism for HT/HT_b, data parallelism for
//!   MLP/MLP_b, and the four inter-bank data-movement categories of Fig. 10.
//! * [`pipeline`] — end-to-end per-iteration and per-scene training
//!   time/energy estimation (the Fig. 11 numbers), fed online from the
//!   streaming trace bus.
//! * [`cosim`] — the trainer-facing co-simulation sink: plugs into the
//!   training loop's trace-bus slot and simulates the NMP memory system
//!   per iteration, at constant memory, while training runs.
//!
//! # Example
//!
//! ```
//! use inerf_accel::{AccelConfig, mapping::{HashTableMapping, MappingScheme}};
//!
//! let mapping = HashTableMapping::paper(MappingScheme::Clustered, 8);
//! assert_eq!(AccelConfig::FREQUENCY_MHZ, 200);
//! assert!(mapping.banks_used() < 16); // coarse levels share a bank
//! ```

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod config;
pub mod cosim;
pub mod mapping;
pub mod microarch;
pub mod parallel;
pub mod pipeline;

pub use config::AccelConfig;
pub use cosim::{CosimSink, CosimStats};
pub use mapping::{HashTableMapping, MappingScheme, RequestConsumer, RequestSink, RequestStream};
pub use parallel::{MovementBreakdown, ParallelismKind, ParallelismPlan};
pub use pipeline::{IterationEstimate, IterationSink, PipelineModel, StepTime};

#[cfg(test)]
mod testutil;
