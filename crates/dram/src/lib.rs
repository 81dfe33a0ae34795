//! A cycle-level LPDDR4 DRAM timing simulator.
//!
//! Models the one LPDDR4 die of paper Fig. 5 that the accelerator computes
//! in, with the timing parameters of Tab. III: 16 banks, each split into
//! subarrays with local row buffers (subarray-level parallelism, SALP
//! [Kim et al., ISCA'12]), read by the near-bank logic through the 128-bit
//! internal interface. The simulator replays a request stream and reports
//! cycles, row-buffer outcomes, bank conflicts and energy.
//!
//! The model is deliberately Ramulator-like in scope (per-command timing
//! constraints enforced at the bank/rank level) while remaining deterministic
//! and dependency-free; see DESIGN.md for the substitution rationale.
//!
//! # Example
//!
//! ```
//! use inerf_dram::{DramConfig, DramSim, Request, AccessKind};
//!
//! let config = DramConfig::paper(8); // 8 subarrays per bank
//! let mut sim = DramSim::new(config);
//! let addr = config.address(0, 0, 42); // bank, subarray, row
//! let stats = sim.run(&[Request::new(addr, AccessKind::Read)]);
//! assert_eq!(stats.row_misses, 1); // first touch always opens the row
//! ```

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod address;
pub mod bank;
pub mod config;
pub mod energy;
pub mod request;
pub mod sim;
pub mod stats;

pub use address::PhysAddr;
pub use config::{DramConfig, Timing};
pub use energy::EnergyModel;
pub use request::{AccessKind, Request};
pub use sim::DramSim;
pub use stats::SimStats;
