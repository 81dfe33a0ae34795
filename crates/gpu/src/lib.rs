//! Analytical GPU cost model for iNGP training (the paper's baselines).
//!
//! The paper *measures* its GPU numbers with nvprof on real devices
//! (Sec. II-B); this crate re-derives them from a roofline-style model whose
//! per-step achieved utilizations and per-device efficiency factors are the
//! paper's published measurements (Fig. 4, Tab. I) used as calibration
//! constants — the standard substitution when the physical devices are
//! unavailable (see DESIGN.md).
//!
//! The model reproduces:
//!
//! * **Fig. 1(a)** — training time per scene on each device.
//! * **Fig. 1(b)** — the training-time breakdown over the bottleneck steps.
//! * **Fig. 4** — DRAM read/write throughput and FP32/FP16/INT32 ALU
//!   utilization per step.
//! * The Fig. 11 denominators (XNX / TX2 training time and energy).
//!
//! # Example
//!
//! ```
//! use inerf_gpu::{GpuSpec, TrainingCost};
//! use inerf_trainer::ModelConfig;
//! use inerf_encoding::HashFunction;
//!
//! let model = ModelConfig::paper(HashFunction::Original);
//! let cost = TrainingCost::estimate(&GpuSpec::xnx(), &model, 256 * 1024, 35_000, 1.0);
//! assert!(cost.total_seconds > 1000.0); // >1 hour on the edge GPU
//! ```

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod cost;
pub mod specs;

pub use cost::{StepCost, TrainingCost};
pub use specs::GpuSpec;
