//! The iNGP-style NeRF training loop and its baselines.
//!
//! Ties the substrates together into the full pipeline of paper Fig. 2/3:
//! pixel-batch selection (Step a), ray sampling (Step b), model query
//! (Step c: hash encoding + MLPs), volume rendering (Step d), L2 loss
//! (Step e) and back-propagation (Step f), with Adam updates for both the
//! hash-table embeddings and the MLP weights.
//!
//! Modules:
//!
//! * [`model`] — the per-point [`TrainableField`], the [`ChunkedField`]
//!   phases and [`model::IngpModel`], which implements both: the
//!   hash-grid + two-small-MLPs architecture of iNGP / Instant-NeRF;
//!   [`PerPoint`] drives any model through its per-point surface only.
//! * [`train`] — generic training loop with one step: chunk-streamed
//!   through a model's [`ChunkedField`] phases when it has them, per
//!   point otherwise — the model's surface is the only selector.
//! * [`engine`] — thread-pool plumbing for the chunk phases
//!   (`INERF_THREADS`, fixed-chunk determinism helpers).
//! * [`render`] — the no-gradient render engine: occupancy-culled,
//!   early-terminating, allocation-free view rendering behind
//!   [`render::RenderOpts`], bitwise-exact to the reference path when the
//!   switches are off.
//! * [`streaming`] — ray-first vs random point streaming orders (the
//!   paper's Sec. III-B) and trace generation for the hardware simulators.
//! * [`workload`] — the Tab. II workload model (parameter/data sizes of the
//!   bottleneck steps) and FLOP/op counts used by the cost models.
//! * [`baselines`] — compact NeRF, FastNeRF and TensoRF baselines for
//!   Tab. IV.
//! * [`occupancy`] — iNGP's occupancy grid for empty-space skipping (the
//!   mechanism behind the scene-conditioned hardware traces).
//!
//! # Example
//!
//! ```
//! use inerf_trainer::model::{IngpModel, ModelConfig};
//! use inerf_trainer::train::{TrainConfig, Trainer};
//! use inerf_scenes::{zoo, DatasetConfig};
//!
//! let scene = zoo::scene(zoo::SceneKind::Mic);
//! let dataset = DatasetConfig::tiny().generate(&scene);
//! let model = IngpModel::new(ModelConfig::tiny(), 1);
//! let mut trainer = Trainer::new(model, TrainConfig::tiny(), 7);
//! let report = trainer.train(&dataset, 3);
//! assert_eq!(report.iterations, 3);
//! ```

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod baselines;
pub mod engine;
pub mod model;
pub mod occupancy;
pub mod render;
pub mod streaming;
pub mod train;
pub mod workload;

pub use model::{
    ChunkedField, EvalScratch, IngpModel, ModelConfig, OptPath, PerPoint, TrainableField,
};
pub use occupancy::OccupancyGrid;
pub use render::{RenderEngine, RenderOpts, RenderStats};
pub use streaming::StreamingOrder;
pub use train::{TrainConfig, TrainReport, Trainer};

// The parameter-storage precision selector (see `TrainConfig::precision`),
// re-exported so experiment drivers need no direct `inerf_mlp` import.
pub use inerf_mlp::Precision;
