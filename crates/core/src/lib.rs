//! **Instant-NeRF** — a full reproduction of *"Instant-NeRF: Instant
//! On-Device Neural Radiance Field Training via Algorithm-Accelerator
//! Co-Designed Near-Memory Processing"* (DAC 2023).
//!
//! This facade crate re-exports the workspace and hosts the experiment
//! drivers that regenerate every table and figure of the paper's
//! evaluation (see DESIGN.md for the system inventory and EXPERIMENTS.md
//! for paper-vs-measured results).
//!
//! # Layered architecture
//!
//! | Layer | Crate | Contents |
//! |---|---|---|
//! | math | [`geom`] | vectors, rays, cameras, Morton codes, grids |
//! | data | [`scenes`] | procedural scenes, oracle renderer, datasets, PSNR |
//! | algorithm | [`encoding`], [`mlp`], [`render`], [`trainer`] | hash encoding, MLPs, volume rendering, training loop, baselines |
//! | hardware | [`dram`], [`accel`], [`gpu`] | LPDDR4 timing simulator, NMP accelerator model, GPU cost model |
//!
//! # Quickstart
//!
//! ```
//! use instant_nerf::prelude::*;
//!
//! // Train a small Instant-NeRF on a procedural scene and measure PSNR.
//! let scene = zoo::scene(SceneKind::Lego);
//! let dataset = DatasetConfig::tiny().generate(&scene);
//! let model = IngpModel::new(ModelConfig::tiny(), 42);
//! let mut trainer = Trainer::new(model, TrainConfig::tiny(), 7);
//! trainer.train(&dataset, 20);
//! let psnr = trainer.eval_psnr(&dataset);
//! assert!(psnr.is_finite());
//! ```

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![deny(unsafe_op_in_unsafe_fn)]

pub use inerf_accel as accel;
pub use inerf_dram as dram;
pub use inerf_encoding as encoding;
pub use inerf_geom as geom;
pub use inerf_gpu as gpu;
pub use inerf_mlp as mlp;
pub use inerf_render as render;
pub use inerf_scenes as scenes;
pub use inerf_trainer as trainer;

pub mod experiments;
pub mod report;

/// The most commonly used types, re-exported flat.
pub mod prelude {
    pub use inerf_accel::{AccelConfig, HashTableMapping, MappingScheme, PipelineModel};
    pub use inerf_dram::{DramConfig, DramSim};
    pub use inerf_encoding::{HashFunction, HashGrid, HashGridConfig};
    pub use inerf_geom::{Aabb, Camera, Pose, Ray, Vec3};
    pub use inerf_gpu::{GpuSpec, TrainingCost};
    pub use inerf_scenes::zoo;
    pub use inerf_scenes::{Dataset, DatasetConfig, Image, SceneKind};
    pub use inerf_trainer::{
        IngpModel, ModelConfig, StreamingOrder, TrainConfig, TrainableField, Trainer,
    };
}
