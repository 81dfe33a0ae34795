//! Procedural volumetric scenes for the Instant-NeRF reproduction.
//!
//! The paper evaluates on the eight Synthetic-NeRF Blender scenes (chair,
//! drums, ficus, hotdog, lego, materials, mic, ship). Those assets cannot be
//! shipped here, so this crate provides the substitution documented in
//! DESIGN.md: eight *procedural emission-absorption volumes* with the same
//! names. Each scene is an analytic density + color field; ground-truth
//! images are produced by an exact (dense-quadrature) volume-rendering
//! oracle, so PSNR against a trained model is well defined.
//!
//! Contents:
//!
//! * [`field`] — the [`RadianceField`] trait and procedural primitives.
//! * [`zoo`] — the eight named scenes.
//! * [`image`] — image buffers, MSE and PSNR.
//! * [`oracle`] — exact volume rendering of a field.
//! * [`dataset`] — posed multi-view datasets (train/test splits).
//!
//! # Example
//!
//! ```
//! use inerf_scenes::{zoo, dataset::DatasetConfig};
//!
//! let scene = zoo::scene(zoo::SceneKind::Lego);
//! let ds = DatasetConfig::tiny().generate(&scene);
//! assert_eq!(ds.train_views.len(), DatasetConfig::tiny().train_views);
//! ```

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod dataset;
pub mod field;
pub mod image;
pub mod oracle;
pub mod zoo;

pub use dataset::{Dataset, DatasetConfig, View};
pub use field::{RadianceField, RadianceSample, Scene};
pub use image::{mse, psnr, psnr_from_mse, Image};
pub use zoo::SceneKind;
