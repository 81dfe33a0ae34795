//! Small fully-connected networks with explicit backward passes.
//!
//! iNGP replaces the giant vanilla-NeRF MLP with two small heads: a density
//! MLP (`MLPd`) and a color MLP (`MLPc`), both a few layers of width 64.
//! This crate implements them from scratch:
//!
//! * [`layer`] — dense layers with activation, forward and backward.
//! * [`mlp`] — layer stacks with cached activations for backprop.
//! * [`adam`] — the Adam optimizer used by iNGP.
//! * [`fp16`] — IEEE 754 half-precision conversion, modelling the paper's
//!   mixed-precision storage path (FP16 table entries, FP32 accumulation).
//! * [`store`] — the [`ParamStore`] mixed-precision parameter backend
//!   (f32, or fp16 storage with f32 master weights) every trainable
//!   parameter group sits behind.
//!
//! # Example
//!
//! ```
//! use inerf_mlp::{Mlp, Activation};
//!
//! // A 4 → 8 → 2 network with ReLU hidden activation.
//! let mut net = Mlp::new(&[4, 8, 2], Activation::Relu, Activation::Identity, 42);
//! let out = net.forward(&[0.1, -0.2, 0.3, 0.4]).output().to_vec();
//! assert_eq!(out.len(), 2);
//! ```

#![forbid(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod adam;
pub mod fp16;
pub mod layer;
pub mod mlp;
pub mod store;

pub use adam::AdamState;
pub use layer::{untranspose_tile, Activation, DenseLayer, FWD_BLOCK};
pub use mlp::{Mlp, MlpActivations, MlpBatchActivations, MlpGradients, MlpScratch};
pub use store::{ParamStore, Precision};
