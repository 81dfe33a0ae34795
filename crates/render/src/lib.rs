//! Differentiable emission-absorption volume rendering.
//!
//! Implements Step (d) of the NeRF pipeline (paper Eq. 1):
//!
//! ```text
//! C(r) = Σ_i T_i (1 - exp(-σ_i δ_i)) c_i ,   T_i = Π_{j<i} (1 - α_j)
//! ```
//!
//! with the exact analytic backward pass needed for Steps (e)–(f): given
//! `∂L/∂C`, [`volume::composite_backward_spans`] returns `∂L/∂σ_i` and `∂L/∂c_i`
//! for every sample, which the trainer chains into the MLP and hash-table
//! backward passes.
//!
//! # Example
//!
//! ```
//! use inerf_render::volume::{composite_uniform, SamplePoint};
//! use inerf_geom::Vec3;
//!
//! // One very dense red sample: the ray color saturates to red.
//! let samples = [SamplePoint { sigma: 1e4, color: Vec3::new(1.0, 0.0, 0.0) }];
//! let out = composite_uniform(&samples, 0.1);
//! assert!(out.color.x > 0.99);
//! ```

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod loss;
pub mod volume;

pub use loss::{l2_loss, l2_loss_value, l2_ray_gradient, L2Loss};
pub use volume::{
    composite_backward_spans, composite_backward_uniform, composite_spans, composite_uniform,
    CompositeOutput, RayBatch, RaySpan, SamplePoint,
};
