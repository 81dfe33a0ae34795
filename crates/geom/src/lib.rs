//! 3D math primitives for the Instant-NeRF reproduction.
//!
//! This crate is the bottom of the workspace dependency graph. It provides:
//!
//! * [`Vec3`] — a small, `Copy`, `f32` 3-vector with the usual operators.
//! * [`Ray`] — origin/direction rays with point sampling along `t`.
//! * [`Aabb`] — axis-aligned bounding boxes with slab-test intersection.
//! * [`Camera`] — a pinhole camera generating per-pixel rays, plus orbit-pose
//!   helpers used to build the synthetic datasets.
//! * [`morton`] — 3D Morton (Z-order) encoding, the locality-sensitive hash
//!   basis of the paper's Eq. (2).
//! * [`GridCoord`] / [`GridLevel`] — integer lattice coordinates of the
//!   multi-resolution grids used by the hash encoding.
//! * [`CellWalk`] — Amanatides–Woo traversal of the lattice cells a ray
//!   crosses, the proposer under the trainer's ray marcher.
//!
//! # Example
//!
//! ```
//! use inerf_geom::{Vec3, Ray, Aabb};
//!
//! let ray = Ray::new(Vec3::new(0.0, 0.0, -2.0), Vec3::new(0.0, 0.0, 1.0));
//! let cube = Aabb::unit();
//! let hit = cube.intersect(&ray).expect("ray points at the box");
//! assert!(hit.t_near > 0.0 && hit.t_far > hit.t_near);
//! ```

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod aabb;
pub mod camera;
pub mod grid;
pub mod morton;
pub mod ray;
pub mod vec3;
pub mod walk;

pub use aabb::{Aabb, RayHit};
pub use camera::{Camera, Pose};
pub use grid::{GridCoord, GridLevel};
pub use ray::Ray;
pub use vec3::Vec3;
pub use walk::{CellSpan, CellWalk};
