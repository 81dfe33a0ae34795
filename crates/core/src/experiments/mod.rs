//! Experiment drivers: one module per table/figure of the paper.
//!
//! Each driver returns plain data structs (so integration tests can assert
//! on shapes) plus a `render()`-style pretty printer used by the
//! `paper_figures` example and the bench harness. The per-experiment index
//! in DESIGN.md maps paper artifacts to these modules.

pub mod cosim;
pub mod extension;
pub mod fig1;
pub mod fig11;
pub mod fig4;
pub mod fig6;
pub mod fig7;
pub mod fig9;
pub mod precision;
pub mod psnr;
pub mod tables;
pub mod traces;
