//! Multi-resolution hash encoding — the iNGP scene representation plus the
//! paper's locality-sensitive variant.
//!
//! This crate implements Steps (1)–(3) of iNGP's replacement for the vanilla
//! NeRF MLP query (paper Fig. 3):
//!
//! 1. **Hashing of cube vertices** — [`hash::HashFunction`] offers both the
//!    original iNGP spatial hash and the paper's Morton-code
//!    locality-sensitive hash (Eq. 2).
//! 2. **Lookup of embedding vectors** — [`table::HashGrid`] stores `L` levels
//!    × `T` entries × `F` features of trainable embeddings.
//! 3. **Trilinear interpolation** — forward and backward (gradient
//!    scatter-add) passes.
//!
//! It also implements the measurement machinery behind the paper's
//! characterization figures:
//!
//! * [`sink`] — the streaming trace bus ([`TraceSink`]): the online
//!   event interface between the algorithm and every hardware consumer.
//! * [`locality`] — index-distance histograms between cube-neighbour
//!   vertices (Fig. 6) and cube-sharing statistics along rays (Fig. 7a),
//!   as streaming sinks.
//! * [`requests`] — DRAM row-granularity memory-request counting (the
//!   1.58-vs-4.02 requests/cube statistic and Fig. 7b), as streaming
//!   sinks.
//! * [`trace`] — the test-side recording of a stream ([`BufferSink`]),
//!   replayable into any sink.
//!
//! # Example
//!
//! ```
//! use inerf_encoding::{HashGridConfig, HashGrid, HashFunction};
//! use inerf_geom::Vec3;
//!
//! let config = HashGridConfig::tiny(HashFunction::Morton);
//! let mut grid = HashGrid::new(config, 42);
//! let features = grid.encode(Vec3::splat(0.5));
//! assert_eq!(features.len(), config.feature_dim());
//! ```

#![forbid(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod config;
pub mod hash;
pub mod locality;
pub mod requests;
pub mod sink;
pub mod table;
pub mod trace;

pub use config::HashGridConfig;
pub use hash::HashFunction;
pub use requests::EntryLayout;
pub use sink::{BatchBufferSink, BufferSink, CountingSink, TraceSink};
pub use table::{HashGrid, LookupCache};
pub use trace::LookupTrace;

// The mixed-precision parameter backend the embedding table sits behind,
// re-exported so hardware-model crates can name the storage precision
// without depending on `inerf_mlp` directly.
pub use inerf_mlp::{ParamStore, Precision};
