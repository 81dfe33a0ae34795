//! `inerf_lint` — the offline workspace invariant linter.
//!
//! The headline results of this reproduction rest on invariants the
//! compiler cannot see: bitwise determinism at any thread count,
//! bit-identical streamed-vs-buffered DRAM statistics, and entry
//! byte-widths that flow only through `EntryLayout`/`Precision`. Golden-bit
//! tests catch regressions *after* they land; this crate is the static
//! pass that catches the hazard classes *before* — a hand-rolled,
//! comment/string-aware Rust lexer (no `syn`: the build box has no
//! crates.io route) feeding a rule engine with per-rule inline waivers.
//!
//! Rules (see [`rules::RULES`] or `inerf-lint --explain <rule>`):
//!
//! - `hash-order`: no `std` `HashMap`/`HashSet` (RandomState iteration
//!   order varies per process).
//! - `wall-clock`: no `Instant::now`/`SystemTime` outside `crates/bench`,
//!   `benches/`, `tests/` and `examples/`.
//! - `unsafe-audit`: every `unsafe` carries a `// SAFETY:` comment; the
//!   inventory is generated into `UNSAFE_AUDIT.md`.
//! - `entry-width`: no hardcoded entry-byte literals or `* 4`/`* 8` byte
//!   arithmetic in `encoding`/`accel`/`dram` outside the `EntryLayout`
//!   definition site.
//! - `panic-path`: no `.unwrap()`/`.expect()` in library code of the
//!   hot-path crates (`encoding`, `mlp`, `dram`, `accel`, `render`,
//!   `snapshot`) and of the trainer's hot-path files (model, training
//!   step, occupancy grid, render engine).
//! - `vendor-isolation`: first-party code touches only the documented
//!   stand-in APIs of the vendored dependency tree.
//!
//! A finding is suppressed by an inline waiver with a mandatory,
//! recorded justification (see [`waiver`]); malformed and stale waivers
//! are themselves findings (`waiver-syntax`, `unused-waiver`).

#![forbid(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod context;
pub mod engine;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod waiver;

pub use engine::{lint_workspace, render_unsafe_audit, AuditEntry, Finding, Report};
pub use report::{render_json, render_text};
pub use rules::{rule_info, RuleInfo, RULES};

use std::path::Path;

/// File name of the committed unsafe inventory at the workspace root.
pub const UNSAFE_AUDIT_FILE: &str = "UNSAFE_AUDIT.md";

/// Lints `root` and renders the audit inventory in one call — the
/// convenience entry point the workspace-scan test and CI check share.
pub fn lint_and_audit(root: &Path) -> Result<(Report, String), String> {
    let report = lint_workspace(root)?;
    let audit = render_unsafe_audit(&report);
    Ok((report, audit))
}
