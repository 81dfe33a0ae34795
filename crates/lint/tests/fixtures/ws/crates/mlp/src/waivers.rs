//! Seeded waiver-protocol violations (lint fixture).

// inerf-lint: allow(hash-order)
pub(crate) fn missing_justification() -> u32 {
    1
}

// inerf-lint: allow(wall-clock) -- fixture: nothing here to waive
pub(crate) fn stale_waiver() -> u32 {
    2
}

// TODO inerf-lint: allow(panic-path) -- buried tag is a likely typo
pub(crate) fn buried_tag() -> u32 {
    3
}
