//! Seeded vendor-isolation violations (lint fixture).

use rand::rngs::SmallRng;
use rand::{internal, Rng};
use serde_json::to_string;

#[path = "../../../vendor/rand/src/extra.rs"]
mod extra;

// inerf-lint: allow(vendor-isolation) -- fixture: stand-in extension pending README row
pub use rand::undocumented_helper;

pub(crate) fn poke() -> u32 {
    rayon::secret_knob()
}

pub(crate) fn fine(rng: &mut SmallRng) -> String {
    let x: u32 = rng.gen();
    let _ = internal::noop;
    to_string(&x).unwrap_or_default()
}

pub(crate) fn exempt_elsewhere(v: Option<u32>) -> u32 {
    // The trainer crate is not hot-path scope outside the named files: no
    // panic-path finding here.
    v.unwrap()
}

use serde::Deserialize;
