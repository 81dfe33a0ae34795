//! Seeded panic-path violations in the trainer's render engine (lint
//! fixture): rule 4 covers this file by name even though the rest of the
//! trainer crate is exempt.

pub(crate) fn first_weight(weights: &[f32]) -> f32 {
    *weights.first().unwrap()
}

pub(crate) fn cut_of(cuts: Option<u32>) -> u32 {
    // inerf-lint: allow(panic-path) -- fixture: the engine pushes one cut per span
    cuts.expect("one cut per span")
}
