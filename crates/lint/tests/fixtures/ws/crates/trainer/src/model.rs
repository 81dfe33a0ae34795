//! Seeded panic-path violations in the trainer's model (lint fixture):
//! rule 4 covers this file by name, like the occupancy grid.

pub fn first_sigma(sigmas: &[f32]) -> f32 {
    *sigmas.first().unwrap()
}

pub fn ring_of(ring: Option<usize>) -> usize {
    // inerf-lint: allow(panic-path) -- fixture: the engine sizes the ring first
    ring.expect("ring sized")
}
