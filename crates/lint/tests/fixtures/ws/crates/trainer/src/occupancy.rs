//! Seeded panic-path violations in the trainer's occupancy grid (lint
//! fixture): rule 4 covers this file by name, like the render engine.

pub fn first_cell(cells: &[u32]) -> u32 {
    *cells.first().unwrap()
}

pub fn density_of(sigmas: Option<f32>) -> f32 {
    // inerf-lint: allow(panic-path) -- fixture: the sweep writes one density per cell
    sigmas.expect("one density per cell")
}
