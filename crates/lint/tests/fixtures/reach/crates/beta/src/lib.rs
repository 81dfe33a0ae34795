//! Fixture crate `beta`: the callers.

/// Reached from the example.
pub fn run() -> u32 {
    let steps: Vec<u32> = Vec::new();
    let walked = alpha::shapes::Walk.count() as u32;
    alpha::called_from_beta() + alpha::shapes::make().value + walked + steps.len() as u32
}

#[cfg(test)]
mod support;
