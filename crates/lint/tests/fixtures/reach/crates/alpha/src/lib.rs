//! Fixture crate `alpha`: the `pub-reach` definitions.

pub mod shapes;

pub use shapes::Reexported;

/// Reached: crate `beta` calls it.
pub fn called_from_beta() -> u32 {
    1
}

/// Named only by tests: a finding.
pub fn only_tested() -> u32 {
    2
}

/// Reached only from an example.
pub fn used_by_example() -> u32 {
    3
}

/// Named only in this file: a finding.
pub const LOCAL_ONLY: u32 = 4;

/// `beta` names some other `new`: the collision counts as a reference.
pub fn new() -> u32 {
    LOCAL_ONLY
}

/// Already narrowed: not checked.
pub(crate) fn narrowed() -> u32 {
    5
}

/// Test support another crate's tests need.
// inerf-lint: allow(pub-reach) -- fixture: test support crate beta's tests need
pub fn waived_support() -> u32 {
    6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_tests_do_not_count() {
        assert_eq!(only_tested() + narrowed(), 7);
    }
}
