//! Types reached through signatures, a re-export and an iterator impl.

/// Reached only through the signature of `make`.
pub struct Output {
    pub value: u32,
}

/// Reached: crate `beta` calls it.
pub fn make() -> Output {
    Output { value: 1 }
}

/// Named elsewhere only by a `pub use`: a finding.
pub struct Reexported;

/// Reached as the `Item` of a reached type's iterator.
pub struct Step;

/// Reached: crate `beta` walks it.
pub struct Walk;

impl Iterator for Walk {
    type Item = Step;

    fn next(&mut self) -> Option<Step> {
        None
    }
}

/// Called only from `beta`'s test-only module file: a finding.
pub fn only_test_support_calls() -> u32 {
    7
}
