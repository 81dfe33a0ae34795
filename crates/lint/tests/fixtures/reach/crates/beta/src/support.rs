//! Test support: `beta`'s lib.rs declares this file `#[cfg(test)] mod
//! support;`, so it is test code as a whole. Its `pub` items are not
//! checked, and its calls reach nothing.

pub fn helper() -> u32 {
    alpha::shapes::only_test_support_calls()
}
