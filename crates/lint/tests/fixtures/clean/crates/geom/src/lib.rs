//! A clean fixture workspace: zero findings, exit code 0.

use std::collections::BTreeMap;

pub(crate) fn deterministic() -> BTreeMap<u32, u32> {
    let mut m = BTreeMap::new();
    m.insert(1, 2);
    m
}
