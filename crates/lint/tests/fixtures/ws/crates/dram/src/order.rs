//! Seeded hash-order violations (lint fixture).

use std::collections::HashMap;

/// Doc prose may mention HashMap without tripping the rule.
pub(crate) fn names() -> Vec<String> {
    vec!["HashMap".to_string()]
}

// inerf-lint: allow(hash-order) -- fixture: membership probe, order never observed
pub fn probe(m: &HashMap<u32, u32>) -> bool {
    m.contains_key(&1)
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    #[test]
    fn hash_order_applies_to_tests_too() {
        let mut s = HashSet::new();
        s.insert(1);
        assert!(s.contains(&1));
    }
}
