//! Fixture: seeded panic-path violations in the snapshot crate.

pub fn first_byte(bytes: &[u8]) -> u8 {
    *bytes.first().unwrap()
}

pub fn commit(v: Option<u8>) -> u8 {
    // inerf-lint: allow(panic-path) -- fixture: caller validated the length
    v.expect("validated by the caller")
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_is_exempt() {
        assert_eq!(super::first_byte(&[7]).checked_add(1).unwrap(), 8);
    }
}
