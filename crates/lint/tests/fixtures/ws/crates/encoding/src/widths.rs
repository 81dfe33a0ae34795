//! Seeded entry-width and panic-path violations (lint fixture).

pub(crate) struct EntryLayout(pub u32);

impl EntryLayout {
    pub(crate) fn new(b: u32) -> Self {
        EntryLayout(b)
    }

    pub(crate) fn with_entry_bytes(self, b: u32) -> Self {
        EntryLayout(b)
    }
}

pub(crate) fn row_bytes(entries: u64) -> u64 {
    entries * 4
}

pub(crate) fn padded_bytes(n: u64) -> u64 {
    // inerf-lint: allow(entry-width) -- fixture: literal is a register count, not a width
    8 * n
}

pub(crate) fn default_layout() -> EntryLayout {
    EntryLayout::new(16)
}

pub(crate) fn half_layout(l: EntryLayout) -> EntryLayout {
    l.with_entry_bytes(2)
}

pub(crate) fn corners(points: u64) -> u64 {
    points * 8
}

pub fn first(v: &[u32]) -> u32 {
    *v.first().unwrap()
}

pub(crate) fn checked(v: Option<u32>) -> u32 {
    // inerf-lint: allow(panic-path) -- fixture: caller guarantees Some
    v.expect("always Some in the fixture")
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_is_exempt() {
        let x = super::first(&[1]);
        let bytes = x as u64 * 4;
        assert_eq!(bytes, Some(4u64).unwrap());
    }
}
