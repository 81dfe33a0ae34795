//! Seeded wall-clock violations (lint fixture).

use std::time::Instant;

pub(crate) fn elapsed_ms() -> u64 {
    let t0 = Instant::now();
    t0.elapsed().as_millis() as u64
}

pub(crate) fn stamp_is_waived() -> u64 {
    // inerf-lint: allow(wall-clock) -- fixture: host timestamp for a log line only
    let t = std::time::SystemTime::now();
    t.duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    #[test]
    fn timing_in_tests_is_fine() {
        let t0 = std::time::Instant::now();
        assert!(t0.elapsed().as_secs() < 60);
    }
}
