//! Seeded simd-lane violations (lint fixture).

use std::arch::x86_64::__m256;

pub(crate) fn splat(x: f32) -> __m256 {
    _mm256_set1_ps(x)
}

#[target_feature(enable = "avx2")]
pub(crate) fn avx2_kernel() {}

pub(crate) fn host_has_avx2() -> bool {
    // inerf-lint: allow(simd-lane) -- fixture: feature probe pending port to inerf_simd
    is_x86_feature_detected!("avx2")
}

#[cfg(test)]
mod tests {
    #[test]
    fn lane_intrinsics_in_tests_are_flagged_too() {
        let _ = core::arch::x86_64::_mm256_setzero_ps();
    }
}
