//! The container checksum: four interleaved FNV-style lanes over
//! little-endian `u64` words (four multiply chains at once, where FNV-1a
//! waited on one multiply per byte). Word `i` of each 32-byte block steps
//! lane `i` by `x = (h ^ w) · PRIME; h = x ^ (x >> 32)`; the same step
//! folds the lanes into one state and then eats a < 32-byte tail bytewise.
//!
//! `PRIME` is odd, so both halves of the step are bijections mod 2^64: it
//! is injective in its word for a fixed state and a bijection of the state
//! for a fixed word. So any single corrupted byte changes its lane, then
//! the folded state and the digest — what `tests/corruption.rs` sweeps.
//! The `>> 32` fold keeps two flips of bit 63 in one lane from cancelling,
//! as they do in a bare `(h ^ w) · PRIME` chain.

const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

#[inline(always)]
fn mix(h: u64, w: u64) -> u64 {
    let x = (h ^ w).wrapping_mul(PRIME);
    x ^ (x >> 32)
}

/// Steps lane `i` by word `i` of a 32-byte block.
#[inline(always)]
fn step_block(lanes: &mut [u64; 4], block: &[u8]) {
    for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
        let w = u64::from_le_bytes(word.try_into().unwrap_or_default());
        *lane = mix(*lane, w);
    }
}

/// The 64-bit checksum of `bytes`.
pub fn checksum64(bytes: &[u8]) -> u64 {
    let mut sum = Checksum64::new();
    sum.update(bytes);
    sum.finish()
}

/// [`checksum64`] fed in pieces: any split of the input gives the digest
/// of the whole. Up to 31 bytes of an unfinished block wait in `pending`
/// for the next piece.
#[derive(Debug, Clone)]
pub(crate) struct Checksum64 {
    lanes: [u64; 4],
    pending: [u8; 32],
    pending_len: usize,
}

impl Checksum64 {
    /// The state before any byte.
    pub(crate) fn new() -> Self {
        Checksum64 {
            lanes: [OFFSET_BASIS; 4],
            pending: [0; 32],
            pending_len: 0,
        }
    }

    /// Feeds the next piece of the input.
    pub(crate) fn update(&mut self, mut bytes: &[u8]) {
        if self.pending_len > 0 {
            let take = (32 - self.pending_len).min(bytes.len());
            self.pending[self.pending_len..self.pending_len + take].copy_from_slice(&bytes[..take]);
            self.pending_len += take;
            bytes = &bytes[take..];
            if self.pending_len < 32 {
                return;
            }
            step_block(&mut self.lanes, &self.pending);
            self.pending_len = 0;
        }
        // The lanes stay in registers across the blocks.
        let mut lanes = self.lanes;
        let mut blocks = bytes.chunks_exact(32);
        for block in &mut blocks {
            step_block(&mut lanes, block);
        }
        self.lanes = lanes;
        let tail = blocks.remainder();
        self.pending[..tail.len()].copy_from_slice(tail);
        self.pending_len = tail.len();
    }

    /// The digest of everything fed so far.
    pub(crate) fn finish(&self) -> u64 {
        let h = self.lanes.into_iter().fold(OFFSET_BASIS, mix);
        self.pending[..self.pending_len]
            .iter()
            .fold(h, |h, &b| mix(h, u64::from(b)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 131 + 7) as u8).collect()
    }

    #[test]
    fn self_vectors() {
        // The digest of every block shape: empty, tail only, one block,
        // one block plus a tail, two blocks plus a tail.
        let pinned: [(usize, u64); 6] = [
            (0, 0x2a6b_ca99_0efa_1982),
            (1, 0x0f42_c714_7dbb_9beb),
            (31, 0xb5dc_19c4_b6dc_dc03),
            (32, 0x5bb4_730d_d53e_5688),
            (33, 0x11f6_6f81_491b_d79c),
            (71, 0xa60b_79ab_ac1a_6a0e),
        ];
        for (len, want) in pinned {
            assert_eq!(checksum64(&pattern(len)), want, "length {len}");
        }
    }

    #[test]
    fn every_single_bit_flip_changes_the_digest() {
        // 300 bytes: nine whole blocks and a 12-byte tail.
        let base = pattern(300);
        let clean = checksum64(&base);
        for i in 0..base.len() {
            for bit in 0..8 {
                let mut flipped = base.clone();
                flipped[i] ^= 1 << bit;
                assert_ne!(checksum64(&flipped), clean, "flip byte {i} bit {bit}");
            }
        }
    }

    #[test]
    fn top_bit_flips_in_one_lane_do_not_cancel() {
        // Words 0 and 4 are consecutive words of lane 0; bit 63 of a word
        // is bit 7 of its last byte.
        let base = pattern(64);
        let mut flipped = base.clone();
        flipped[7] ^= 0x80;
        flipped[32 + 7] ^= 0x80;
        assert_ne!(checksum64(&flipped), checksum64(&base));
    }

    proptest! {
        #[test]
        fn pieces_in_any_split_digest_like_the_whole(
            bytes in collection::vec(0u8..=255, 0..300),
            cuts in collection::vec(0usize..300, 0..8),
        ) {
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(bytes.len())).collect();
            cuts.sort_unstable();
            let mut sum = Checksum64::new();
            let mut at = 0;
            for cut in cuts.into_iter().chain([bytes.len()]) {
                sum.update(&bytes[at..cut]);
                at = cut;
            }
            prop_assert_eq!(sum.finish(), checksum64(&bytes));
        }
    }
}
