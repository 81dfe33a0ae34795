//! Hash grid configuration.

use crate::hash::HashFunction;
use inerf_geom::grid::{build_levels, GridLevel};
use inerf_mlp::Precision;

/// Configuration of the multi-resolution hash grid.
///
/// Defaults follow the iNGP/paper setup: `L = 16` levels, `T = 2^19` entries
/// per level, base resolution 16 growing geometrically to 512. Every entry
/// holds [`HashGridConfig::FEATURES`] = 2 features: the paper's table entry
/// is one 32-bit word of two fp16 features, and the gather and scatter
/// kernels are written for that pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HashGridConfig {
    /// Number of resolution levels `L`.
    pub levels: u32,
    /// log2 of the table size `T` per level.
    pub table_size_log2: u32,
    /// Coarsest resolution (cells per axis).
    pub n_min: u32,
    /// Finest resolution (cells per axis).
    pub n_max: u32,
    /// Which hash mapping function indexes the table.
    pub hash: HashFunction,
}

impl HashGridConfig {
    /// Features per entry, `F`.
    pub const FEATURES: u32 = 2;

    /// The paper's configuration: `L=16, T=2^19, F=2`, resolutions 16→512.
    ///
    /// Each level is `T * F * 4B = 4 MB` of f32 training state; with the
    /// paper's 32-bit (FP16×2) inference entries a level is 2 MB, matching
    /// the "each individual level of the hash table is 2 MB" observation in
    /// Sec. II-B.
    pub fn paper(hash: HashFunction) -> Self {
        HashGridConfig {
            levels: 16,
            table_size_log2: 19,
            n_min: 16,
            n_max: 512,
            hash,
        }
    }

    /// A small configuration for fast unit tests and examples.
    pub fn tiny(hash: HashFunction) -> Self {
        HashGridConfig {
            levels: 4,
            table_size_log2: 12,
            n_min: 4,
            n_max: 32,
            hash,
        }
    }

    /// Table entries per level, `T`.
    #[inline]
    pub const fn table_size(&self) -> u32 {
        1 << self.table_size_log2
    }

    /// Output feature dimension of the encoding, `L * F`.
    #[inline]
    pub const fn feature_dim(&self) -> usize {
        (self.levels * Self::FEATURES) as usize
    }

    /// Total number of trainable embedding scalars, `L * T * F`.
    #[inline]
    pub const fn parameter_count(&self) -> usize {
        (self.levels as usize) * (self.table_size() as usize) * (Self::FEATURES as usize)
    }

    /// Bytes of one table entry (`F` features) stored at `precision`:
    /// 4 B for the paper's fp16 pairs, 8 B for f32 storage.
    #[inline]
    pub const fn entry_bytes(&self, precision: Precision) -> u32 {
        Self::FEATURES * precision.bytes_per_param() as u32
    }

    /// Builds the per-level grid descriptors.
    pub fn build_levels(&self) -> Vec<GridLevel> {
        build_levels(self.n_min, self.n_max, self.levels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_sizes() {
        let c = HashGridConfig::paper(HashFunction::Morton);
        assert_eq!(c.table_size(), 1 << 19);
        assert_eq!(c.feature_dim(), 32);
        assert_eq!(c.parameter_count(), 16 * (1 << 19) * 2);
        // 2 MB per level at the paper's 4-byte entries.
        assert_eq!(
            c.table_size() as usize * c.entry_bytes(Precision::Fp16) as usize,
            2 * 1024 * 1024
        );
    }

    #[test]
    fn paper_hash_table_total_matches_tab2() {
        // Tab. II: hash table parameters are 25 MB for HT (FP16 entries,
        // minus the dense coarse levels stored compactly). Our f32 total:
        let c = HashGridConfig::paper(HashFunction::Morton);
        let fp16_bytes: usize = c
            .build_levels()
            .iter()
            .map(|l| {
                let entries = (l.dense_vertex_count() as usize).min(c.table_size() as usize);
                entries * c.entry_bytes(Precision::Fp16) as usize
            })
            .sum();
        let mb = fp16_bytes as f64 / (1024.0 * 1024.0);
        assert!(
            (20.0..30.0).contains(&mb),
            "hash table should be ~25 MB as in Tab. II, got {mb:.1} MB"
        );
    }

    #[test]
    fn tiny_config_levels() {
        let c = HashGridConfig::tiny(HashFunction::Original);
        let levels = c.build_levels();
        assert_eq!(levels.len(), 4);
        assert_eq!(levels[0].resolution, 4);
        assert!(levels[3].resolution >= 30);
    }

    #[test]
    fn dense_level_detection() {
        let c = HashGridConfig::paper(HashFunction::Morton);
        let levels = c.build_levels();
        // 16^3 = 4096 vertices fit the table unhashed; 512^3 do not.
        assert!(levels[0].dense_vertex_count() <= c.table_size() as u64);
        assert!(levels[15].dense_vertex_count() > c.table_size() as u64);
    }
}
