//! DRAM memory-request accounting at row granularity.
//!
//! The paper's key bandwidth argument (Sec. III-A): DRAM serves requests in
//! 1 KB rows while a hash-table entry is only 32 bits, so a cube lookup that
//! scatters its eight vertices across distinct rows wastes almost the whole
//! row each time. With the original hash a cube needs **4.02** row requests
//! on average; with the Morton hash only **1.58**. Combined with the
//! ray-first streaming order (register reuse of the previous point's cube),
//! the effective memory bandwidth improves **3.27×–35.9×** per level
//! (Fig. 7b).

use crate::sink::TraceSink;
use crate::trace::CubeLookup;

/// Default bytes per hash-table entry (one 32-bit vector of two FP16
/// features, paper Sec. I) — the paper's hardware storage width, kept as
/// the `const` default so precision-agnostic call sites stay unchanged.
const ENTRY_BYTES: u32 = 4;
/// DRAM row-buffer size in bytes (LPDDR4, paper Sec. II-C).
pub const ROW_BYTES: u32 = 1024;

/// Row geometry of the hash table in DRAM at a chosen entry width — the
/// parameter the storage precision decision flows through: f32 entries
/// are twice as wide as fp16 entries, so fewer fit a row and a cube's
/// vertices scatter over more rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EntryLayout {
    /// Bytes per table entry (all `F` features of one vertex).
    entry_bytes: u32,
    /// `log2(ROW_BYTES / entry_bytes)`: an entry's row is one shift.
    row_shift: u32,
}

impl Default for EntryLayout {
    /// The paper's 4-byte (FP16×2) entries.
    fn default() -> Self {
        Self::new(ENTRY_BYTES)
    }
}

impl EntryLayout {
    /// A layout with `entry_bytes`-wide entries.
    ///
    /// # Panics
    ///
    /// Panics unless `entry_bytes` is a power of two no wider than a row.
    pub fn new(entry_bytes: u32) -> Self {
        assert!(
            entry_bytes.is_power_of_two() && entry_bytes <= ROW_BYTES,
            "entry width must be a power of two in 1..={ROW_BYTES} bytes"
        );
        EntryLayout {
            entry_bytes,
            row_shift: (ROW_BYTES / entry_bytes).trailing_zeros(),
        }
    }

    /// Bytes per table entry.
    #[inline]
    pub const fn entry_bytes(self) -> u32 {
        self.entry_bytes
    }

    /// Entries per DRAM row at this width.
    #[cfg(test)]
    const fn entries_per_row(self) -> u32 {
        1 << self.row_shift
    }

    /// The DRAM row holding a given table entry.
    #[inline]
    pub const fn row_of_entry(self, entry: u32) -> u32 {
        entry >> self.row_shift
    }

    /// The row of each of `cube`'s eight vertices, and a mask of its
    /// distinct rows: bit `c` is set iff no earlier vertex shares `c`'s row.
    #[inline]
    pub fn cube_rows(self, cube: &CubeLookup) -> ([u32; 8], u8) {
        let rows = cube.entries.map(|e| self.row_of_entry(e));
        let mut first = 0u8;
        for c in 0..8 {
            let seen = rows[..c]
                .iter()
                .fold(false, |seen, &r| seen | (r == rows[c]));
            first |= u8::from(!seen) << c;
        }
        (rows, first)
    }

    /// Number of distinct DRAM rows the eight vertices of `cube` occupy —
    /// the row requests needed to gather one cube with no reuse.
    fn cube_row_requests(self, cube: &CubeLookup) -> u32 {
        self.cube_rows(cube).1.count_ones()
    }

    /// Embedding payload bytes a cube's eight vertices carry at this
    /// width (what the DRAM rows must deliver; scales linearly with the
    /// entry width, unlike the row count).
    #[inline]
    pub const fn cube_payload_bytes(self) -> u32 {
        8 * self.entry_bytes
    }
}

/// Streaming accumulator of the mean-row-requests-per-cube statistic
/// (the paper's 1.58-vs-4.02 number) at the paper's 4 B entries, fed by
/// the trace bus.
#[derive(Debug, Clone, Copy, Default)]
pub struct MeanRequestSink {
    cubes: u64,
    total_requests: u64,
}

impl MeanRequestSink {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Mean row requests per cube seen so far (0.0 before any cube).
    pub fn mean(&self) -> f64 {
        if self.cubes == 0 {
            0.0
        } else {
            self.total_requests as f64 / self.cubes as f64
        }
    }
}

impl TraceSink for MeanRequestSink {
    fn push_cube(&mut self, cube: &CubeLookup) {
        self.cubes += 1;
        self.total_requests += EntryLayout::default().cube_row_requests(cube) as u64;
    }
}

/// Per-level statistics of streaming points through the local register
/// cache (which holds the embeddings of the previously processed cube).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LevelStreamStats {
    /// Hash-table level.
    pub level: u32,
    /// Cubes processed at this level.
    pub cubes: u64,
    /// Cubes served entirely from the register cache (same cube as the
    /// previous point).
    pub register_hits: u64,
    /// Row requests actually issued to DRAM.
    pub row_requests: u64,
}

impl LevelStreamStats {
    /// Register hit rate in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        if self.cubes == 0 {
            0.0
        } else {
            self.register_hits as f64 / self.cubes as f64
        }
    }
}

/// Whole-stream register-cache statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamStats {
    /// One entry per hash-table level.
    pub levels: Vec<LevelStreamStats>,
}

/// Streaming register-cache replay: consumes the trace bus online and
/// maintains per-level hit and row-request statistics. If a point's cube
/// at some level equals the previous point's cube at that level, its eight
/// embeddings are already in registers and no DRAM request is issued;
/// otherwise the cube's distinct rows are fetched (row-buffer granularity,
/// at the paper's 4 B entries).
#[derive(Debug, Clone)]
pub struct RegisterCacheSink {
    stats: Vec<LevelStreamStats>,
    last_id: Vec<Option<u64>>,
}

impl RegisterCacheSink {
    /// Creates a sink covering `levels` hash-table levels (cubes at higher
    /// levels are ignored).
    pub fn new(levels: u32) -> Self {
        RegisterCacheSink {
            stats: (0..levels)
                .map(|level| LevelStreamStats {
                    level,
                    cubes: 0,
                    register_hits: 0,
                    row_requests: 0,
                })
                .collect(),
            last_id: vec![None; levels as usize],
        }
    }

    /// The statistics accumulated so far.
    pub fn stats(&self) -> StreamStats {
        StreamStats {
            levels: self.stats.clone(),
        }
    }
}

impl TraceSink for RegisterCacheSink {
    fn push_cube(&mut self, cube: &CubeLookup) {
        let li = cube.level as usize;
        if li >= self.stats.len() {
            return;
        }
        let s = &mut self.stats[li];
        s.cubes += 1;
        if self.last_id[li] == Some(cube.cube_id) {
            s.register_hits += 1;
        } else {
            s.row_requests += EntryLayout::default().cube_row_requests(cube) as u64;
            self.last_id[li] = Some(cube.cube_id);
        }
    }
}

/// Fig. 7(b): per-level effective-memory-bandwidth improvement of `ours`
/// over `baseline`, defined as the ratio of row requests needed to deliver
/// the same embedding payload.
///
/// # Panics
///
/// Panics if the two stats cover different level counts.
pub fn effective_bandwidth_improvement(baseline: &StreamStats, ours: &StreamStats) -> Vec<f64> {
    assert_eq!(
        baseline.levels.len(),
        ours.levels.len(),
        "level count mismatch"
    );
    baseline
        .levels
        .iter()
        .zip(&ours.levels)
        .map(|(b, o)| {
            if o.row_requests == 0 {
                if b.row_requests == 0 {
                    1.0
                } else {
                    f64::INFINITY
                }
            } else {
                b.row_requests as f64 / o.row_requests as f64
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HashGridConfig;
    use crate::hash::HashFunction;
    use crate::table::HashGrid;
    use inerf_geom::Vec3;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn cube_with_entries(entries: [u32; 8], id: u64) -> CubeLookup {
        CubeLookup {
            level: 0,
            entries,
            cube_id: id,
        }
    }

    #[test]
    fn row_math() {
        let layout = EntryLayout::default();
        assert_eq!(layout.entries_per_row(), 256);
        assert_eq!(layout.row_of_entry(0), 0);
        assert_eq!(layout.row_of_entry(255), 0);
        assert_eq!(layout.row_of_entry(256), 1);
    }

    #[test]
    fn entry_layout_widths() {
        // fp16 F=2 entries (the default) vs their f32 twins.
        let fp16 = EntryLayout::default();
        let f32w = EntryLayout::new(8);
        assert_eq!(fp16.entries_per_row(), 256);
        assert_eq!(f32w.entries_per_row(), 128);
        // The same entry index lands in a different row once entries widen.
        assert_eq!(fp16.row_of_entry(200), 0);
        assert_eq!(f32w.row_of_entry(200), 1);
        // Payload scales exactly with the width; the row count does not
        // shrink when entries widen.
        assert_eq!(f32w.cube_payload_bytes(), 2 * fp16.cube_payload_bytes());
        let spread = cube_with_entries([0, 120, 250, 380, 500, 600, 760, 900], 7);
        assert!(f32w.cube_row_requests(&spread) >= fp16.cube_row_requests(&spread));
    }

    #[test]
    #[should_panic(expected = "entry width")]
    fn zero_entry_width_rejected() {
        EntryLayout::new(0);
    }

    #[test]
    fn cube_requests_counts_distinct_rows() {
        let one_row = cube_with_entries([0, 1, 2, 3, 4, 5, 6, 7], 0);
        let layout = EntryLayout::default();
        assert_eq!(layout.cube_row_requests(&one_row), 1);
        let eight_rows = cube_with_entries([0, 256, 512, 768, 1024, 1280, 1536, 1792], 1);
        assert_eq!(layout.cube_row_requests(&eight_rows), 8);
        let two_rows = cube_with_entries([0, 0, 0, 0, 300, 300, 300, 300], 2);
        assert_eq!(layout.cube_row_requests(&two_rows), 2);
    }

    /// Random points in random order (the iNGP baseline).
    fn random_points(n: usize, seed: u64) -> Vec<Vec3> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Vec3::new(rng.gen(), rng.gen(), rng.gen()))
            .collect()
    }

    /// Ray-first order: points walk along rays.
    fn ray_first_points(rays: usize, samples: usize, seed: u64) -> Vec<Vec3> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut points = Vec::with_capacity(rays * samples);
        for _ in 0..rays {
            let y: f32 = rng.gen();
            let z: f32 = rng.gen();
            for s in 0..samples {
                let x = (s as f32 + 0.5) / samples as f32;
                points.push(Vec3::new(x, y, z));
            }
        }
        points
    }

    /// Register-cache statistics of `points` streamed through `grid`.
    fn register_cache_stats(grid: &HashGrid, points: &[Vec3]) -> StreamStats {
        let mut sink = RegisterCacheSink::new(grid.config().levels);
        grid.stream_batch(points, &mut sink);
        sink.stats()
    }

    #[test]
    fn paper_stat_morton_needs_fewer_requests_than_original() {
        // Sec. III-A: 1.58 (Morton) vs 4.02 (original) average requests per
        // cube. Exact values depend on the point distribution; we check the
        // qualitative gap and loose numeric bands.
        let morton = HashGrid::new(HashGridConfig::paper(HashFunction::Morton), 5);
        let original = HashGrid::new(HashGridConfig::paper(HashFunction::Original), 5);
        let points = random_points(512, 9);
        let mut sinks = (MeanRequestSink::new(), MeanRequestSink::new());
        morton.stream_batch(&points, &mut sinks.0);
        original.stream_batch(&points, &mut sinks.1);
        let (rm, ro) = (sinks.0.mean(), sinks.1.mean());
        assert!(rm < 2.5, "Morton requests/cube {rm:.2} should be < 2.5");
        assert!(ro > 3.0, "Original requests/cube {ro:.2} should be > 3.0");
        assert!(ro / rm > 1.5, "expected a clear gap, got {ro:.2}/{rm:.2}");
    }

    #[test]
    fn register_cache_hits_on_repeated_cubes() {
        let grid = HashGrid::new(HashGridConfig::paper(HashFunction::Morton), 2);
        let stats = register_cache_stats(&grid, &ray_first_points(8, 128, 3));
        // Coarse level: heavy reuse. Fine level: little.
        assert!(stats.levels[0].hit_rate() > 0.5);
        let last = stats.levels.last().expect("paper config has 16 levels");
        assert!(stats.levels[0].hit_rate() > last.hit_rate());
        // Row requests conserve: hits issue none.
        for l in &stats.levels {
            assert!(l.register_hits <= l.cubes);
            assert!(l.row_requests <= (l.cubes - l.register_hits) * 8);
        }
    }

    #[test]
    fn combined_techniques_improve_bandwidth_within_paper_band() {
        // Fig. 7(b): Morton + ray-first vs original + random gives
        // 3.27x–35.9x per level. Our synthetic workload should land in a
        // comparable band (allowing slack at the extremes).
        let morton = HashGrid::new(HashGridConfig::paper(HashFunction::Morton), 2);
        let original = HashGrid::new(HashGridConfig::paper(HashFunction::Original), 2);
        let n_rays = 16;
        let n_samples = 128;
        let ours = register_cache_stats(&morton, &ray_first_points(n_rays, n_samples, 3));
        let base = register_cache_stats(&original, &random_points(n_rays * n_samples, 3));
        let imp = effective_bandwidth_improvement(&base, &ours);
        assert_eq!(imp.len(), 16);
        for (l, &x) in imp.iter().enumerate() {
            assert!(x > 1.2, "level {l}: improvement {x:.2} should exceed 1.2x");
        }
        let max = imp.iter().cloned().fold(0.0f64, f64::max);
        assert!(
            max > 4.0,
            "peak improvement {max:.1}x should be substantial"
        );
    }

    #[test]
    fn improvement_handles_zero_requests() {
        let a = StreamStats {
            levels: vec![LevelStreamStats {
                level: 0,
                cubes: 1,
                register_hits: 1,
                row_requests: 0,
            }],
        };
        let imp = effective_bandwidth_improvement(&a, &a);
        assert_eq!(imp, vec![1.0]);
    }
}
