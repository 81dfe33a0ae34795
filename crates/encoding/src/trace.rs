//! Lookup traces: a recording of the cube-lookup stream.
//!
//! Every encoded point touches `L` cubes (one per level), each with eight
//! vertex entries. A [`LookupTrace`] is the test-side recording of that
//! stream: as a [`TraceSink`] it buffers the events in processing order,
//! and [`LookupTrace::replay`] feeds them to any other sink.

use crate::sink::TraceSink;

/// The eight vertex lookups of one point at one level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CubeLookup {
    /// Hash-table level.
    pub level: u32,
    /// Entry indices of the cube's eight corners (corner order: bit 0 → +x,
    /// bit 1 → +y, bit 2 → +z).
    pub entries: [u32; 8],
    /// Base vertex Morton code — used to detect cube reuse between
    /// consecutive points without re-deriving coordinates.
    pub cube_id: u64,
}

/// An ordered record of cube lookups produced while encoding a point stream.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LookupTrace {
    cubes: Vec<CubeLookup>,
    points: usize,
}

impl LookupTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one cube of the current point (pair with
    /// [`LookupTrace::end_point`]).
    pub fn push_cube(&mut self, cube: &CubeLookup) {
        self.cubes.push(*cube);
    }

    /// Marks the current point's cubes complete.
    pub fn end_point(&mut self) {
        self.points += 1;
    }

    /// Feeds the recording to `sink`: every cube in order, with `end_point`
    /// after each point's `cubes / points` cubes (cubes only when no point
    /// was marked). Never emits `end_batch` — the caller owns batch
    /// boundaries.
    pub fn replay(&self, sink: &mut (impl TraceSink + ?Sized)) {
        let per_point = self.cubes.len().checked_div(self.points).unwrap_or(0);
        for (i, cube) in self.cubes.iter().enumerate() {
            sink.push_cube(cube);
            if per_point != 0 && (i + 1) % per_point == 0 {
                sink.end_point();
            }
        }
    }

    /// Approximate heap bytes held by the materialized trace — the
    /// quantity the streaming trace bus exists to eliminate.
    pub fn heap_bytes(&self) -> usize {
        self.cubes.capacity() * std::mem::size_of::<CubeLookup>()
    }

    /// All recorded cube lookups, in processing order.
    pub fn cubes(&self) -> &[CubeLookup] {
        &self.cubes
    }

    /// Number of points recorded.
    pub fn point_count(&self) -> usize {
        self.points
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cube(level: u32, base: u32) -> CubeLookup {
        let mut entries = [0u32; 8];
        for (i, e) in entries.iter_mut().enumerate() {
            *e = base + i as u32;
        }
        CubeLookup {
            level,
            entries,
            cube_id: base as u64,
        }
    }

    /// Two points of two levels each.
    fn two_points() -> LookupTrace {
        let mut t = LookupTrace::new();
        for point in [[cube(0, 0), cube(1, 100)], [cube(0, 8), cube(1, 100)]] {
            point.iter().for_each(|c| t.push_cube(c));
            t.end_point();
        }
        t
    }

    #[test]
    fn push_and_count() {
        let t = two_points();
        assert_eq!(t.point_count(), 2);
        assert_eq!(t.cubes().len(), 4);
    }

    #[test]
    fn replay_reproduces_the_recorded_stream() {
        use crate::sink::{BufferSink, CountingSink};
        let t = two_points();
        let mut counts = CountingSink::default();
        t.replay(&mut counts);
        assert_eq!((counts.cubes, counts.points, counts.batches), (4, 2, 0));
        let mut copy = BufferSink::new();
        t.replay(&mut copy);
        assert_eq!(copy, t);
        // Cubes recorded with no point marked replay as cubes alone.
        let mut unmarked = LookupTrace::new();
        unmarked.push_cube(&cube(0, 0));
        let mut counts = CountingSink::default();
        unmarked.replay(&mut counts);
        assert_eq!((counts.cubes, counts.points), (1, 0));
        // The empty trace replays to nothing.
        let mut counts = CountingSink::default();
        LookupTrace::new().replay(&mut counts);
        assert_eq!(counts, CountingSink::default());
    }
}
