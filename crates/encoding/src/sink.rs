//! The streaming trace bus: the algorithm→hardware event interface.
//!
//! The hash-grid forward pass produces one [`CubeLookup`] per level per
//! point — the address stream every hardware model consumes. The
//! [`TraceSink`] trait is the only way that stream is consumed: producers
//! ([`crate::table::HashGrid`], the trainer engines) push cube events as
//! they are generated, and every consumer — locality statistics,
//! register-cache replay, DRAM request generation, the cycle-level
//! simulator — runs incrementally at constant memory.
//!
//! Event protocol, per training iteration:
//!
//! 1. `push_cube` once per `(point, level)` cube, in processing order
//!    (level-major within a point, points in streaming order);
//! 2. `end_point` after each point's last cube;
//! 3. `end_batch` after the iteration's last point — the hook where
//!    batch-scoped consumers (e.g. the HT_b write-back drain) flush.
//!
//! Sinks compose: `(&mut a, &mut b)` fans one stream out to two consumers,
//! and `&mut dyn TraceSink` lets producers stay object-safe. A
//! [`LookupTrace`] is itself a sink ([`BufferSink`]): the test-side
//! recording of a stream, which [`LookupTrace::replay`] feeds to any sink.

use crate::trace::{CubeLookup, LookupTrace};

/// A consumer of the streaming cube-lookup event bus.
///
/// See the [module docs](self) for the event protocol. Implementations
/// depend on the events alone: [`LookupTrace::replay`]ing a recorded
/// stream into a sink must produce exactly the state that streaming the
/// original events would.
pub trait TraceSink {
    /// One cube lookup (eight vertex entries at one level of one point).
    fn push_cube(&mut self, cube: &CubeLookup);

    /// The current point's cubes are complete.
    fn end_point(&mut self) {}

    /// The current batch (training iteration) is complete. Batch-scoped
    /// consumers flush and reset here.
    fn end_batch(&mut self) {}
}

impl<S: TraceSink + ?Sized> TraceSink for &mut S {
    fn push_cube(&mut self, cube: &CubeLookup) {
        (**self).push_cube(cube);
    }

    fn end_point(&mut self) {
        (**self).end_point();
    }

    fn end_batch(&mut self) {
        (**self).end_batch();
    }
}

/// Fan-out: one event stream feeding two sinks (compose recursively for
/// more).
impl<A: TraceSink, B: TraceSink> TraceSink for (A, B) {
    fn push_cube(&mut self, cube: &CubeLookup) {
        self.0.push_cube(cube);
        self.1.push_cube(cube);
    }

    fn end_point(&mut self) {
        self.0.end_point();
        self.1.end_point();
    }

    fn end_batch(&mut self) {
        self.0.end_batch();
        self.1.end_batch();
    }
}

/// The materializing sink: buffers every event into a [`LookupTrace`] —
/// the recording tests replay into fresh sinks and inspect for shape.
pub type BufferSink = LookupTrace;

impl TraceSink for LookupTrace {
    fn push_cube(&mut self, cube: &CubeLookup) {
        LookupTrace::push_cube(self, cube);
    }

    fn end_point(&mut self) {
        LookupTrace::end_point(self);
    }
}

/// A materializing sink that keeps one [`LookupTrace`] per batch —
/// the per-iteration buffered reference the online co-simulation is
/// compared against.
#[derive(Debug, Clone, Default)]
pub struct BatchBufferSink {
    batches: Vec<LookupTrace>,
    current: LookupTrace,
}

impl BatchBufferSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The completed batches, one trace per `end_batch`.
    pub fn batches(&self) -> &[LookupTrace] {
        &self.batches
    }

    /// Approximate heap bytes held by all buffered traces.
    pub fn heap_bytes(&self) -> usize {
        self.batches
            .iter()
            .map(LookupTrace::heap_bytes)
            .sum::<usize>()
            + self.current.heap_bytes()
    }
}

impl TraceSink for BatchBufferSink {
    fn push_cube(&mut self, cube: &CubeLookup) {
        self.current.push_cube(cube);
    }

    fn end_point(&mut self) {
        self.current.end_point();
    }

    fn end_batch(&mut self) {
        self.batches.push(std::mem::take(&mut self.current));
    }
}

/// A counting sink: tracks stream shape (cubes/points/batches) without
/// buffering anything. Useful for asserting producers follow the protocol.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CountingSink {
    /// Cubes pushed.
    pub cubes: u64,
    /// Points completed.
    pub points: u64,
    /// Batches completed.
    pub batches: u64,
}

impl TraceSink for CountingSink {
    fn push_cube(&mut self, _cube: &CubeLookup) {
        self.cubes += 1;
    }

    fn end_point(&mut self) {
        self.points += 1;
    }

    fn end_batch(&mut self) {
        self.batches += 1;
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

    #[test]
    fn tuple_sink_fans_out() {
        let mut pair = (CountingSink::default(), LookupTrace::new());
        pair.push_cube(&cube(0, 4));
        pair.push_cube(&cube(1, 8));
        pair.end_point();
        pair.end_batch();
        assert_eq!(pair.0.cubes, 2);
        assert_eq!(pair.0.points, 1);
        assert_eq!(pair.0.batches, 1);
        assert_eq!(pair.1.cubes().len(), 2);
        assert_eq!(pair.1.point_count(), 1);
    }

    #[test]
    fn dyn_sink_usable_through_reference() {
        let mut counter = CountingSink::default();
        {
            let sink: &mut dyn TraceSink = &mut counter;
            sink.push_cube(&cube(2, 1));
            sink.end_point();
        }
        assert_eq!(counter.cubes, 1);
        assert_eq!(counter.points, 1);
    }

    #[test]
    fn batch_buffer_splits_on_end_batch() {
        let mut sink = BatchBufferSink::new();
        sink.push_cube(&cube(0, 0));
        sink.end_point();
        sink.end_batch();
        sink.push_cube(&cube(0, 8));
        sink.push_cube(&cube(1, 16));
        sink.end_point();
        sink.end_batch();
        assert_eq!(sink.batches().len(), 2);
        assert_eq!(sink.batches()[0].point_count(), 1);
        assert_eq!(sink.batches()[0].cubes().len(), 1);
        assert_eq!(sink.batches()[1].cubes().len(), 2);
        assert!(sink.heap_bytes() > 0);
    }
}
