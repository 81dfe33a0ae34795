//! Hash-table-to-DRAM mapping (paper Sec. IV-B).
//!
//! Two composable decisions:
//!
//! * **Inter-level mapping** — which bank stores which level. The paper
//!   clusters the cheap coarse levels (their conflict load is unbalanced —
//!   Fig. 9) into groups `{0–4}`, `{5–8}`, `{9–10}` and gives every finer
//!   level its own bank, balancing per-bank processing time.
//! * **Intra-level mapping** — where a level's rows land inside its bank.
//!   Spreading *sequential* row addresses round-robin across subarrays
//!   converts the >50% of conflicts caused by sequential-address requests
//!   into subarray-parallel accesses.

use inerf_dram::{AccessKind, DramConfig, DramSim, PhysAddr, Request};
use inerf_encoding::trace::CubeLookup;
use inerf_encoding::{EntryLayout, TraceSink};

/// Entries per level of the mapped table: the paper's `T = 2^19`. Each
/// level's region of DRAM rows is sized for this many entries.
const TABLE_ENTRIES: u32 = 1 << 19;

// The mapping places entries in `inerf_encoding`'s rows (the rows Fig. 7b
// counts); the simulator opens the die's. They must be one 1 KB row.
const _: () = assert!(inerf_encoding::requests::ROW_BYTES == DramConfig::ROW_BYTES);

/// Inter-level bank-assignment policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MappingScheme {
    /// The paper's scheme: coarse levels clustered ({0–4}, {5–8}, {9–10}),
    /// fine levels one bank each.
    Clustered,
    /// Naive scheme for ablation: level `l` on bank `l`.
    OneLevelPerBank,
    /// Naive scheme for ablation: sequential rows stay sequential within a
    /// subarray (no intra-level spreading). Inter-level as `Clustered`.
    ClusteredNoSpread,
}

/// Maps `(level, entry)` hash-table coordinates to physical DRAM addresses
/// (request streams are generated from it by [`RequestStream`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HashTableMapping {
    scheme: MappingScheme,
    /// `assignment[level]` = bank holding that level.
    assignment: Vec<u32>,
    /// Distinct banks in `assignment`, counted once here: the estimate
    /// reads it every co-simulated iteration.
    banks_used: u32,
    /// Subarrays per bank used by the intra-level spread.
    subarrays: u32,
    /// Row geometry at the table's storage width: 4 B entries for the
    /// paper's fp16 pairs (the default), 8 B for f32 storage.
    layout: EntryLayout,
}

impl HashTableMapping {
    /// Builds the mapping for the paper's 16-level table on the die's 16
    /// banks.
    ///
    /// # Panics
    ///
    /// Panics if `subarrays == 0`.
    pub fn paper(scheme: MappingScheme, subarrays: u32) -> Self {
        assert!(subarrays > 0, "mapping needs at least one subarray");
        let levels = 0..16u32;
        let assignment: Vec<u32> = match scheme {
            MappingScheme::OneLevelPerBank => levels.collect(),
            MappingScheme::Clustered | MappingScheme::ClusteredNoSpread => {
                // Groups: {0..=4} {5..=8} {9..=10}, then one bank per level.
                levels
                    .map(|l| match l {
                        0..=4 => 0,
                        5..=8 => 1,
                        9..=10 => 2,
                        _ => 3 + (l - 11),
                    })
                    .collect()
            }
        };
        let mut distinct = assignment.clone();
        distinct.sort_unstable();
        distinct.dedup();
        HashTableMapping {
            scheme,
            banks_used: distinct.len() as u32,
            assignment,
            subarrays,
            layout: EntryLayout::default(),
        }
    }

    /// The same mapping with `entry_bytes`-wide table entries — how the
    /// storage precision reaches the DRAM row model (f32 entries are
    /// twice the default fp16 width, so fewer entries share a row).
    ///
    /// # Panics
    ///
    /// Panics unless `entry_bytes` is a power of two no wider than a row.
    pub fn with_entry_bytes(mut self, entry_bytes: u32) -> Self {
        self.layout = EntryLayout::new(entry_bytes);
        self
    }

    /// The active scheme.
    pub fn scheme(&self) -> MappingScheme {
        self.scheme
    }

    /// The row geometry (bytes per table entry) this mapping assumes.
    pub fn layout(&self) -> EntryLayout {
        self.layout
    }

    /// The bank storing `level`.
    ///
    /// # Panics
    ///
    /// Panics if `level` exceeds the configured level count.
    fn bank_of_level(&self, level: u32) -> u32 {
        self.assignment[level as usize]
    }

    /// Number of distinct banks used.
    pub fn banks_used(&self) -> usize {
        self.banks_used as usize
    }

    /// Subarrays per bank the intra-level spread assumes.
    pub fn subarrays(&self) -> u32 {
        self.subarrays
    }

    /// Maps one table entry to its physical address.
    ///
    /// Levels sharing a bank partition its subarrays (each co-resident level
    /// owns `S / co_resident` subarrays), so the interleaved per-point level
    /// streams never fight over a subarray. Within a level's share, the
    /// spread policy places sequential rows round-robin across its
    /// subarrays; the no-spread ablation packs them sequentially instead.
    // inerf-lint: allow(pub-reach) -- test support: the root tests/properties.rs::mapping_addresses_always_legal checks every address it computes
    pub fn map_entry(&self, level: u32, entry: u32, dram: &DramConfig) -> PhysAddr {
        let bank = self.bank_of_level(level);
        let co_resident = self.assignment.iter().filter(|&&b| b == bank).count() as u32;
        let stack_index = self.assignment[..level as usize]
            .iter()
            .filter(|&&b| b == bank)
            .count() as u32;
        let share = (self.subarrays / co_resident).max(1);
        let sa_base = (stack_index * share) % self.subarrays;
        let rows_per_level = self.layout.row_of_entry(TABLE_ENTRIES);
        let row_idx = self.layout.row_of_entry(entry);
        let (subarray, row) = match self.scheme {
            MappingScheme::ClusteredNoSpread => {
                // Sequential rows stay sequential inside one subarray.
                (sa_base, stack_index * rows_per_level + row_idx)
            }
            _ => (
                sa_base + row_idx % share,
                // Distinct row region per co-resident level (subarray shares
                // can overlap when co_resident > S).
                stack_index * rows_per_level + row_idx / share,
            ),
        };
        PhysAddr {
            bank,
            subarray: subarray % dram.subarrays_per_bank,
            row: row % dram.rows_per_subarray(),
        }
    }
}

/// One level's share of the address map: what
/// [`HashTableMapping::map_entry`] recomputes from the bank assignment on
/// every call.
#[derive(Debug, Clone, Copy)]
struct LevelSlot {
    /// First subarray of the level's share of its bank.
    sa_base: u32,
    /// Subarrays in that share (the round-robin modulus of the spread).
    share: u32,
    /// First row of the level's region (co-resident levels are stacked).
    row_base: u32,
}

impl LevelSlot {
    /// Every level's slot under `mapping`.
    fn all(mapping: &HashTableMapping) -> Vec<LevelSlot> {
        let assignment = &mapping.assignment;
        let rows_per_level = mapping.layout.row_of_entry(TABLE_ENTRIES);
        (0..assignment.len())
            .map(|level| {
                let bank = assignment[level];
                let on_bank = |levels: &[u32]| levels.iter().filter(|&&b| b == bank).count() as u32;
                let stack_index = on_bank(&assignment[..level]);
                let share = (mapping.subarrays / on_bank(assignment)).max(1);
                LevelSlot {
                    sa_base: (stack_index * share) % mapping.subarrays,
                    share,
                    row_base: stack_index * rows_per_level,
                }
            })
            .collect()
    }

    /// `[subarray, row]` of table row `row_idx` of this level on `dram`.
    fn address(self, scheme: MappingScheme, dram: &DramConfig, row_idx: u32) -> [u32; 2] {
        let (subarray, row) = match scheme {
            MappingScheme::ClusteredNoSpread => (self.sa_base, self.row_base + row_idx),
            _ => (
                self.sa_base + row_idx % self.share,
                self.row_base + row_idx / self.share,
            ),
        };
        [
            subarray % dram.subarrays_per_bank,
            row % dram.rows_per_subarray(),
        ]
    }
}

/// Online DRAM-request generation from the streaming trace bus.
///
/// Mirrors the accelerator datapath: per level, a two-row `r0` register
/// pair retains the most recently streamed rows (a cube straddles at most
/// two rows under the Morton layout), so a request is emitted only when a
/// cube needs a row not already held; the per-level register cache
/// additionally skips cubes identical to the previous point's.
///
/// With `write_back` (the HT_b model), embedding gradients accumulate in
/// the scratchpad during the read sweep and drain as one batched write
/// pass over the touched rows at [`RequestStream::end_batch`]
/// (deduplicated), avoiding per-access read/write turnarounds. `end_batch`
/// also resets the per-batch register state, so one stream serves a whole
/// training run iteration by iteration. The reads are the same with or
/// without `write_back`.
///
/// The stream accepts only what its address map can place: construction
/// refuses a layout that folds two table rows onto one DRAM row, and
/// [`RequestStream::push_cube`] drops (and counts) a cube outside the
/// mapped table. So within a level a table row is its DRAM row: `r0` holds
/// table rows, a table row's first read in a batch is also its DRAM row's
/// first read, and one bitmap over the table rows is the drain's whole
/// deduplication.
///
/// Addresses come from a table of every `(level, table row)`'s DRAM row,
/// filled at construction and equal to [`HashTableMapping::map_entry`] for
/// every entry (checked on each request in debug builds). Only an emitted
/// request looks its row up.
#[derive(Debug, Clone)]
pub struct RequestStream {
    mapping: HashTableMapping,
    dram: DramConfig,
    write_back: bool,
    /// `[subarray, row]` of table row `r` of level `l` at
    /// `l * rows_per_level + r`.
    addresses: Vec<[u32; 2]>,
    rows_per_level: u32,
    /// Per-level register-cache state: the previous point's cube id.
    last_cube: Vec<Option<u64>>,
    /// The r0 register pair per level: the two most recent table rows,
    /// newest first, `u32::MAX` when empty.
    r0: Vec<[u32; 2]>,
    /// Rows touched by the read sweep in first-read order (the write-back
    /// drain).
    touched: Vec<PhysAddr>,
    /// One bit per `(level, table row)`, set at the row's first read of
    /// the batch, which is the only read that adds a row to `touched`.
    /// Empty without `write_back`.
    table_rows: Vec<u64>,
    dropped_cubes: u64,
}

impl RequestStream {
    /// Creates an idle stream for one batch sequence.
    ///
    /// # Panics
    ///
    /// Panics if `dram` has no subarrays or no rows, or if the mapping
    /// folds two `(level, table row)` pairs of the mapped table onto one
    /// `(bank, subarray, row)` of the die (the message names such a pair).
    pub fn new(mapping: &HashTableMapping, dram: &DramConfig, write_back: bool) -> Self {
        let levels = mapping.assignment.len();
        let rows_per_level = mapping.layout.row_of_entry(TABLE_ENTRIES);
        let addresses = LevelSlot::all(mapping)
            .into_iter()
            .flat_map(|slot| {
                (0..rows_per_level).map(move |r| slot.address(mapping.scheme, dram, r))
            })
            .collect();
        let bitmap_bits = usize::from(write_back) * levels * rows_per_level as usize;
        let stream = RequestStream {
            mapping: mapping.clone(),
            dram: *dram,
            write_back,
            addresses,
            rows_per_level,
            last_cube: vec![None; levels],
            r0: vec![[u32::MAX; 2]; levels],
            touched: Vec::new(),
            table_rows: vec![0; bitmap_bits.div_ceil(64)],
            dropped_cubes: 0,
        };
        stream.assert_rows_injective();
        stream
    }

    /// The address of table row `row` of level `li`.
    #[inline]
    fn lookup(&self, li: usize, row: u32) -> PhysAddr {
        let [subarray, row] = self.addresses[li * self.rows_per_level as usize + row as usize];
        PhysAddr {
            bank: self.mapping.assignment[li],
            subarray,
            row,
        }
    }

    /// Panics unless every `(level, table row)` has a DRAM row of its own.
    /// One bank at a time, with a bitmap over that bank's rows (16 KB at
    /// the paper's 128 K rows per bank).
    fn assert_rows_injective(&self) {
        let per_subarray = self.dram.rows_per_subarray() as usize;
        let bank_rows = self.dram.subarrays_per_bank as usize * per_subarray;
        let mut taken = vec![0u64; bank_rows.div_ceil(64)];
        let mut banks = self.mapping.assignment.clone();
        banks.sort_unstable();
        banks.dedup();
        for bank in banks {
            taken.fill(0);
            let on_bank = || {
                (0..self.mapping.assignment.len())
                    .filter(move |&l| self.mapping.assignment[l] == bank)
                    .flat_map(|l| (0..self.rows_per_level).map(move |r| (l, r)))
            };
            for (level, row) in on_bank() {
                let addr = self.lookup(level, row);
                let bit = addr.subarray as usize * per_subarray + addr.row as usize;
                let (word, mask) = (&mut taken[bit / 64], 1u64 << (bit % 64));
                if *word & mask != 0 {
                    // The earlier row that set the bit.
                    let (first_level, first_row) = on_bank()
                        .find(|&(l, r)| self.lookup(l, r) == addr)
                        .unwrap_or((level, row));
                    panic!(
                        "the mapping folds table rows onto one DRAM row: level {first_level} \
                         row {first_row} and level {level} row {row} both map to {addr:?}"
                    );
                }
                *word |= mask;
            }
        }
    }

    /// Cubes pushed so far that the mapping cannot place: on a level it
    /// does not hold (a grid deeper than the mapped table), or with an
    /// entry at or past the mapped table's 2^19. They cause no request and
    /// change no state, and are counted here instead of vanishing.
    pub fn dropped_cubes(&self) -> u64 {
        self.dropped_cubes
    }

    /// Processes one cube, emitting the DRAM read requests it causes.
    pub fn push_cube(&mut self, cube: &CubeLookup, mut emit: impl FnMut(Request)) {
        let li = cube.level as usize;
        if li >= self.r0.len() || cube.entries.iter().any(|&e| e >= TABLE_ENTRIES) {
            self.dropped_cubes += 1;
            return;
        }
        if self.last_cube[li] == Some(cube.cube_id) {
            return; // register-cache hit: embeddings already loaded
        }
        self.last_cube[li] = Some(cube.cube_id);
        // The cube's distinct rows, in corner order, filtered through r0.
        let (rows, mut distinct) = self.mapping.layout.cube_rows(cube);
        while distinct != 0 {
            let c = distinct.trailing_zeros() as usize;
            distinct &= distinct - 1;
            let r = rows[c];
            let r0 = &mut self.r0[li];
            if r0.contains(&r) {
                continue; // already resident in a row register
            }
            *r0 = [r, r0[0]];
            let addr = self.lookup(li, r);
            debug_assert_eq!(
                addr,
                self.mapping
                    .map_entry(cube.level, cube.entries[c], &self.dram)
            );
            emit(Request::new(addr, AccessKind::Read));
            if self.write_back && self.first_touch(li, r) {
                self.touched.push(addr);
            }
        }
    }

    /// Marks table row `row` of level `li` read this batch; false if it
    /// already was.
    #[inline]
    fn first_touch(&mut self, li: usize, row: u32) -> bool {
        let bit = li * self.rows_per_level as usize + row as usize;
        let (word, mask) = (&mut self.table_rows[bit / 64], 1u64 << (bit % 64));
        let first = *word & mask == 0;
        *word |= mask;
        first
    }

    /// Ends the current batch: emits the batched HT_b gradient drain (one
    /// write per touched row, streamed row-major so consecutive writes
    /// round-robin the subarrays and the drain itself is conflict-light)
    /// and resets the per-batch register state for the next iteration.
    pub fn end_batch(&mut self, emit: impl FnMut(Request)) {
        if self.write_back {
            // Batched gradient drain; the rows are distinct, so the order is total.
            self.touched
                .sort_unstable_by_key(|a| (a.bank, a.row, a.subarray));
            self.touched
                .iter()
                .map(|&a| Request::new(a, AccessKind::Write))
                .for_each(emit);
            self.touched.clear();
            self.table_rows.fill(0);
        }
        self.last_cube.fill(None);
        self.r0.fill([u32::MAX; 2]);
    }

    /// Approximate heap bytes of the stream's state, its address table
    /// included (constant in the number of streamed points; the write-back
    /// set grows with the touched *rows*, which the table size bounds).
    pub fn state_bytes(&self) -> usize {
        self.mapping.assignment.capacity() * std::mem::size_of::<u32>()
            + self.addresses.capacity() * std::mem::size_of::<[u32; 2]>()
            + self.last_cube.capacity() * std::mem::size_of::<Option<u64>>()
            + self.r0.capacity() * std::mem::size_of::<[u32; 2]>()
            + self.touched.capacity() * std::mem::size_of::<PhysAddr>()
            + self.table_rows.capacity() * std::mem::size_of::<u64>()
    }
}

/// A destination for streamed DRAM requests.
pub trait RequestConsumer {
    /// Accepts one emitted request.
    fn accept(&mut self, req: Request);
}

impl RequestConsumer for Vec<Request> {
    fn accept(&mut self, req: Request) {
        self.push(req);
    }
}

/// Feeding the cycle-level simulator online — the co-simulation path.
impl RequestConsumer for DramSim {
    fn accept(&mut self, req: Request) {
        self.push_request(&req);
    }
}

/// [`TraceSink`] adapter pairing a [`RequestStream`] with a
/// [`RequestConsumer`]: cube events in, mapped DRAM requests out, with the
/// write-back drain flushed on `end_batch`.
#[derive(Debug, Clone)]
pub struct RequestSink<C> {
    stream: RequestStream,
    consumer: C,
}

impl<C: RequestConsumer> RequestSink<C> {
    /// Builds the adapter.
    pub fn new(stream: RequestStream, consumer: C) -> Self {
        RequestSink { stream, consumer }
    }

    /// The wrapped consumer.
    pub fn consumer(&self) -> &C {
        &self.consumer
    }

    /// Mutable access to the wrapped consumer (e.g. to drain simulator
    /// statistics between iterations).
    pub fn consumer_mut(&mut self) -> &mut C {
        &mut self.consumer
    }

    /// Approximate heap bytes of the request-generation state.
    pub fn state_bytes(&self) -> usize {
        self.stream.state_bytes()
    }
}

impl<C: RequestConsumer> TraceSink for RequestSink<C> {
    fn push_cube(&mut self, cube: &CubeLookup) {
        let consumer = &mut self.consumer;
        self.stream.push_cube(cube, |r| consumer.accept(r));
    }

    fn end_batch(&mut self) {
        let consumer = &mut self.consumer;
        self.stream.end_batch(|r| consumer.accept(r));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::ray_points;
    use inerf_encoding::requests::{EntryLayout, ROW_BYTES};
    use inerf_encoding::{BufferSink, HashFunction, HashGrid, HashGridConfig};
    use inerf_geom::Vec3;

    fn entries_per_row(layout: EntryLayout) -> u32 {
        ROW_BYTES / layout.entry_bytes()
    }

    #[test]
    fn clustered_assignment_matches_paper_groups() {
        let m = HashTableMapping::paper(MappingScheme::Clustered, 8);
        // Levels 0–4 share a bank.
        for l in 1..=4 {
            assert_eq!(m.bank_of_level(l), m.bank_of_level(0));
        }
        // Levels 5–8 share a different bank.
        for l in 6..=8 {
            assert_eq!(m.bank_of_level(l), m.bank_of_level(5));
        }
        assert_ne!(m.bank_of_level(0), m.bank_of_level(5));
        // Levels 9–10 share.
        assert_eq!(m.bank_of_level(9), m.bank_of_level(10));
        // Levels 11..=15 each alone.
        let fine: Vec<u32> = (11..16).map(|l| m.bank_of_level(l)).collect();
        let mut dedup = fine.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(
            dedup.len(),
            5,
            "fine levels must use distinct banks: {fine:?}"
        );
        // 3 groups + 5 singles = 8 banks.
        assert_eq!(m.banks_used(), 8);
    }

    #[test]
    fn one_level_per_bank_uses_all_banks() {
        let m = HashTableMapping::paper(MappingScheme::OneLevelPerBank, 8);
        assert_eq!(m.banks_used(), 16);
    }

    #[test]
    fn map_entry_spreads_sequential_rows_over_subarrays() {
        let m = HashTableMapping::paper(MappingScheme::Clustered, 8);
        let dram = DramConfig::paper(8);
        // Entries 0 and 256 are in consecutive rows → different subarrays.
        let a = m.map_entry(12, 0, &dram);
        let b = m.map_entry(12, entries_per_row(EntryLayout::default()), &dram);
        assert_eq!(a.bank, b.bank);
        assert_ne!(
            (a.subarray, a.row),
            (b.subarray, b.row),
            "sequential rows must not collide"
        );
        assert_ne!(a.subarray, b.subarray, "spread must change the subarray");
    }

    #[test]
    fn no_spread_keeps_sequential_rows_in_one_subarray() {
        let m = HashTableMapping::paper(MappingScheme::ClusteredNoSpread, 8);
        let dram = DramConfig::paper(8);
        let a = m.map_entry(12, 0, &dram);
        let b = m.map_entry(12, entries_per_row(EntryLayout::default()), &dram);
        assert_eq!(a.subarray, b.subarray);
        assert_eq!(b.row, a.row + 1);
    }

    #[test]
    fn same_entry_same_address() {
        let m = HashTableMapping::paper(MappingScheme::Clustered, 8);
        let dram = DramConfig::paper(8);
        assert_eq!(m.map_entry(7, 1234, &dram), m.map_entry(7, 1234, &dram));
    }

    #[test]
    fn co_resident_levels_do_not_alias() {
        // Levels 0 and 1 share a bank; identical entry indices must map to
        // different rows (stacked level regions).
        let m = HashTableMapping::paper(MappingScheme::Clustered, 8);
        let dram = DramConfig::paper(8);
        let a = m.map_entry(0, 0, &dram);
        let b = m.map_entry(1, 0, &dram);
        assert_eq!(a.bank, b.bank);
        assert_ne!((a.subarray, a.row), (b.subarray, b.row));
    }

    /// The requests of `points` streamed through `grid` as one batch.
    fn requests(
        m: &HashTableMapping,
        dram: &DramConfig,
        write_back: bool,
        grid: &HashGrid,
        points: &[Vec3],
    ) -> Vec<Request> {
        let mut sink = RequestSink::new(RequestStream::new(m, dram, write_back), Vec::new());
        grid.stream_batch(points, &mut sink);
        sink.end_batch();
        sink.consumer
    }

    #[test]
    fn request_generation_filters_reuse() {
        let grid = HashGrid::new(HashGridConfig::paper(HashFunction::Morton), 3);
        let m = HashTableMapping::paper(MappingScheme::Clustered, 8);
        let dram = DramConfig::paper(8);
        let reqs = requests(&m, &dram, false, &grid, &ray_points(4, 64, 0.4));
        // Without any filtering there would be 4*64*16*8 = 32768 accesses;
        // reuse must cut this by a large factor.
        assert!(!reqs.is_empty());
        assert!(
            reqs.len() < 32768 / 4,
            "r0/register filtering too weak: {} requests",
            reqs.len()
        );
        assert!(reqs.iter().all(|r| r.kind == AccessKind::Read));
    }

    #[test]
    fn write_back_appends_batched_drain() {
        let grid = HashGrid::new(HashGridConfig::paper(HashFunction::Morton), 3);
        let points = ray_points(2, 32, 0.4);
        let m = HashTableMapping::paper(MappingScheme::Clustered, 8);
        let dram = DramConfig::paper(8);
        let rd = requests(&m, &dram, false, &grid, &points);
        let rw = requests(&m, &dram, true, &grid, &points);
        let writes: Vec<_> = rw.iter().filter(|r| r.kind == AccessKind::Write).collect();
        // Reads are identical; writes cover each touched row exactly once.
        assert_eq!(rw.len() - writes.len(), rd.len());
        assert!(!writes.is_empty());
        assert!(writes.len() <= rd.len(), "drain must be deduplicated");
        let mut keys: Vec<_> = writes
            .iter()
            .map(|r| (r.addr.bank, r.addr.subarray, r.addr.row))
            .collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), writes.len(), "each row written once");
        // All writes come after all reads (scratchpad-accumulated drain).
        let first_write = rw
            .iter()
            .position(|r| r.kind == AccessKind::Write)
            .expect("write-back sweep must emit at least one write");
        assert!(rw[first_write..]
            .iter()
            .all(|r| r.kind == AccessKind::Write));
    }

    #[test]
    fn a_second_identical_batch_repeats_the_request_sequence() {
        // `end_batch` resets the register state (and drains the touched
        // rows), so one stream serves a run batch by batch.
        let grid = HashGrid::new(HashGridConfig::paper(HashFunction::Morton), 9);
        let m = HashTableMapping::paper(MappingScheme::Clustered, 8);
        let dram = DramConfig::paper(8);
        let points = ray_points(3, 48, 0.4);
        for write_back in [false, true] {
            let mut sink = RequestSink::new(RequestStream::new(&m, &dram, write_back), Vec::new());
            grid.stream_batch(&points, &mut sink);
            sink.end_batch();
            let first = sink.consumer().clone();
            assert!(!first.is_empty());
            grid.stream_batch(&points, &mut sink);
            sink.end_batch();
            assert_eq!(sink.consumer().len(), 2 * first.len());
            assert_eq!(
                &sink.consumer()[first.len()..],
                &first[..],
                "write_back={write_back}"
            );
        }
    }

    #[test]
    fn f32_entries_widen_rows_and_increase_requests() {
        let grid = HashGrid::new(HashGridConfig::paper(HashFunction::Morton), 3);
        let points = ray_points(4, 64, 0.4);
        let dram = DramConfig::paper(8);
        let fp16 = HashTableMapping::paper(MappingScheme::Clustered, 8);
        let f32m = HashTableMapping::paper(MappingScheme::Clustered, 8).with_entry_bytes(8);
        assert_eq!(fp16.layout().entry_bytes(), 4);
        assert_eq!(f32m.layout().entry_bytes(), 8);
        assert_eq!(
            entries_per_row(f32m.layout()),
            entries_per_row(fp16.layout()) / 2
        );
        // On the same lookup stream, wider entries scatter cubes over more
        // rows, so the request stream grows.
        let r16 = requests(&fp16, &dram, false, &grid, &points);
        let r32 = requests(&f32m, &dram, false, &grid, &points);
        assert!(
            r32.len() > r16.len(),
            "f32 rows {} should exceed fp16 rows {}",
            r32.len(),
            r16.len()
        );
    }

    #[test]
    fn morton_needs_fewer_requests_than_original_end_to_end() {
        // The full co-design chain: Morton hashing produces fewer mapped DRAM
        // requests than the original hash on the same point stream.
        let mg = HashGrid::new(HashGridConfig::paper(HashFunction::Morton), 3);
        let og = HashGrid::new(HashGridConfig::paper(HashFunction::Original), 3);
        let m = HashTableMapping::paper(MappingScheme::Clustered, 8);
        let dram = DramConfig::paper(8);
        let points = ray_points(8, 64, 0.4);
        let rm = requests(&m, &dram, false, &mg, &points);
        let ro = requests(&m, &dram, false, &og, &points);
        assert!(
            (rm.len() as f64) < 0.8 * ro.len() as f64,
            "Morton {} vs original {}",
            rm.len(),
            ro.len()
        );
    }

    const SCHEMES: [MappingScheme; 3] = [
        MappingScheme::Clustered,
        MappingScheme::OneLevelPerBank,
        MappingScheme::ClusteredNoSpread,
    ];

    /// Every scheme × entry width × subarray count at the paper's 16
    /// levels on the die.
    fn configurations() -> Vec<(HashTableMapping, DramConfig)> {
        let mut out = Vec::new();
        for scheme in SCHEMES {
            for entry_bytes in [4, 8] {
                for sa in [1, 8, 32] {
                    out.push((
                        HashTableMapping::paper(scheme, sa).with_entry_bytes(entry_bytes),
                        DramConfig::paper(sa),
                    ));
                }
            }
        }
        out
    }

    /// A 16-level grid with a small table: real address generation
    /// without the paper table's allocation.
    fn small_deep_grid(hash: HashFunction, levels: u32) -> HashGrid {
        let config = HashGridConfig {
            levels,
            table_size_log2: 14,
            ..HashGridConfig::paper(hash)
        };
        HashGrid::new(config, 5)
    }

    /// Points with no locality (the random streaming order's shape).
    fn scattered_points(n: usize, seed: u64) -> Vec<Vec3> {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut unit = || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 40) as f32 / (1u64 << 24) as f32
        };
        (0..n).map(|_| Vec3::new(unit(), unit(), unit())).collect()
    }

    #[test]
    fn table_driven_address_equals_map_entry() {
        for (m, dram) in configurations() {
            let stream = RequestStream::new(&m, &dram, false);
            let per_row = entries_per_row(m.layout());
            let slots = LevelSlot::all(&m);
            // Every table row, at a column that varies row by row.
            for level in 0..slots.len() {
                for row in 0..stream.rows_per_level {
                    let entry = row * per_row + row * 7 % per_row;
                    let expected = m.map_entry(level as u32, entry, &dram);
                    assert_eq!(
                        stream.lookup(level, row),
                        expected,
                        "level {level} row {row}"
                    );
                }
            }
            // The arithmetic the table is filled with, past the table too.
            let entries = (0..TABLE_ENTRIES)
                .step_by(997)
                .chain([0, 1, per_row - 1, per_row, 6 * per_row + 3])
                .chain([TABLE_ENTRIES - 1, TABLE_ENTRIES, 2 * TABLE_ENTRIES + 77]);
            for entry in entries {
                for (level, &slot) in slots.iter().enumerate() {
                    let [subarray, row] = slot.address(m.scheme(), &dram, entry / per_row);
                    let bank = m.bank_of_level(level as u32);
                    assert_eq!(
                        PhysAddr {
                            bank,
                            subarray,
                            row
                        },
                        m.map_entry(level as u32, entry, &dram),
                        "{:?} level {level} entry {entry}",
                        m.scheme()
                    );
                }
            }
        }
    }

    /// Fig. 9's subarray sweep × scheme × entry width.
    fn fig9_geometries() -> Vec<(HashTableMapping, DramConfig)> {
        let mut geometries = Vec::new();
        for scheme in SCHEMES {
            for entry_bytes in [4, 8] {
                for sa in [1, 2, 4, 8, 16, 32, 64] {
                    geometries.push((
                        HashTableMapping::paper(scheme, sa).with_entry_bytes(entry_bytes),
                        DramConfig::paper(sa),
                    ));
                }
            }
        }
        geometries
    }

    /// The one Fig. 9 geometry that folds two table rows onto one DRAM
    /// row: the no-spread ablation at 8 B entries and 64 subarrays (4 096
    /// rows per level, 2 048 per subarray).
    fn folds(m: &HashTableMapping, dram: &DramConfig) -> bool {
        m.scheme() == MappingScheme::ClusteredNoSpread
            && m.layout().entry_bytes() == 8
            && dram.subarrays_per_bank == 64
    }

    #[test]
    fn paper_geometry_maps_table_rows_injectively() {
        // `map_entry` decides which layouts fold two table rows onto one
        // DRAM row; the stream accepts exactly the others.
        let geometries = fig9_geometries();
        assert_eq!(geometries.len(), 42);
        for (m, dram) in geometries {
            let per_row = entries_per_row(m.layout());
            let first_entry = |level, row_idx| m.map_entry(level, row_idx * per_row, &dram);
            let mut rows = Vec::new();
            for level in 0..m.assignment.len() as u32 {
                for row_idx in 0..TABLE_ENTRIES / per_row {
                    let a = first_entry(level, row_idx);
                    rows.push((a.bank, a.subarray, a.row));
                }
            }
            let table_rows = rows.len();
            rows.sort_unstable();
            rows.dedup();
            let folds = folds(&m, &dram);
            let what = format!(
                "{:?}, {} B entries, {} subarrays",
                m.scheme(),
                m.layout().entry_bytes(),
                dram.subarrays_per_bank
            );
            assert_eq!(rows.len() < table_rows, folds, "{what}");
            for write_back in [false, true] {
                let built = std::panic::catch_unwind(|| RequestStream::new(&m, &dram, write_back));
                match built {
                    Ok(_) => assert!(!folds, "{what}: a folding layout was accepted"),
                    Err(payload) => {
                        assert!(folds, "{what}: an injective layout was refused");
                        // The message names a pair that really folds.
                        let message = payload.downcast::<String>().expect("a formatted message");
                        let numbers: Vec<u32> = message
                            .split(|c: char| !c.is_ascii_digit())
                            .filter_map(|t| t.parse().ok())
                            .take(4)
                            .collect();
                        let [l0, r0, l1, r1] = numbers[..] else {
                            panic!("{what}: no pair in {message:?}");
                        };
                        assert_ne!((l0, r0), (l1, r1), "{message}");
                        assert_eq!(first_entry(l0, r0), first_entry(l1, r1), "{message}");
                    }
                }
            }
        }
    }

    /// Four cubes on each of 16 levels, each cube's corners `c` at
    /// `entries[(c + k) % len] + c` for its id `k`.
    fn hand_cubes(entries: &[u32]) -> Vec<CubeLookup> {
        (0..16u32)
            .flat_map(|level| {
                (0..4u64).map(move |k| CubeLookup {
                    level,
                    entries: std::array::from_fn(|c| {
                        entries[(c + k as usize) % entries.len()] + c as u32
                    }),
                    cube_id: k,
                })
            })
            .collect()
    }

    /// An independent request generator for the stream to be held to:
    /// `map_entry` per row, an ordered set for the drain.
    fn reference_requests(
        m: &HashTableMapping,
        dram: &DramConfig,
        batches: &[Vec<CubeLookup>],
        write_back: bool,
    ) -> Vec<Request> {
        let levels = m.assignment.len();
        let mut out = Vec::new();
        for batch in batches {
            let mut last_cube = vec![None; levels];
            let mut r0 = vec![[None; 2]; levels];
            let mut touched = Vec::new();
            let mut touched_keys = std::collections::BTreeSet::new();
            for cube in batch {
                let li = cube.level as usize;
                if li >= levels || last_cube[li] == Some(cube.cube_id) {
                    continue;
                }
                last_cube[li] = Some(cube.cube_id);
                let mut rows = Vec::new();
                for &e in &cube.entries {
                    let r = m.layout().row_of_entry(e);
                    if rows.contains(&r) {
                        continue;
                    }
                    rows.push(r);
                    let addr = m.map_entry(cube.level, e, dram);
                    let key = (addr.subarray, addr.row);
                    if r0[li].contains(&Some(key)) {
                        continue;
                    }
                    r0[li] = [Some(key), r0[li][0]];
                    out.push(Request::new(addr, AccessKind::Read));
                    let key = (addr.bank, addr.subarray, addr.row);
                    if write_back && touched_keys.insert(key) {
                        touched.push(addr);
                    }
                }
            }
            touched.sort_unstable_by_key(|a| (a.bank, a.row, a.subarray));
            out.extend(
                touched
                    .into_iter()
                    .map(|a| Request::new(a, AccessKind::Write)),
            );
        }
        out
    }

    #[test]
    fn stream_emits_the_reference_request_sequence() {
        for hash in [HashFunction::Morton, HashFunction::Original] {
            let grid = small_deep_grid(hash, 16);
            let mut batches = Vec::new();
            for points in [
                scattered_points(96, 1),
                scattered_points(0, 2),
                scattered_points(160, 3),
                ray_points(2, 48, 0.4),
            ] {
                let mut trace = BufferSink::new();
                grid.stream_batch(&points, &mut trace);
                batches.push(trace.cubes().to_vec());
            }
            // Hand-built cubes, twice: table rows that repeat within a
            // level, across levels and across batches, up to the last row
            // of the mapped table.
            let hand = hand_cubes(&[0, 1, 512, 812, TABLE_ENTRIES - 256, TABLE_ENTRIES - 8]);
            batches.extend([hand.clone(), hand]);
            for (m, dram) in configurations() {
                for write_back in [false, true] {
                    let mut sink = RequestSink::new(
                        RequestStream::new(&m, &dram, write_back),
                        Vec::<Request>::new(),
                    );
                    for batch in &batches {
                        for cube in batch {
                            sink.push_cube(cube);
                        }
                        sink.end_batch();
                    }
                    assert_eq!(
                        sink.consumer(),
                        &reference_requests(&m, &dram, &batches, write_back),
                        "{hash:?} {:?} write_back={write_back}",
                        m.scheme()
                    );
                }
            }
        }
    }

    /// Three batches of random cubes on random levels whose corners draw
    /// on eight table rows shared by every level and batch: rows repeat
    /// within a cube, across cubes and levels, and across batches, and
    /// cube ids repeat often enough to hit the register cache.
    fn repeating_row_batches(seed: u64, per_row: u32) -> Vec<Vec<CubeLookup>> {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut below = |n: u32| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (((s >> 32) * n as u64) >> 32) as u32
        };
        let last_row = TABLE_ENTRIES / per_row - 1;
        let start = below(last_row - 2);
        let pool = [
            0,
            1,
            last_row,
            start,
            start + 1,
            start + 2,
            below(last_row + 1),
            below(last_row + 1),
        ];
        (0..3)
            .map(|_| {
                (0..96)
                    .map(|_| {
                        let rows: Vec<u32> =
                            (0..1 + below(4)).map(|_| pool[below(8) as usize]).collect();
                        CubeLookup {
                            level: below(16),
                            entries: std::array::from_fn(|_| {
                                let row = rows[below(rows.len() as u32) as usize];
                                row * per_row + below(per_row)
                            }),
                            cube_id: below(3) as u64,
                        }
                    })
                    .collect()
            })
            .collect()
    }

    /// Holds the stream, whose `r0` holds table rows, to
    /// `reference_requests`, whose `r0` holds `map_entry`'s DRAM rows, on
    /// `streams` seeded cube streams through every Fig. 9 geometry, with
    /// and without write-back. The geometry that folds must be refused.
    fn check_table_rows_filter_like_dram_rows(streams: u64) {
        for (m, dram) in fig9_geometries() {
            let what = format!(
                "{:?}, {} B entries, {} subarrays",
                m.scheme(),
                m.layout().entry_bytes(),
                dram.subarrays_per_bank
            );
            if folds(&m, &dram) {
                let built = std::panic::catch_unwind(|| RequestStream::new(&m, &dram, false));
                assert!(built.is_err(), "{what}: a folding layout was accepted");
                continue;
            }
            for write_back in [false, true] {
                // `end_batch` resets the per-batch state, so one stream
                // serves every seed.
                let mut stream = RequestStream::new(&m, &dram, write_back);
                for seed in 0..streams {
                    let batches = repeating_row_batches(seed, entries_per_row(m.layout()));
                    let mut out = Vec::new();
                    for batch in &batches {
                        for cube in batch {
                            stream.push_cube(cube, |r| out.push(r));
                        }
                        stream.end_batch(|r| out.push(r));
                    }
                    assert_eq!(
                        out,
                        reference_requests(&m, &dram, &batches, write_back),
                        "{what}, write_back={write_back}, seed {seed}"
                    );
                }
            }
        }
    }

    #[test]
    fn table_rows_filter_like_dram_rows() {
        check_table_rows_filter_like_dram_rows(4);
    }

    #[test]
    #[ignore = "many streams: run in release"]
    fn table_rows_filter_like_dram_rows_many_streams() {
        check_table_rows_filter_like_dram_rows(1_000);
    }

    #[test]
    fn cubes_beyond_the_mapped_levels_are_counted() {
        // A 17-level grid on the 16-level paper mapping: the deepest
        // level's cubes cause no request, and the stream says so.
        let m = HashTableMapping::paper(MappingScheme::Clustered, 8);
        let dram = DramConfig::paper(8);
        let points = scattered_points(40, 9);
        for (levels, dropped) in [(16, 0), (17, 40)] {
            let grid = small_deep_grid(HashFunction::Morton, levels);
            let mut sink = RequestSink::new(RequestStream::new(&m, &dram, true), Vec::new());
            grid.stream_batch(&points, &mut sink);
            sink.end_batch();
            assert_eq!(sink.stream.dropped_cubes(), dropped, "{levels} levels");
            assert!(!sink.consumer().is_empty());
        }
        // Cubes with an entry at or past the mapped table emit nothing and
        // are counted, too. Each in-table cube of a real batch is preceded
        // by a copy, same level and id, with one corner on the first entry
        // past the table: had the copy reached the register cache, `r0` or
        // the bitmap, the real cube's requests would change.
        let mut trace = BufferSink::new();
        small_deep_grid(HashFunction::Original, 16)
            .stream_batch(&scattered_points(64, 4), &mut trace);
        let batch = trace.cubes();
        let poisoned: Vec<CubeLookup> = batch
            .iter()
            .flat_map(|cube| {
                let mut copy = *cube;
                copy.entries[cube.cube_id as usize % 8] = TABLE_ENTRIES;
                [copy, *cube]
            })
            .collect();
        let outside = hand_cubes(&[
            0,
            1,
            512,
            TABLE_ENTRIES - 1,
            TABLE_ENTRIES,
            2 * TABLE_ENTRIES,
        ]);
        for (m, dram) in configurations() {
            for write_back in [false, true] {
                let run = |cubes: &[CubeLookup]| {
                    let mut stream = RequestStream::new(&m, &dram, write_back);
                    let mut out = Vec::new();
                    for cube in cubes {
                        stream.push_cube(cube, |r| out.push(r));
                    }
                    stream.end_batch(|r| out.push(r));
                    (out, stream.dropped_cubes())
                };
                let what = format!("{:?} write_back={write_back}", m.scheme());
                let (clean, none) = run(batch);
                assert_eq!(none, 0, "{what}");
                assert_eq!(run(&poisoned), (clean, batch.len() as u64), "{what}");
                // A hand-built cube's eight corners cycle through all six
                // entries, so each has one at or past the table's end.
                assert_eq!(run(&outside), (Vec::new(), outside.len() as u64), "{what}");
            }
        }
    }
}
