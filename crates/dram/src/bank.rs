//! Per-subarray timing state machines and rank ACT bookkeeping.

use crate::config::DramConfig;

/// The DRAM commands the simulator issues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommandKind {
    /// Activate a row into a subarray's local row buffer.
    Act,
    /// Precharge (close) a subarray's open row.
    Pre,
    /// Column read burst.
    Read,
    /// Column write burst.
    Write,
}

/// One issued command, for legality checking and energy accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommandRecord {
    /// Issue cycle.
    pub cycle: u64,
    /// Command type.
    pub kind: CommandKind,
    /// Bank id.
    pub bank: u32,
    /// Subarray within the bank.
    pub subarray: u32,
    /// Row (for ACT) or 0.
    pub row: u32,
}

/// How a request was served by the row buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowOutcome {
    /// The row was already open in the target subarray.
    Hit,
    /// The subarray was idle; a plain ACT sufficed.
    Miss,
    /// A different row was open in the target subarray; PRE + ACT required
    /// (the paper's "bank conflict").
    Conflict,
}

/// Timing state of one subarray. A bank's subarrays share its column path,
/// whose register the caller keeps beside them (`DramSim` holds every
/// bank's subarrays in one bank-major array and one register per bank).
#[derive(Debug, Clone, Copy)]
pub struct SubarrayState {
    open_row: Option<u32>,
    /// Cycle of the last ACT (for tRAS).
    act_at: u64,
    /// Earliest cycle the subarray may accept its next ACT.
    ready_at: u64,
    /// Completion time of the last write burst into this subarray's row
    /// buffer (for tWR before its PRE).
    last_write_end: u64,
}

impl SubarrayState {
    /// An idle subarray: no open row, every timing window closed.
    pub const IDLE: Self = SubarrayState {
        open_row: None,
        act_at: 0,
        ready_at: 0,
        last_write_end: 0,
    };

    /// Classifies how serving `row` will interact with the row buffer,
    /// without mutating state.
    pub fn classify(&self, row: u32) -> RowOutcome {
        match self.open_row {
            Some(open) if open == row => RowOutcome::Hit,
            Some(_) => RowOutcome::Conflict,
            None => RowOutcome::Miss,
        }
    }

    /// Serves one request to `row` of this subarray. `col_ready` is its
    /// bank's column register: the earliest cycle the bank's column path
    /// accepts the next RD/WR. `rank_acts` is the die's tRRD/tFAW window,
    /// which an ACT the request issues waits for and is recorded in.
    ///
    /// `earliest` is the first cycle any command may issue (request arrival).
    #[inline(always)]
    pub fn serve(
        &mut self,
        col_ready: &mut u64,
        rank_acts: &mut RankActTracker,
        row: u32,
        is_write: bool,
        earliest: u64,
    ) -> ServedRequest {
        let timing = &DramConfig::TIMING;
        let outcome = self.classify(row);
        let mut pre_at = None;
        let mut act_at = None;
        let mut stalled = false;
        let col_at;
        match outcome {
            RowOutcome::Hit => {
                col_at = earliest.max(*col_ready).max(self.act_at + timing.rcd);
            }
            RowOutcome::Miss => {
                let t_act = earliest.max(self.ready_at).max(rank_acts.earliest());
                rank_acts.record(t_act);
                act_at = Some(t_act);
                self.act_at = t_act;
                self.ready_at = t_act + timing.ras; // earliest PRE
                self.open_row = Some(row);
                col_at = (t_act + timing.rcd).max(*col_ready);
            }
            RowOutcome::Conflict => {
                // Close the open row first: PRE must respect tRAS since the
                // victim's ACT and tWR after the last write burst. The
                // request *stalls* only if those windows are still open when
                // it arrives — with enough subarrays the victim row is long
                // quiescent and the turnaround hides completely.
                let t_pre = earliest
                    .max(self.act_at + timing.ras)
                    .max(self.last_write_end + timing.wr);
                stalled = t_pre > earliest;
                pre_at = Some(t_pre);
                let t_act = (t_pre + timing.rp).max(rank_acts.earliest());
                rank_acts.record(t_act);
                act_at = Some(t_act);
                self.act_at = t_act;
                self.ready_at = t_act + timing.ras;
                self.open_row = Some(row);
                col_at = (t_act + timing.rcd).max(*col_ready);
            }
        }
        *col_ready = col_at + timing.ccd;
        let data_done = if is_write {
            let done = col_at + timing.wa + DramConfig::BURST_CYCLES;
            self.last_write_end = done;
            done
        } else {
            col_at + timing.cl + DramConfig::BURST_CYCLES
        };
        ServedRequest {
            outcome,
            stalled,
            pre_at,
            act_at,
            col_at,
            data_done,
        }
    }
}

/// The timing outcome of serving one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServedRequest {
    /// Row-buffer outcome.
    pub outcome: RowOutcome,
    /// Whether a conflict actually serialized the request (it arrived while
    /// the victim row's tRAS/tWR windows were still open) — the quantity
    /// Fig. 9 counts. Always false for hits and misses.
    pub stalled: bool,
    /// PRE issue cycle, if a conflict forced one.
    pub pre_at: Option<u64>,
    /// ACT issue cycle, if the row had to be opened.
    pub act_at: Option<u64>,
    /// Column command issue cycle.
    pub col_at: u64,
    /// Cycle the data burst completes.
    pub data_done: u64,
}

/// Rank-level ACT bookkeeping (tRRD spacing and the four-activate window),
/// kept as the cycles the constraints end: the newest ACT's tRRD window,
/// and the tFAW windows of the last four ACTs oldest-first, 0 where no ACT
/// has been. No heap, and `Default` is idle.
///
/// In this form [`RankActTracker::earliest`] is one `max` without a
/// branch, and the tracker holds no index, so a serving loop keeps it in
/// registers.
#[derive(Debug, Clone, Copy, Default)]
pub struct RankActTracker {
    rrd_end: u64,
    faw_ends: [u64; 4],
}

impl RankActTracker {
    /// Creates an idle tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Earliest cycle a new ACT may issue.
    #[inline]
    pub fn earliest(&self) -> u64 {
        self.rrd_end.max(self.faw_ends[0])
    }

    /// Records an issued ACT, dropping the oldest.
    #[inline]
    pub fn record(&mut self, cycle: u64) {
        let timing = &DramConfig::TIMING;
        let [_, a, b, c] = self.faw_ends;
        self.faw_ends = [a, b, c, cycle + timing.faw];
        self.rrd_end = cycle + timing.rrd;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Timing;
    use proptest::prelude::*;

    /// One bank as `DramSim` lays it out: its subarray slots side by side
    /// and its column register.
    struct Bank {
        subarrays: Vec<SubarrayState>,
        col_ready: u64,
    }

    impl Bank {
        fn new(subarrays: u32) -> Self {
            Bank {
                subarrays: vec![SubarrayState::IDLE; subarrays as usize],
                col_ready: 0,
            }
        }

        fn serve(
            &mut self,
            subarray: u32,
            row: u32,
            is_write: bool,
            earliest: u64,
        ) -> ServedRequest {
            // An idle die for every request: no tRRD/tFAW constraint.
            self.subarrays[subarray as usize].serve(
                &mut self.col_ready,
                &mut RankActTracker::new(),
                row,
                is_write,
                earliest,
            )
        }
    }

    fn setup() -> (Bank, Timing) {
        (Bank::new(4), DramConfig::TIMING)
    }

    #[test]
    fn first_access_is_miss_then_hit() {
        let (mut bank, t) = setup();
        let r1 = bank.serve(0, 10, false, 0);
        assert_eq!(r1.outcome, RowOutcome::Miss);
        assert_eq!(r1.act_at, Some(0));
        assert_eq!(r1.col_at, t.rcd);
        assert_eq!(r1.data_done, t.rcd + t.cl + DramConfig::BURST_CYCLES);
        let r2 = bank.serve(0, 10, false, 0);
        assert_eq!(r2.outcome, RowOutcome::Hit);
        assert!(r2.act_at.is_none());
        // Hit issues as soon as the column path frees (tCCD after the first).
        assert_eq!(r2.col_at, r1.col_at + t.ccd);
    }

    #[test]
    fn conflict_pays_pre_plus_act() {
        let (mut bank, t) = setup();
        bank.serve(0, 10, false, 0);
        let r = bank.serve(0, 20, false, 0);
        assert_eq!(r.outcome, RowOutcome::Conflict);
        let pre = r.pre_at.expect("conflict must precharge");
        let act = r.act_at.expect("conflict must activate");
        assert!(pre >= t.ras, "PRE must respect tRAS");
        assert!(act >= pre + t.rp, "ACT must respect tRP");
        assert!(r.col_at >= act + t.rcd);
    }

    #[test]
    fn salp_different_subarray_avoids_conflict() {
        let (mut bank, _) = setup();
        bank.serve(0, 10, false, 0);
        // Same bank, different subarray, different row: plain miss, no PRE.
        let r = bank.serve(1, 20, false, 0);
        assert_eq!(r.outcome, RowOutcome::Miss);
        assert!(r.pre_at.is_none());
    }

    #[test]
    fn salp_conflict_faster_than_single_subarray() {
        // The quantitative SALP benefit: alternating rows hit PRE+ACT every
        // time with one subarray, but become independent misses with two.
        let mut one = Bank::new(1);
        let mut two = Bank::new(2);
        let mut done_one = 0;
        let mut done_two = 0;
        for i in 0..8u32 {
            let row = i % 2;
            done_one = one.serve(0, row, false, 0).data_done;
            done_two = two.serve(row % 2, row, false, 0).data_done;
        }
        assert!(
            done_two < done_one,
            "SALP should finish earlier: {done_two} vs {done_one}"
        );
    }

    #[test]
    fn write_then_conflict_waits_for_twr() {
        let (mut bank, t) = setup();
        let w = bank.serve(0, 10, true, 0);
        let r = bank.serve(0, 20, false, 0);
        assert!(
            r.pre_at.expect("conflict") >= w.data_done + t.wr,
            "PRE after write must respect tWR"
        );
    }

    #[test]
    fn rank_tracker_enforces_rrd_and_faw() {
        let t = DramConfig::TIMING;
        let mut tr = RankActTracker::new();
        assert_eq!(tr.earliest(), 0);
        tr.record(0);
        assert_eq!(tr.earliest(), t.rrd);
        tr.record(t.rrd);
        tr.record(2 * t.rrd);
        tr.record(3 * t.rrd);
        // Four ACTs recorded: the fifth must wait for the FAW window.
        assert!(tr.earliest() >= t.faw);
    }

    /// The tracker as a `Vec` window with `remove(0)`: the oracle the
    /// fixed window is held to.
    #[derive(Default)]
    struct VecTracker {
        last_act: Option<u64>,
        recent_acts: Vec<u64>,
    }

    impl VecTracker {
        fn earliest(&self, timing: &Timing) -> u64 {
            let mut t = self.last_act.map_or(0, |a| a + timing.rrd);
            if self.recent_acts.len() == 4 {
                t = t.max(self.recent_acts[0] + timing.faw);
            }
            t
        }

        fn record(&mut self, cycle: u64) {
            self.last_act = Some(cycle);
            self.recent_acts.push(cycle);
            if self.recent_acts.len() > 4 {
                self.recent_acts.remove(0);
            }
        }
    }

    #[test]
    fn rank_tracker_stays_40_bytes() {
        // `DramSim::state_bytes` counts it by size.
        assert_eq!(std::mem::size_of::<RankActTracker>(), 40);
    }

    proptest! {
        #[test]
        fn rank_tracker_ring_matches_vec_window(
            cycles in proptest::collection::vec(0u64..10_000, 0..24)
        ) {
            let t = DramConfig::TIMING;
            let (mut ring, mut window) = (RankActTracker::new(), VecTracker::default());
            prop_assert_eq!(ring.earliest(), window.earliest(&t));
            for c in cycles {
                ring.record(c);
                window.record(c);
                prop_assert_eq!(ring.earliest(), window.earliest(&t));
            }
        }
    }

    #[test]
    fn arrival_time_respected() {
        let (mut bank, t) = setup();
        let r = bank.serve(0, 5, false, 100);
        assert_eq!(r.act_at, Some(100));
        assert_eq!(r.col_at, 100 + t.rcd);
    }
}
