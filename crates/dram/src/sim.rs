//! The request-stream simulator.

use crate::bank::{CommandKind, CommandRecord, RankActTracker, SubarrayState};
use crate::config::DramConfig;
use crate::energy::EnergyModel;
use crate::request::{AccessKind, Request};
use crate::stats::SimStats;

/// Replays request streams against the configured DRAM, bank by bank, and
/// aggregates timing/energy statistics.
///
/// Requests to the same bank are served in order (FCFS per bank — the
/// accelerator's deterministic streaming makes reordering unnecessary);
/// different banks proceed in parallel subject to the die's ACT
/// constraints (tRRD, tFAW). The near-bank logic consumes each burst at
/// its bank, so a request's data never crosses a shared bus.
///
/// # Incremental frontend
///
/// Besides the batch-replay [`DramSim::run`], the simulator exposes an
/// online frontend for co-simulation. [`DramSim::push_requests`] is the
/// serving loop: it serves a slice of requests in order and folds them
/// into the running statistics, with the simulator's scalar state (the
/// rank's tRRD/tFAW window, the banks' column registers, the outcome
/// counters and the makespan) held in locals for the whole slice and
/// written back once. [`DramSim::push_request`] is its one-request case,
/// the same step run on that state in place, for a caller that does
/// something between requests. [`DramSim::tick`] advances the arrival
/// clock streamed requests inherit, [`DramSim::stats`] reads the
/// accumulated statistics mid-stream, and [`DramSim::drain_stats`] reads
/// them and returns the simulator to idle *in place* — bank state is
/// cleared, never reallocated, so per-iteration co-simulation costs no
/// allocation. Both frontends run one step function, so how a stream is
/// cut into slices changes no statistic and no logged command; `run` is
/// literally `push_requests` over the slice followed by `drain_stats`,
/// which is what makes the streamed and batch paths bit-identical.
#[derive(Debug, Clone)]
pub struct DramSim {
    config: DramConfig,
    /// Every bank's subarrays, bank-major: bank `b`'s subarray `sa` is slot
    /// `b * subarrays_per_bank + sa`.
    subarrays: Vec<SubarrayState>,
    /// Per bank, the earliest cycle its column path accepts the next RD/WR
    /// (shared by the bank's subarrays). Indexed by bank, so kept apart
    /// from the registers below.
    col_ready: [u64; DramConfig::BANKS as usize],
    regs: Registers,
    log: Vec<CommandRecord>,
    keep_log: bool,
    /// Arrival clock for streamed requests (advanced by [`DramSim::tick`]).
    now: u64,
}

/// The simulator's scalar state, which every request reads and writes.
/// Small, `Copy` and never indexed, so a serving loop over a local copy
/// keeps it in CPU registers instead of storing and reloading it through
/// the simulator at every request.
#[derive(Debug, Clone, Copy, Default)]
struct Registers {
    /// The die is one rank: one tRRD/tFAW window over all its banks.
    rank_acts: RankActTracker,
    /// Request outcomes since the last drain.
    counts: OutcomeCounts,
    /// Latest data-burst completion cycle since the last drain.
    makespan: u64,
}

impl Registers {
    /// Serves `req`, arriving at `now`, against these registers, the
    /// banks' column registers and the die's subarray slots, appending its
    /// commands to `log` if one is kept. The one step of both frontends.
    ///
    /// # Panics
    ///
    /// Panics if the address lies outside the configured organization.
    #[inline(always)]
    fn step(
        &mut self,
        col_ready: &mut [u64; DramConfig::BANKS as usize],
        subarrays: &mut [SubarrayState],
        subarrays_per_bank: u32,
        now: u64,
        log: Option<&mut Vec<CommandRecord>>,
        req: &Request,
    ) {
        let a = req.addr;
        assert!(a.bank < DramConfig::BANKS, "address bank out of range");
        assert!(
            a.subarray < subarrays_per_bank,
            "address subarray out of range"
        );
        let is_write = req.kind == AccessKind::Write;
        let slot = a.bank as usize * subarrays_per_bank as usize + a.subarray as usize;
        let served = subarrays[slot].serve(
            &mut col_ready[a.bank as usize],
            &mut self.rank_acts,
            a.row,
            is_write,
            now,
        );
        let c = &mut self.counts;
        c.requests += 1;
        c.acts += u64::from(served.act_at.is_some());
        c.pres += u64::from(served.pre_at.is_some());
        c.stalled_conflicts += u64::from(served.stalled);
        c.writes += u64::from(is_write);
        if let Some(log) = log {
            let record = |cycle, kind, row| CommandRecord {
                cycle,
                kind,
                bank: a.bank,
                subarray: a.subarray,
                row,
            };
            let col = if is_write {
                CommandKind::Write
            } else {
                CommandKind::Read
            };
            log.extend(served.pre_at.map(|t| record(t, CommandKind::Pre, 0)));
            log.extend(served.act_at.map(|t| record(t, CommandKind::Act, a.row)));
            log.push(record(served.col_at, col, a.row));
        }
        self.makespan = self.makespan.max(served.data_done);
    }

    /// Serves `requests` in order, each arriving at `now`:
    /// [`Registers::step`] over the slice.
    #[inline(always)]
    fn serve_slice(
        &mut self,
        col_ready: &mut [u64; DramConfig::BANKS as usize],
        subarrays: &mut [SubarrayState],
        subarrays_per_bank: u32,
        now: u64,
        mut log: Option<&mut Vec<CommandRecord>>,
        requests: &[Request],
    ) {
        for req in requests {
            self.step(
                col_ready,
                subarrays,
                subarrays_per_bank,
                now,
                log.as_deref_mut(),
                req,
            );
        }
    }
}

impl DramSim {
    /// Creates an idle simulator of `config`'s die.
    pub fn new(config: DramConfig) -> Self {
        DramSim {
            subarrays: vec![
                SubarrayState::IDLE;
                DramConfig::BANKS as usize * config.subarrays_per_bank as usize
            ],
            col_ready: [0; DramConfig::BANKS as usize],
            regs: Registers::default(),
            config,
            log: Vec::new(),
            keep_log: false,
            now: 0,
        }
    }

    /// Enables the per-command log (used by protocol-legality tests).
    pub fn with_command_log(mut self) -> Self {
        self.keep_log = true;
        self
    }

    /// The issued-command log (empty unless [`DramSim::with_command_log`]).
    /// Unlike the timing state, the log survives [`DramSim::drain_stats`]
    /// (it is a diagnostic artifact).
    pub fn command_log(&self) -> &[CommandRecord] {
        &self.log
    }

    /// Advances the arrival clock: requests subsequently pushed via
    /// [`DramSim::push_requests`] or [`DramSim::push_request`] arrive at
    /// the clock. Models a request source with a known issue cadence (e.g.
    /// the 32-point-parallel front end's tFAW-limited ~3-cycle spacing).
    pub fn tick(&mut self, cycles: u64) {
        self.now += cycles;
    }

    /// Approximate bytes of the simulator's mutable state — the
    /// constant-memory footprint of the online co-simulation path: the
    /// subarray slots, the column registers and the command log.
    pub fn state_bytes(&self) -> usize {
        self.subarrays.capacity() * std::mem::size_of::<SubarrayState>()
            + std::mem::size_of_val(&self.col_ready)
            + self.log.capacity() * std::mem::size_of::<CommandRecord>()
    }

    /// Serves `requests` online, in order, folding them into the running
    /// statistics; every request arrives at the streaming clock (see
    /// [`DramSim::tick`]). The simulator's registers and column registers
    /// stay in locals for the whole slice and are written back once, so a
    /// long slice serves faster than the same requests pushed one at a
    /// time, with bit-identical results.
    ///
    /// # Panics
    ///
    /// Panics if any address lies outside the configured organization.
    pub fn push_requests(&mut self, requests: &[Request]) {
        let (mut regs, mut col_ready) = (self.regs, self.col_ready);
        let (subarrays, per_bank, now) = (
            &mut self.subarrays[..],
            self.config.subarrays_per_bank,
            self.now,
        );
        // The loop compiled twice: with the command log, and without it,
        // where the step's log branch folds away and frees the registers
        // its operands would hold.
        if self.keep_log {
            regs.serve_slice(
                &mut col_ready,
                subarrays,
                per_bank,
                now,
                Some(&mut self.log),
                requests,
            );
        } else {
            regs.serve_slice(&mut col_ready, subarrays, per_bank, now, None, requests);
        }
        (self.regs, self.col_ready) = (regs, col_ready);
    }

    /// Serves one request online, folding it into the running statistics:
    /// [`DramSim::push_requests`] of one request, for a caller that
    /// advances the clock or reads the statistics between requests.
    ///
    /// # Panics
    ///
    /// Panics if the address lies outside the configured organization.
    pub fn push_request(&mut self, req: &Request) {
        self.regs.step(
            &mut self.col_ready,
            &mut self.subarrays,
            self.config.subarrays_per_bank,
            self.now,
            self.keep_log.then_some(&mut self.log),
            req,
        );
    }

    /// The statistics accumulated since the last drain. Reading them
    /// changes nothing: the stream continues as if they were never read.
    pub fn stats(&self) -> SimStats {
        let c = &self.regs.counts;
        let mut stats = SimStats {
            requests: c.requests,
            row_hits: c.requests - c.acts,
            // A conflict that did not stall behaves like a miss whose
            // precharge was hidden in idle time; Fig. 9 counts stalls.
            row_misses: c.acts - c.stalled_conflicts,
            bank_conflicts: c.stalled_conflicts,
            total_cycles: self.regs.makespan,
            acts: c.acts,
            pres: c.pres,
            reads: c.requests - c.writes,
            writes: c.writes,
            energy_pj: 0.0,
        };
        stats.energy_pj = EnergyModel::total_pj(&stats);
        stats
    }

    /// Returns the statistics accumulated since the last drain, then
    /// resets the timing state in place (no reallocation; the command log
    /// is preserved). The simulator is immediately ready for the next
    /// stream — e.g. the next training iteration.
    pub fn drain_stats(&mut self) -> SimStats {
        let stats = self.stats();
        self.subarrays.fill(SubarrayState::IDLE);
        self.col_ready.fill(0);
        self.regs = Registers::default();
        self.now = 0;
        stats
    }

    /// Replays `requests` and returns aggregate statistics:
    /// [`DramSim::push_requests`] over the slice followed by
    /// [`DramSim::drain_stats`]; the simulator is left reset, ready for
    /// the next stream.
    ///
    /// # Panics
    ///
    /// Panics if any address lies outside the configured organization.
    pub fn run(&mut self, requests: &[Request]) -> SimStats {
        self.push_requests(requests);
        self.drain_stats()
    }
}

/// Per-drain counts of the requests and their outcomes: the ACTs and PREs
/// they issued, the conflicts that stalled, and the writes. A request
/// without an ACT hit its row, and one with an ACT but no PRE found its
/// subarray idle. [`DramSim::stats`] derives the rest of [`SimStats`].
/// Each count is a flag added per request, so serving one takes no branch
/// on its outcome.
#[derive(Debug, Clone, Copy, Default)]
struct OutcomeCounts {
    requests: u64,
    acts: u64,
    pres: u64,
    stalled_conflicts: u64,
    writes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn req(cfg: &DramConfig, bank: u32, sa: u32, row: u32) -> Request {
        Request::new(cfg.address(bank, sa, row), AccessKind::Read)
    }

    #[test]
    fn sequential_same_row_hits() {
        let cfg = DramConfig::paper(8);
        let mut sim = DramSim::new(cfg);
        let reqs: Vec<Request> = (0..10).map(|_| req(&cfg, 0, 0, 7)).collect();
        let stats = sim.run(&reqs);
        assert_eq!(stats.row_misses, 1);
        assert_eq!(stats.row_hits, 9);
        assert_eq!(stats.bank_conflicts, 0);
    }

    #[test]
    fn alternating_rows_conflict_without_salp() {
        let cfg = DramConfig::paper(1);
        let mut sim = DramSim::new(cfg);
        let reqs: Vec<Request> = (0..10).map(|i| req(&cfg, 0, 0, i % 2)).collect();
        let stats = sim.run(&reqs);
        assert_eq!(stats.row_misses, 1);
        assert_eq!(stats.bank_conflicts, 9);
    }

    #[test]
    fn salp_eliminates_alternating_conflicts() {
        let cfg = DramConfig::paper(2);
        let mut sim = DramSim::new(cfg);
        // Same alternation, but the mapping spreads rows over 2 subarrays.
        let reqs: Vec<Request> = (0..10).map(|i| req(&cfg, 0, i % 2, i % 2)).collect();
        let stats = sim.run(&reqs);
        assert_eq!(stats.bank_conflicts, 0);
        assert_eq!(stats.row_misses, 2);
        assert_eq!(stats.row_hits, 8);
    }

    #[test]
    fn more_banks_reduce_makespan() {
        let cfg = DramConfig::paper(8);
        let mut sim = DramSim::new(cfg);
        // 64 requests all to one bank...
        let serial: Vec<Request> = (0..64).map(|i| req(&cfg, 0, 0, i)).collect();
        let t_serial = sim.run(&serial).total_cycles;
        // ...vs spread over 16 banks.
        let parallel: Vec<Request> = (0..64).map(|i| req(&cfg, i % 16, 0, i)).collect();
        let t_parallel = sim.run(&parallel).total_cycles;
        assert!(
            t_parallel < t_serial / 2,
            "bank parallelism should help: {t_parallel} vs {t_serial}"
        );
    }

    #[test]
    fn energy_increases_with_conflicts() {
        let cfg = DramConfig::paper(1);
        let mut sim = DramSim::new(cfg);
        let hits: Vec<Request> = (0..32).map(|_| req(&cfg, 0, 0, 1)).collect();
        let e_hits = sim.run(&hits).energy_pj;
        let conflicts: Vec<Request> = (0..32).map(|i| req(&cfg, 0, 0, i % 2)).collect();
        let e_conf = sim.run(&conflicts).energy_pj;
        assert!(
            e_conf > e_hits,
            "conflicts burn ACT/PRE energy: {e_conf} vs {e_hits}"
        );
    }

    #[test]
    fn incremental_push_drain_matches_run_bitwise() {
        let cfg = DramConfig::paper(4);
        let mut rng = SmallRng::seed_from_u64(17);
        let reqs: Vec<Request> = (0..300)
            .map(|_| {
                let kind = if rng.gen_bool(0.25) {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                Request::new(
                    cfg.address(
                        rng.gen_range(0..DramConfig::BANKS),
                        rng.gen_range(0..cfg.subarrays_per_bank),
                        rng.gen_range(0..32),
                    ),
                    kind,
                )
            })
            .collect();
        let batch = DramSim::new(cfg).run(&reqs);
        let mut streamed_sim = DramSim::new(cfg);
        for r in &reqs {
            streamed_sim.push_request(r);
        }
        let streamed = streamed_sim.drain_stats();
        assert_eq!(batch, streamed);
    }

    #[test]
    fn peeking_at_the_statistics_leaves_the_stream_unchanged() {
        let cfg = DramConfig::paper(4);
        let mut rng = SmallRng::seed_from_u64(23);
        let reqs: Vec<Request> = (0..400)
            .map(|_| {
                let kind = if rng.gen_bool(0.25) {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                Request::new(
                    cfg.address(
                        rng.gen_range(0..DramConfig::BANKS),
                        rng.gen_range(0..cfg.subarrays_per_bank),
                        rng.gen_range(0..32),
                    ),
                    kind,
                )
            })
            .collect();
        let (prefix, suffix) = reqs.split_at(250);
        let serve = |sim: &mut DramSim, peek: bool| {
            for r in prefix {
                sim.push_request(r);
            }
            if peek {
                assert_eq!(sim.stats(), DramSim::new(cfg).run(prefix));
            }
            sim.tick(5);
            for r in suffix {
                sim.push_request(r);
            }
            sim.drain_stats()
        };
        let peeked = serve(&mut DramSim::new(cfg), true);
        assert_eq!(peeked, serve(&mut DramSim::new(cfg), false));
    }

    /// Every `SimStats` field (energy as bits), then the command log's
    /// length and an FNV-style checksum over its records.
    fn fingerprint(stats: &SimStats, log: &[CommandRecord]) -> [u64; 12] {
        let checksum = log.iter().fold(0xCBF2_9CE4_8422_2325u64, |h, c| {
            [
                c.cycle,
                c.kind as u64,
                c.bank.into(),
                c.subarray.into(),
                c.row.into(),
            ]
            .iter()
            .fold(h, |h, &x| (h ^ x).wrapping_mul(0x0100_0000_01B3))
        });
        [
            stats.requests,
            stats.row_hits,
            stats.row_misses,
            stats.bank_conflicts,
            stats.total_cycles,
            stats.acts,
            stats.pres,
            stats.reads,
            stats.writes,
            stats.energy_pj.to_bits(),
            log.len() as u64,
            checksum,
        ]
    }

    #[test]
    fn seeded_streams_match_the_recorded_golden() {
        // Recorded on the die before its fixed parameters became constants
        // (then the one-channel, tCCD-2, 2-cycle-burst configuration of the
        // eight-channel model): a mixed read/write stream on eight banks and
        // a tick every fourth request. Per subarray count, the stream's
        // fingerprint, then the same statistics with the log of the second
        // half only (first recorded from a copy of the simulator's state
        // that served the second half beside it).
        #[rustfmt::skip]
        let golden: [(DramConfig, [[u64; 12]; 2]); 3] = [
            (DramConfig::paper(1), [
                [600, 70, 9, 521, 3563, 530, 522, 413, 187, 4695315267973021696, 1652, 17663821502928621407],
                [600, 70, 9, 521, 3563, 530, 522, 413, 187, 4695315267973021696, 840, 9676021015093545045],
            ]),
            (DramConfig::paper(32), [
                [600, 47, 285, 268, 1409, 553, 321, 421, 179, 4694518036143538176, 1474, 18105110340932949894],
                [600, 47, 285, 268, 1409, 553, 321, 421, 179, 4694518036143538176, 772, 2408410288108780755],
            ]),
            (DramConfig::paper(4), [
                [600, 75, 35, 490, 2021, 525, 493, 433, 167, 4694922793861513216, 1618, 3714006120641109960],
                [600, 75, 35, 490, 2021, 525, 493, 433, 167, 4694922793861513216, 824, 13374526740317698863],
            ]),
        ];
        let fingerprints = golden.map(|(cfg, _)| {
            let mut rng = SmallRng::seed_from_u64(cfg.subarrays_per_bank as u64);
            let reqs: Vec<Request> = (0..600)
                .map(|_| {
                    let kind = if rng.gen_bool(0.3) {
                        AccessKind::Write
                    } else {
                        AccessKind::Read
                    };
                    let sa = rng.gen_range(0..cfg.subarrays_per_bank);
                    let bank = rng.gen_range(0..8);
                    let row = rng.gen_range(0..8);
                    Request::new(cfg.address(bank, sa, row), kind)
                })
                .collect();
            let serve = |sim: &mut DramSim, reqs: &[Request]| {
                for (i, r) in reqs.iter().enumerate() {
                    sim.push_request(r);
                    if i % 4 == 3 {
                        sim.tick(3);
                    }
                }
            };
            let (prefix, suffix) = reqs.split_at(reqs.len() / 2);
            let mut sim = DramSim::new(cfg).with_command_log();
            serve(&mut sim, prefix);
            let half = sim.command_log().len();
            serve(&mut sim, suffix);
            let stats = sim.drain_stats();
            let log = sim.command_log();
            [fingerprint(&stats, log), fingerprint(&stats, &log[half..])]
        });
        assert_eq!(fingerprints, golden.map(|(_, expected)| expected));
    }

    #[test]
    fn command_log_agrees_with_the_derived_statistics() {
        // `stats` derives ACT / PRE / RD counts and the energy from four
        // outcome counters; the log records every command as issued.
        // Random mixed streams with ticks, read mid-stream and drained
        // twice.
        let count = |log: &[CommandRecord], kind| log.iter().filter(|c| c.kind == kind).count();
        let check = |stats: &SimStats, log: &[CommandRecord], what: &str| {
            let counted = SimStats {
                acts: count(log, CommandKind::Act) as u64,
                pres: count(log, CommandKind::Pre) as u64,
                reads: count(log, CommandKind::Read) as u64,
                writes: count(log, CommandKind::Write) as u64,
                total_cycles: stats.total_cycles,
                ..SimStats::default()
            };
            let fields = |s: &SimStats| (s.acts, s.pres, s.reads, s.writes);
            assert_eq!(fields(stats), fields(&counted), "{what}");
            let energy = EnergyModel::total_pj(&counted);
            assert_eq!(energy.to_bits(), stats.energy_pj.to_bits(), "{what}");
        };
        for seed in 0..32u64 {
            let cfg = DramConfig::paper(1 << (seed % 5));
            let mut rng = SmallRng::seed_from_u64(seed);
            // Each request with the ticks that follow it.
            let stream: Vec<(Request, u64)> = (0..240)
                .map(|_| {
                    let kind = if rng.gen_bool(0.3) {
                        AccessKind::Write
                    } else {
                        AccessKind::Read
                    };
                    let addr = cfg.address(
                        rng.gen_range(0..DramConfig::BANKS),
                        rng.gen_range(0..cfg.subarrays_per_bank),
                        rng.gen_range(0..12),
                    );
                    let tick = if rng.gen_bool(0.25) {
                        rng.gen_range(1..12)
                    } else {
                        0
                    };
                    (Request::new(addr, kind), tick)
                })
                .collect();
            let serve = |sim: &mut DramSim, part: &[(Request, u64)]| {
                for (r, tick) in part {
                    sim.push_request(r);
                    sim.tick(*tick);
                }
            };
            let (first, rest) = stream.split_at(80);
            let (prefix, suffix) = rest.split_at(rng.gen_range(0..rest.len()));
            let mut source = DramSim::new(cfg).with_command_log();
            serve(&mut source, first);
            check(&source.drain_stats(), source.command_log(), "first drain");
            let drained = source.command_log().len();
            serve(&mut source, prefix);
            check(&source.stats(), &source.command_log()[drained..], "peek");
            serve(&mut source, suffix);
            check(
                &source.drain_stats(),
                &source.command_log()[drained..],
                "second drain",
            );
        }
    }

    #[test]
    fn drain_leaves_sim_reusable_without_reallocation() {
        let cfg = DramConfig::paper(4);
        let mut sim = DramSim::new(cfg);
        let reqs: Vec<Request> = (0..32).map(|i| req(&cfg, i % 8, 0, i % 4)).collect();
        let first = sim.run(&reqs);
        // After the implicit drain the next identical stream must see a
        // cold memory system again: bit-identical stats, iteration over
        // iteration.
        let second = sim.run(&reqs);
        assert_eq!(first, second);
        assert!(sim.state_bytes() > 0);
    }

    /// Protocol legality on random workloads, checked from the command log.
    fn check_protocol(cfg: DramConfig, reqs: &[Request]) {
        let mut sim = DramSim::new(cfg).with_command_log();
        let _ = sim.run(reqs);
        let log = sim.command_log();
        let t = DramConfig::TIMING;
        // (1) ACT-to-ACT spacing on the die respects tRRD; any 5
        // consecutive ACTs span more than tFAW.
        let mut acts: Vec<u64> = log
            .iter()
            .filter(|c| c.kind == CommandKind::Act)
            .map(|c| c.cycle)
            .collect();
        acts.sort_unstable();
        for w in acts.windows(2) {
            assert!(w[1] - w[0] >= t.rrd, "tRRD violated: {} -> {}", w[0], w[1]);
        }
        for w in acts.windows(5) {
            assert!(w[4] - w[0] >= t.faw, "tFAW violated: {:?}", w);
        }
        // (2) Per subarray: ACT→PRE ≥ tRAS and PRE→ACT ≥ tRP.
        // inerf-lint: allow(hash-order) -- point lookups keyed by (bank, subarray); never iterated
        use std::collections::HashMap;
        // inerf-lint: allow(hash-order) -- point lookups keyed by (bank, subarray); never iterated
        let mut last: HashMap<(u32, u32), (CommandKind, u64)> = HashMap::new();
        for c in log {
            if c.kind == CommandKind::Read || c.kind == CommandKind::Write {
                continue;
            }
            if let Some((pk, pc)) = last.get(&(c.bank, c.subarray)) {
                match (pk, c.kind) {
                    (CommandKind::Act, CommandKind::Pre) => {
                        assert!(c.cycle - pc >= t.ras, "tRAS violated");
                    }
                    (CommandKind::Pre, CommandKind::Act) => {
                        assert!(c.cycle - pc >= t.rp, "tRP violated");
                    }
                    _ => {}
                }
            }
            last.insert((c.bank, c.subarray), (c.kind, c.cycle));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn random_workloads_respect_protocol(seed in 0u64..1000, subarrays_log2 in 0u32..4) {
            let cfg = DramConfig::paper(1 << subarrays_log2);
            let mut rng = SmallRng::seed_from_u64(seed);
            let reqs: Vec<Request> = (0..200)
                .map(|_| {
                    let kind = if rng.gen_bool(0.3) { AccessKind::Write } else { AccessKind::Read };
                    Request::new(
                        cfg.address(
                            rng.gen_range(0..DramConfig::BANKS),
                            rng.gen_range(0..cfg.subarrays_per_bank),
                            rng.gen_range(0..64),
                        ),
                        kind,
                    )
                })
                .collect();
            check_protocol(cfg, &reqs);
        }

        #[test]
        fn slices_serve_like_one_request_at_a_time(
            seed in 0u64..1000,
            subarrays_log2 in 0u32..7,
            logged in 0u32..2,
        ) {
            // Random slices through `push_requests` against the same
            // stream one `push_request` at a time, with ticks between
            // slices and a drain halfway: the statistics after every slice,
            // both drains and the command log must agree.
            let cfg = DramConfig::paper(1 << subarrays_log2);
            let mut rng = SmallRng::seed_from_u64(seed);
            let reqs: Vec<Request> = (0..400)
                .map(|_| {
                    let kind = if rng.gen_bool(0.3) { AccessKind::Write } else { AccessKind::Read };
                    Request::new(
                        cfg.address(
                            rng.gen_range(0..DramConfig::BANKS),
                            rng.gen_range(0..cfg.subarrays_per_bank),
                            rng.gen_range(0..16),
                        ),
                        kind,
                    )
                })
                .collect();
            let new = || {
                let sim = DramSim::new(cfg);
                if logged == 1 { sim.with_command_log() } else { sim }
            };
            let (mut sliced, mut single) = (new(), new());
            for half in reqs.chunks(reqs.len() / 2) {
                let mut rest = half;
                while !rest.is_empty() {
                    let (slice, tail) = rest.split_at(rng.gen_range(0..rest.len().min(48) + 1));
                    sliced.push_requests(slice);
                    for r in slice {
                        single.push_request(r);
                    }
                    prop_assert_eq!(sliced.stats(), single.stats());
                    let tick = rng.gen_range(0..4);
                    sliced.tick(tick);
                    single.tick(tick);
                    rest = tail;
                }
                prop_assert_eq!(sliced.drain_stats(), single.drain_stats());
            }
            prop_assert_eq!(sliced.command_log(), single.command_log());
            prop_assert_eq!(sliced.command_log().is_empty(), logged == 0);
        }

        #[test]
        fn stats_accounting_consistent(seed in 0u64..200) {
            let cfg = DramConfig::paper(4);
            let mut rng = SmallRng::seed_from_u64(seed);
            let n = 100usize;
            let reqs: Vec<Request> = (0..n)
                .map(|_| req(&cfg, rng.gen_range(0..16), rng.gen_range(0..4), rng.gen_range(0..16)))
                .collect();
            let stats = DramSim::new(cfg).run(&reqs);
            prop_assert_eq!(stats.requests, n as u64);
            prop_assert_eq!(stats.row_hits + stats.row_misses + stats.bank_conflicts, n as u64);
            prop_assert_eq!(stats.acts, stats.row_misses + stats.bank_conflicts);
            prop_assert!(stats.pres >= stats.bank_conflicts);
            prop_assert_eq!(stats.reads + stats.writes, n as u64);
            prop_assert!(stats.total_cycles > 0);
        }
    }
}
