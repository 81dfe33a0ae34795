//! End-to-end per-iteration and per-scene timing/energy estimation.
//!
//! Combines the DRAM timing simulator (HT/HT_b request replay), the per-bank
//! compute model (PE arrays) and the inter-bank traffic model into the
//! quantities Fig. 11 reports: training time and energy per scene.
//!
//! The heterogeneous design overlaps stages across bank groups (table banks
//! run HT/HT_b while all banks run the data-parallel MLPs on other point
//! blocks, with transfers on the shared I/O), so the steady-state iteration
//! time is the *maximum* of the per-resource occupancies; the serial sum is
//! also reported for the no-pipelining ablation.

use crate::config::AccelConfig;
use crate::mapping::{HashTableMapping, RequestStream};
use crate::microarch::bank_compute_cycles_at;
use crate::parallel::{bus_bytes_at, ParallelismPlan};
use inerf_dram::{DramConfig, DramSim, SimStats};
use inerf_encoding::trace::CubeLookup;
use inerf_encoding::{Precision, TraceSink};
use inerf_trainer::workload::{mlp_combined_sizes_at, Step};
use inerf_trainer::ModelConfig;

/// Timing of one pipeline step for a full batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepTime {
    /// Which step.
    pub step: Step,
    /// DRAM access seconds (near-bank timing simulation, scaled to batch).
    pub dram_seconds: f64,
    /// PE-array compute seconds.
    pub compute_seconds: f64,
}

impl StepTime {
    /// The step's occupancy: compute and local DRAM access overlap.
    pub fn seconds(&self) -> f64 {
        self.dram_seconds.max(self.compute_seconds)
    }
}

/// A full iteration estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct IterationEstimate {
    /// Per-step timings.
    pub steps: Vec<StepTime>,
    /// Inter-bank transfer seconds on the shared I/O.
    pub bus_seconds: f64,
    /// Steady-state pipelined iteration time.
    pub pipelined_seconds: f64,
    /// Serial (unpipelined) iteration time — the scheduling ablation.
    pub serial_seconds: f64,
    /// DRAM energy per iteration in picojoules.
    pub dram_energy_pj: f64,
    /// Bank-conflict count observed in the HT replay (per batch, scaled).
    pub ht_bank_conflicts: f64,
}

impl IterationEstimate {
    /// Time of a named step.
    pub fn step_seconds(&self, step: Step) -> f64 {
        self.steps
            .iter()
            .find(|s| s.step == step)
            .map_or(0.0, |s| s.seconds())
    }
}

/// The Fig. 11 scene-level results.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SceneEstimate {
    /// Per-scene training time in seconds.
    pub training_seconds: f64,
    /// Per-scene training energy in joules.
    pub training_joules: f64,
}

/// The assembled accelerator model.
#[derive(Debug, Clone)]
pub struct PipelineModel {
    model: ModelConfig,
    mapping: HashTableMapping,
    plan: ParallelismPlan,
    /// Storage precision of hash-table entries and activations — sets the
    /// entry width of the DRAM row model and the byte volumes of the MLP
    /// streaming model. The paper's datapath is fp16.
    precision: Precision,
}

impl PipelineModel {
    /// The paper's design point: clustered mapping, 32 subarrays (Tab. III
    /// sweeps 1–64; Fig. 9 shows conflicts still dropping up to 32–64),
    /// heterogeneous parallelism, fp16 storage (`F × 2` bytes per entry —
    /// 4 B at the paper's `F = 2`).
    pub fn paper(model: ModelConfig) -> Self {
        let precision = Precision::Fp16;
        PipelineModel {
            mapping: HashTableMapping::paper(crate::mapping::MappingScheme::Clustered, 32)
                .with_entry_bytes(model.grid.entry_bytes(precision)),
            model,
            plan: ParallelismPlan::paper(),
            precision,
        }
    }

    /// Replaces the mapping (ablations); the die gets the mapping's
    /// subarray count. The mapping's entry width is normalized to this
    /// model's storage precision, so scheme ablations and
    /// [`PipelineModel::with_precision`] compose in either order.
    pub fn with_mapping(mut self, mapping: HashTableMapping) -> Self {
        self.mapping = mapping.with_entry_bytes(self.model.grid.entry_bytes(self.precision));
        self
    }

    /// Models the hash table stored at `precision`: the mapping's entry
    /// width becomes `F × bytes_per_param` (8 B for f32 vs the paper's
    /// 4 B fp16 pairs, `F = 2`) and the MLP byte volumes scale with the
    /// activation width — so f32 storage touches more rows, moves more
    /// bytes, and costs more energy on the same lookup stream.
    pub fn with_precision(mut self, precision: Precision) -> Self {
        self.precision = precision;
        let entry_bytes = self.model.grid.entry_bytes(precision);
        self.mapping = self.mapping.with_entry_bytes(entry_bytes);
        self
    }

    /// The modeled storage precision.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Replaces the parallelism plan (ablations).
    pub fn with_plan(mut self, plan: ParallelismPlan) -> Self {
        self.plan = plan;
        self
    }

    /// Builds the streaming sink that turns one iteration's cube events
    /// into the DRAM statistics the estimate needs (HT read sweep and
    /// HT_b read + write-back). Stream a batch through it, then call
    /// [`PipelineModel::estimate_streamed`] — constant memory in the
    /// number of points, reusable across iterations.
    pub fn iteration_sink(&self) -> IterationSink {
        let dram_cfg = DramConfig::paper(self.mapping.subarrays());
        IterationSink {
            stream: RequestStream::new(&self.mapping, &dram_cfg, true),
            sim: DramSim::new(dram_cfg),
            ht: SimStats::default(),
            htb: SimStats::default(),
            points: 0,
        }
    }

    /// Drains `sink`'s accumulated iteration (write-back flush + simulator
    /// statistics) and produces the estimate, leaving the sink ready for
    /// the next iteration. The streamed point count is used as the trace
    /// sample size (an empty stream behaves like a one-point empty trace:
    /// all-zero DRAM occupancy).
    pub fn estimate_streamed(
        &self,
        sink: &mut IterationSink,
        batch_points: u64,
    ) -> IterationEstimate {
        let (ht_stats, htb_stats, points) = sink.drain();
        self.estimate_iteration_from_stats(&ht_stats, &htb_stats, points.max(1), batch_points)
    }

    /// Assembles the iteration estimate from already-simulated HT/HT_b
    /// DRAM statistics covering `trace_points` sample points; results are
    /// scaled to the full `batch_points` batch (DRAM makespans scale
    /// linearly in the request count at fixed locality, which the sample
    /// preserves).
    ///
    /// # Panics
    ///
    /// Panics if `trace_points` is zero.
    pub fn estimate_iteration_from_stats(
        &self,
        ht_stats: &SimStats,
        htb_stats: &SimStats,
        trace_points: u64,
        batch_points: u64,
    ) -> IterationEstimate {
        assert!(trace_points > 0, "need a non-empty trace sample");
        let scale = batch_points as f64 / trace_points as f64;
        let banks_used = self.mapping.banks_used().max(1) as u64;
        let cycles =
            |step, points| bank_compute_cycles_at(&self.model, step, points, self.precision);
        let cycle_s = AccelConfig::cycle_seconds();

        // --- HT forward: the mapped request stream's replay. ---
        let ht_dram = ht_stats.seconds() * scale;
        let ht_compute = (cycles(Step::Ht, batch_points) / banks_used) as f64 * cycle_s;

        // --- HT backward: read-modify-write stream. ---
        let htb_dram = htb_stats.seconds() * scale;
        let htb_compute = (cycles(Step::HtB, batch_points) / banks_used) as f64 * cycle_s;

        // --- MLP steps: data-parallel across all banks; activations stream
        // from the local bank at the 16 B/cycle internal width. ---
        let banks = DramConfig::BANKS as u64;
        let per_bank_points = batch_points.div_ceil(banks);
        let internal_bw = 16.0 * DramConfig::CLOCK_MHZ as f64 * 1e6; // bytes/s per bank
        let mlp_sizes = mlp_combined_sizes_at(&self.model, batch_points, self.precision);
        let mlp_local_bytes = (mlp_sizes.input_bytes
            + mlp_sizes.output_bytes
            + 2 * mlp_sizes.intermediate_bytes) as f64
            / banks as f64;
        let mlp_dram = mlp_local_bytes / internal_bw;
        let mut steps = vec![StepTime {
            step: Step::Ht,
            dram_seconds: ht_dram,
            compute_seconds: ht_compute,
        }];
        for step in [Step::MlpD, Step::MlpC, Step::MlpCB, Step::MlpDB] {
            steps.push(StepTime {
                step,
                dram_seconds: mlp_dram / 4.0, // split across the four MLP phases
                compute_seconds: cycles(step, per_bank_points) as f64 * cycle_s,
            });
        }
        steps.push(StepTime {
            step: Step::HtB,
            dram_seconds: htb_dram,
            compute_seconds: htb_compute,
        });

        let bus_seconds =
            bus_bytes_at(&self.model, &self.plan, batch_points, self.precision).seconds();

        // Resource occupancies: table banks (HT + HT_b), compute banks (the
        // four MLP phases), shared I/O (all transfers). Stage overlap is
        // only possible when the inter-level clustering leaves banks free
        // for the MLP work — the actual payoff of the clustered mapping;
        // if every bank holds table data, the stages serialize on them.
        let table_occ = steps[0].seconds() + steps[5].seconds();
        let mlp_occ: f64 = steps[1..5].iter().map(|s| s.seconds()).sum();
        let pipelined = if banks_used * 2 <= banks {
            table_occ.max(mlp_occ).max(bus_seconds)
        } else {
            (table_occ + mlp_occ).max(bus_seconds)
        };
        let serial = steps.iter().map(|s| s.seconds()).sum::<f64>() + bus_seconds;

        IterationEstimate {
            dram_energy_pj: (ht_stats.energy_pj + htb_stats.energy_pj) * scale,
            ht_bank_conflicts: ht_stats.bank_conflicts as f64 * scale,
            steps,
            bus_seconds,
            pipelined_seconds: pipelined,
            serial_seconds: serial,
        }
    }

    /// Scales an iteration estimate to a full training run (Fig. 11).
    pub fn scene_estimate(&self, iter: &IterationEstimate, iterations: u64) -> SceneEstimate {
        let seconds = iter.pipelined_seconds * iterations as f64;
        let accel_joules = AccelConfig::total_power_w() * seconds;
        let dram_joules = iter.dram_energy_pj * 1e-12 * iterations as f64;
        SceneEstimate {
            training_seconds: seconds,
            training_joules: accel_joules + dram_joules,
        }
    }
}

/// The trace-bus sink behind [`PipelineModel::estimate_streamed`]: maps
/// each cube event to DRAM requests once and replays them through one
/// incremental [`DramSim`], counting the streamed points. Memory is
/// constant in the number of points.
///
/// HT_b reads the same rows in the same order as HT, then writes the
/// gradients back, so one replay serves both sweeps: at `end_batch` the
/// sink reads HT's statistics off the simulator ([`DramSim::stats`]),
/// streams the HT_b write-back drain into it, and drains it for HT_b's.
/// Every batch is thus replayed from an idle die, and the per-batch
/// register state is reset (per the bus protocol). The statistics of the
/// batches ended before [`PipelineModel::estimate_streamed`] drains the
/// sink are summed ([`SimStats::add`]) into one aggregate estimate; for
/// *per-iteration* estimates over a training run, use
/// [`crate::cosim::CosimSink`], which drains at every batch boundary.
#[derive(Debug, Clone)]
pub struct IterationSink {
    stream: RequestStream,
    sim: DramSim,
    /// HT's statistics of the batches ended since the last drain.
    ht: SimStats,
    /// HT_b's statistics of the same batches.
    htb: SimStats,
    points: u64,
}

impl IterationSink {
    /// Points streamed since the last drain.
    pub fn points(&self) -> u64 {
        self.points
    }

    /// Cubes streamed so far that the mapping cannot place (see
    /// [`RequestStream::dropped_cubes`]).
    pub fn dropped_cubes(&self) -> u64 {
        self.stream.dropped_cubes()
    }

    /// Approximate heap bytes of the full co-simulation state (request
    /// generation + the simulator).
    pub fn state_bytes(&self) -> usize {
        self.stream.state_bytes() + self.sim.state_bytes()
    }

    /// Ends the open batch and returns `(ht, htb, points)` since the last
    /// drain, resetting the sink for the next iteration.
    pub(crate) fn drain(&mut self) -> (SimStats, SimStats, u64) {
        TraceSink::end_batch(self);
        let ht = std::mem::take(&mut self.ht);
        let htb = std::mem::take(&mut self.htb);
        (ht, htb, std::mem::take(&mut self.points))
    }
}

impl TraceSink for IterationSink {
    fn push_cube(&mut self, cube: &CubeLookup) {
        let sim = &mut self.sim;
        self.stream.push_cube(cube, |r| sim.push_request(&r));
    }

    fn end_point(&mut self) {
        self.points += 1;
    }

    fn end_batch(&mut self) {
        // A batch with nothing pushed adds all-zero statistics, so the
        // drain in estimate_streamed may follow immediately.
        self.ht.add(&self.sim.stats());
        let sim = &mut self.sim;
        self.stream.end_batch(|r| sim.push_request(&r));
        self.htb.add(&self.sim.drain_stats());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::{MappingScheme, RequestSink};
    use crate::testutil::ray_points;
    use inerf_encoding::{HashFunction, HashGrid};
    use inerf_geom::Vec3;
    use proptest::prelude::*;

    fn paper_setup() -> (PipelineModel, HashGrid, Vec<Vec3>) {
        let model = ModelConfig::paper(HashFunction::Morton);
        let grid = HashGrid::new(model.grid, 7);
        // The paper's batch shape: 128 samples per ray (2 K rays × 128 =
        // 256 K points); a 4-ray sample preserves the per-ray locality.
        (PipelineModel::paper(model), grid, ray_points(4, 128, 0.45))
    }

    /// One iteration's estimate from `points` streamed through `grid`.
    fn estimate(
        pm: &PipelineModel,
        grid: &HashGrid,
        points: &[Vec3],
        batch_points: u64,
    ) -> IterationEstimate {
        let mut sink = pm.iteration_sink();
        grid.stream_batch(points, &mut sink);
        pm.estimate_streamed(&mut sink, batch_points)
    }

    #[test]
    fn iteration_estimate_is_positive_and_consistent() {
        let (pm, grid, points) = paper_setup();
        let est = estimate(&pm, &grid, &points, 256 * 1024);
        assert!(est.pipelined_seconds > 0.0);
        assert!(est.serial_seconds >= est.pipelined_seconds);
        assert_eq!(est.steps.len(), 6);
        for s in &est.steps {
            assert!(s.seconds() >= 0.0);
            assert!(s.seconds().is_finite());
        }
    }

    #[test]
    fn iteration_time_in_plausible_band() {
        // Paper: XNX needs ~202 ms/iteration; the accelerator's 22–49x
        // speedup implies ~4–10 ms/iteration. Allow a generous band.
        let (pm, grid, points) = paper_setup();
        let est = estimate(&pm, &grid, &points, 256 * 1024);
        let ms = est.pipelined_seconds * 1e3;
        assert!(
            (1.0..20.0).contains(&ms),
            "iteration time {ms:.2} ms outside the plausible NMP band"
        );
    }

    #[test]
    fn pipelining_beats_serial_execution() {
        let (pm, grid, points) = paper_setup();
        let est = estimate(&pm, &grid, &points, 256 * 1024);
        assert!(
            est.pipelined_seconds < 0.8 * est.serial_seconds,
            "pipelining should hide a substantial share: {} vs {}",
            est.pipelined_seconds,
            est.serial_seconds
        );
    }

    #[test]
    fn morton_beats_original_hash_on_the_accelerator() {
        // The algorithm/accelerator co-design claim end to end.
        let model_m = ModelConfig::paper(HashFunction::Morton);
        let model_o = ModelConfig::paper(HashFunction::Original);
        let gm = HashGrid::new(model_m.grid, 7);
        let go = HashGrid::new(model_o.grid, 7);
        let points = ray_points(4, 128, 0.45);
        let em = estimate(&PipelineModel::paper(model_m), &gm, &points, 256 * 1024);
        let eo = estimate(&PipelineModel::paper(model_o), &go, &points, 256 * 1024);
        let ht_m = em.step_seconds(Step::Ht);
        let ht_o = eo.step_seconds(Step::Ht);
        assert!(ht_m < ht_o, "Morton HT {ht_m} should beat original {ht_o}");
    }

    #[test]
    fn subarray_spreading_reduces_conflicts() {
        let model = ModelConfig::paper(HashFunction::Morton);
        let grid = HashGrid::new(model.grid, 7);
        let points = ray_points(4, 128, 0.45);
        let spread = PipelineModel::paper(model)
            .with_mapping(HashTableMapping::paper(MappingScheme::Clustered, 8));
        let no_spread = PipelineModel::paper(model)
            .with_mapping(HashTableMapping::paper(MappingScheme::ClusteredNoSpread, 8));
        let cs = estimate(&spread, &grid, &points, 64 * 1024).ht_bank_conflicts;
        let cn = estimate(&no_spread, &grid, &points, 64 * 1024).ht_bank_conflicts;
        assert!(
            cs <= cn,
            "intra-level spreading should not increase conflicts: {cs} vs {cn}"
        );
    }

    #[test]
    fn fp16_storage_is_the_default_and_f32_costs_more() {
        let (pm, grid, points) = paper_setup();
        assert_eq!(pm.precision(), Precision::Fp16);
        let fp16 = estimate(&pm, &grid, &points, 256 * 1024);
        // Asking for fp16 explicitly is a no-op: the paper model already
        // assumes 4-byte entries.
        let explicit = pm.clone().with_precision(Precision::Fp16);
        assert_eq!(estimate(&explicit, &grid, &points, 256 * 1024), fp16);
        // f32 storage doubles the entry width: more rows touched on the
        // same stream, more bytes streamed, more energy.
        let f32e = estimate(
            &pm.with_precision(Precision::F32),
            &grid,
            &points,
            256 * 1024,
        );
        assert!(
            f32e.dram_energy_pj > fp16.dram_energy_pj,
            "f32 energy {} should exceed fp16 {}",
            f32e.dram_energy_pj,
            fp16.dram_energy_pj
        );
        assert!(f32e.step_seconds(Step::Ht) >= fp16.step_seconds(Step::Ht));
        assert!(
            f32e.bus_seconds > fp16.bus_seconds,
            "f32 doubles the bytes crossing the shared I/O"
        );
        assert!(f32e.serial_seconds > fp16.serial_seconds);
        assert!(f32e.pipelined_seconds >= fp16.pipelined_seconds);
    }

    #[test]
    fn scene_estimate_scales_with_iterations() {
        let (pm, grid, points) = paper_setup();
        let est = estimate(&pm, &grid, &points, 256 * 1024);
        let one = pm.scene_estimate(&est, 1000);
        let ten = pm.scene_estimate(&est, 10_000);
        assert!((ten.training_seconds / one.training_seconds - 10.0).abs() < 1e-9);
        assert!(ten.training_joules > one.training_joules);
    }

    #[test]
    fn heterogeneous_plan_minimizes_bus_time() {
        let (pm, grid, points) = paper_setup();
        let paper = estimate(&pm, &grid, &points, 256 * 1024).bus_seconds;
        let all_data = pm.with_plan(ParallelismPlan::all_data());
        let all_data = estimate(&all_data, &grid, &points, 256 * 1024).bus_seconds;
        assert!(paper < all_data, "paper bus {paper} vs all-data {all_data}");
    }

    #[test]
    fn paper_estimates_match_the_recorded_golden() {
        // Recorded while the Tab. III values were still `AccelConfig` and
        // `EnergyModel` fields: a fresh `PipelineModel::paper` iteration
        // sink fed one batch per hash (Morton: the 4-ray paper sample;
        // Original: 512 seeded uniform points), scaled to 256 K points.
        // Per hash, the bits of each step's `dram_seconds` and
        // `compute_seconds`, then `bus_seconds`, `pipelined_seconds`,
        // `serial_seconds`, `dram_energy_pj`, `ht_bank_conflicts`, and the
        // 35 000-iteration scene's seconds and joules.
        #[rustfmt::skip]
        let golden: [(HashFunction, [u64; 19]); 2] = [
            (HashFunction::Morton, [
                0x3f59471584e9250f, 0x3f677cf44765195f, 0x3f123b32a2b1370c, 0x3f50271f53ad5132,
                0x3f123b32a2b1370c, 0x3f5e94cb53a5ef69, 0x3f123b32a2b1370c, 0x3f6e8ed13ea17b65,
                0x3f123b32a2b1370c, 0x3f6021253ea8dd2f, 0x3f6be7f657431639, 0x3f677cf44765195f,
                0x3f7f94e9eace22f1, 0x3f81837af43cfe39, 0x3f97139548a70dcb, 0x41e6afd500000000,
                0x41277c0000000000, 0x4072b4dfa43fe5ca, 0x40a7245be8bec5cf,
            ]),
            (HashFunction::Original, [
                0x3fa0483e4ee1d712, 0x3f3ad7f29abcaf48, 0x3f123b32a2b1370c, 0x3f50271f53ad5132,
                0x3f123b32a2b1370c, 0x3f5e94cb53a5ef69, 0x3f123b32a2b1370c, 0x3f6e8ed13ea17b65,
                0x3f123b32a2b1370c, 0x3f6021253ea8dd2f, 0x3fa818330afd9855, 0x3f3ad7f29abcaf48,
                0x3f7f94e9eace22f1, 0x3fb43038acefb7b4, 0x3fb859f6aa2439a9, 0x42268c37d0000000,
                0x4168ee0000000000, 0x40a5904189374bc7, 0x40db5f23d41a9ee8,
            ]),
        ];
        let mut s = 7u64.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut unit = || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 40) as f32 / (1u64 << 24) as f32
        };
        let seeded: Vec<Vec3> = (0..512)
            .map(|_| Vec3::new(unit(), unit(), unit()))
            .collect();
        for ((hash, want), points) in golden.into_iter().zip([ray_points(4, 128, 0.45), seeded]) {
            let model = ModelConfig::paper(hash);
            let pm = PipelineModel::paper(model);
            let est = estimate(&pm, &HashGrid::new(model.grid, 7), &points, 256 * 1024);
            let scene = pm.scene_estimate(&est, 35_000);
            let steps = est
                .steps
                .iter()
                .flat_map(|s| [s.dram_seconds, s.compute_seconds]);
            let got: Vec<u64> = steps
                .chain([
                    est.bus_seconds,
                    est.pipelined_seconds,
                    est.serial_seconds,
                    est.dram_energy_pj,
                    est.ht_bank_conflicts,
                    scene.training_seconds,
                    scene.training_joules,
                ])
                .map(f64::to_bits)
                .collect();
            assert_eq!(got, want, "{hash:?}");
        }
        let accel = [
            AccelConfig::total_power_w(),
            AccelConfig::total_area_mm2(),
            AccelConfig::cycle_seconds(),
        ];
        assert_eq!(
            accel.map(f64::to_bits),
            [0x402314e3bcd35a85, 0x404ccccccccccccd, 0x3e35798ee2308c3a]
        );
    }

    /// What [`IterationSink`] must equal for any event sequence: two
    /// independent request sinks, write-back off (HT) and on (HT_b), each
    /// with its own stream and simulator, drained at every batch end and
    /// summed per drain. Beside them `whole`, the same pair drained only
    /// when the sink is: over one batch per drain, both must agree.
    struct SinkPair {
        sinks: (RequestSink<DramSim>, RequestSink<DramSim>),
        sums: (SimStats, SimStats),
        whole: (RequestSink<DramSim>, RequestSink<DramSim>),
        points: u64,
    }

    impl SinkPair {
        fn new(mapping: &HashTableMapping, dram: DramConfig) -> Self {
            let pair = || {
                (
                    RequestSink::new(
                        RequestStream::new(mapping, &dram, false),
                        DramSim::new(dram),
                    ),
                    RequestSink::new(RequestStream::new(mapping, &dram, true), DramSim::new(dram)),
                )
            };
            SinkPair {
                sinks: pair(),
                sums: Default::default(),
                whole: pair(),
                points: 0,
            }
        }

        fn end_batch(&mut self) {
            self.sinks.end_batch();
            self.sums.0.add(&self.sinks.0.consumer_mut().drain_stats());
            self.sums.1.add(&self.sinks.1.consumer_mut().drain_stats());
            self.whole.end_batch();
        }

        /// The summed drain, and the whole pair's.
        fn drain(&mut self) -> [(SimStats, SimStats, u64); 2] {
            self.end_batch();
            let (ht, htb) = std::mem::take(&mut self.sums);
            let points = std::mem::take(&mut self.points);
            let whole = (
                self.whole.0.consumer_mut().drain_stats(),
                self.whole.1.consumer_mut().drain_stats(),
                points,
            );
            [(ht, htb, points), whole]
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        #[test]
        fn iteration_sink_equals_two_independent_sinks(
            seed in 0u64..1000,
            ops in proptest::collection::vec(0u32..100, 0..40)
        ) {
            for case in 0..36 {
                // `case` walks hash × scheme × entry width × subarray count.
                let hash = [HashFunction::Morton, HashFunction::Original][case % 2];
                let scheme = [
                    MappingScheme::Clustered,
                    MappingScheme::OneLevelPerBank,
                    MappingScheme::ClusteredNoSpread,
                ][case / 2 % 3];
                let precision = [Precision::Fp16, Precision::F32][case / 6 % 2];
                let subarrays = [1, 8, 32][case / 12];
                // The paper's 16 levels over a small table: real address
                // generation without the paper table's allocation.
                let mut model = ModelConfig::paper(hash);
                model.grid.table_size_log2 = 14;
                let grid = HashGrid::new(model.grid, seed);
                let mapping = HashTableMapping::paper(scheme, subarrays);
                let pm = PipelineModel::paper(model)
                    .with_mapping(mapping.clone())
                    .with_precision(precision);
                let mapping = mapping.with_entry_bytes(model.grid.entry_bytes(precision));
                let mut sink = pm.iteration_sink();
                let mut pair = SinkPair::new(&mapping, DramConfig::paper(subarrays));

                // Scripted first — two batches between drains, an empty batch,
                // a drain with no `end_batch` — then the random tail. Codes
                // below 80 stream that many points (0 included), 80..90 end
                // the batch, 90.. drain. `batches` counts the batches with
                // points since the last drain, the open one included.
                let script = [7, 85, 12, 85, 95, 85, 95, 9, 95, 85, 85, 5, 95, 95];
                let (mut batches, mut open) = (0, false);
                let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
                let mut unit = || {
                    s ^= s << 13;
                    s ^= s >> 7;
                    s ^= s << 17;
                    (s >> 40) as f32 / (1u64 << 24) as f32
                };
                let drain = |sink: &mut IterationSink, pair: &mut SinkPair, batches: u32| {
                    let [summed, whole] = pair.drain();
                    let drained = sink.drain();
                    prop_assert_eq!(&drained, &summed, "case {}", case);
                    if batches <= 1 {
                        prop_assert_eq!(&drained, &whole, "case {}", case);
                    }
                    Ok(())
                };
                for op in script.into_iter().chain(ops.iter().copied()) {
                    match op {
                        0..=79 => {
                            for _ in 0..op {
                                let p = Vec3::new(unit(), unit(), unit());
                                grid.stream_point(p, &mut sink);
                                grid.stream_point(p, &mut (&mut pair.sinks, &mut pair.whole));
                                pair.points += 1;
                            }
                            open |= op > 0;
                        }
                        80..=89 => {
                            sink.end_batch();
                            pair.end_batch();
                            batches += u32::from(std::mem::take(&mut open));
                        }
                        _ => {
                            prop_assert_eq!(sink.points(), pair.points);
                            drain(&mut sink, &mut pair, batches + u32::from(open))?;
                            (batches, open) = (0, false);
                        }
                    }
                }
                drain(&mut sink, &mut pair, batches + u32::from(open))?;
            }
        }
    }
}
