//! The benchmark's vocabulary — workloads, metrics, units, directions and
//! regression bounds — and the three forms a run's results take: flat
//! tab-separated lines (what `compare` reads back; the vendored
//! `serde_json` is write-only), the one-line JSON object the driver reads,
//! and `BENCHMARK.json` itself, which is generated from these tables.

use crate::stats::Summary;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Seconds one run measures (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 10;

pub struct WorkloadDef {
    pub name: &'static str,
    /// One line: why this workload exists (goes into `BENCHMARK.json`).
    pub why: &'static str,
}

pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "train_lego",
        why: "Dense scene, f32, no grid, no sink: time to a target PSNR on the host; encoding, mlp and render do all the work.",
    },
    WorkloadDef {
        name: "train_mic_cosim",
        why: "Sparse scene, fp16, occupancy grid, online DRAM co-simulation: gather, grid refresh and the sink own the time, the MLPs do little.",
    },
    WorkloadDef {
        name: "render_sparse",
        why: "Fast-path views of a trained sparse scene (97% of samples culled): ray generation and the occupancy filter dominate.",
    },
    WorkloadDef {
        name: "render_reference",
        why: "Same engine, reference options, no grid: the density and color MLPs are 98% of the time; a ray-generation change must not move it.",
    },
    WorkloadDef {
        name: "accel_rayfirst",
        why: "Paper-scale accelerator simulation with Morton hash and ray-first order: row-hit and register-dedupe fast paths of the simulator.",
    },
    WorkloadDef {
        name: "accel_random",
        why: "Same simulator with the original hash and random order: row-miss and bank-conflict paths; a speed-up tuned for hits shows its cost here.",
    },
    WorkloadDef {
        name: "ckpt_resume",
        why: "Checkpoint saves and resumes of a 34 MB training state: the only workload that touches snapshot and trainer.checkpoint.",
    },
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How `compare` (and, for [`Gate::EndToEnd`], the driver) treats a metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Gate {
    /// End-to-end metric of `BENCHMARK.json`, measured on every workload
    /// with tracing off; the share of the baseline median it may worsen.
    EndToEnd(f64),
    /// Result of one workload's measured section that the driver's uniform
    /// metric set cannot carry (see README); `compare` applies this share.
    Bound(f64),
    /// A count or modeled quantity that repeats exactly for a seed;
    /// `compare` requires equality.
    Exact,
    /// Reported for attribution only.
    Info,
}

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub gate: Gate,
}

const fn m(name: &'static str, unit: &'static str, better: Better, gate: Gate) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        gate,
    }
}

use Better::{Higher, Lower};
use Gate::{Bound, EndToEnd, Exact, Info};

/// Every metric the benchmark can print. The end-to-end metrics come
/// first; everything after them is a per-layer metric whose name starts
/// with the module (layer) it belongs to.
pub const METRICS: &[MetricDef] = &[
    // -- end to end: what a caller of each workload sees ----------------
    // The timing bounds are the widest the driver allows: on the shared
    // box this was sized on, medians of runs minutes apart spread 6-17%
    // (README, "Steadiness"); a tighter bound would reject the machine,
    // not a change.
    m("setup_s", "s", Lower, EndToEnd(0.25)),
    m("op_ms", "ms", Lower, EndToEnd(0.25)),
    m("work_per_s", "1/s", Higher, EndToEnd(0.25)),
    m("peak_rss_mb", "MB", Lower, EndToEnd(0.10)),
    // -- results of one workload's measured section ----------------------
    m("trainer.train_s_to_psnr", "s", Lower, Bound(0.10)),
    m("trainer.iters_to_psnr", "count", Lower, Exact),
    m("trainer.psnr_db", "dB", Higher, Exact),
    m("trainer.train_s", "s", Lower, Bound(0.10)),
    m("accel.modeled_s", "sim_s", Lower, Exact),
    m("dram.modeled_mj", "sim_mJ", Lower, Exact),
    m("trainer.checkpoint.resume_ms", "ms", Lower, Bound(0.10)),
    m("snapshot.ckpt_bytes", "B", Lower, Exact),
    m("bench.ops_failed", "count", Lower, Exact),
    m("bench.op_q3_ms", "ms", Lower, Info),
    m("bench.op_raw_ms", "ms", Lower, Info),
    m("bench.setup_raw_s", "s", Lower, Info),
    m("bench.ref_ms", "ms", Lower, Info),
    // -- set-up and the machine ------------------------------------------
    m("scenes.dataset_gen_s", "s", Lower, Info),
    m("simd.calib_madd_gflops", "GFLOP/s", Higher, Info),
    m("bench.trace_overhead_ratio", "ratio", Lower, Info),
    // -- training stages, re-enacted on a clone of the trained model -----
    m("geom.gather_ns_per_pt", "ns", Lower, Info),
    m("trainer.model.encode_density_ns_per_pt", "ns", Lower, Info),
    m("trainer.model.color_ns_per_pt", "ns", Lower, Info),
    m("trainer.model.backward_ns_per_pt", "ns", Lower, Info),
    m("trainer.model.optimizer_ns_per_pt", "ns", Lower, Info),
    m("render.composite_ns_per_pt", "ns", Lower, Info),
    m("render.composite_bwd_ns_per_pt", "ns", Lower, Info),
    m("trainer.step_ns_per_pt", "ns", Lower, Info),
    m("trainer.stage_sum_ratio", "ratio", Lower, Info),
    m("trainer.points_per_iter", "count", Lower, Exact),
    m("trainer.live_fraction", "ratio", Lower, Exact),
    m("trainer.arena_growth_events", "count", Lower, Exact),
    m("trainer.eval_psnr_s", "s", Lower, Info),
    m("trainer.occupancy.fraction", "ratio", Lower, Exact),
    m("trainer.occupancy.refresh_ms", "ms", Lower, Info),
    m("accel.cosim_overhead_ratio", "ratio", Lower, Info),
    // -- kernels under the training stages -------------------------------
    m("encoding.encode_ns_per_pt", "ns", Lower, Info),
    m("encoding.backward_ns_per_pt", "ns", Lower, Info),
    m("encoding.bytes_per_pt", "B", Lower, Exact),
    m("encoding.touched_fraction", "ratio", Lower, Exact),
    m("mlp.density_fwd_ns_per_pt", "ns", Lower, Info),
    m("mlp.density_bwd_ns_per_pt", "ns", Lower, Info),
    m("mlp.color_fwd_ns_per_pt", "ns", Lower, Info),
    m("mlp.color_bwd_ns_per_pt", "ns", Lower, Info),
    m("mlp.flops_per_pt", "count", Lower, Exact),
    m("mlp.adam_sparse_ms_per_step", "ms", Lower, Info),
    m("mlp.fp16_commit_ns_per_pt", "ns", Lower, Info),
    // -- render engine stages (its own RenderStats) ----------------------
    m("trainer.render.gen_ns_per_px", "ns", Lower, Info),
    m("trainer.render.density_ns_per_px", "ns", Lower, Info),
    m("trainer.render.scan_ns_per_px", "ns", Lower, Info),
    m("trainer.render.color_ns_per_px", "ns", Lower, Info),
    m("trainer.render.blend_ns_per_px", "ns", Lower, Info),
    m("trainer.render.culled_fraction", "ratio", Higher, Exact),
    m(
        "trainer.render.density_samples_per_px",
        "count",
        Lower,
        Exact,
    ),
    m("trainer.render.color_samples_per_px", "count", Lower, Exact),
    m("trainer.render.growth_events", "count", Lower, Exact),
    m("trainer.occupancy.filter_ns_per_sample", "ns", Lower, Info),
    // -- simulator stages (staged: points -> cubes -> requests -> DRAM) --
    m("encoding.address_gen_ns_per_pt", "ns", Lower, Info),
    m("accel.map_ns_per_cube", "ns", Lower, Info),
    m("dram.push_request_ns", "ns", Lower, Info),
    m("accel.requests_per_cube", "ratio", Lower, Exact),
    m("dram.requests_per_pt", "ratio", Lower, Exact),
    m("dram.row_hit_rate", "ratio", Higher, Exact),
    m("dram.bank_conflict_rate", "ratio", Lower, Exact),
    m("dram.sim_cycles_per_request", "ratio", Lower, Exact),
    m("accel.state_bytes", "B", Lower, Exact),
    m("accel.step_s.ht", "sim_s", Lower, Exact),
    m("accel.step_s.mlp_d", "sim_s", Lower, Exact),
    m("accel.step_s.mlp_c", "sim_s", Lower, Exact),
    m("accel.step_s.mlp_cb", "sim_s", Lower, Exact),
    m("accel.step_s.mlp_db", "sim_s", Lower, Exact),
    m("accel.step_s.htb", "sim_s", Lower, Exact),
    m("gpu.speedup_vs_xnx", "ratio", Higher, Exact),
    // -- checkpoint stages -----------------------------------------------
    m("trainer.checkpoint.capture_ms", "ms", Lower, Info),
    m("snapshot.write_mem_ms", "ms", Lower, Info),
    m("snapshot.mb_per_s", "MB/s", Higher, Info),
    m("snapshot.load_ms", "ms", Lower, Info),
    m("trainer.checkpoint.restore_ms", "ms", Lower, Info),
    m("snapshot.disk_save_ms", "ms", Lower, Info),
];

pub fn metric(name: &str) -> Option<&'static MetricDef> {
    METRICS.iter().find(|d| d.name == name)
}

pub fn end_to_end() -> impl Iterator<Item = &'static MetricDef> {
    METRICS
        .iter()
        .filter(|d| matches!(d.gate, Gate::EndToEnd(_)))
}

pub fn per_layer() -> impl Iterator<Item = &'static MetricDef> {
    METRICS
        .iter()
        .filter(|d| !matches!(d.gate, Gate::EndToEnd(_)))
}

/// The metrics one run measured, by name.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Results(BTreeMap<&'static str, Summary>);

impl Results {
    /// Records `summary` under a registered metric name.
    ///
    /// # Panics
    ///
    /// Panics on a name missing from [`METRICS`]: a typo in the benchmark
    /// itself, caught by the first run of any workload that sets it.
    pub fn set(&mut self, name: &str, summary: Summary) {
        let def = metric(name).unwrap_or_else(|| panic!("metric {name:?} is not registered"));
        self.0.insert(def.name, summary);
    }

    pub fn set_exact(&mut self, name: &str, value: f64) {
        self.set(name, Summary::exact(value));
    }

    pub fn get(&self, name: &str) -> Option<&Summary> {
        self.0.get(name)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static MetricDef, &Summary)> {
        METRICS
            .iter()
            .filter_map(|d| self.0.get(d.name).map(|s| (d, s)))
    }
}

/// One flat result line: `workload metric value unit n q1 q3`, tab
/// separated. Floats print in Rust's shortest round-trip form, so an exact
/// metric survives the file bit for bit.
pub fn flat_line(workload: &str, def: &MetricDef, s: &Summary) -> String {
    format!(
        "{workload}\t{}\t{}\t{}\t{}\t{}\t{}",
        def.name, s.median, def.unit, s.n, s.q1, s.q3
    )
}

/// A parsed flat line (the unit is kept for display only).
#[derive(Debug, Clone, PartialEq)]
pub struct FlatRecord {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    pub summary: Summary,
}

/// Parses one line written by [`flat_line`]; `None` for anything else, so
/// a result file may carry the human-readable lines around the records.
pub fn parse_flat_line(line: &str) -> Option<FlatRecord> {
    let f: Vec<&str> = line.split('\t').collect();
    if f.len() != 7 {
        return None;
    }
    Some(FlatRecord {
        workload: f[0].to_string(),
        metric: f[1].to_string(),
        unit: f[3].to_string(),
        summary: Summary {
            median: f[2].parse().ok()?,
            n: f[4].parse().ok()?,
            q1: f[5].parse().ok()?,
            q3: f[6].parse().ok()?,
        },
    })
}

/// The driver's result object: exactly `correct`, `attempted`, `failed`
/// and `metrics`, the latter holding every end-to-end metric (untraced)
/// or every per-layer metric (traced; a layer the workload does not reach
/// reads 0). A metric that should be present but is missing or not finite
/// makes the run incorrect.
pub fn driver_json(results: &Results, traced: bool, attempted: u64, failed: u64) -> String {
    let mut correct = failed == 0;
    let mut body = String::new();
    let defs: Vec<&MetricDef> = if traced {
        per_layer().collect()
    } else {
        end_to_end().collect()
    };
    for (i, def) in defs.iter().enumerate() {
        let value = match results.get(def.name) {
            Some(s) if s.median.is_finite() => s.median,
            Some(_) => {
                correct = false;
                0.0
            }
            None => {
                correct &= traced;
                0.0
            }
        };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            body,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            def.name, def.unit
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{body}}}}}",
        attempted.max(1)
    )
}

/// `BENCHMARK.json`, generated from the tables above (a unit test pins the
/// committed file to this text).
pub fn manifest() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \
         \"--manifest-path\", \"crates/bench/src/bin/inerf-bench/Cargo.toml\", \"--\", \"run\"],\n",
    );
    out.push_str("  \"paths\": [\"crates/bench/src/bin/inerf-bench\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 == WORKLOADS.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}",
            w.name, w.why
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    let e2e: Vec<&MetricDef> = end_to_end().collect();
    for (i, d) in e2e.iter().enumerate() {
        let comma = if i + 1 == e2e.len() { "" } else { "," };
        let Gate::EndToEnd(bound) = d.gate else {
            continue;
        };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {bound}}}{comma}",
            d.name,
            d.unit,
            d.better.label()
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    let layers: Vec<&MetricDef> = per_layer().collect();
    for (i, d) in layers.iter().enumerate() {
        let comma = if i + 1 == layers.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}",
            d.name,
            d.unit,
            d.better.label()
        );
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str, max: usize) -> bool {
        !name.is_empty()
            && name.len() <= max
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(METRICS.iter().map(|d| d.name))
        {
            assert!(name_ok(name, 64), "bad name {name:?}");
            assert!(seen.insert(name), "name {name:?} used twice");
        }
        for d in METRICS {
            assert!(
                !d.unit.is_empty()
                    && d.unit.len() <= 16
                    && d.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {:?} on {}",
                d.unit,
                d.name
            );
        }
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n') && !w.why.contains('"'));
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&end_to_end().count()));
        assert!((1..=128).contains(&per_layer().count()));
    }

    #[test]
    fn end_to_end_bounds_fit_the_contract_and_setup_has_the_largest() {
        let bounds: Vec<(&str, f64)> = end_to_end()
            .map(|d| match d.gate {
                Gate::EndToEnd(b) => (d.name, b),
                _ => unreachable!(),
            })
            .collect();
        let setup = bounds.iter().find(|(n, _)| *n == "setup_s").unwrap().1;
        for (name, b) in &bounds {
            assert!(*b > 0.0 && *b <= 0.25, "{name}: bound {b}");
            assert!(*b <= setup, "{name}: bound above setup_s's");
        }
        let d = metric("setup_s").unwrap();
        assert_eq!((d.unit, d.better), ("s", Better::Lower));
    }

    #[test]
    fn committed_benchmark_json_is_the_generated_manifest() {
        let committed = include_str!("../../../../../BENCHMARK.json");
        assert_eq!(
            committed,
            manifest(),
            "BENCHMARK.json is stale; regenerate with `inerf-bench manifest > BENCHMARK.json`"
        );
        assert!(committed.len() <= 64 * 1024);
    }

    #[test]
    fn flat_lines_round_trip_bit_for_bit() {
        let def = metric("accel.modeled_s").unwrap();
        let s = Summary {
            n: 32,
            median: 0.008_552_083_333_333_334,
            q1: 1.0 / 3.0,
            q3: 5e-324,
        };
        let line = flat_line("accel_rayfirst", def, &s);
        let back = parse_flat_line(&line).unwrap();
        assert_eq!(back.workload, "accel_rayfirst");
        assert_eq!(back.metric, "accel.modeled_s");
        assert_eq!(back.unit, "sim_s");
        assert_eq!(back.summary.n, 32);
        assert_eq!(back.summary.median.to_bits(), s.median.to_bits());
        assert_eq!(back.summary.q1.to_bits(), s.q1.to_bits());
        assert_eq!(back.summary.q3.to_bits(), s.q3.to_bits());
        assert!(parse_flat_line("train_lego: 12 ops").is_none());
        assert!(parse_flat_line("a\tb\tx\tu\t1\t2\t3").is_none());
    }

    #[test]
    fn driver_json_carries_exactly_the_mode_s_metric_set() {
        let mut r = Results::default();
        for d in end_to_end() {
            r.set_exact(d.name, 1.5);
        }
        let untraced = driver_json(&r, false, 10, 0);
        assert!(untraced.starts_with(
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}, \"op_ms\""
        ));
        for d in end_to_end() {
            assert!(untraced.contains(&format!("\"{}\"", d.name)));
        }
        for d in per_layer() {
            assert!(!untraced.contains(&format!("\"{}\"", d.name)));
        }
        // Traced: every per-layer metric, absent layers read 0.
        let traced = driver_json(&r, true, 10, 0);
        assert!(traced.contains("\"dram.row_hit_rate\": {\"value\": 0, \"unit\": \"ratio\"}"));
        assert!(!traced.contains("\"setup_s\""));
        // A failure, a missing end-to-end metric or a non-finite value
        // each make the run incorrect.
        assert!(driver_json(&r, false, 10, 1).contains("\"correct\": false"));
        assert!(driver_json(&Results::default(), false, 1, 0).contains("\"correct\": false"));
        r.set_exact("op_ms", f64::NAN);
        assert!(driver_json(&r, false, 10, 0).contains("\"correct\": false"));
    }
}
