//! `inerf-bench`: the repo's one benchmark. One command runs one workload
//! in one process and prints every metric by name with its unit; see the
//! README beside this file for the workloads, the metrics, how they are
//! expected to interact, and how to compare two sets of runs.
//!
//! ```text
//! inerf-bench list
//! inerf-bench run --workload <name> --seed <u64> [--seconds <s>] [--trace 0|1]
//!                 [--quick] [--out <file>]
//! inerf-bench compare <baseline> <candidate>
//! inerf-bench manifest            # prints BENCHMARK.json
//! ```

#![forbid(unsafe_code)]

mod compare;
mod layers;
mod metrics;
mod reference;
mod run;
mod stats;
mod sys;
mod trace;
mod workloads;

use metrics::{flat_line, Gate, METRICS, RUN_SECONDS, WORKLOADS};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Where a run may write: the span file of a traced run and the scratch
/// directory of the on-disk checkpoint stage. Relative to the working
/// directory, and ignored by git.
const OUT_DIR: &str = "target/inerf-bench";

const USAGE: &str = "usage:
  inerf-bench list
  inerf-bench run --workload <name> --seed <u64> [--seconds <s>] [--trace 0|1] [--quick] [--out <file>]
  inerf-bench compare <baseline> <candidate>
  inerf-bench manifest";

struct RunArgs {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    traced: bool,
    quick: bool,
    out: Option<PathBuf>,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = RUN_SECONDS as f64;
    let mut traced = false;
    let mut quick = false;
    let mut out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let def = WORKLOADS
                    .iter()
                    .find(|w| w.name == name)
                    .ok_or_else(|| format!("unknown workload {name:?} (see `inerf-bench list`)"))?;
                workload = Some(def.name);
            }
            "--seed" => {
                let v = value()?;
                seed = Some(
                    v.parse()
                        .map_err(|_| format!("--seed {v:?} is not a u64"))?,
                );
            }
            "--seconds" => {
                let v = value()?;
                seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 3600.0)
                    .ok_or_else(|| format!("--seconds {v:?} is not in (0, 3600]"))?;
            }
            "--trace" => {
                traced = match value()? {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace {v:?} is neither 0 nor 1")),
                };
            }
            "--traced" => traced = true,
            "--quick" => quick = true,
            "--out" => out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        traced,
        quick,
        out,
    })
}

fn list() {
    println!("workloads:");
    for w in WORKLOADS {
        println!("  {:<18} {}", w.name, w.why);
    }
    println!("metrics (name, unit, better, gate):");
    for d in METRICS {
        let gate = match d.gate {
            Gate::EndToEnd(b) => format!("end-to-end, bound {:.0}%", b * 100.0),
            Gate::Bound(b) => format!("per-layer, bound {:.0}%", b * 100.0),
            Gate::Exact => "per-layer, exact".to_string(),
            Gate::Info => "per-layer".to_string(),
        };
        println!(
            "  {:<42} {:<8} {:<7} {gate}",
            d.name,
            d.unit,
            d.better.label()
        );
    }
}

fn run(args: &RunArgs) -> std::io::Result<bool> {
    let mut run = run::Run::new(
        args.workload,
        args.seed,
        args.seconds,
        args.traced,
        args.quick,
    );
    println!(
        "inerf-bench run: workload={} seed={} seconds={} traced={} threads=1 nproc={} simd={}{}",
        args.workload,
        args.seed,
        run.seconds,
        args.traced,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        inerf_simd::backend().name(),
        if args.quick {
            " QUICK (smoke mode: numbers are not comparable)"
        } else {
            ""
        },
    );
    let scratch = Path::new(OUT_DIR).join(format!("{}.ckpt-scratch", args.workload));
    workloads::run_workload(&mut run, &scratch);
    println!(
        "{}: ops_attempted={} ops_failed={} measured_ops={}",
        args.workload,
        run.attempted,
        run.failed,
        run.ops_done()
    );
    if args.traced {
        let path = Path::new(OUT_DIR).join(format!("{}.trace.jsonl", args.workload));
        run.tracer.write_jsonl(&path)?;
        println!(
            "{} spans written to {}",
            run.tracer.spans().len(),
            path.display()
        );
    }
    let lines: Vec<String> = run
        .results
        .iter()
        .map(|(def, s)| flat_line(args.workload, def, s))
        .collect();
    println!("workload\tmetric\tvalue\tunit\tn\tq1\tq3");
    for line in &lines {
        println!("{line}");
    }
    if let Some(out) = &args.out {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(out)?;
        for line in &lines {
            writeln!(f, "{line}")?;
        }
    }
    // The driver reads the last line of standard output.
    println!(
        "{}",
        metrics::driver_json(&run.results, args.traced, run.attempted, run.failed)
    );
    Ok(run.failed == 0)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage_error = |msg: &str| {
        eprintln!("inerf-bench: {msg}\n{USAGE}");
        ExitCode::from(2)
    };
    match args.first().map(String::as_str) {
        Some("list") => {
            list();
            ExitCode::SUCCESS
        }
        Some("manifest") => {
            print!("{}", metrics::manifest());
            ExitCode::SUCCESS
        }
        Some("run") => match parse_run_args(&args[1..]) {
            Ok(parsed) => match run(&parsed) {
                Ok(true) => ExitCode::SUCCESS,
                Ok(false) => ExitCode::from(1),
                Err(e) => {
                    eprintln!("inerf-bench: {e}");
                    ExitCode::from(1)
                }
            },
            Err(msg) => usage_error(&msg),
        },
        Some("compare") => {
            let [_, a, b] = args.as_slice() else {
                return usage_error("compare takes two result files");
            };
            match (std::fs::read_to_string(a), std::fs::read_to_string(b)) {
                (Ok(a), Ok(b)) => {
                    let (table, regressed) = compare::compare(&a, &b);
                    print!("{table}");
                    if regressed {
                        ExitCode::from(1)
                    } else {
                        ExitCode::SUCCESS
                    }
                }
                (Err(e), _) | (_, Err(e)) => {
                    eprintln!("inerf-bench: cannot read result file: {e}");
                    ExitCode::from(2)
                }
            }
        }
        _ => usage_error("expected a subcommand"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn run_arguments_parse_in_the_driver_s_form() {
        let a = parse_run_args(&strings(&[
            "--workload",
            "accel_random",
            "--seed",
            "42",
            "--seconds",
            "8",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.traced, a.quick),
            ("accel_random", 42, 8.0, true, false)
        );
        let a = parse_run_args(&strings(&[
            "--workload",
            "train_lego",
            "--seed",
            "1",
            "--quick",
            "--out",
            "r.tsv",
        ]))
        .unwrap();
        assert_eq!(
            (a.seconds, a.traced, a.quick),
            (RUN_SECONDS as f64, false, true)
        );
        assert_eq!(a.out, Some(PathBuf::from("r.tsv")));
        for bad in [
            &["--workload", "nope", "--seed", "1"][..],
            &["--workload", "train_lego"],
            &["--seed", "1"],
            &["--workload", "train_lego", "--seed", "-1"],
            &["--workload", "train_lego", "--seed", "1", "--trace", "2"],
            &["--workload", "train_lego", "--seed", "1", "--seconds", "0"],
            &["--workload", "train_lego", "--seed"],
            &["--workload", "train_lego", "--seed", "1", "--frobnicate"],
        ] {
            assert!(
                parse_run_args(&strings(bad)).is_err(),
                "{bad:?} should be rejected"
            );
        }
    }
}
