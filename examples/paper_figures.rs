//! Regenerates the paper's characterization figures and tables.
//!
//! ```text
//! cargo run --release --example paper_figures [fig1|fig4|fig6|fig7|fig9|fig11|tab1|tab2|tab3|ext|cosim|precision|all] [--json DIR]
//! ```
//!
//! With `--json DIR`, machine-readable result dumps are written alongside
//! the printed output (one file per figure experiment; the tab1-3
//! constant tables are print-only).

use instant_nerf::experiments::{
    cosim, extension, fig1, fig11, fig4, fig6, fig7, fig9, precision, tables,
};
use instant_nerf::prelude::SceneKind;
use serde::Serialize;
use std::error::Error;

const KNOWN: [&str; 13] = [
    "all",
    "tab1",
    "tab2",
    "tab3",
    "fig1",
    "fig4",
    "fig6",
    "fig7",
    "fig9",
    "fig11",
    "ext",
    "cosim",
    "precision",
];

/// The figure to run (default `all`) and the `--json` directory, if any.
/// The figure name is the one argument left after removing `--json` and
/// its value; the two may appear in either order.
fn parse_args(args: &[String]) -> Result<(String, Option<String>), String> {
    let json_pos = args.iter().position(|a| a == "--json");
    let json_dir = json_pos.and_then(|i| args.get(i + 1)).cloned();
    if json_pos.is_some() && json_dir.is_none() {
        return Err("--json requires a directory argument".into());
    }
    let mut names = args
        .iter()
        .enumerate()
        .filter(|(i, _)| json_pos != Some(*i) && json_pos != Some(i.wrapping_sub(1)))
        .map(|(_, a)| a.as_str());
    let which = names.next().unwrap_or("all");
    if let Some(extra) = names.next() {
        return Err(format!(
            "unexpected argument `{extra}` after `{which}`: one figure per run (or `all`)"
        ));
    }
    if !KNOWN.contains(&which) {
        return Err(format!(
            "unknown figure `{which}`; expected one of {KNOWN:?}"
        ));
    }
    Ok((which.to_string(), json_dir))
}

fn main() -> Result<(), Box<dyn Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (which, json_dir) = parse_args(&args)?;
    let all = which == "all";
    if let Some(dir) = &json_dir {
        std::fs::create_dir_all(dir)?;
    }
    let dir = json_dir.as_deref();

    if all || which == "tab1" {
        println!("{}", tables::tab1());
    }
    if all || which == "tab2" {
        println!("{}", tables::tab2());
    }
    if all || which == "tab3" {
        println!("{}", tables::tab3());
    }
    if all || which == "fig1" {
        let rows = fig1::run();
        dump(dir, "fig1", &rows)?;
        println!("{}", fig1::render(&rows));
    }
    if all || which == "fig4" {
        let rows = fig4::run();
        dump(dir, "fig4", &rows)?;
        println!("{}", fig4::render(&rows));
    }
    if all || which == "fig6" {
        let rows = fig6::run(2048, 7);
        dump(dir, "fig6", &rows)?;
        println!("{}", fig6::render(&rows));
    }
    if all || which == "fig7" {
        let result = fig7::run(64, 128, 7);
        dump(dir, "fig7", &result)?;
        println!("{}", fig7::render(&result));
    }
    if all || which == "fig9" {
        let result = fig9::run(16, 96, 7);
        dump(dir, "fig9", &result)?;
        println!("{}", fig9::render(&result));
    }
    if all || which == "cosim" {
        let result = cosim::run(8, 7);
        dump(dir, "cosim", &result)?;
        println!("{}", cosim::render(&result));
    }
    if all || which == "precision" {
        let result = precision::run(60, 7);
        dump(dir, "precision", &result)?;
        println!("{}", precision::render(&result));
    }
    if all || which == "ext" {
        // Average-scene accelerator cost from a quick Fig. 11 run.
        let rows = fig11::run(&[SceneKind::Mic, SceneKind::Lego], 1024, 128, 7);
        let accel_s = rows.iter().map(|r| r.accel_seconds).sum::<f64>() / rows.len() as f64;
        let accel_j = rows.iter().map(|r| r.accel_joules).sum::<f64>() / rows.len() as f64;
        let prediction = extension::predict(accel_s, accel_j);
        dump(dir, "ext", &prediction)?;
        println!("{}", extension::render(&prediction));
    }
    if all || which == "fig11" {
        println!("Running Fig. 11 over all eight scenes...");
        let rows = fig11::run(&SceneKind::ALL, 2048, 128, 7);
        dump(dir, "fig11", &rows)?;
        println!("{}", fig11::render(&rows));
        let min = rows.iter().map(|r| r.speedup_xnx).fold(f64::MAX, f64::min);
        let max = rows.iter().map(|r| r.speedup_xnx).fold(0.0f64, f64::max);
        println!("XNX speedup range: {min:.1}x - {max:.1}x (paper: 22.0x - 49.3x)");
        let min = rows.iter().map(|r| r.speedup_tx2).fold(f64::MAX, f64::min);
        let max = rows.iter().map(|r| r.speedup_tx2).fold(0.0f64, f64::max);
        println!("TX2 speedup range: {min:.1}x - {max:.1}x (paper: 109.5x - 266.1x)");
    }
    Ok(())
}

/// Writes `value` as pretty JSON to `{dir}/{name}.json` when `--json`
/// named a directory.
fn dump(dir: Option<&str>, name: &str, value: &impl Serialize) -> Result<(), Box<dyn Error>> {
    if let Some(dir) = dir {
        std::fs::write(
            format!("{dir}/{name}.json"),
            serde_json::to_string_pretty(value)?,
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::parse_args;

    fn parse(args: &[&str]) -> Result<(String, Option<String>), String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn one_figure_name_on_either_side_of_json() {
        let fig6 = Ok(("fig6".to_string(), Some("d".to_string())));
        assert_eq!(parse(&["--json", "d", "fig6"]), fig6);
        assert_eq!(parse(&["fig6", "--json", "d"]), fig6);
        assert_eq!(parse(&[]), Ok(("all".to_string(), None)));
    }

    #[test]
    fn a_second_figure_name_is_an_error_naming_it() {
        let err = parse(&["fig1", "fig4"]).unwrap_err();
        assert!(err.contains("`fig4`"), "{err}");
        let err = parse(&["fig1", "bogus"]).unwrap_err();
        assert!(err.contains("`bogus`"), "{err}");
        assert!(parse(&["bogus"]).unwrap_err().contains("unknown figure"));
    }

    #[test]
    fn json_without_a_directory_is_an_error() {
        let err = parse(&["--json"]).unwrap_err();
        assert_eq!(err, "--json requires a directory argument");
    }
}
