//! Regenerates Tab. IV: PSNR of the five algorithms over the eight scenes.
//!
//! ```text
//! cargo run --release --example psnr_table [quick|full] [scene...]
//! ```
//!
//! `quick` (default) takes about 20–25 s on a 2-vCPU machine (release
//! build); `full` is the budget used for the numbers recorded in
//! EXPERIMENTS.md.

use instant_nerf::experiments::psnr::{self, PsnrBudget};
use instant_nerf::prelude::SceneKind;
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let budget = match args.first().map(String::as_str) {
        Some("full") => PsnrBudget::full(),
        _ => PsnrBudget::quick(),
    };
    let scenes: Vec<SceneKind> = if args.len() > 1 {
        args[1..]
            .iter()
            .map(|name| {
                SceneKind::ALL
                    .into_iter()
                    .find(|k| k.name().eq_ignore_ascii_case(name))
                    .ok_or_else(|| format!("unknown scene {name}"))
            })
            .collect::<Result<_, _>>()?
    } else {
        SceneKind::ALL.to_vec()
    };

    println!(
        "Training 5 methods x {} scenes ({} iterations each)...",
        scenes.len(),
        budget.iterations
    );
    let start = std::time::Instant::now();
    let rows = psnr::run(&budget, &scenes, 42);
    println!("{}", psnr::render(&rows, &scenes));
    println!("({:.1} s total)", start.elapsed().as_secs_f64());
    println!(
        "\nPaper Tab. IV averages: NeRF 31.01, FastNeRF 29.90, TensoRF 32.00, iNGP 32.99, Ours 32.76"
    );
    println!("Absolute dB differ (procedural scenes, small budget); the ordering is the target.");
    Ok(())
}
