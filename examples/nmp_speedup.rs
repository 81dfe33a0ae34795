//! Deep-dive into the accelerator's per-iteration timing: where the cycles
//! go, what each co-design element buys, and the resulting Fig. 11 speedup.
//!
//! ```text
//! cargo run --release --example nmp_speedup [scene]
//! ```

use instant_nerf::accel::mapping::{HashTableMapping, MappingScheme};
use instant_nerf::accel::parallel::ParallelismPlan;
use instant_nerf::accel::PipelineModel;
use instant_nerf::experiments::traces::{gpu_scene_factor, scene_trace_into};
use instant_nerf::prelude::*;
use instant_nerf::scenes::zoo;
use std::error::Error;

const BATCH: u64 = 256 * 1024;
const ITERS: u64 = 35_000;

fn main() -> Result<(), Box<dyn Error>> {
    let scene_name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "Lego".to_string());
    let kind = SceneKind::ALL
        .into_iter()
        .find(|k| k.name().eq_ignore_ascii_case(&scene_name))
        .ok_or_else(|| format!("unknown scene {scene_name}"))?;

    let model = ModelConfig::paper(HashFunction::Morton);
    let grid = HashGrid::new(model.grid, 7);
    let scene = zoo::scene(kind);
    // The paper design point and its three mapping / parallelism
    // ablations, all fed by one pass over the scene's access stream.
    let pipeline = PipelineModel::paper(model);
    let no_spread = PipelineModel::paper(model).with_mapping(HashTableMapping::paper(
        MappingScheme::ClusteredNoSpread,
        32,
    ));
    let one_level = PipelineModel::paper(model)
        .with_mapping(HashTableMapping::paper(MappingScheme::OneLevelPerBank, 32));
    let all_data = PipelineModel::paper(model).with_plan(ParallelismPlan::all_data());
    let mut sinks = (
        (pipeline.iteration_sink(), no_spread.iteration_sink()),
        (one_level.iteration_sink(), all_data.iteration_sink()),
    );
    println!("Sampling the '{kind}' access trace...");
    let st = scene_trace_into(&scene, &grid, 4096, 128, 7, &mut sinks);
    let ((mut paper_sink, mut no_spread_sink), (mut one_level_sink, mut all_data_sink)) = sinks;
    println!(
        "  {} points, occupancy {:.1}%",
        st.points,
        100.0 * st.occupancy
    );

    let est = pipeline.estimate_streamed(&mut paper_sink, BATCH);
    println!("\nPer-iteration breakdown (batch = 256K points):");
    for s in &est.steps {
        println!(
            "  {:7}  dram {:7.3} ms   compute {:7.3} ms",
            format!("{:?}", s.step),
            s.dram_seconds * 1e3,
            s.compute_seconds * 1e3
        );
    }
    println!("  inter-bank bus: {:.3} ms", est.bus_seconds * 1e3);
    println!(
        "  pipelined: {:.3} ms/iter   (serial would be {:.3} ms)",
        est.pipelined_seconds * 1e3,
        est.serial_seconds * 1e3
    );

    let accel_scene = pipeline.scene_estimate(&est, ITERS);
    println!(
        "\nFull scene ({} iters): {:.0} s, {:.0} J",
        ITERS, accel_scene.training_seconds, accel_scene.training_joules
    );

    let factor = gpu_scene_factor(&st);
    let gpu_model = ModelConfig::paper(HashFunction::Original);
    for spec in [GpuSpec::xnx(), GpuSpec::tx2()] {
        let cost = TrainingCost::estimate(&spec, &gpu_model, BATCH, ITERS, factor);
        println!(
            "  vs {:5}: {:6.0} s  -> {:5.1}x speedup, {:5.1}x energy gain",
            spec.name,
            cost.total_seconds,
            cost.total_seconds / accel_scene.training_seconds,
            cost.total_joules / accel_scene.training_joules
        );
    }

    println!("\nAblations (pipelined ms/iter):");
    let base = est.pipelined_seconds * 1e3;
    println!("  paper design point            : {base:.3}");
    let ms = |pm: &PipelineModel, sink| pm.estimate_streamed(sink, BATCH).pipelined_seconds * 1e3;
    let no_spread = ms(&no_spread, &mut no_spread_sink);
    println!("  - subarray spreading          : {no_spread:.3}");
    let one_level = ms(&one_level, &mut one_level_sink);
    println!("  - inter-level clustering      : {one_level:.3}");
    let all_data = ms(&all_data, &mut all_data_sink);
    println!("  - heterogeneous parallelism   : {all_data:.3} (all data-parallel)");
    let serial = est.serial_seconds * 1e3;
    println!("  - stage pipelining            : {serial:.3}");
    Ok(())
}
