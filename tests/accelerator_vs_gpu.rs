//! Hardware-model integration tests: the NMP accelerator beats the GPU
//! baselines on the same workload, and every co-design element contributes.

use instant_nerf::accel::mapping::{HashTableMapping, MappingScheme};
use instant_nerf::accel::parallel::ParallelismPlan;
use instant_nerf::accel::{IterationEstimate, PipelineModel};
use instant_nerf::encoding::{HashFunction, HashGrid};
use instant_nerf::geom::Vec3;
use instant_nerf::gpu::{GpuSpec, TrainingCost};
use instant_nerf::trainer::workload::Step;
use instant_nerf::trainer::ModelConfig;

const BATCH: u64 = 256 * 1024;
const ITERS: u64 = 35_000;

/// The sampled batch: 4 rays × 128 samples, ray-first.
fn ray_points() -> Vec<Vec3> {
    let (rays, samples) = (4, 128);
    let mut points = Vec::with_capacity(rays * samples);
    for r in 0..rays {
        let y = 0.04 + 0.9 * r as f32 / rays as f32;
        for s in 0..samples {
            let x = (s as f32 + 0.5) / samples as f32;
            points.push(Vec3::new(x, y, 0.37));
        }
    }
    points
}

/// `pm`'s estimate of one `BATCH`-point iteration, from the sampled batch
/// streamed through a seed-5 grid of `model`.
fn estimate(pm: &PipelineModel, model: ModelConfig) -> IterationEstimate {
    let mut sink = pm.iteration_sink();
    HashGrid::new(model.grid, 5).stream_batch(&ray_points(), &mut sink);
    pm.estimate_streamed(&mut sink, BATCH)
}

fn paper_estimate() -> (f64, f64) {
    let model = ModelConfig::paper(HashFunction::Morton);
    let pm = PipelineModel::paper(model);
    let scene = pm.scene_estimate(&estimate(&pm, model), ITERS);
    (scene.training_seconds, scene.training_joules)
}

#[test]
fn accelerator_beats_xnx_by_an_order_of_magnitude() {
    let (accel_s, accel_j) = paper_estimate();
    let gpu_model = ModelConfig::paper(HashFunction::Original);
    let xnx = TrainingCost::estimate(&GpuSpec::xnx(), &gpu_model, BATCH, ITERS, 1.0);
    let speedup = xnx.total_seconds / accel_s;
    assert!(
        speedup > 10.0,
        "speedup {speedup:.1}x too small (accel {accel_s:.0} s, XNX {:.0} s)",
        xnx.total_seconds
    );
    let energy_gain = xnx.total_joules / accel_j;
    assert!(
        energy_gain > speedup,
        "energy gain {energy_gain:.1}x vs speedup {speedup:.1}x"
    );
}

#[test]
fn accelerator_trains_in_minutes_not_hours() {
    // The "instant on-device" headline: edge GPUs need >1 h; the NMP design
    // should land in minutes.
    let (accel_s, _) = paper_estimate();
    assert!(
        (30.0..1800.0).contains(&accel_s),
        "accelerator training time {accel_s:.0} s not in the minutes range"
    );
}

#[test]
fn every_codesign_element_contributes() {
    // Ablate each element; each ablation must not help (and at least one
    // must clearly hurt).
    let model = ModelConfig::paper(HashFunction::Morton);
    let base = estimate(&PipelineModel::paper(model), model).pipelined_seconds;

    // (1) Drop the Morton hash.
    let model_org = ModelConfig::paper(HashFunction::Original);
    let no_morton = estimate(&PipelineModel::paper(model_org), model_org).pipelined_seconds;

    // (2) Drop subarray spreading.
    let no_spread = PipelineModel::paper(model).with_mapping(HashTableMapping::paper(
        MappingScheme::ClusteredNoSpread,
        32,
    ));
    let no_spread = estimate(&no_spread, model).pipelined_seconds;

    // (3) Homogeneous parallelism plans.
    let all_data = PipelineModel::paper(model).with_plan(ParallelismPlan::all_data());
    let all_data = estimate(&all_data, model).pipelined_seconds;

    for (label, t) in [
        ("no-morton", no_morton),
        ("no-spread", no_spread),
        ("all-data-parallel", all_data),
    ] {
        assert!(
            t > 0.95 * base,
            "{label} ablation should not beat the paper design: {t:.4} vs {base:.4}"
        );
    }
    assert!(
        no_morton.max(all_data) > 1.2 * base,
        "at least one ablation should clearly hurt"
    );
}

#[test]
fn ht_steps_dominate_accelerator_table_banks() {
    // On the accelerator the HT/HT_b steps stay the heavy ones, mirroring
    // the GPU bottleneck they were designed to absorb.
    let model = ModelConfig::paper(HashFunction::Morton);
    let est = estimate(&PipelineModel::paper(model), model);
    let ht = est.step_seconds(Step::Ht) + est.step_seconds(Step::HtB);
    let mlp_d = est.step_seconds(Step::MlpD);
    assert!(ht > mlp_d, "HT occupancy {ht:.4} vs MLPd {mlp_d:.4}");
}

#[test]
fn gpu_and_accelerator_agree_on_workload_shape() {
    // Both models consume the same Tab. II workload: the bytes the GPU
    // model moves for HT must equal (up to the gather amplification) the
    // entry traffic the accelerator sees.
    let model = ModelConfig::paper(HashFunction::Original);
    let entry_touches = BATCH * model.grid.levels as u64 * 8;
    let xnx = TrainingCost::estimate(&GpuSpec::xnx(), &model, BATCH, 1, 1.0);
    let gpu_ht = xnx.step(Step::Ht).traffic_bytes;
    assert!(
        gpu_ht as f64 > entry_touches as f64 * 32.0,
        "gather amplification missing"
    );
}
