//! Cross-crate integration tests: the experiment drivers produce
//! shape-correct outputs and the co-design claims hold end to end.

use instant_nerf::experiments::{fig1, fig11, fig4, fig6, fig7, fig9, tables, traces};
use instant_nerf::prelude::*;

#[test]
fn fig1_experiment_reproduces_shape() {
    let rows = fig1::run();
    assert_eq!(rows.len(), 3);
    // Ordering: TX2 slowest, 2080Ti fastest.
    let t = |name: &str| {
        rows.iter()
            .find(|r| r.device == name)
            .unwrap()
            .total_seconds
    };
    assert!(t("TX2") > t("XNX"));
    assert!(t("XNX") > t("2080Ti"));
    // HT + HT_b dominate the breakdown on the edge GPU.
    let xnx = rows.iter().find(|r| r.device == "XNX").unwrap();
    let pct = |label: &str| xnx.breakdown.iter().find(|(l, _)| l == label).unwrap().1;
    assert!(pct("HT") + pct("HT_b") > 50.0);
}

#[test]
fn fig4_memory_bound_shape() {
    let rows = fig4::run();
    assert_eq!(rows.len(), 6);
    // Every kernel moves substantial DRAM traffic while ALUs stay cold.
    for r in &rows {
        assert!(r.read_gbs + r.write_gbs > 5.0, "{}", r.step);
        assert!(r.fp16_util < 0.3 && r.int32_util < 0.3, "{}", r.step);
    }
}

#[test]
fn fig6_and_fig7_locality_chain() {
    // Fig. 6 establishes spatial locality in index space; Fig. 7 shows the
    // resulting bandwidth win. Both must point in the same direction.
    let f6 = fig6::run(256, 11);
    let ours = &f6[0];
    let org = &f6[1];
    assert!(ours.requests_per_cube < org.requests_per_cube);
    let f7 = fig7::run(16, 128, 11);
    assert!(f7.bandwidth_improvement.iter().all(|&x| x > 1.0));
}

#[test]
fn fig9_sweep_is_complete() {
    let f = fig9::run(4, 48, 2);
    assert_eq!(f.raw_conflicts.len(), fig9::SUBARRAY_SWEEP.len());
    for row in &f.raw_conflicts {
        assert_eq!(row.len(), 16);
    }
}

#[test]
fn fig11_speedup_over_both_gpus() {
    let rows = fig11::run(&[SceneKind::Chair], 512, 96, 4);
    let r = &rows[0];
    assert!(r.speedup_xnx > 5.0, "XNX speedup {:.1}", r.speedup_xnx);
    assert!(r.speedup_tx2 > r.speedup_xnx);
    assert!(r.energy_gain_tx2 > r.energy_gain_xnx);
}

#[test]
fn tables_render_without_panicking() {
    assert!(tables::tab1().contains("XNX"));
    assert!(tables::tab2().contains("HT_b"));
    assert!(tables::tab3().contains("200 MHz"));
}

#[test]
fn scene_traces_feed_both_hardware_models() {
    // The same stream drives the NMP pipeline estimate and the GPU locality
    // factor — the contract the Fig. 11 driver relies on.
    let model = ModelConfig::paper(HashFunction::Morton);
    let grid = HashGrid::new(model.grid, 5);
    let scene = instant_nerf::scenes::zoo::scene(SceneKind::Drums);
    let pipeline = PipelineModel::paper(model);
    let mut sink = pipeline.iteration_sink();
    let st = traces::scene_trace_into(&scene, &grid, 400, 64, 5, &mut sink);
    assert!(st.points >= 400);
    let est = pipeline.estimate_streamed(&mut sink, 256 * 1024);
    assert!(est.pipelined_seconds > 0.0 && est.pipelined_seconds < 0.1);
    let factor = traces::gpu_scene_factor(&st);
    assert!((0.5..2.5).contains(&factor));
}

#[test]
fn checkpointed_training_resumes_to_identical_psnr_bits() {
    // End-to-end through the on-disk path: train with periodic
    // checkpoints, then resume from the directory and verify the
    // continued run reproduces the straight run's PSNR bit for bit.
    let scene = instant_nerf::scenes::zoo::scene(SceneKind::Mic);
    let dataset = DatasetConfig::tiny().generate(&scene);
    let cfg = TrainConfig::tiny();
    let dir = std::env::temp_dir().join(format!("inerf-ckpt-{}", std::process::id()));

    let mut straight = Trainer::new(IngpModel::for_config(ModelConfig::tiny(), &cfg, 9), cfg, 4);
    straight.train(&dataset, 12);
    let want = straight.eval_psnr(&dataset);

    let mut ckpt = Trainer::new(IngpModel::for_config(ModelConfig::tiny(), &cfg, 9), cfg, 4);
    ckpt.train_checkpointed(&dataset, 8, &dir, 4, 2)
        .expect("checkpointed training failed");
    drop(ckpt);

    let mut resumed = Trainer::resume_from(&dir, cfg).expect("resume failed");
    assert_eq!(resumed.global_step(), 8);
    resumed.train(&dataset, 4);
    let got = resumed.eval_psnr(&dataset);
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(
        got.to_bits(),
        want.to_bits(),
        "resumed PSNR {got} != straight {want}"
    );
}
