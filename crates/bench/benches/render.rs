//! Inference fast-path benchmark: pixels per second of the render engine
//! against its own reference row (`RenderOpts::reference()`, no grid — the
//! configuration `render_equivalence` pins bitwise to the pre-engine
//! renderer), on a trained Mic model at 1 thread. The matrix crosses the
//! evaluation path (scalar per-point fallback vs the batched phased
//! pipeline) × parameter precision (f32 vs fp16) × occupancy culling
//! on/off, all with early ray termination on for the fast rows. Each rate
//! is the median of several timing windows after a warm-up render that
//! fills the arena. Writes `BENCH_render.json` at the repo root recording,
//! per config, pixels/sec, the culled-sample fraction, effective samples
//! per pixel and per-stage ns/pixel — plus the reference rate the headline
//! speedup is measured against. CI runs it in quick mode
//! (`INERF_BENCH_QUICK=1`).

use inerf_bench::{median_secs, quick_mode, write_record};
use inerf_encoding::HashFunction;
use inerf_mlp::Precision;
use inerf_scenes::{zoo, DatasetConfig};
use inerf_trainer::render::{RenderEngine, RenderOpts};
use inerf_trainer::{
    engine, IngpModel, ModelConfig, OccupancyGrid, PerPoint, TrainConfig, Trainer,
};
use serde::Serialize;

/// Per-stage cost of one engine render, in nanoseconds per output pixel.
#[derive(Debug, Serialize)]
struct StageNsPerPixel {
    ray_gen: f64,
    density: f64,
    scan: f64,
    color: f64,
    blend: f64,
}

#[derive(Debug, Serialize)]
struct ConfigReport {
    /// `scalar` (per-point dense fallback) or `batched` (phased pipeline).
    eval_path: String,
    precision: String,
    occupancy_culling: bool,
    early_termination: bool,
    pixels_per_sec: f64,
    speedup_vs_reference: f64,
    /// Fraction of in-bounds samples removed by empty-space skipping.
    culled_fraction: f64,
    /// Color-MLP queries per output pixel after culling + early exit.
    samples_per_pixel_effective: f64,
    stage_ns_per_pixel: StageNsPerPixel,
}

#[derive(Debug, Serialize)]
struct RenderReport {
    scene: String,
    resolution: u32,
    samples_per_ray: usize,
    train_iterations: usize,
    threads: usize,
    /// Timing windows per config; the recorded rate is their median.
    timing_windows: usize,
    grid_resolution: u32,
    grid_threshold: f32,
    /// Occupied-cell fraction of the refreshed grid the fast rows cull
    /// against.
    grid_occupancy: f64,
    /// Dense samples per pixel before any culling (rays_hit × spp / pixels).
    samples_per_pixel_dense: f64,
    /// The engine's own reference row — `RenderOpts::reference()`, no
    /// grid, batched f32 model: every sample pays both MLPs — the baseline
    /// every `speedup_vs_reference` is measured against.
    reference_pixels_per_sec: f64,
    /// Headline: batched/f32 with culling + early termination vs the
    /// reference above.
    speedup_fast_vs_reference: f64,
    configs: Vec<ConfigReport>,
}

struct TrainedScene {
    model: IngpModel,
    grid: OccupancyGrid,
}

/// Trains the Mic model at the given parameter precision with the
/// occupancy grid refreshing along, returning the model and the final
/// grid. Mic is the sparsest zoo scene, so empty-space skipping has the
/// most to cull — the same reason iNGP demos on it.
fn train_scene(
    dataset: &inerf_scenes::Dataset,
    precision: Precision,
    iterations: usize,
    grid_resolution: u32,
    grid_threshold: f32,
) -> TrainedScene {
    let cfg = TrainConfig::small().with_precision(precision);
    let mut trainer = Trainer::new(
        IngpModel::for_config(ModelConfig::small(HashFunction::Morton), &cfg, 7),
        cfg,
        3,
    )
    .with_occupancy_grid(grid_resolution, grid_threshold, 16);
    trainer.train(dataset, iterations);
    let grid = trainer.occupancy_grid().expect("grid was enabled").clone();
    TrainedScene {
        model: trainer.into_model(),
        grid,
    }
}

fn main() {
    let (train_iters, windows, spp, resolution) = if quick_mode() {
        (30usize, 3usize, 32usize, 48u32)
    } else {
        (100, 5, 64, 64)
    };
    const GRID_RESOLUTION: u32 = 32;
    // Between the ambient "haze" density of a briefly-trained model
    // (~0.1-0.2) and real content (>0.5), so the refresh actually empties
    // the scene's free space.
    const GRID_THRESHOLD: f32 = 0.3;

    let scene = zoo::scene(zoo::SceneKind::Mic);
    let mut dataset_cfg = DatasetConfig::small();
    dataset_cfg.resolution = resolution;
    let dataset = dataset_cfg.generate(&scene);
    let camera = &dataset.test_views[0].camera;
    let bounds = &dataset.bounds;
    let pool = engine::build_pool(1);
    let pixels = f64::from(camera.width) * f64::from(camera.height);

    let f32_scene = train_scene(
        &dataset,
        Precision::F32,
        train_iters,
        GRID_RESOLUTION,
        GRID_THRESHOLD,
    );
    let fp16_scene = train_scene(
        &dataset,
        Precision::Fp16,
        train_iters,
        GRID_RESOLUTION,
        GRID_THRESHOLD,
    );

    // The baseline: the engine's reference row on the f32 model, 1 thread.
    let mut reference = RenderEngine::default();
    let reference_secs = median_secs(windows, &mut || {
        let _ = reference.render_view(
            &f32_scene.model,
            camera,
            bounds,
            spp,
            None,
            &RenderOpts::reference(),
            &pool,
        );
    });
    let reference_pps = pixels / reference_secs;
    let samples_per_pixel_dense = reference.last_stats().samples_dense as f64 / pixels;

    let mut configs = Vec::new();
    let mut headline_speedup = 0.0f64;
    for (eval_path, precision) in [
        ("batched", Precision::F32),
        ("batched", Precision::Fp16),
        ("scalar", Precision::F32),
        ("scalar", Precision::Fp16),
    ] {
        let trained = match precision {
            Precision::F32 => &f32_scene,
            Precision::Fp16 => &fp16_scene,
        };
        // The "scalar" axis: `PerPoint` hides the model's chunk phases, so
        // the engine takes the serial per-point dense fallback.
        let per_point = PerPoint(trained.model.clone());
        for culling in [true, false] {
            let grid = culling.then_some(&trained.grid);
            let opts = RenderOpts {
                culling,
                ..RenderOpts::default()
            };
            let mut engine = RenderEngine::default();
            let secs = median_secs(windows, &mut || match eval_path {
                "scalar" => {
                    let _ = engine.render_view(&per_point, camera, bounds, spp, grid, &opts, &pool);
                }
                _ => {
                    let _ =
                        engine.render_view(&trained.model, camera, bounds, spp, grid, &opts, &pool);
                }
            });
            let stats = *engine.last_stats();
            let pps = pixels / secs;
            let per_px = |ns: u64| ns as f64 / pixels;
            if eval_path == "batched" && precision == Precision::F32 && culling {
                headline_speedup = pps / reference_pps;
            }
            configs.push(ConfigReport {
                eval_path: eval_path.to_string(),
                precision: precision.label().to_string(),
                occupancy_culling: culling,
                early_termination: opts.early_term,
                pixels_per_sec: pps,
                speedup_vs_reference: pps / reference_pps,
                culled_fraction: stats.culled_fraction(),
                samples_per_pixel_effective: stats.samples_per_pixel_effective(),
                stage_ns_per_pixel: StageNsPerPixel {
                    ray_gen: per_px(stats.gen_ns),
                    density: per_px(stats.density_ns),
                    scan: per_px(stats.scan_ns),
                    color: per_px(stats.color_ns),
                    blend: per_px(stats.blend_ns),
                },
            });
        }
    }

    assert!(
        headline_speedup >= 3.0,
        "culling + early termination must be >= 3x over the engine's \
         reference row, measured {headline_speedup:.2}x"
    );

    let report = RenderReport {
        scene: "mic".to_string(),
        resolution,
        samples_per_ray: spp,
        train_iterations: train_iters,
        threads: 1,
        timing_windows: windows,
        grid_resolution: GRID_RESOLUTION,
        grid_threshold: GRID_THRESHOLD,
        grid_occupancy: f32_scene.grid.occupancy(),
        samples_per_pixel_dense,
        reference_pixels_per_sec: reference_pps,
        speedup_fast_vs_reference: headline_speedup,
        configs,
    };
    println!(
        "\nrender ({}x{} mic, {} spp, median of {windows} windows, 1 thread): \
         reference {:.0} px/s | fast {:.2}x | grid occupancy {:.3}",
        resolution, resolution, spp, reference_pps, headline_speedup, report.grid_occupancy,
    );
    for cfg in &report.configs {
        println!(
            "  {}/{} culling={}: {:.0} px/s ({:.2}x) | culled {:.2} | {:.1} color samples/px",
            cfg.eval_path,
            cfg.precision,
            cfg.occupancy_culling,
            cfg.pixels_per_sec,
            cfg.speedup_vs_reference,
            cfg.culled_fraction,
            cfg.samples_per_pixel_effective,
        );
    }
    write_record("render", &report);
}
