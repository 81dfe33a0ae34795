//! Golden equivalence and quality bounds for the inference fast path.
//!
//! The render engine promises three things, pinned here:
//!
//! * With [`RenderOpts::reference`] its output is **bitwise-identical** to
//!   the pre-engine naive renderer (replicated verbatim below), per pixel,
//!   for models trained per point and through their chunk phases × both
//!   parameter precisions × 1/2/8 threads,
//!   and for per-point models taking the `query_eval` fallback.
//! * Early ray termination at the default threshold costs less than
//!   0.1 dB of PSNR on a zoo scene.
//! * Steady-state renders grow no pooled buffer (`growth_events` stays
//!   flat after warm-up).

use inerf_geom::{Aabb, Camera, Vec3};
use inerf_mlp::Precision;
use inerf_render::volume::{composite_spans, RayBatch, RaySpan};
use inerf_scenes::{zoo, Dataset, DatasetConfig, Image};
use inerf_trainer::baselines::NerfLite;
use inerf_trainer::render::{RenderEngine, RenderOpts};
use inerf_trainer::{
    engine, IngpModel, ModelConfig, PerPoint, TrainConfig, TrainableField, Trainer,
};

/// The pre-engine `render_view_with_pool`, replicated verbatim (2048
/// *hit*-pixel blocks, per-block `vec!` allocations, serial ray
/// generation, dense query of both MLPs, wide composite kernel) except
/// that it queries point by point through `query_eval`, the scalar oracle —
/// the golden reference the engine's opts-off output must match bit for
/// bit.
fn render_view_naive<M: TrainableField>(
    model: &M,
    camera: &Camera,
    bounds: &Aabb,
    samples_per_ray: usize,
) -> Image {
    const RENDER_PIXEL_BLOCK: usize = 2048;
    let mut img = Image::new(camera.width, camera.height);
    let mut points = Vec::new();
    let mut dirs = Vec::new();
    let mut spans = Vec::new();
    let mut pixels = Vec::new();
    let flush = |points: &mut Vec<Vec3>,
                 dirs: &mut Vec<Vec3>,
                 spans: &mut Vec<RaySpan>,
                 pixels: &mut Vec<(u32, u32)>,
                 img: &mut Image| {
        if spans.is_empty() {
            return;
        }
        let n = points.len();
        let (sigmas, rgbs): (Vec<f32>, Vec<Vec3>) = points
            .iter()
            .zip(dirs.iter())
            .map(|(&p, &d)| model.query_eval(p, d))
            .unzip();
        let mut ray_colors = vec![Vec3::ZERO; spans.len()];
        let mut backgrounds = vec![0.0f32; spans.len()];
        let mut weights = vec![0.0f32; n];
        let mut trans_after = vec![0.0f32; n];
        composite_spans(
            &RayBatch {
                sigmas: &sigmas,
                colors: &rgbs,
                spans,
                dts: None,
                sample_base: 0,
            },
            &mut ray_colors,
            &mut backgrounds,
            &mut weights,
            &mut trans_after,
        );
        for (&(px, py), &color) in pixels.iter().zip(&ray_colors) {
            img.set(px, py, color);
        }
        points.clear();
        dirs.clear();
        spans.clear();
        pixels.clear();
    };
    for py in 0..camera.height {
        for px in 0..camera.width {
            let ray = camera.ray_for_pixel(px, py);
            let Some(hit) = bounds.intersect(&ray) else {
                continue;
            };
            if hit.t_far - hit.t_near < 1e-5 {
                continue;
            }
            let ts = ray.stratified_ts(hit.t_near.max(1e-4), hit.t_far, samples_per_ray, None);
            let dt = (hit.t_far - hit.t_near.max(1e-4)) / samples_per_ray as f32;
            let start = points.len();
            for &t in &ts {
                points.push(bounds.normalize(ray.at(t)));
                dirs.push(ray.direction);
            }
            spans.push(RaySpan {
                start,
                len: ts.len(),
                dt,
            });
            pixels.push((px, py));
            if pixels.len() == RENDER_PIXEL_BLOCK {
                flush(&mut points, &mut dirs, &mut spans, &mut pixels, &mut img);
            }
        }
    }
    flush(&mut points, &mut dirs, &mut spans, &mut pixels, &mut img);
    img
}

fn assert_images_bitwise_eq(label: &str, a: &Image, b: &Image) {
    assert_eq!(a.width(), b.width(), "{label}: width");
    assert_eq!(a.height(), b.height(), "{label}: height");
    for (i, (pa, pb)) in a.pixels().iter().zip(b.pixels()).enumerate() {
        for (ch, (ca, cb)) in [(pa.x, pb.x), (pa.y, pb.y), (pa.z, pb.z)]
            .into_iter()
            .enumerate()
        {
            assert_eq!(
                ca.to_bits(),
                cb.to_bits(),
                "{label}: pixel {i} channel {ch}: {ca} vs {cb}"
            );
        }
    }
}

/// `model` after four training iterations on `dataset`.
fn trained<M: TrainableField>(model: M, cfg: TrainConfig, dataset: &Dataset) -> M {
    let mut trainer = Trainer::new(model, cfg, 3);
    trainer.train(dataset, 4);
    trainer.into_model()
}

#[test]
fn reference_opts_match_the_naive_renderer_bitwise() {
    let scene = zoo::scene(zoo::SceneKind::Mic);
    let dataset = DatasetConfig::tiny().generate(&scene);
    let spp = TrainConfig::tiny().eval_samples_per_ray;
    for per_point in [true, false] {
        for precision in [Precision::F32, Precision::Fp16] {
            let cfg = TrainConfig::tiny().with_precision(precision);
            let model = IngpModel::for_config(ModelConfig::tiny(), &cfg, 8);
            let model = if per_point {
                trained(PerPoint(model), cfg, &dataset).0
            } else {
                trained(model, cfg, &dataset)
            };
            let camera = &dataset.test_views[0].camera;
            let golden = render_view_naive(&model, camera, &dataset.bounds, spp);
            for threads in [1usize, 2, 8] {
                let pool = engine::build_pool(threads);
                let fast = RenderEngine::default().render_view(
                    &model,
                    camera,
                    &dataset.bounds,
                    spp,
                    None,
                    &RenderOpts::reference(),
                    &pool,
                );
                assert_images_bitwise_eq(
                    &format!("per point {per_point}/{precision:?}/{threads} threads"),
                    &golden,
                    &fast,
                );
            }
        }
    }
}

#[test]
fn per_point_models_take_the_dense_fallback_bitwise() {
    // A baseline model without phased evaluation exercises the engine's
    // `query_eval` fallback; the reference contract holds there too.
    let scene = zoo::scene(zoo::SceneKind::Hotdog);
    let dataset = DatasetConfig::tiny().generate(&scene);
    let model = NerfLite::new(2, 8, 7);
    let camera = &dataset.test_views[0].camera;
    let pool = engine::build_pool(2);
    let golden = render_view_naive(&model, camera, &dataset.bounds, 16);
    let fast = RenderEngine::default().render_view(
        &model,
        camera,
        &dataset.bounds,
        16,
        None,
        &RenderOpts::reference(),
        &pool,
    );
    assert_images_bitwise_eq("NerfLite dense fallback", &golden, &fast);
}

#[test]
fn early_termination_costs_under_a_tenth_db() {
    let scene = zoo::scene(zoo::SceneKind::Mic);
    let dataset = DatasetConfig::tiny().generate(&scene);
    let cfg = TrainConfig::tiny();
    let spp = cfg.eval_samples_per_ray;
    let mut trainer = Trainer::new(IngpModel::for_config(ModelConfig::tiny(), &cfg, 8), cfg, 3);
    trainer.train(&dataset, 20);
    let model = trainer.into_model();
    let pool = engine::build_pool(2);
    let psnr_ref = RenderEngine::default().eval_psnr(
        &model,
        &dataset,
        spp,
        None,
        &RenderOpts::reference(),
        &pool,
    );
    let early = RenderOpts {
        culling: false,
        ..RenderOpts::fast()
    };
    let psnr_early = RenderEngine::default().eval_psnr(&model, &dataset, spp, None, &early, &pool);
    assert!(
        psnr_ref - psnr_early < 0.1,
        "early termination dropped PSNR by {} dB (reference {psnr_ref}, early {psnr_early})",
        psnr_ref - psnr_early
    );
}

#[test]
fn default_opts_with_occupancy_grid_cull_samples_within_a_tenth_db() {
    let scene = zoo::scene(zoo::SceneKind::Mic);
    let dataset = DatasetConfig::tiny().generate(&scene);
    let cfg = TrainConfig::tiny();
    // A briefly-trained tiny model keeps an ambient "haze" density of
    // ~0.1–0.2 in empty space, so the cull threshold must sit between that
    // haze and the ~0.5 densities of real content for the refresh to mark
    // any cell empty.
    let mut trainer = Trainer::new(IngpModel::for_config(ModelConfig::tiny(), &cfg, 8), cfg, 3)
        .with_occupancy_grid(16, 0.3, 5);
    trainer.train(&dataset, 20);
    let psnr_ref = trainer.eval_psnr_opts(&dataset, &RenderOpts::reference());
    let psnr_fast = trainer.eval_psnr_opts(&dataset, &RenderOpts::default());
    let stats = *trainer.render_stats();
    assert!(
        stats.samples_culled > 0,
        "Mic is mostly empty: the refreshed grid must cull something"
    );
    assert!(
        stats.samples_color <= stats.samples_density,
        "the color phase can only ever shrink the sample set"
    );
    assert!(
        psnr_ref - psnr_fast < 0.1,
        "default opts dropped PSNR by {} dB (reference {psnr_ref}, fast {psnr_fast})",
        psnr_ref - psnr_fast
    );
}

#[test]
fn render_arena_is_allocation_free_in_steady_state() {
    let scene = zoo::scene(zoo::SceneKind::Mic);
    let dataset = DatasetConfig::tiny().generate(&scene);
    let cfg = TrainConfig::tiny();
    let mut trainer = Trainer::new(IngpModel::for_config(ModelConfig::tiny(), &cfg, 8), cfg, 3);
    trainer.train(&dataset, 3);
    let camera = dataset.test_views[0].camera;
    // Warm-up render populates every pooled buffer.
    let _ = trainer.render_view(&camera, &dataset.bounds);
    let warm = trainer.render_growth_events();
    assert!(warm >= 1, "the first render must populate the arena");
    for _ in 0..3 {
        let _ = trainer.render_view(&camera, &dataset.bounds);
    }
    assert_eq!(
        trainer.render_growth_events(),
        warm,
        "steady-state renders must not grow any pooled buffer"
    );
}

#[test]
fn render_stats_account_for_the_reference_path() {
    let scene = zoo::scene(zoo::SceneKind::Mic);
    let dataset = DatasetConfig::tiny().generate(&scene);
    let cfg = TrainConfig::tiny();
    let mut trainer = Trainer::new(IngpModel::for_config(ModelConfig::tiny(), &cfg, 8), cfg, 3);
    trainer.train(&dataset, 2);
    let camera = dataset.test_views[0].camera;
    let _ = trainer.render_view_opts(&camera, &dataset.bounds, &RenderOpts::reference());
    let stats = *trainer.render_stats();
    assert_eq!(
        stats.pixels,
        u64::from(camera.width) * u64::from(camera.height)
    );
    assert!(stats.rays_hit > 0, "some rays must hit the bounds");
    assert_eq!(stats.rays_rendered, stats.rays_hit);
    assert_eq!(stats.samples_culled, 0, "reference opts never cull");
    assert_eq!(stats.samples_density, stats.samples_dense);
    assert!(stats.samples_color <= stats.samples_density);
    assert!(stats.samples_per_pixel_effective() > 0.0 && stats.culled_fraction() == 0.0);
}
