//! Point generators shared by this crate's unit tests.

use inerf_geom::Vec3;

/// `rays × samples` points walking along straight rays at depth `z` —
/// the ray-first streaming order.
pub fn ray_points(rays: usize, samples: usize, z: f32) -> Vec<Vec3> {
    let mut points = Vec::with_capacity(rays * samples);
    for r in 0..rays {
        let y = 0.05 + 0.9 * r as f32 / rays as f32;
        for s in 0..samples {
            let x = (s as f32 + 0.5) / samples as f32;
            points.push(Vec3::new(x, y, z));
        }
    }
    points
}
