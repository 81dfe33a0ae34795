//! The eight named procedural scenes.
//!
//! Names mirror the Synthetic-NeRF datasets used in the paper (chair, drums,
//! ficus, hotdog, lego, materials, mic, ship). Each scene is composed to have
//! a loosely analogous structure — e.g. "drums" is a cluster of short
//! cylinders approximated by boxes and tori, "ficus" is a spray of small
//! blobs, "materials" has strong view-dependent sheen — so the scenes stress
//! the training pipeline in qualitatively different ways, as the originals
//! do.

use crate::field::{Blob, Primitive, Scene, SoftBox, SoftTorus};
use inerf_geom::{Aabb, Vec3};

/// The eight datasets of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SceneKind {
    /// Chair: a boxy seat with legs.
    Chair,
    /// Drums: a kit of cylinders and rings.
    Drums,
    /// Ficus: a plant — many small leaf blobs on a trunk.
    Ficus,
    /// Hotdog: two long soft shapes on a plate.
    Hotdog,
    /// Lego: a blocky grid of bricks.
    Lego,
    /// Materials: shiny spheres with strong view dependence.
    Materials,
    /// Mic: a thin stand with a round head.
    Mic,
    /// Ship: a hull with masts over a water plane.
    Ship,
}

impl SceneKind {
    /// All eight scenes, in the paper's table order.
    pub const ALL: [SceneKind; 8] = [
        SceneKind::Chair,
        SceneKind::Drums,
        SceneKind::Ficus,
        SceneKind::Hotdog,
        SceneKind::Lego,
        SceneKind::Materials,
        SceneKind::Mic,
        SceneKind::Ship,
    ];

    /// The scene's display name, matching the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            SceneKind::Chair => "Chair",
            SceneKind::Drums => "Drums",
            SceneKind::Ficus => "Ficus",
            SceneKind::Hotdog => "Hotdog",
            SceneKind::Lego => "Lego",
            SceneKind::Materials => "Materials",
            SceneKind::Mic => "Mic",
            SceneKind::Ship => "Ship",
        }
    }
}

impl std::fmt::Display for SceneKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

fn bounds() -> Aabb {
    Aabb::new(Vec3::splat(-1.0), Vec3::splat(1.0))
}

fn blob(c: [f32; 3], r: f32, peak: f32, col: [f32; 3], sheen: f32) -> Primitive {
    Primitive::Blob(Blob {
        center: c.into(),
        radius: r,
        peak,
        color: col.into(),
        sheen,
    })
}

fn bx(c: [f32; 3], h: [f32; 3], peak: f32, col: [f32; 3]) -> Primitive {
    Primitive::Box(SoftBox {
        center: c.into(),
        half: h.into(),
        softness: 0.06,
        peak,
        color: col.into(),
    })
}

fn torus(c: [f32; 3], major: f32, minor: f32, peak: f32, col: [f32; 3]) -> Primitive {
    Primitive::Torus(SoftTorus {
        center: c.into(),
        major,
        minor,
        peak,
        color: col.into(),
    })
}

/// Builds the named procedural scene.
///
/// # Example
///
/// ```
/// use inerf_scenes::zoo::{scene, SceneKind};
/// let s = scene(SceneKind::Chair);
/// assert_eq!(s.name, "Chair");
/// ```
pub fn scene(kind: SceneKind) -> Scene {
    let prims = match kind {
        SceneKind::Chair => vec![
            bx([0.0, -0.1, 0.0], [0.35, 0.06, 0.35], 8.0, [0.7, 0.45, 0.2]), // seat
            bx([0.0, 0.35, -0.3], [0.35, 0.35, 0.05], 8.0, [0.7, 0.45, 0.2]), // back
            bx(
                [-0.3, -0.5, -0.3],
                [0.05, 0.35, 0.05],
                8.0,
                [0.45, 0.3, 0.15],
            ),
            bx(
                [0.3, -0.5, -0.3],
                [0.05, 0.35, 0.05],
                8.0,
                [0.45, 0.3, 0.15],
            ),
            bx(
                [-0.3, -0.5, 0.3],
                [0.05, 0.35, 0.05],
                8.0,
                [0.45, 0.3, 0.15],
            ),
            bx([0.3, -0.5, 0.3], [0.05, 0.35, 0.05], 8.0, [0.45, 0.3, 0.15]),
        ],
        SceneKind::Drums => vec![
            bx([-0.3, -0.3, 0.0], [0.22, 0.18, 0.22], 7.0, [0.85, 0.2, 0.2]), // kick
            bx(
                [0.25, -0.15, 0.25],
                [0.15, 0.08, 0.15],
                7.0,
                [0.9, 0.9, 0.85],
            ), // snare
            bx(
                [0.3, -0.15, -0.3],
                [0.13, 0.07, 0.13],
                7.0,
                [0.9, 0.9, 0.85],
            ), // tom
            torus([0.0, 0.35, 0.0], 0.35, 0.035, 6.0, [0.9, 0.8, 0.3]),       // cymbal ring
            torus([-0.35, 0.5, -0.2], 0.2, 0.03, 6.0, [0.9, 0.8, 0.3]),       // hi-hat
        ],
        SceneKind::Ficus => {
            let mut prims = vec![bx(
                [0.0, -0.45, 0.0],
                [0.05, 0.4, 0.05],
                7.0,
                [0.4, 0.25, 0.1],
            )];
            // Deterministic leaf spray around the trunk top.
            let golden = 2.399_963_2_f32; // golden angle, radians
            for i in 0..24 {
                let a = golden * i as f32;
                let h = 0.05 + 0.6 * (i as f32 / 24.0);
                let r = 0.15 + 0.25 * (1.0 - (i as f32 / 24.0 - 0.5).abs() * 2.0);
                prims.push(blob(
                    [r * a.cos(), h - 0.35, r * a.sin()],
                    0.09,
                    5.0,
                    [0.1, 0.5 + 0.02 * (i % 5) as f32, 0.12],
                    0.0,
                ));
            }
            prims
        }
        SceneKind::Hotdog => vec![
            bx([0.0, -0.4, 0.0], [0.55, 0.04, 0.4], 7.0, [0.95, 0.93, 0.88]), // plate
            blob([-0.25, -0.2, 0.08], 0.16, 6.0, [0.75, 0.3, 0.1], 0.1),
            blob([0.0, -0.2, 0.08], 0.16, 6.0, [0.75, 0.3, 0.1], 0.1),
            blob([0.25, -0.2, 0.08], 0.16, 6.0, [0.75, 0.3, 0.1], 0.1),
            blob([-0.25, -0.2, -0.14], 0.16, 6.0, [0.8, 0.55, 0.25], 0.1),
            blob([0.0, -0.2, -0.14], 0.16, 6.0, [0.8, 0.55, 0.25], 0.1),
            blob([0.25, -0.2, -0.14], 0.16, 6.0, [0.8, 0.55, 0.25], 0.1),
        ],
        SceneKind::Lego => {
            let mut prims = Vec::new();
            let colors = [
                [0.9, 0.1, 0.1],
                [0.95, 0.8, 0.1],
                [0.1, 0.3, 0.85],
                [0.1, 0.7, 0.2],
            ];
            for ix in 0..3 {
                for iz in 0..3 {
                    for iy in 0..2 {
                        let c = colors[(ix + iz * 3 + iy) % 4];
                        prims.push(bx(
                            [
                                -0.4 + 0.4 * ix as f32,
                                -0.35 + 0.35 * iy as f32 + 0.1 * ((ix + iz) % 2) as f32,
                                -0.4 + 0.4 * iz as f32,
                            ],
                            [0.14, 0.12, 0.14],
                            8.0,
                            c,
                        ));
                    }
                }
            }
            prims
        }
        SceneKind::Materials => vec![
            blob([-0.5, -0.2, -0.25], 0.2, 6.0, [0.9, 0.2, 0.2], 0.7),
            blob([0.0, -0.2, -0.25], 0.2, 6.0, [0.2, 0.9, 0.2], 0.7),
            blob([0.5, -0.2, -0.25], 0.2, 6.0, [0.2, 0.2, 0.9], 0.7),
            blob([-0.25, -0.2, 0.25], 0.2, 6.0, [0.9, 0.9, 0.2], 0.5),
            blob([0.25, -0.2, 0.25], 0.2, 6.0, [0.9, 0.3, 0.9], 0.5),
            bx(
                [0.0, -0.48, 0.0],
                [0.8, 0.04, 0.55],
                7.0,
                [0.35, 0.35, 0.38],
            ),
        ],
        SceneKind::Mic => vec![
            bx(
                [0.0, -0.55, 0.0],
                [0.25, 0.04, 0.25],
                7.0,
                [0.25, 0.25, 0.28],
            ), // base
            bx([0.0, -0.1, 0.0], [0.03, 0.45, 0.03], 7.0, [0.5, 0.5, 0.55]), // stand
            blob([0.0, 0.45, 0.0], 0.18, 6.0, [0.75, 0.75, 0.8], 0.4),       // head
            torus([0.0, 0.45, 0.0], 0.2, 0.03, 5.0, [0.3, 0.3, 0.33]),       // grille ring
        ],
        SceneKind::Ship => vec![
            bx([0.0, -0.45, 0.0], [0.9, 0.05, 0.9], 4.0, [0.1, 0.25, 0.4]), // water
            bx([0.0, -0.25, 0.0], [0.5, 0.12, 0.2], 7.0, [0.5, 0.32, 0.15]), // hull
            bx(
                [-0.15, 0.15, 0.0],
                [0.025, 0.35, 0.025],
                7.0,
                [0.4, 0.28, 0.14],
            ), // mast 1
            bx([0.2, 0.05, 0.0], [0.02, 0.25, 0.02], 7.0, [0.4, 0.28, 0.14]), // mast 2
            bx(
                [-0.15, 0.25, 0.0],
                [0.18, 0.14, 0.015],
                5.0,
                [0.9, 0.88, 0.8],
            ), // sail 1
            bx([0.2, 0.1, 0.0], [0.13, 0.1, 0.015], 5.0, [0.9, 0.88, 0.8]), // sail 2
        ],
    };
    Scene::new(kind.name(), bounds(), prims)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::RadianceField;

    #[test]
    fn all_eight_scenes_build() {
        let scenes = SceneKind::ALL.map(scene);
        assert_eq!(scenes.len(), 8);
        let names: Vec<&str> = scenes.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "Chair",
                "Drums",
                "Ficus",
                "Hotdog",
                "Lego",
                "Materials",
                "Mic",
                "Ship"
            ]
        );
    }

    #[test]
    fn scenes_have_mass_inside_bounds() {
        for s in SceneKind::ALL.map(scene) {
            // Probe a coarse lattice: some density must exist inside bounds.
            let mut total = 0.0f64;
            let n = 12;
            for ix in 0..n {
                for iy in 0..n {
                    for iz in 0..n {
                        let u = Vec3::new(
                            (ix as f32 + 0.5) / n as f32,
                            (iy as f32 + 0.5) / n as f32,
                            (iz as f32 + 0.5) / n as f32,
                        );
                        let p = s.bounds.denormalize(u);
                        total += s.sample(p, Vec3::new(0.0, 0.0, 1.0)).sigma as f64;
                    }
                }
            }
            assert!(
                total > 1.0,
                "scene {} is nearly empty (total density {total})",
                s.name
            );
        }
    }

    #[test]
    fn scenes_differ_from_each_other() {
        // Any two scenes must disagree at some probe point — guards against
        // accidentally wiring two kinds to the same geometry.
        let scenes = SceneKind::ALL.map(scene);
        let probes: Vec<Vec3> = (0..64)
            .map(|i| {
                Vec3::new(
                    -0.9 + 1.8 * ((i % 4) as f32 / 3.0),
                    -0.9 + 1.8 * (((i / 4) % 4) as f32 / 3.0),
                    -0.9 + 1.8 * ((i / 16) as f32 / 3.0),
                )
            })
            .collect();
        for i in 0..scenes.len() {
            for j in (i + 1)..scenes.len() {
                let differs = probes.iter().any(|&p| {
                    let a = scenes[i].sample(p, Vec3::new(0.0, 0.0, 1.0));
                    let b = scenes[j].sample(p, Vec3::new(0.0, 0.0, 1.0));
                    (a.sigma - b.sigma).abs() > 1e-3 || (a.color - b.color).length() > 1e-3
                });
                assert!(
                    differs,
                    "{} and {} look identical",
                    scenes[i].name, scenes[j].name
                );
            }
        }
    }

    #[test]
    fn materials_is_view_dependent() {
        let s = scene(SceneKind::Materials);
        let p = Vec3::new(-0.5 + 0.15, -0.2, -0.25);
        let a = s.sample(p, Vec3::new(-1.0, 0.0, 0.0));
        let b = s.sample(p, Vec3::new(0.0, 1.0, 0.0));
        assert!(
            (a.color - b.color).length() > 1e-3,
            "expected sheen to vary with view"
        );
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(SceneKind::Lego.to_string(), "Lego");
        assert_eq!(format!("{}", SceneKind::Ship), "Ship");
    }
}
