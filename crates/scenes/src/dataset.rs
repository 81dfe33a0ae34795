//! Posed multi-view datasets: the training/test data of NeRF.

use crate::field::Scene;
use crate::image::Image;
use crate::oracle;
use inerf_geom::{Aabb, Camera, Pose, Vec3};

/// One posed view: a camera and its ground-truth image.
#[derive(Debug, Clone)]
pub struct View {
    /// The camera that produced the image.
    pub camera: Camera,
    /// Ground-truth image rendered by the oracle.
    pub image: Image,
}

/// Configuration for dataset generation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DatasetConfig {
    /// Number of training views on the orbit.
    pub train_views: usize,
    /// Number of held-out test views (interleaved on the orbit).
    pub test_views: usize,
    /// Image resolution (square images).
    pub resolution: u32,
    /// Oracle quadrature samples per ray.
    pub oracle_samples: usize,
    /// Orbit radius around the scene centre.
    pub orbit_radius: f32,
    /// Vertical field of view in radians.
    pub fov_y: f32,
}

impl DatasetConfig {
    /// A tiny configuration for unit tests (seconds to generate).
    pub fn tiny() -> Self {
        DatasetConfig {
            train_views: 6,
            test_views: 2,
            resolution: 16,
            oracle_samples: 48,
            orbit_radius: 3.2,
            fov_y: 0.7,
        }
    }

    /// A small configuration for examples and PSNR experiments.
    pub fn small() -> Self {
        DatasetConfig {
            train_views: 20,
            test_views: 4,
            resolution: 48,
            oracle_samples: 96,
            orbit_radius: 3.2,
            fov_y: 0.7,
        }
    }

    /// Generates the dataset by rendering oracle images from orbit poses.
    ///
    /// Poses alternate between two elevation bands so training views and
    /// held-out test views cover the scene from distinct directions, as the
    /// Blender datasets do.
    ///
    /// # Panics
    ///
    /// Panics if `train_views == 0`.
    pub fn generate(&self, scene: &Scene) -> Dataset {
        assert!(self.train_views > 0, "need at least one training view");
        let center = scene.bounds.center();
        let total = self.train_views + self.test_views;
        let mut train = Vec::with_capacity(self.train_views);
        let mut test = Vec::with_capacity(self.test_views);
        for i in 0..total {
            let theta = std::f32::consts::TAU * i as f32 / total as f32;
            let phi = 0.35 + 0.25 * ((i % 3) as f32 - 1.0); // three elevation bands
            let pose = Pose::orbit(center, self.orbit_radius, theta, phi);
            let camera = Camera::new(pose, self.resolution, self.resolution, self.fov_y);
            let image = oracle::render_image(scene, &camera, self.oracle_samples);
            let view = View { camera, image };
            // Interleave: every (train+test)/test-th view is held out.
            let is_test = self.test_views > 0
                && (i + 1) % (total / self.test_views.max(1)).max(1) == 0
                && test.len() < self.test_views;
            if is_test {
                test.push(view);
            } else {
                train.push(view);
            }
        }
        // If interleaving under-filled the test set, move views from train.
        while test.len() < self.test_views {
            test.push(train.pop().expect("enough views"));
        }
        while train.len() > self.train_views {
            train.pop();
        }
        Dataset {
            scene_name: scene.name.clone(),
            bounds: scene.bounds,
            train_views: train,
            test_views: test,
        }
    }
}

/// A generated multi-view dataset.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Name of the source scene.
    pub scene_name: String,
    /// Scene bounds (training normalizes sample points into this box).
    pub bounds: Aabb,
    /// Views used for training.
    pub train_views: Vec<View>,
    /// Held-out views used for PSNR evaluation.
    pub test_views: Vec<View>,
}

impl Dataset {
    /// Total number of training pixels (the pool Step (a) of the pipeline
    /// randomly draws batches from).
    pub fn train_pixel_count(&self) -> usize {
        self.train_views
            .iter()
            .map(|v| v.camera.pixel_count())
            .sum()
    }

    /// Returns the `(view, pixel x, pixel y, ground-truth color)` tuple for a
    /// flattened training-pixel index.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= train_pixel_count()`.
    pub fn train_pixel(&self, idx: usize) -> (usize, u32, u32, Vec3) {
        let mut rem = idx;
        for (vi, view) in self.train_views.iter().enumerate() {
            let n = view.camera.pixel_count();
            if rem < n {
                let x = (rem % view.camera.width as usize) as u32;
                let y = (rem / view.camera.width as usize) as u32;
                return (vi, x, y, view.image.get(x, y));
            }
            rem -= n;
        }
        panic!("train pixel index {idx} out of range");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo::{scene, SceneKind};

    #[test]
    fn tiny_dataset_shape() {
        let ds = DatasetConfig::tiny().generate(&scene(SceneKind::Mic));
        assert_eq!(ds.train_views.len(), 6);
        assert_eq!(ds.test_views.len(), 2);
        assert_eq!(ds.train_pixel_count(), 6 * 16 * 16);
        assert_eq!(ds.scene_name, "Mic");
    }

    #[test]
    fn views_are_not_black() {
        let ds = DatasetConfig::tiny().generate(&scene(SceneKind::Hotdog));
        for v in ds.train_views.iter().chain(&ds.test_views) {
            assert!(
                v.image.mean() > 0.005,
                "a view of Hotdog should see the scene"
            );
        }
    }

    #[test]
    fn train_pixel_indexing_consistent() {
        let ds = DatasetConfig::tiny().generate(&scene(SceneKind::Chair));
        let (vi, x, y, c) = ds.train_pixel(16 * 16 + 17); // second view, pixel (1,1)
        assert_eq!(vi, 1);
        assert_eq!((x, y), (1, 1));
        assert_eq!(c, ds.train_views[1].image.get(1, 1));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn train_pixel_out_of_range_panics() {
        let ds = DatasetConfig::tiny().generate(&scene(SceneKind::Chair));
        let _ = ds.train_pixel(ds.train_pixel_count());
    }

    #[test]
    fn poses_are_distinct() {
        let ds = DatasetConfig::tiny().generate(&scene(SceneKind::Drums));
        for (i, a) in ds.train_views.iter().enumerate() {
            for b in &ds.train_views[i + 1..] {
                assert!(
                    (a.camera.pose.position - b.camera.pose.position).length_squared() > 1e-6,
                    "duplicate poses in dataset"
                );
            }
        }
    }
}
