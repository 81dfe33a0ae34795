//! Training loss (Step (e) of the pipeline).

use inerf_geom::Vec3;

/// The value and gradient of an L2 photometric loss over a batch of rays.
#[derive(Debug, Clone, PartialEq)]
pub struct L2Loss {
    /// Mean squared error over rays and channels.
    pub value: f64,
    /// `∂L/∂Ĉ(r)` for every ray, in input order.
    pub d_predictions: Vec<Vec3>,
}

/// Computes `L = mean_r ||Ĉ(r) − C(r)||²` and its per-ray gradient.
///
/// The mean is over rays (each ray contributes its squared RGB distance),
/// matching the paper's loss in Sec. II-A up to the constant batch
/// normalization, which is folded into the gradient.
///
/// # Panics
///
/// Panics if the slices differ in length or are empty.
pub fn l2_loss(predictions: &[Vec3], targets: &[Vec3]) -> L2Loss {
    let mut d_predictions = Vec::with_capacity(predictions.len());
    let value = l2_loss_into(predictions, targets, &mut d_predictions);
    L2Loss {
        value,
        d_predictions,
    }
}

/// Allocation-free variant of [`l2_loss`]: writes the per-ray gradient into
/// a caller-pooled buffer (cleared and refilled, so its capacity is reused
/// across training iterations) and returns the loss value.
///
/// # Panics
///
/// Panics if the slices differ in length or are empty.
pub fn l2_loss_into(predictions: &[Vec3], targets: &[Vec3], d_predictions: &mut Vec<Vec3>) -> f64 {
    let value = l2_loss_value(predictions, targets);
    d_predictions.clear();
    d_predictions.extend(
        predictions
            .iter()
            .zip(targets)
            .map(|(&p, &t)| l2_ray_gradient(p, t, predictions.len())),
    );
    value
}

/// The value of [`l2_loss`] alone: squared errors summed over rays in
/// order, in f64, divided by the ray count.
///
/// # Panics
///
/// Panics if the slices differ in length or are empty.
pub fn l2_loss_value(predictions: &[Vec3], targets: &[Vec3]) -> f64 {
    assert_eq!(
        predictions.len(),
        targets.len(),
        "prediction/target length mismatch"
    );
    assert!(
        !predictions.is_empty(),
        "loss over an empty batch is undefined"
    );
    let mut value = 0.0f64;
    for (p, t) in predictions.iter().zip(targets) {
        value += (*p - *t).length_squared() as f64;
    }
    value / predictions.len() as f64
}

/// `∂L/∂Ĉ(r)` of one ray of a `rays`-ray batch: `2 (Ĉ − C) / rays` — the
/// one expression behind [`l2_loss`]'s gradients, for callers that finish
/// rays one run at a time.
#[inline]
pub fn l2_ray_gradient(prediction: Vec3, target: Vec3, rays: usize) -> Vec3 {
    (prediction - target) * (2.0 / rays as f32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_loss_for_identical_batches() {
        let batch = vec![Vec3::new(0.1, 0.2, 0.3); 5];
        let l = l2_loss(&batch, &batch);
        assert_eq!(l.value, 0.0);
        assert!(l.d_predictions.iter().all(|g| *g == Vec3::ZERO));
    }

    #[test]
    fn known_value_and_gradient() {
        let pred = vec![Vec3::new(1.0, 0.0, 0.0), Vec3::ZERO];
        let tgt = vec![Vec3::ZERO, Vec3::ZERO];
        let l = l2_loss(&pred, &tgt);
        assert!((l.value - 0.5).abs() < 1e-9); // (1 + 0) / 2
        assert_eq!(l.d_predictions[0], Vec3::new(1.0, 0.0, 0.0)); // 2*e/N = 2*1/2
        assert_eq!(l.d_predictions[1], Vec3::ZERO);
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let pred = vec![Vec3::new(0.3, -0.2, 0.9), Vec3::new(0.5, 0.5, 0.1)];
        let tgt = vec![Vec3::new(0.1, 0.1, 0.8), Vec3::new(0.9, 0.2, 0.0)];
        let l = l2_loss(&pred, &tgt);
        let eps = 1e-3f32;
        let mut p2 = pred.clone();
        p2[1].y += eps;
        let up = l2_loss(&p2, &tgt).value;
        p2[1].y -= 2.0 * eps;
        let down = l2_loss(&p2, &tgt).value;
        let numeric = ((up - down) / (2.0 * eps as f64)) as f32;
        assert!((numeric - l.d_predictions[1].y).abs() < 1e-3);
    }

    #[test]
    fn parts_match_the_fused_loop_bitwise() {
        // Reference: value and gradient in one fused loop.
        let fused = |pred: &[Vec3], tgt: &[Vec3]| {
            let n = pred.len() as f64;
            let mut value = 0.0f64;
            let mut grads = Vec::new();
            for (p, t) in pred.iter().zip(tgt) {
                let e = *p - *t;
                value += e.length_squared() as f64;
                grads.push(e * (2.0 / n as f32));
            }
            (value / n, grads)
        };
        let bits = |v: Vec3| [v.x, v.y, v.z].map(f32::to_bits);
        for rays in [1usize, 3, 7, 512, 4099] {
            let pred: Vec<Vec3> = (0..rays)
                .map(|i| Vec3::new((i as f32 * 0.37).sin(), 0.1 * i as f32, -0.3))
                .collect();
            let tgt: Vec<Vec3> = (0..rays)
                .map(|i| Vec3::new(0.5, (i as f32 * 0.11).cos(), 0.2))
                .collect();
            let (value, grads) = fused(&pred, &tgt);
            let l = l2_loss(&pred, &tgt);
            assert_eq!(l.value.to_bits(), value.to_bits());
            assert_eq!(l2_loss_value(&pred, &tgt).to_bits(), value.to_bits());
            for (i, want) in grads.iter().enumerate() {
                assert_eq!(bits(l.d_predictions[i]), bits(*want), "ray {i} of {rays}");
                let one = l2_ray_gradient(pred[i], tgt[i], rays);
                assert_eq!(bits(one), bits(*want), "ray {i} of {rays}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "empty batch")]
    fn empty_batch_panics() {
        let _ = l2_loss(&[], &[]);
    }
}
