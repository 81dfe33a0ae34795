//! Image buffers and quality metrics (MSE, PSNR).

use inerf_geom::Vec3;

/// A row-major RGB image with `f32` channels in `[0, 1]`.
///
/// # Example
///
/// ```
/// use inerf_scenes::Image;
/// use inerf_geom::Vec3;
///
/// let mut img = Image::new(4, 2);
/// img.set(3, 1, Vec3::new(1.0, 0.5, 0.0));
/// assert_eq!(img.get(3, 1).x, 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Image {
    width: u32,
    height: u32,
    pixels: Vec<Vec3>,
}

impl Image {
    /// Creates a black image.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: u32, height: u32) -> Self {
        assert!(width > 0 && height > 0, "image dimensions must be positive");
        Image {
            width,
            height,
            pixels: vec![Vec3::ZERO; (width * height) as usize],
        }
    }

    /// Image width in pixels.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Image height in pixels.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Total pixel count.
    pub fn pixel_count(&self) -> usize {
        self.pixels.len()
    }

    /// All pixels, row-major.
    pub fn pixels(&self) -> &[Vec3] {
        &self.pixels
    }

    /// Mutable access to all pixels, row-major.
    pub fn pixels_mut(&mut self) -> &mut [Vec3] {
        &mut self.pixels
    }

    /// Reads pixel `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of bounds.
    pub fn get(&self, x: u32, y: u32) -> Vec3 {
        assert!(
            x < self.width && y < self.height,
            "pixel ({x},{y}) out of bounds"
        );
        self.pixels[(y * self.width + x) as usize]
    }

    /// Writes pixel `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of bounds.
    pub fn set(&mut self, x: u32, y: u32, c: Vec3) {
        assert!(
            x < self.width && y < self.height,
            "pixel ({x},{y}) out of bounds"
        );
        self.pixels[(y * self.width + x) as usize] = c;
    }

    /// Mean pixel value over all channels (useful as a cheap fingerprint).
    pub fn mean(&self) -> f32 {
        if self.pixels.is_empty() {
            return 0.0;
        }
        let sum: f32 = self.pixels.iter().map(|p| p.x + p.y + p.z).sum();
        sum / (3.0 * self.pixels.len() as f32)
    }

    /// Writes the image as a binary PPM (P6) byte buffer, for debugging.
    pub fn to_ppm(&self) -> Vec<u8> {
        let mut out = format!("P6\n{} {}\n255\n", self.width, self.height).into_bytes();
        for p in &self.pixels {
            for ch in [p.x, p.y, p.z] {
                out.push((ch.clamp(0.0, 1.0) * 255.0).round() as u8);
            }
        }
        out
    }
}

/// Mean squared error between two images, averaged over all channels.
///
/// # Panics
///
/// Panics if the images have different dimensions.
pub fn mse(a: &Image, b: &Image) -> f64 {
    assert_eq!(
        (a.width, a.height),
        (b.width, b.height),
        "mse requires equal image dimensions"
    );
    let mut acc = 0.0f64;
    for (pa, pb) in a.pixels.iter().zip(&b.pixels) {
        let d = *pa - *pb;
        acc +=
            (d.x as f64) * (d.x as f64) + (d.y as f64) * (d.y as f64) + (d.z as f64) * (d.z as f64);
    }
    acc / (3.0 * a.pixels.len() as f64)
}

/// Peak signal-to-noise ratio in dB: `10 log10(1 / mse)`.
///
/// Identical images return `f64::INFINITY`.
///
/// # Panics
///
/// Panics if the images have different dimensions.
pub fn psnr(a: &Image, b: &Image) -> f64 {
    let m = mse(a, b);
    if m <= 0.0 {
        return f64::INFINITY;
    }
    10.0 * (1.0 / m).log10()
}

/// PSNR computed directly from a mean squared error value.
pub fn psnr_from_mse(m: f64) -> f64 {
    if m <= 0.0 {
        f64::INFINITY
    } else {
        10.0 * (1.0 / m).log10()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_set_roundtrip() {
        let mut img = Image::new(3, 2);
        img.set(2, 1, Vec3::new(0.1, 0.2, 0.3));
        assert_eq!(img.get(2, 1), Vec3::new(0.1, 0.2, 0.3));
        assert_eq!(img.get(0, 0), Vec3::ZERO);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_get_panics() {
        let img = Image::new(2, 2);
        let _ = img.get(2, 0);
    }

    #[test]
    fn identical_images_have_infinite_psnr() {
        let img = Image::new(4, 4);
        assert_eq!(mse(&img, &img), 0.0);
        assert_eq!(psnr(&img, &img), f64::INFINITY);
    }

    #[test]
    fn known_mse_psnr() {
        let a = Image::new(2, 2);
        let mut b = Image::new(2, 2);
        for p in b.pixels_mut() {
            *p = Vec3::splat(0.1);
        }
        // Every channel differs by 0.1 → MSE = 0.01 → PSNR = 20 dB.
        assert!((mse(&a, &b) - 0.01).abs() < 1e-9);
        assert!((psnr(&a, &b) - 20.0).abs() < 1e-6);
    }

    #[test]
    fn psnr_from_mse_matches() {
        assert!((psnr_from_mse(0.01) - 20.0).abs() < 1e-9);
        assert_eq!(psnr_from_mse(0.0), f64::INFINITY);
    }

    #[test]
    fn ppm_header_and_size() {
        let img = Image::new(5, 3);
        let ppm = img.to_ppm();
        assert!(ppm.starts_with(b"P6\n5 3\n255\n"));
        assert_eq!(ppm.len(), b"P6\n5 3\n255\n".len() + 5 * 3 * 3);
    }

    #[test]
    fn mean_of_uniform_image() {
        let mut img = Image::new(2, 2);
        for p in img.pixels_mut() {
            *p = Vec3::new(0.5, 0.5, 0.5);
        }
        assert!((img.mean() - 0.5).abs() < 1e-6);
    }
}
