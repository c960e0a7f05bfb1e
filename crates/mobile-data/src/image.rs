//! Synthetic images: seeded procedural textures standing in for licensed
//! dataset pixels (substituted per DESIGN.md). The super-resolution set's
//! ground truth is built from them.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// An interleaved HWC `f32` image.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Image {
    /// Height in pixels.
    pub height: usize,
    /// Width in pixels.
    pub width: usize,
    /// Channels (3 for RGB).
    pub channels: usize,
    /// Row-major interleaved pixel data, `height * width * channels` long.
    pub data: Vec<f32>,
}

impl Image {
    /// Allocates a zero image.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    #[must_use]
    pub fn zeros(height: usize, width: usize, channels: usize) -> Self {
        assert!(height > 0 && width > 0 && channels > 0);
        Image { height, width, channels, data: vec![0.0; height * width * channels] }
    }

    /// Procedurally generates a deterministic synthetic image: a few
    /// superimposed gradients and sinusoids plus noise, seeded so that the
    /// same `(seed, index)` always produces identical bytes.
    #[must_use]
    pub fn synthetic(height: usize, width: usize, channels: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let fx: f64 = rng.gen_range(0.5..4.0);
        let fy: f64 = rng.gen_range(0.5..4.0);
        let phase: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
        let base: [f64; 4] = [
            rng.gen_range(0.2..0.8),
            rng.gen_range(0.2..0.8),
            rng.gen_range(0.2..0.8),
            rng.gen_range(0.2..0.8),
        ];
        let mut img = Image::zeros(height, width, channels);
        for y in 0..height {
            for x in 0..width {
                let u = x as f64 / width as f64;
                let v = y as f64 / height as f64;
                let wave = ((u * fx + v * fy) * std::f64::consts::TAU + phase).sin() * 0.25;
                for c in 0..channels {
                    let noise: f64 = rng.gen_range(-0.03..0.03);
                    let val = (base[c % 4] + wave + noise).clamp(0.0, 1.0);
                    img.data[(y * width + x) * channels + c] = val as f32;
                }
            }
        }
        img
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_is_deterministic() {
        let a = Image::synthetic(32, 32, 3, 42);
        let b = Image::synthetic(32, 32, 3, 42);
        assert_eq!(a, b);
        let c = Image::synthetic(32, 32, 3, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn synthetic_in_unit_range() {
        let img = Image::synthetic(16, 16, 3, 7);
        assert!(img.data.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }
}
