//! Synthetic datasets for the extension tasks (paper Appendix E):
//! speech recognition (a LibriSpeech-like corpus) and 2x super-resolution
//! (a DIV2K-like image-pair set).

use crate::datasets::Dataset;
use crate::image::Image;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn sample_rng(seed: u64, index: usize) -> StdRng {
    let mut z = seed ^ (index as u64).wrapping_mul(0xA24B_AED4_963E_E407);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    StdRng::seed_from_u64(z ^ (z >> 31))
}

// ---------------------------------------------------------------------------
// Speech (LibriSpeech-like)
// ---------------------------------------------------------------------------

/// One synthetic utterance: a word-id transcript (the audio features are
/// derivable from the transcript seed and never needed by the benchmark).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Utterance {
    /// Ground-truth transcript as word ids.
    pub transcript: Vec<u32>,
}

/// Synthetic speech corpus standing in for a LibriSpeech-style dev set.
#[derive(Debug, Clone)]
pub struct SyntheticLibriSpeech {
    seed: u64,
    len: usize,
}

/// Word vocabulary of the synthetic corpus.
pub const SPEECH_VOCAB: u32 = 10_000;
/// Dev-split size.
pub const SPEECH_DEV_LEN: usize = 2_000;

impl SyntheticLibriSpeech {
    /// Full dev split.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self::with_len(seed, SPEECH_DEV_LEN)
    }

    /// Reduced split for fast tests.
    #[must_use]
    pub fn with_len(seed: u64, len: usize) -> Self {
        SyntheticLibriSpeech { seed, len }
    }

    /// The utterance at `index`: 5-25 words, Zipf-biased toward frequent
    /// word ids like real speech.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    #[must_use]
    pub fn utterance(&self, index: usize) -> Utterance {
        assert!(index < self.len);
        let mut rng = sample_rng(self.seed, index);
        let words = rng.gen_range(5..=25);
        let transcript = (0..words)
            .map(|_| {
                if rng.gen_bool(0.6) {
                    rng.gen_range(0..200) // frequent words
                } else {
                    rng.gen_range(200..SPEECH_VOCAB)
                }
            })
            .collect();
        Utterance { transcript }
    }
}

impl Dataset for SyntheticLibriSpeech {
    fn name(&self) -> &str {
        "LibriSpeech dev (synthetic)"
    }
    fn len(&self) -> usize {
        self.len
    }
}

// ---------------------------------------------------------------------------
// Super-resolution (DIV2K-like)
// ---------------------------------------------------------------------------

/// Synthetic SR validation set: seeded high-resolution ground-truth images
/// for 2x upscaling.
#[derive(Debug, Clone)]
pub struct SyntheticDiv2k {
    seed: u64,
    len: usize,
    hr_height: usize,
    hr_width: usize,
}

/// Validation-split size.
pub const SR_VAL_LEN: usize = 100;

impl SyntheticDiv2k {
    /// Full split at 720p ground truth (the EDSR-mobile output size).
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self::with_params(seed, SR_VAL_LEN, 720, 1280)
    }

    /// Custom split size and ground-truth resolution.
    ///
    /// # Panics
    ///
    /// Panics if the resolution is not a multiple of 2 (the scale factor).
    #[must_use]
    pub fn with_params(seed: u64, len: usize, hr_height: usize, hr_width: usize) -> Self {
        assert!(hr_height.is_multiple_of(2) && hr_width.is_multiple_of(2), "HR size must be even");
        SyntheticDiv2k { seed, len, hr_height, hr_width }
    }

    /// Generator seed — with [`Dataset::len`] and [`Self::hr_size`], the
    /// dataset's full identity (used as a calibration-cache key).
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Ground-truth resolution `(height, width)`.
    #[must_use]
    pub fn hr_size(&self) -> (usize, usize) {
        (self.hr_height, self.hr_width)
    }

    /// Ground-truth (high-resolution) image.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    #[must_use]
    pub fn high_res(&self, index: usize) -> Image {
        assert!(index < self.len);
        Image::synthetic(self.hr_height, self.hr_width, 3, self.seed ^ (index as u64) << 3)
    }
}

impl Dataset for SyntheticDiv2k {
    fn name(&self) -> &str {
        "DIV2K x2 (synthetic)"
    }
    fn len(&self) -> usize {
        self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utterances_deterministic_and_bounded() {
        let d = SyntheticLibriSpeech::with_len(5, 50);
        for i in 0..50 {
            let u = d.utterance(i);
            assert!((5..=25).contains(&u.transcript.len()));
            assert!(u.transcript.iter().all(|&w| w < SPEECH_VOCAB));
            assert_eq!(u, d.utterance(i));
        }
    }

    #[test]
    fn frequent_words_dominate() {
        let d = SyntheticLibriSpeech::with_len(1, 200);
        let mut freq = 0usize;
        let mut rare = 0usize;
        for i in 0..200 {
            for &w in &d.utterance(i).transcript {
                if w < 200 {
                    freq += 1;
                } else {
                    rare += 1;
                }
            }
        }
        assert!(freq > rare, "frequent {freq} vs rare {rare}");
    }

    #[test]
    fn sr_ground_truth_has_requested_size() {
        let d = SyntheticDiv2k::with_params(3, 4, 64, 96);
        let hr = d.high_res(0);
        assert_eq!((hr.height, hr.width), (64, 96));
    }

    #[test]
    fn default_lens() {
        assert_eq!(SyntheticLibriSpeech::new(0).len(), 2_000);
        assert_eq!(SyntheticDiv2k::new(0).len(), 100);
    }

    #[test]
    #[should_panic(expected = "must be even")]
    fn odd_resolution_rejected() {
        let _ = SyntheticDiv2k::with_params(0, 1, 63, 96);
    }
}
