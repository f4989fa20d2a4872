//! Numerically stable running statistics (Welford's algorithm) and the
//! gradient signal-to-noise ratio the paper's §III-A cites as an
//! indicator of statistical efficiency (KungFu, Pollux, AdaScale).

use serde::{Deserialize, Serialize};

/// Streaming mean/variance over scalars (Welford).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RunningStats {
    count: u64,
    mean: f64,
    m2: f64,
}

impl RunningStats {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feed one sample.
    pub fn update(&mut self, x: f32) {
        self.count += 1;
        let delta = x as f64 - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x as f64 - self.mean);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance (0 with < 2 samples).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Merge another accumulator (parallel Welford / Chan et al.).
    pub fn merge(&mut self, other: &RunningStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        self.m2 +=
            other.m2 + delta * delta * (self.count as f64) * (other.count as f64) / total as f64;
        self.mean += delta * other.count as f64 / total as f64;
        self.count = total;
    }
}

/// Gradient signal-to-noise tracker: feeds per-step gradient norms and
/// estimates `mean² / variance` over a recent horizon — high when
/// gradients agree step-to-step (synchronization adds little), low when
/// they are noisy (aggregation denoises), the §III-A statistical-
/// efficiency signal.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GradientSnr {
    horizon: usize,
    window: std::collections::VecDeque<f32>,
}

impl GradientSnr {
    /// Tracker over the last `horizon` steps.
    pub fn new(horizon: usize) -> Self {
        assert!(horizon >= 2, "need at least two samples for a variance");
        GradientSnr {
            horizon,
            window: std::collections::VecDeque::with_capacity(horizon),
        }
    }

    /// Feed one gradient norm; returns the current SNR estimate
    /// (`None` until two samples arrive).
    pub fn update(&mut self, grad_norm: f32) -> Option<f64> {
        if self.window.len() == self.horizon {
            self.window.pop_front();
        }
        self.window.push_back(grad_norm);
        self.snr()
    }

    /// Current SNR over the window.
    pub fn snr(&self) -> Option<f64> {
        if self.window.len() < 2 {
            return None;
        }
        let mut stats = RunningStats::new();
        for &x in &self.window {
            stats.update(x);
        }
        let var = stats.variance();
        if var <= 1e-30 {
            Some(f64::INFINITY)
        } else {
            Some(stats.mean() * stats.mean() / var)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_two_pass_computation() {
        let xs = [1.0f32, 4.0, 2.0, 8.0, 5.0, 7.0];
        let mut s = RunningStats::new();
        for &x in &xs {
            s.update(x);
        }
        let mean: f64 = xs.iter().map(|&x| x as f64).sum::<f64>() / xs.len() as f64;
        let var: f64 = xs
            .iter()
            .map(|&x| (x as f64 - mean) * (x as f64 - mean))
            .sum::<f64>()
            / xs.len() as f64;
        assert!((s.mean() - mean).abs() < 1e-12);
        assert!((s.variance() - var).abs() < 1e-12);
    }

    #[test]
    fn merge_equals_combined_stream() {
        let xs: Vec<f32> = (0..100).map(|i| ((i * 37) % 19) as f32).collect();
        let mut whole = RunningStats::new();
        for &x in &xs {
            whole.update(x);
        }
        let mut a = RunningStats::new();
        let mut b = RunningStats::new();
        for &x in &xs[..33] {
            a.update(x);
        }
        for &x in &xs[33..] {
            b.update(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = RunningStats::new();
        a.update(3.0);
        let before = a.clone();
        a.merge(&RunningStats::new());
        assert_eq!(a.count(), before.count());
        assert_eq!(a.mean(), before.mean());
    }

    #[test]
    fn stable_for_large_offsets() {
        // classic catastrophic-cancellation case for naive variance
        let mut s = RunningStats::new();
        for x in [1e8f32, 1e8 + 1.0, 1e8 + 2.0] {
            s.update(x);
        }
        assert!((s.variance() - 2.0 / 3.0) < 0.5, "var {}", s.variance());
    }

    #[test]
    fn snr_high_for_steady_gradients() {
        let mut snr = GradientSnr::new(10);
        let mut last = None;
        for _ in 0..10 {
            last = snr.update(5.0);
        }
        assert_eq!(last, Some(f64::INFINITY), "zero variance → infinite SNR");
    }

    #[test]
    fn snr_low_for_noisy_gradients() {
        let mut noisy = GradientSnr::new(16);
        let mut steady = GradientSnr::new(16);
        for i in 0..16 {
            noisy.update(if i % 2 == 0 { 1.0 } else { 9.0 });
            steady.update(5.0 + 0.01 * (i as f32));
        }
        assert!(steady.snr().unwrap() > 100.0 * noisy.snr().unwrap());
    }

    #[test]
    fn snr_needs_two_samples() {
        let mut snr = GradientSnr::new(4);
        assert_eq!(snr.update(1.0), None);
        assert!(snr.update(2.0).is_some());
    }
}
