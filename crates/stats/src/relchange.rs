//! The relative gradient change Δ(g_i) of Eqn. (2) — SelSync's
//! significance signal.
//!
//! On every iteration the worker feeds the squared L2 norm of its local
//! gradient; the tracker smooths the series with a windowed EWMA and
//! reports
//!
//! ```text
//! Δ(g_i) = | (E[‖∇F_i‖²] − E[‖∇F_{i−1}‖²]) / E[‖∇F_{i−1}‖²] |
//! ```
//!
//! the relative change between the smoothed norms of consecutive steps.

use crate::ewma::WindowedEwma;
use serde::{Deserialize, Serialize};

/// Tracker producing Δ(g_i) per iteration (Alg. 1 line 8).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RelativeGradChange {
    smoother: WindowedEwma,
    prev: Option<f32>,
    max_seen: f32,
    steps: u64,
}

impl RelativeGradChange {
    /// The paper's default window (25 iterations, §IV-B).
    pub const DEFAULT_WINDOW: usize = 25;

    /// A tracker with the given EWMA window and smoothing factor.
    /// The paper sets the factor to `N/100` for an `N`-worker cluster.
    pub fn new(window: usize, alpha: f32) -> Self {
        RelativeGradChange {
            smoother: WindowedEwma::new(window, alpha),
            prev: None,
            max_seen: 0.0,
            steps: 0,
        }
    }

    /// Feed this step's squared gradient norm; returns Δ(g_i).
    ///
    /// The first step has no predecessor and returns `f32::INFINITY`, so
    /// any finite δ forces a synchronization on step 0 — matching BSP
    /// initialization.
    pub fn update(&mut self, grad_sqnorm: f32) -> f32 {
        self.steps += 1;
        let smoothed = self.smoother.update(grad_sqnorm);
        let delta = match self.prev {
            None => f32::INFINITY,
            Some(p) if p.abs() > f32::EPSILON => ((smoothed - p) / p).abs(),
            Some(_) => 0.0,
        };
        self.prev = Some(smoothed);
        if delta.is_finite() && delta > self.max_seen {
            self.max_seen = delta;
        }
        delta
    }

    /// Largest finite Δ(g_i) observed so far — the `M` bound of §III-B.
    pub fn max_seen(&self) -> f32 {
        self.max_seen
    }

    /// Iterations processed.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Current smoothed squared norm.
    pub fn smoothed(&self) -> Option<f32> {
        self.prev
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_step_forces_sync() {
        let mut r = RelativeGradChange::new(5, 0.5);
        assert_eq!(r.update(1.0), f32::INFINITY);
    }

    #[test]
    fn constant_norms_give_zero_change() {
        let mut r = RelativeGradChange::new(5, 0.5);
        r.update(4.0);
        for _ in 0..20 {
            let d = r.update(4.0);
            assert!(d.abs() < 1e-6, "constant series has no relative change");
        }
    }

    #[test]
    fn change_is_relative_not_absolute() {
        // doubling from 1→2 and from 100→200 must give similar Δ
        let mut a = RelativeGradChange::new(1, 1.0); // window 1 = no smoothing
        a.update(1.0);
        let da = a.update(2.0);
        let mut b = RelativeGradChange::new(1, 1.0);
        b.update(100.0);
        let db = b.update(200.0);
        assert!((da - 1.0).abs() < 1e-6);
        assert!((da - db).abs() < 1e-6);
    }

    #[test]
    fn smoothing_dampens_single_spikes() {
        let mut smooth = RelativeGradChange::new(25, 0.16);
        let mut raw = RelativeGradChange::new(1, 1.0);
        for _ in 0..30 {
            smooth.update(1.0);
            raw.update(1.0);
        }
        let ds = smooth.update(10.0);
        let dr = raw.update(10.0);
        assert!(
            ds < dr,
            "windowed EWMA should dampen the spike: {ds} vs {dr}"
        );
        assert!(ds < 2.0, "smoothed spike is mild");
        assert!(dr > 5.0, "raw spike is huge");
    }

    #[test]
    fn max_seen_tracks_extremum() {
        let mut r = RelativeGradChange::new(1, 1.0);
        r.update(1.0);
        r.update(2.0); // Δ = 1
        r.update(2.2); // Δ = 0.1
        r.update(6.6); // Δ = 2
        assert!((r.max_seen() - 2.0).abs() < 1e-5);
        assert_eq!(r.steps(), 4);
    }

    #[test]
    fn decaying_gradients_give_decaying_delta() {
        // geometric decay: Δ settles near the decay rate then stays flat —
        // the "gradients saturate" behaviour of Fig. 3/5
        let mut r = RelativeGradChange::new(1, 1.0);
        let mut norms = 100.0f32;
        r.update(norms);
        let mut deltas = Vec::new();
        for _ in 0..50 {
            norms *= 0.95;
            deltas.push(r.update(norms));
        }
        for d in &deltas {
            assert!((d - 0.05).abs() < 1e-3, "relative change equals decay rate");
        }
    }

    #[test]
    fn zero_norm_previous_is_handled() {
        let mut r = RelativeGradChange::new(1, 1.0);
        r.update(0.0);
        let d = r.update(0.0);
        assert_eq!(d, 0.0, "0/0 treated as no change, not NaN");
    }
}
