//! Simulated cluster clock.
//!
//! Each worker accumulates modeled compute and communication time on its
//! own lane; synchronization points merge lanes to the maximum (everyone
//! waits for the straggler) before adding the collective's cost —
//! exactly the `t_it = t_c + t_s` accounting of §II-A.

use serde::{Deserialize, Serialize};

/// Per-worker simulated clocks for one training run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClusterClock {
    lanes: Vec<f64>,
}

impl ClusterClock {
    /// A clock with `n` worker lanes at t = 0.
    pub fn new(n: usize) -> Self {
        assert!(n > 0);
        ClusterClock {
            lanes: vec![0.0; n],
        }
    }

    /// Advance worker `w` by `dt` seconds of local work.
    pub fn advance(&mut self, w: usize, dt: f64) {
        debug_assert!(dt >= 0.0, "time cannot go backwards");
        self.lanes[w] += dt;
    }

    /// Advance every worker by `dt` (uniform local work).
    pub fn advance_all(&mut self, dt: f64) {
        for l in &mut self.lanes {
            *l += dt;
        }
    }

    /// Blocking collective: all lanes jump to `max(lanes) + comm_time`.
    pub fn barrier(&mut self, comm_time: f64) {
        let t = self.elapsed() + comm_time;
        for l in &mut self.lanes {
            *l = t;
        }
    }

    /// Partial barrier over `participants` only (FedAvg with C < 1):
    /// the participants synchronize among themselves, others keep their
    /// lanes.
    pub fn partial_barrier(&mut self, participants: &[usize], comm_time: f64) {
        let t = participants
            .iter()
            .map(|&w| self.lanes[w])
            .fold(0.0f64, f64::max)
            + comm_time;
        for &w in participants {
            self.lanes[w] = t;
        }
    }

    /// Worker `w`'s current simulated time.
    pub fn lane(&self, w: usize) -> f64 {
        self.lanes[w]
    }

    /// Cluster elapsed time: the slowest lane.
    pub fn elapsed(&self) -> f64 {
        self.lanes.iter().copied().fold(0.0, f64::max)
    }

    /// Fastest lane (used by SSP staleness reasoning).
    pub fn min_lane(&self) -> f64 {
        self.lanes.iter().copied().fold(f64::INFINITY, f64::min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lanes_advance_independently() {
        let mut c = ClusterClock::new(3);
        c.advance(0, 1.0);
        c.advance(1, 2.0);
        assert_eq!(c.lane(0), 1.0);
        assert_eq!(c.lane(1), 2.0);
        assert_eq!(c.lane(2), 0.0);
        assert_eq!(c.elapsed(), 2.0);
        assert_eq!(c.min_lane(), 0.0);
    }

    #[test]
    fn barrier_waits_for_straggler() {
        let mut c = ClusterClock::new(2);
        c.advance(0, 1.0);
        c.advance(1, 5.0);
        c.barrier(0.5);
        assert_eq!(c.lane(0), 5.5);
        assert_eq!(c.lane(1), 5.5);
    }

    #[test]
    fn partial_barrier_leaves_others_alone() {
        let mut c = ClusterClock::new(3);
        c.advance(0, 1.0);
        c.advance(1, 3.0);
        c.advance(2, 10.0);
        c.partial_barrier(&[0, 1], 1.0);
        assert_eq!(c.lane(0), 4.0);
        assert_eq!(c.lane(1), 4.0);
        assert_eq!(c.lane(2), 10.0);
    }

    #[test]
    fn advance_all_is_uniform() {
        let mut c = ClusterClock::new(2);
        c.advance_all(0.25);
        assert_eq!(c.lane(0), 0.25);
        assert_eq!(c.lane(1), 0.25);
    }
}
