//! Metric plumbing shared by every mode: the metric value type, the
//! end-to-end table with its frozen bounds, quartiles as the pipeline
//! computes them, and the process counters read from `/proc`.

use serde::{Deserialize, Serialize};
use std::fs;

/// One reported number, as printed and as stored in a run-set file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit: unit.into(),
        }
    }
}

/// Which way is better for a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// An end-to-end metric: its unit, direction, and the share of the
/// reference median, pooled over a set's seeds, by which it may worsen
/// before it counts as a regression. `BENCHMARK.json` carries the same
/// table. A bound is three times the widest seed-to-seed quartile spread
/// measured on any workload, capped at the pipeline's 25%.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "steps_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "time_to_target_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        // across seeds only: for one seed it is in `EXACT`
        name: "wire_bytes_per_step",
        unit: "B",
        better: Better::Lower,
        bound: 0.20,
    },
    EndToEnd {
        name: "cpu_ms_per_step",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// Counts that are a pure function of (workload, seed, seconds). `compare`
/// pairs the two sets' runs seed by seed and accepts no difference in these
/// at all, whatever bound the pooled medians have.
pub const EXACT: [&str; 4] = [
    "wire_bytes_per_step",
    "core.sync_fraction",
    "core.steps_to_target",
    "core.final_metric",
];

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Interquartile mean: the mean of what is left after a quarter of the
/// sample (rounded down) is dropped from each end. `None` entries sort
/// last — an episode that never met its target is slower than any that
/// did — and the result is `None` when one of them survives the trimming.
pub fn interquartile_mean(values: &[Option<f64>]) -> Option<f64> {
    let mut v: Vec<f64> = values.iter().map(|x| x.unwrap_or(f64::INFINITY)).collect();
    v.sort_by(f64::total_cmp);
    let kept = &v[v.len() / 4..v.len() - v.len() / 4];
    let mean = kept.iter().sum::<f64>() / kept.len() as f64;
    mean.is_finite().then_some(mean)
}

/// First quartile, median and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` gives them (the exclusive method),
/// so spreads computed here match the pipeline's. Needs two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    let m = ld + 1;
    [1usize, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}

/// Linux reports process times in clock ticks of 1/USER_HZ s; USER_HZ is
/// 100 on every architecture this runs on.
const TICKS_PER_S: f64 = 100.0;

/// CPU seconds (user + system, all threads) this process has used.
pub fn process_cpu_s() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // the command name may contain spaces; fields are counted after its ')'
    let after = &stat[stat.rfind(')').expect("comm field") + 1..];
    let fields: Vec<&str> = after.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the line, 12 and 13 after comm
    let ticks = |i: usize| fields[i].parse::<f64>().expect("tick count");
    (ticks(11) + ticks(12)) / TICKS_PER_S
}

/// Peak resident set size of this process so far, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .expect("VmHWM line");
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .expect("VmHWM value in kB");
    kb / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), [7.5, 15.0, 22.5]);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn interquartile_mean_trims_a_quarter_from_each_end() {
        let v: Vec<Option<f64>> = [5.0, 1.0, 100.0, 3.0, 2.0, 4.0, 6.0, 7.0]
            .map(Some)
            .to_vec();
        assert_eq!(interquartile_mean(&v), Some(4.5)); // mean of 3, 4, 5, 6
                                                       // a missing value is the slowest: trimmed while it is in the top quarter
        let mut w = v.clone();
        w[2] = None;
        assert_eq!(interquartile_mean(&w), Some(4.5));
        w[6] = None;
        w[7] = None;
        assert_eq!(interquartile_mean(&w), None);
        assert_eq!(interquartile_mean(&[Some(2.0), Some(4.0)]), Some(3.0));
    }

    #[test]
    fn process_counters_read() {
        assert!(process_cpu_s() >= 0.0);
        assert!(peak_rss_mb() > 0.1);
    }
}
