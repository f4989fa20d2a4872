//! `compare a.jsonl b.jsonl`: two sets of runs, as `--json-out` appends
//! them, judged metric by metric. `a` is the reference (the parent commit,
//! or the first of two sets of one commit). The sets must hold the same
//! runs — same workloads, seeds, window and tracing — because the exact
//! counts are compared run by run and the rest as medians over the seeds.

use crate::metrics::{quartiles, Better, Metric, END_TO_END, EXACT};
use crate::workloads::WORKLOADS;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// One run, as `--json-out` appends it (one JSON object per line).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunRecord {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl RunRecord {
    fn value(&self, metric: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == metric)
            .map(|m| m.value)
    }
}

/// Parse a run-set file; blank lines are skipped.
pub fn parse_set(text: &str) -> Result<Vec<RunRecord>, String> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, line)| serde_json::from_str(line).map_err(|e| format!("line {}: {e}", i + 1)))
        .collect()
}

/// Pair every run of `a` with the run of `b` that had the same workload,
/// seed and tracing. The window decides how many episodes the exact counts
/// cover, so all runs must share one; anything else that differs between
/// the sets makes them incomparable.
fn paired<'a>(
    a: &'a [RunRecord],
    b: &'a [RunRecord],
) -> Result<Vec<(&'a RunRecord, &'a RunRecord)>, String> {
    let first = a.first().ok_or("the first set is empty")?;
    if let Some(r) = a.iter().chain(b).find(|r| r.seconds != first.seconds) {
        return Err(format!(
            "runs of {} s and of {} s cannot be compared",
            first.seconds, r.seconds
        ));
    }
    let sorted = |set: &'a [RunRecord]| {
        let mut runs: Vec<&RunRecord> = set.iter().collect();
        runs.sort_by_key(|r| (&r.workload, r.trace, r.seed));
        runs
    };
    let (a, b) = (sorted(a), sorted(b));
    let same_run = |x: &RunRecord, y: &RunRecord| {
        (&x.workload, x.trace, x.seed) == (&y.workload, y.trace, y.seed)
    };
    if a.len() != b.len() || a.iter().zip(&b).any(|(x, y)| !same_run(x, y)) {
        return Err("the sets do not hold the same workloads, seeds and traced runs".into());
    }
    Ok(a.into_iter().zip(b).collect())
}

/// Median, quartiles and quartile spread of one metric over a set's
/// untraced runs of one workload.
struct Sample {
    median: f64,
    q1: f64,
    q3: f64,
}

impl Sample {
    fn of(set: &[RunRecord], workload: &str, metric: &str) -> Option<Sample> {
        let values: Vec<f64> = set
            .iter()
            .filter(|r| r.workload == workload && !r.trace)
            .filter_map(|r| r.value(metric))
            .collect();
        match values.len() {
            0 => None,
            // one run has no quartiles; it stands for itself
            1 => Some(Sample {
                median: values[0],
                q1: values[0],
                q3: values[0],
            }),
            _ => {
                let [q1, median, q3] = quartiles(&values);
                Some(Sample { median, q1, q3 })
            }
        }
    }

    fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median.abs()
    }
}

fn failure_share(set: &[RunRecord], workload: &str) -> f64 {
    let (failed, attempted) = set
        .iter()
        .filter(|r| r.workload == workload)
        .fold((0u64, 0u64), |(f, a), r| (f + r.failed, a + r.attempted));
    failed as f64 / attempted.max(1) as f64
}

/// The comparison table and whether any row is a regression, or why the
/// sets cannot be compared.
pub fn compare(a: &[RunRecord], b: &[RunRecord]) -> Result<(String, bool), String> {
    let pairs = paired(a, b)?;
    let mut table = String::new();
    let mut regressed = false;
    let _ = writeln!(
        table,
        "{:<20} {:<20} {:>34} {:>34} {:>8} {:>6}  verdict",
        "workload", "metric", "a: median [q1, q3]", "b: median [q1, q3]", "worse", "bound"
    );
    for w in &WORKLOADS {
        for m in END_TO_END.iter().filter(|m| !EXACT.contains(&m.name)) {
            let (Some(sa), Some(sb)) =
                (Sample::of(a, w.name, m.name), Sample::of(b, w.name, m.name))
            else {
                continue;
            };
            let change = (sb.median - sa.median) / sa.median.abs();
            let worse = match m.better {
                Better::Lower => change,
                Better::Higher => -change,
            };
            let verdict = if sa.spread() > m.bound || sb.spread() > m.bound {
                "unresolved: spread exceeds the bound"
            } else if worse > m.bound {
                regressed = true;
                "REGRESSION"
            } else {
                "ok"
            };
            let cell = |s: &Sample| format!("{:.6} [{:.6}, {:.6}]", s.median, s.q1, s.q3);
            let _ = writeln!(
                table,
                "{:<20} {:<20} {:>34} {:>34} {:>+7.2}% {:>5.0}%  {}",
                w.name,
                m.name,
                cell(&sa),
                cell(&sb),
                100.0 * worse,
                100.0 * m.bound,
                verdict
            );
        }
        for name in EXACT {
            // (a, b) per run that reports the count; to_bits so that NaN,
            // which a failed run reports, still equals itself
            let values: Vec<(Option<f64>, Option<f64>)> = pairs
                .iter()
                .filter(|(ra, _)| ra.workload == w.name)
                .map(|(ra, rb)| (ra.value(name), rb.value(name)))
                .filter(|v| *v != (None, None))
                .collect();
            if values.is_empty() {
                continue;
            }
            let differing = values
                .iter()
                .filter(|(x, y)| x.map(f64::to_bits) != y.map(f64::to_bits))
                .count();
            // a count with a direction may change for the better; one
            // without, or one that a set lacks, may not change at all
            let direction = END_TO_END.iter().find(|m| m.name == name).map(|m| m.better);
            let better = values
                .iter()
                .filter(|v| match (direction, v) {
                    (Some(Better::Lower), (Some(x), Some(y))) => y < x,
                    (Some(Better::Higher), (Some(x), Some(y))) => y > x,
                    _ => false,
                })
                .count();
            let verdict = if differing == 0 {
                "ok: identical run by run".to_string()
            } else if better == differing {
                format!("ok: better in {better} runs")
            } else {
                regressed = true;
                format!("DIFFERS in {} runs", differing - better)
            };
            let _ = writeln!(
                table,
                "{:<20} {:<20} {:>69} {:>8} {:>6}  {}",
                w.name,
                name,
                format!("{} runs paired by seed", values.len()),
                "",
                "exact",
                verdict
            );
        }
        let (fa, fb) = (failure_share(a, w.name), failure_share(b, w.name));
        if fa > 0.0 || fb > 0.0 {
            let verdict = if fb > fa {
                regressed = true;
                "REGRESSION"
            } else {
                "ok"
            };
            let _ = writeln!(
                table,
                "{:<20} {:<20} {:>34.6} {:>34.6}  {}",
                w.name, "failure share", fa, fb, verdict
            );
        }
    }
    Ok((table, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(workload: &str, seed: u64, steps_per_s: f64) -> RunRecord {
        RunRecord {
            workload: workload.into(),
            seed,
            seconds: 20,
            trace: false,
            correct: true,
            attempted: 100,
            failed: 0,
            metrics: vec![
                Metric::new("steps_per_s", steps_per_s, "1/s"),
                Metric::new("wire_bytes_per_step", 1000.0 + seed as f64, "B"),
            ],
        }
    }

    fn set(values: &[f64]) -> Vec<RunRecord> {
        (1..)
            .zip(values)
            .map(|(seed, &v)| run("train_bsp_tcp", seed, v))
            .collect()
    }

    #[test]
    fn a_record_round_trips_through_a_line() {
        let line = serde_json::to_string(&run("sync_dense_tcp", 1, 13.25)).unwrap();
        let back = parse_set(&format!("{line}\n\n{line}\n")).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[1].metrics[0].value, 13.25);
        assert!(parse_set("{\"workload\": 3}").is_err());
    }

    #[test]
    fn verdicts_follow_bound_direction_and_spread() {
        let regressed = |a: &[RunRecord], b: &[RunRecord]| compare(a, b).unwrap().1;
        let a = set(&[100.0, 101.0, 99.0, 100.5, 99.5]);
        // higher is better: 5% slower is inside the 25% bound, 40% is not
        assert!(!regressed(&a, &set(&[95.0, 96.0, 94.0, 95.5, 94.5])));
        let (table, worse) = compare(&a, &set(&[60.0, 61.0, 59.0, 60.5, 59.5])).unwrap();
        assert!(worse && table.contains("REGRESSION"));
        // faster is never a regression
        assert!(!regressed(&a, &set(&[150.0, 151.0, 149.0, 150.5, 149.5])));
        // a spread wider than the bound cannot resolve a 40% drop
        let (table, worse) = compare(&a, &set(&[40.0, 80.0, 60.0, 75.0, 45.0])).unwrap();
        assert!(!worse && table.contains("unresolved"));
        // more failures than the reference is a regression by itself
        let mut b = a.clone();
        b[0].failed = 10;
        assert!(regressed(&a, &b));
    }

    #[test]
    fn exact_counts_are_compared_run_by_run() {
        let a = set(&[100.0, 101.0, 99.0]);
        // the order of the lines in a set does not matter
        let mut b = a.clone();
        b.reverse();
        let (table, worse) = compare(&a, &b).unwrap();
        assert!(!worse && table.contains("identical run by run"));
        // one byte more on one seed is far inside any pooled bound, and a
        // regression all the same; one byte fewer is a saving
        let mut b = a.clone();
        b[1].metrics[1].value += 1.0;
        let (table, worse) = compare(&a, &b).unwrap();
        assert!(worse && table.contains("DIFFERS in 1 runs"));
        b[1].metrics[1].value -= 2.0;
        let (table, worse) = compare(&a, &b).unwrap();
        assert!(!worse && table.contains("better in 1 runs"));
        // a count without a direction may not move either way
        let traced = |steps_to_target: f64| {
            let mut r = run("train_bsp_tcp", 1, 100.0);
            r.trace = true;
            r.metrics = vec![Metric::new(
                "core.steps_to_target",
                steps_to_target,
                "count",
            )];
            vec![r]
        };
        assert!(!compare(&traced(170.5), &traced(170.5)).unwrap().1);
        assert!(compare(&traced(170.5), &traced(160.0)).unwrap().1);
    }

    #[test]
    fn sets_of_different_runs_are_refused() {
        let a = set(&[100.0, 101.0, 99.0]);
        let mut other_window = a.clone();
        other_window[2].seconds = 10;
        assert!(compare(&a, &other_window).unwrap_err().contains("10 s"));
        let mut other_seed = a.clone();
        other_seed[0].seed = 7;
        assert!(compare(&a, &other_seed).is_err());
        assert!(compare(&a, &a[..2]).is_err());
        let mut traced = a.clone();
        traced[0].trace = true;
        assert!(compare(&a, &traced).is_err());
        assert!(compare(&[], &[]).is_err());
    }
}
