//! # selsync-bench
//!
//! Experiment harnesses regenerating every table and figure of the
//! paper's evaluation (§IV). Each binary in `src/bin/` reproduces one
//! artifact and prints (a) an aligned human-readable table/series and
//! (b) machine-readable JSON lines (one object per row) for plotting.
//!
//! All harnesses respect two environment variables:
//!
//! * `SELSYNC_SCALE` — `quick` (default; minutes on a laptop core) or
//!   `full` (longer runs, tighter curves);
//! * `SELSYNC_WORKERS` — override the cluster size.
//!
//! The mapping from paper artifact → binary is the experiment index in
//! DESIGN.md §3.

// The unsafe-outside-kernels invariant (selsync-lint), compiler-enforced:
// SIMD and socket code live in crates/tensor and crates/net only.
#![deny(unsafe_code)]

pub mod cli;
pub mod soak;

use selsync_core::prelude::*;
use serde::Serialize;

/// Run-scale knobs derived from the environment.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Cluster size for distributed runs.
    pub workers: usize,
    /// Step budget for convergence runs.
    pub steps: u64,
    /// Dataset size (samples / bptt windows).
    pub data: usize,
    /// Evaluation period.
    pub eval_every: u64,
}

impl Scale {
    /// Read `SELSYNC_SCALE` / `SELSYNC_WORKERS` / `SELSYNC_STEPS`.
    pub fn from_env() -> Self {
        let full = std::env::var("SELSYNC_SCALE").is_ok_and(|v| parse_scale_is_full(&v));
        let mut s = if full {
            Scale {
                workers: 16,
                steps: 1200,
                data: 2048,
                eval_every: 60,
            }
        } else {
            Scale {
                workers: 8,
                steps: 400,
                data: 768,
                eval_every: 40,
            }
        };
        if let Ok(w) = std::env::var("SELSYNC_WORKERS") {
            s.workers = parse_env_int("SELSYNC_WORKERS", &w);
        }
        if let Ok(st) = std::env::var("SELSYNC_STEPS") {
            s.steps = parse_env_int("SELSYNC_STEPS", &st);
        }
        s
    }
}

/// Parse `SELSYNC_SCALE`: `true` for `full`, `false` for `quick`, and a
/// panic that names the variable and the value for anything else, so
/// `SELSYNC_SCALE=Full` does not quietly run at quick scale.
fn parse_scale_is_full(value: &str) -> bool {
    match value {
        "quick" => false,
        "full" => true,
        _ => panic!("SELSYNC_SCALE must be quick or full, got SELSYNC_SCALE={value:?}"),
    }
}

/// Parse an integer-valued environment variable, panicking with a
/// diagnostic that names both the variable and the offending value —
/// `SELSYNC_WORKERS=8x` should say so, not just "invalid digit".
fn parse_env_int<T: std::str::FromStr>(name: &str, value: &str) -> T {
    value.parse().unwrap_or_else(|_| {
        panic!("{name} must be an integer, got {name}={value:?}");
    })
}

/// Print an experiment banner.
pub fn banner(id: &str, title: &str) {
    println!("================================================================");
    println!("{id}: {title}");
    println!("================================================================");
}

/// Emit one machine-readable result row.
pub fn json_row<T: Serialize>(row: &T) {
    println!(
        "JSON {}",
        serde_json::to_string(row).expect("serializable row")
    );
}

/// The standard experiment config for a workload under a strategy, at
/// the paper's recipes (§IV-A) scaled to the minis.
pub fn paper_config(kind: ModelKind, strategy: Strategy, scale: &Scale) -> RunConfig {
    let (lr, optim) = recipe(kind, scale.steps);
    RunConfig {
        strategy,
        n_workers: scale.workers,
        batch_size: 8,
        max_steps: scale.steps,
        eval_every: scale.eval_every,
        partition: PartitionScheme::SelDp,
        noniid_labels: None,
        injection: None,
        lr,
        optim,
        ewma_window: 25,
        ewma_alpha: RunConfig::paper_ewma_alpha(scale.workers),
        seed: 42,
        straggler: None,
        backend: SyncBackend::ParameterServer,
        compression: None,
        grad_clip: None,
        overlap_buckets: None,
        wire_compression: false,
    }
}

/// The per-model optimizer recipe of §IV-A, with LR boundaries scaled
/// from the paper's epochs to the mini's `steps` budget (the paper
/// decays ResNet at epochs 110/150 of ~160 and VGG at 50/75 of ~90 —
/// the same ~62%/88% points of the run reproduced here).
pub fn recipe(kind: ModelKind, steps: u64) -> (LrSchedule, OptimKind) {
    let b1 = steps * 5 / 8;
    let b2 = steps * 7 / 8;
    match kind {
        // ResNet101: SGD m=0.9 wd=4e-4, lr 0.1 ÷10 twice late in training
        ModelKind::ResNetMini => (
            LrSchedule::StepDecay {
                base_lr: 0.05,
                boundaries: vec![b1, b2],
                factor: 0.1,
            },
            OptimKind::Sgd {
                momentum: 0.9,
                weight_decay: 4e-4,
            },
        ),
        // VGG11: SGD m=0.9 wd=5e-4, lr ÷10 twice late in training.
        // The plain (norm-free) stack needs the smallest rate — the
        // paper's VGG recipe likewise uses a 10x lower lr than ResNet's.
        ModelKind::VggMini => (
            LrSchedule::StepDecay {
                base_lr: 0.01,
                boundaries: vec![b1, b2],
                factor: 0.1,
            },
            OptimKind::Sgd {
                momentum: 0.9,
                weight_decay: 5e-4,
            },
        ),
        // AlexNet: Adam, fixed lr (scaled up for the mini)
        ModelKind::AlexNetMini => (LrSchedule::Constant { lr: 3e-3 }, OptimKind::Adam),
        // Transformer: SGD, lr ×0.8 periodically (paper: every 2000 its);
        // the mini converges to near the source-entropy floor with
        // momentum at this rate
        ModelKind::TransformerMini => (
            LrSchedule::Exponential {
                base_lr: 0.08,
                every: (steps / 5).max(1),
                factor: 0.8,
            },
            OptimKind::Sgd {
                momentum: 0.9,
                weight_decay: 0.0,
            },
        ),
    }
}

/// Build the standard workload for a kind at this scale.
pub fn workload_for(kind: ModelKind, scale: &Scale) -> Workload {
    Workload::for_kind(kind, scale.data, 42)
}

/// Run one configuration and return the result, echoing a progress line.
pub fn run_and_report(kind: ModelKind, cfg: &RunConfig, wl: &Workload) -> RunResult {
    let start = std::time::Instant::now();
    let result = run_distributed(cfg, wl);
    eprintln!(
        "  [{}] {} — {} steps, LSSR {:.3}, metric {:.4} ({:.1}s host)",
        kind.paper_name(),
        cfg.strategy.label(),
        cfg.max_steps,
        result.lssr.lssr(),
        result.final_metric,
        start.elapsed().as_secs_f32(),
    );
    result
}

/// Format a metric the way the paper prints it (percent or perplexity).
pub fn fmt_metric(kind: ModelKind, v: f32) -> String {
    if kind.lower_is_better() {
        format!("{v:.2}")
    } else {
        format!("{:.2}%", v * 100.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_scale_is_small() {
        // default (no env) must stay laptop-sized
        let s = Scale {
            workers: 8,
            steps: 400,
            data: 768,
            eval_every: 40,
        };
        assert!(s.workers <= 16 && s.steps <= 2000);
    }

    #[test]
    fn recipes_match_paper_structure() {
        let (lr, opt) = recipe(ModelKind::ResNetMini, 400);
        if let LrSchedule::StepDecay { boundaries, .. } = &lr {
            assert_eq!(boundaries, &vec![250, 350], "decays land inside the budget");
        } else {
            panic!("ResNet decays stepwise");
        }
        assert!(matches!(opt, OptimKind::Sgd { .. }));
        let (lr_a, opt_a) = recipe(ModelKind::AlexNetMini, 400);
        assert!(
            matches!(lr_a, LrSchedule::Constant { .. }),
            "AlexNet fixed lr"
        );
        assert!(matches!(opt_a, OptimKind::Adam));
        let (lr_t, _) = recipe(ModelKind::TransformerMini, 400);
        assert!(matches!(lr_t, LrSchedule::Exponential { .. }));
    }

    #[test]
    fn parse_env_int_accepts_integers() {
        let w: usize = parse_env_int("SELSYNC_WORKERS", "12");
        assert_eq!(w, 12);
        let s: u64 = parse_env_int("SELSYNC_STEPS", "400");
        assert_eq!(s, 400);
    }

    #[test]
    fn parse_env_int_names_variable_and_value_on_failure() {
        let err = std::panic::catch_unwind(|| -> usize { parse_env_int("SELSYNC_WORKERS", "8x") })
            .unwrap_err();
        let msg = err
            .downcast_ref::<String>()
            .expect("panic carries a String");
        assert!(msg.contains("SELSYNC_WORKERS"), "names the variable: {msg}");
        assert!(msg.contains("\"8x\""), "names the offending value: {msg}");
    }

    #[test]
    fn parse_scale_accepts_exactly_quick_and_full() {
        assert!(!parse_scale_is_full("quick"));
        assert!(parse_scale_is_full("full"));
    }

    #[test]
    fn parse_scale_names_variable_and_value_on_failure() {
        for typo in ["Full", "ful", "FULL", ""] {
            let err = std::panic::catch_unwind(|| parse_scale_is_full(typo)).unwrap_err();
            let msg = err
                .downcast_ref::<String>()
                .expect("panic carries a String");
            assert!(msg.contains("SELSYNC_SCALE"), "names the variable: {msg}");
            assert!(
                msg.contains(&format!("{typo:?}")),
                "names the offending value: {msg}"
            );
        }
    }

    #[test]
    fn paper_config_uses_seldp_and_paper_alpha() {
        let s = Scale {
            workers: 16,
            steps: 10,
            data: 64,
            eval_every: 5,
        };
        let c = paper_config(ModelKind::VggMini, Strategy::LocalOnly, &s);
        assert_eq!(c.partition, PartitionScheme::SelDp);
        assert!((c.ewma_alpha - 0.16).abs() < 1e-6);
    }
}
