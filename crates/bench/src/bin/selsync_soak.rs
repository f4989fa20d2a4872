//! `selsync_soak` — the chaos harness: named scenarios, then a
//! randomized fault-schedule sweep with shrinking.
//!
//! Runs the nine named scenarios on the channel, blocking-TCP and
//! poll-TCP fabrics, then N seeded random [`FaultPlan`]s across the
//! monolithic, bucketed, sharded (K = 2) and serve topologies (training
//! schedule `i` on fabric `i % 3`, serve on the channel fabric), and
//! checks every run against the invariants of [`selsync_bench::soak`].
//! A failing random plan is greedily shrunk to a 1-minimal schedule and
//! written as JSON (`--out`, default `SOAK_repro.json`); a named
//! scenario is its own repro.
//!
//! Flags:
//!
//! * `--quick`        CI scale: 51 schedules, short runs
//! * `--schedules N`  override the schedule count
//! * `--seed S`       sweep seed (default 42); every plan is a pure
//!   function of `(seed, index, topology)`
//! * `--out PATH`     where a repro JSON lands on failure
//!
//! Exit status: 0 all green, 1 at least one violation, 2 bad usage or a
//! broken fault-free baseline.

use selsync_bench::banner;
use selsync_bench::soak::{
    classify, describe, named_scenarios, random_plan, run_serve, run_training, shrink,
    verify_serve, verify_training, FabricKind, PlanClass, PsRecovery, Repro, ServeKnobs, Topology,
    TrainingKnobs, Violation, REPRO_SCHEMA, SOAK_MLP_DIMS,
};
use selsync_chaos::FaultPlan;
use selsync_core::checkpoint::{prev_path, save_state, TrainState};
use selsync_nn::flat::flat_params;
use selsync_nn::models::Mlp;
use std::time::Instant;

struct Flags {
    quick: bool,
    schedules: u64,
    seed: u64,
    out: String,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags {
        quick: false,
        schedules: 0,
        seed: 42,
        out: "SOAK_repro.json".to_string(),
    };
    let mut it = args.iter();
    let number = |flag: &str, v: Option<&String>| {
        v.and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("{flag} needs a number"))
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => f.quick = true,
            "--schedules" => f.schedules = number(a, it.next())?,
            "--seed" => f.seed = number(a, it.next())?,
            "--out" => f.out = it.next().cloned().ok_or("--out needs a path")?,
            other => {
                return Err(format!(
                    "unknown flag '{other}' \
                     (selsync_soak [--quick] [--schedules N] [--seed S] [--out PATH])"
                ))
            }
        }
    }
    if f.schedules == 0 {
        f.schedules = if f.quick { 51 } else { 120 };
    }
    Ok(f)
}

fn class_name(c: PlanClass) -> &'static str {
    match c {
        PlanClass::Benign => "benign",
        PlanClass::CrashOnly => "crash",
        PlanClass::Lossy => "lossy",
    }
}

/// Run + verify one schedule, returning the violation if any and a
/// short stats string for the table. `fabric` and `recovery` apply to
/// training topologies only.
fn run_one(
    topo: Topology,
    fabric: FabricKind,
    plan: &FaultPlan,
    recovery: Option<PsRecovery>,
    tk: &TrainingKnobs,
    sk: &ServeKnobs,
    baselines: &Baselines,
) -> (Option<Violation>, String) {
    match topo {
        Topology::Serve => match run_serve(plan, sk) {
            Ok(run) => {
                let v = verify_serve(plan, &run, baselines.serve, sk);
                let s = format!(
                    "req={} evict={} corrupt={} {}ms",
                    run.completed,
                    run.evicted.len(),
                    run.chaos.corrupt,
                    run.wall_ms
                );
                (v, s)
            }
            Err(v) => (Some(v), "-".to_string()),
        },
        _ => match run_training(topo, fabric, plan, tk, recovery) {
            Ok(run) => {
                let baseline = match topo {
                    Topology::Sharded(_) => baselines.sharded,
                    // bucketed is monolithic in a different wire format;
                    // benign schedules must land on the same fingerprint
                    _ => baselines.monolithic,
                };
                let v = verify_training(plan, &run, baseline, tk, recovery);
                let mut s = format!(
                    "sync={} evict={} fail={} drop={} corrupt={} {}ms",
                    run.syncs,
                    run.evictions,
                    run.failed,
                    run.chaos.dropped,
                    run.chaos.corrupt,
                    run.wall_ms
                );
                if recovery.is_some() {
                    s += &format!(" resumed={} prev={}", run.ps_resumed, run.fallback_prev);
                }
                (v, s)
            }
            Err(v) => (Some(v), "-".to_string()),
        },
    }
}

struct Baselines {
    monolithic: u64,
    sharded: u64,
    serve: u64,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flags = match parse_flags(&args) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    banner(
        "selsync_soak",
        "Randomized fault-schedule sweep with invariant checks and shrinking",
    );

    let steps = if flags.quick { 4 } else { 8 };
    let requests = if flags.quick { 30 } else { 120 };
    let tk = TrainingKnobs::quick(steps);

    // one SSV2 checkpoint shared by every serve schedule
    let ckpt = std::env::temp_dir().join(format!("selsync_soak_{}.ckpt", std::process::id()));
    let params = flat_params(&Mlp::new(&SOAK_MLP_DIMS, 77));
    let state = TrainState {
        step: 1,
        ..TrainState::fresh(0, params)
    };
    save_state(&ckpt, &state).expect("write soak checkpoint");
    let sk = ServeKnobs::quick(ckpt.clone(), requests);

    // fault-free baselines per topology, on the channel fabric: the
    // fingerprints the benign invariant compares against — and a sanity
    // gate: if the quiet schedule itself misbehaves, the sweep has
    // nothing to stand on
    let quiet = FaultPlan::quiet(flags.seed);
    let cleanup = || {
        std::fs::remove_file(&ckpt).ok();
        std::fs::remove_file(prev_path(&ckpt)).ok();
    };
    let baseline = |name: &str, run: Result<u64, Violation>| {
        run.unwrap_or_else(|v| {
            eprintln!(
                "FAIL: fault-free {name} baseline: {}: {}",
                v.invariant, v.detail
            );
            cleanup();
            std::process::exit(2);
        })
    };
    let training =
        |topo| run_training(topo, FabricKind::Channel, &quiet, &tk, None).map(|r| r.fingerprint);
    let baselines = Baselines {
        monolithic: baseline("monolithic", training(Topology::Monolithic)),
        sharded: baseline("sharded", training(Topology::Sharded(2))),
        serve: baseline("serve", run_serve(&quiet, &sk).map(|r| r.fingerprint)),
    };

    let t0 = Instant::now();
    let mut violations = 0u64;
    let mut repro_written = false;
    println!(
        "{:<17} {:<11} {:<7} {:<7} {:<38} {:<6} stats",
        "run", "topology", "fabric", "class", "plan", "result"
    );
    let mut report = |run: &str, topo, fabric: FabricKind, plan: &FaultPlan, recovery| {
        let (violation, stats) = run_one(topo, fabric, plan, recovery, &tk, &sk, &baselines);
        println!(
            "{run:<17} {:<11} {:<7} {:<7} {:<38} {:<6} {stats}",
            topo.name(),
            fabric.name(),
            class_name(classify(plan)),
            describe(plan),
            if violation.is_some() { "FAIL" } else { "ok" },
        );
        if let Some(v) = &violation {
            violations += 1;
            println!("  violation: {} — {}", v.invariant, v.detail);
        }
        violation
    };

    // the named scenarios, each on every fabric: a violation is reported
    // by name, which replays it exactly
    let scenarios = named_scenarios(flags.seed, tk.cfg.n_workers);
    for s in &scenarios {
        for fabric in FabricKind::ALL {
            report(s.name, s.topo, fabric, &s.plan, s.recovery);
        }
    }
    let named_runs = scenarios.len() * FabricKind::ALL.len();

    let topos = [
        Topology::Monolithic,
        Topology::Bucketed,
        Topology::Sharded(2),
        Topology::Serve,
    ];
    for i in 0..flags.schedules {
        let topo = topos[(i % topos.len() as u64) as usize];
        // serve plans target replica ranks on the channel fabric;
        // training plans worker ranks on the index's fabric
        let (ranks, fabric) = match topo {
            Topology::Serve => (sk.replicas, FabricKind::Channel),
            _ => (tk.cfg.n_workers, FabricKind::for_schedule(i)),
        };
        let plan = random_plan(flags.seed, i, topo, ranks, tk.cfg.max_steps);
        let Some(v) = report(&i.to_string(), topo, fabric, &plan, None) else {
            continue;
        };
        println!("  shrinking the schedule...");
        // greedy shrink: keep any one-step-simpler plan that still
        // reproduces *some* violation of the same sweep
        let minimal = shrink(&plan, |cand| {
            run_one(topo, fabric, cand, None, &tk, &sk, &baselines)
                .0
                .is_some()
        });
        let (min_violation, _) = run_one(topo, fabric, &minimal, None, &tk, &sk, &baselines);
        let v = min_violation.unwrap_or(v);
        let repro = Repro {
            schema: REPRO_SCHEMA.to_string(),
            sweep_seed: flags.seed,
            schedule: i,
            topology: topo.name().to_string(),
            fabric: fabric.name().to_string(),
            invariant: v.invariant.clone(),
            detail: v.detail.clone(),
            shrunk_plan: minimal,
            original_plan: plan,
        };
        let json = repro.to_json();
        println!("  minimal repro:\n{json}");
        match std::fs::write(&flags.out, &json) {
            Ok(()) => repro_written = true,
            Err(e) => eprintln!("  (could not write {}: {e})", flags.out),
        }
    }

    cleanup();
    println!();
    if violations == 0 {
        println!(
            "soak: {named_runs} named runs + {} schedules green in {:.1}s (seed {})",
            flags.schedules,
            t0.elapsed().as_secs_f64(),
            flags.seed
        );
    } else {
        print!(
            "soak: {violations} violation(s) in {named_runs} named runs + {} schedules",
            flags.schedules
        );
        if repro_written {
            print!("; last minimal repro in {}", flags.out);
        }
        println!();
        std::process::exit(1);
    }
}
