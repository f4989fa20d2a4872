//! selsync-benchmark: the repo's one benchmark. One workload per process;
//! see README.md in this directory for the metric and workload definitions.

mod compare;
mod fabric;
mod layers;
mod metrics;
mod run;
mod trace;
mod workloads;

use compare::RunRecord;
use metrics::Metric;
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "USAGE:
  selsync-benchmark --workload <name> [--seed <n>] [--seconds <n>] [--trace <0|1>] [--json-out <file>]
  selsync-benchmark --layers
  selsync-benchmark compare <a.jsonl> <b.jsonl>

  --workload  train_local_chan | train_bsp_tcp | train_selsync_poll | sync_dense_tcp
  --seed      seeds dataset, model init and pushed values (default 1)
  --seconds   length of the timed window (default 20)
  --trace     0: end-to-end metrics, tracing off (default); 1: per-layer metrics from the
              direct ladder and a traced run, and benchmark/out/trace-<workload>.jsonl
  --json-out  append this run as one JSON line, for `compare`
  --layers    run only the per-layer ladder";

/// The window the counts are frozen for: `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: u64 = 20;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    layers: bool,
    json_out: Option<PathBuf>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        layers: false,
        json_out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let number = |v: &String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {v}"))
        };
        match flag.as_str() {
            "--workload" => out.workload = Some(value()?.clone()),
            "--seed" => out.seed = number(value()?)?,
            "--seconds" => out.seconds = number(value()?)?.max(1),
            "--trace" => out.trace = number(value()?)? != 0,
            "--json-out" => out.json_out = Some(PathBuf::from(value()?)),
            "--layers" => out.layers = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(out)
}

fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
}

/// JSON has no NaN or infinity; a metric that is not finite prints null.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        v.to_string()
    } else {
        "null".into()
    }
}

/// The result line the pipeline reads: the last line of standard output.
fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn run_compare(paths: &[String]) -> Result<bool, String> {
    let [a, b] = paths else {
        return Err("compare needs exactly two files".into());
    };
    let load = |p: &String| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{p}: {e}"))
            .and_then(|t| compare::parse_set(&t).map_err(|e| format!("{p}: {e}")))
    };
    let (table, regressed) = compare::compare(&load(a)?, &load(b)?)?;
    print!("{table}");
    Ok(regressed)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().is_some_and(|a| a == "compare") {
        return match run_compare(&argv[1..]) {
            Ok(false) => ExitCode::SUCCESS,
            Ok(true) => ExitCode::from(1),
            Err(e) => {
                eprintln!("{e}");
                ExitCode::from(2)
            }
        };
    }
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    let Some(name) = &args.workload else {
        if args.layers {
            println!("per-layer ladder, {cores} cores available");
            print_metrics(&layers::run_ladder());
            return ExitCode::SUCCESS;
        }
        eprintln!("--workload or --layers is required\n{USAGE}");
        return ExitCode::from(2);
    };
    let Some(spec) = workloads::find(name) else {
        eprintln!("unknown workload {name}\n{USAGE}");
        return ExitCode::from(2);
    };

    // `cargo run` exports the package directory; outputs stay under it
    let out_dir = std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from("benchmark"), PathBuf::from)
        .join("out");
    println!(
        "{name}: seed {}, {} s window, trace {}, {cores} cores available",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("  {}", spec.why);
    let outcome = run::run(&run::Plan {
        spec,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        out_dir: &out_dir,
    });
    print!("{}", outcome.report);
    print_metrics(&outcome.metrics);
    for m in &outcome.fillers {
        println!(
            "{} is not defined on {name}; the result line stands {} {} in for it",
            m.name, m.value, m.unit
        );
    }
    println!("ops_attempted {} count", outcome.attempted);
    println!("ops_failed {} count", outcome.failed);
    for v in &outcome.violations {
        println!("CHECK FAILED: {v}");
    }
    let correct = outcome.violations.is_empty();

    if let Some(path) = &args.json_out {
        let record = RunRecord {
            workload: name.clone(),
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
            correct,
            attempted: outcome.attempted,
            failed: outcome.failed,
            metrics: outcome.metrics.clone(),
        };
        let appended = serde_json::to_string(&record)
            .map_err(|e| e.to_string())
            .and_then(|line| {
                let mut f = std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)
                    .map_err(|e| e.to_string())?;
                writeln!(f, "{line}").map_err(|e| e.to_string())
            });
        if let Err(e) = appended {
            eprintln!("{}: {e}", path.display());
            return ExitCode::from(2);
        }
    }

    // the pipeline wants every listed metric from every workload
    let listed = [outcome.metrics, outcome.fillers].concat();
    println!(
        "{}",
        result_line(correct, outcome.attempted, outcome.failed, &listed)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metrics::{Better, END_TO_END};
    use serde::Deserialize;

    #[derive(Deserialize)]
    struct Named {
        name: String,
        why: Option<String>,
        unit: Option<String>,
        better: Option<String>,
        bound: Option<f64>,
    }

    #[derive(Deserialize)]
    struct BenchmarkJson {
        command: Vec<String>,
        paths: Vec<String>,
        run_seconds: u64,
        workloads: Vec<Named>,
        end_to_end: Vec<Named>,
        per_layer: Vec<Named>,
    }

    /// `BENCHMARK.json` is what the pipeline reads and the tables in this
    /// package are what the program does; they must say the same.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let file: BenchmarkJson =
            serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(file.paths, ["benchmark"]);
        assert!(file.command.contains(&"benchmark/Cargo.toml".to_string()));
        assert_eq!(file.run_seconds, DEFAULT_SECONDS);
        assert_eq!(workloads::counted_episodes(file.run_seconds), 12);

        assert_eq!(file.workloads.len(), workloads::WORKLOADS.len());
        for (listed, spec) in file.workloads.iter().zip(&workloads::WORKLOADS) {
            assert_eq!(listed.name, spec.name);
            assert_eq!(listed.why.as_deref(), Some(spec.why));
        }
        assert_eq!(file.end_to_end.len(), END_TO_END.len());
        for (listed, m) in file.end_to_end.iter().zip(&END_TO_END) {
            assert_eq!(listed.name, m.name);
            assert_eq!(listed.unit.as_deref(), Some(m.unit));
            let better = match m.better {
                Better::Lower => "lower",
                Better::Higher => "higher",
            };
            assert_eq!(listed.better.as_deref(), Some(better));
            assert_eq!(listed.bound, Some(m.bound));
        }
        let mut names: Vec<&str> = file.per_layer.iter().map(|m| m.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(
            names.len(),
            file.per_layer.len(),
            "per-layer names are unique"
        );
    }
}
