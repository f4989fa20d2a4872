//! CLI for the workspace determinism & protocol-invariant linter.
//!
//! ```text
//! selsync-lint [--json] [--root DIR] [--baseline FILE] [PATH...]
//! selsync-lint --write-baseline FILE [--root DIR] [PATH...]
//! ```
//!
//! Scans `crates/ src/ tests/ examples/` under the workspace root (or
//! the given PATHs, relative to it) and exits nonzero on any
//! unsuppressed finding. `--json` emits the machine-readable report on
//! stdout, self-validated before printing — malformed JSON is a build
//! failure, not a silent artifact. `--baseline` diffs the run against
//! a committed snapshot and fails on drift in either direction (new
//! finding, or stale entry); `--write-baseline` regenerates the
//! snapshot.
#![deny(unsafe_code)]

use selsync_lint::{baseline, engine, json};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
selsync-lint: workspace determinism & protocol-invariant linter

USAGE:
  selsync-lint [--json] [--root DIR] [--baseline FILE] [PATH...]
  selsync-lint --write-baseline FILE [--root DIR] [PATH...]

OPTIONS:
  --json                 emit the machine-readable report (self-validated)
  --root DIR             workspace root to scan from (default: .)
  --baseline FILE        diff findings against the committed snapshot;
                         fail on any new finding or stale entry
  --write-baseline FILE  snapshot the current findings to FILE and exit 0
  PATH...                sub-paths to scan instead of crates/ src/ tests/ examples/
  -h, --help             show this help

EXIT CODES:
  0  no unsuppressed findings (or: all findings covered by the baseline)
  1  unsuppressed findings / baseline drift
  2  usage / IO / internal error
";

fn main() -> ExitCode {
    let mut json_mode = false;
    let mut root = PathBuf::from(".");
    let mut baseline_path: Option<PathBuf> = None;
    let mut write_baseline: Option<PathBuf> = None;
    let mut paths: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--json" => json_mode = true,
            "--root" => match args.next() {
                Some(d) => root = PathBuf::from(d),
                None => {
                    eprintln!("selsync-lint: --root needs a directory\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--baseline" => match args.next() {
                Some(f) => baseline_path = Some(PathBuf::from(f)),
                None => {
                    eprintln!("selsync-lint: --baseline needs a file\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--write-baseline" => match args.next() {
                Some(f) => write_baseline = Some(PathBuf::from(f)),
                None => {
                    eprintln!("selsync-lint: --write-baseline needs a file\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "-h" | "--help" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            flag if flag.starts_with('-') => {
                eprintln!("selsync-lint: unknown flag {flag}\n{USAGE}");
                return ExitCode::from(2);
            }
            p => paths.push(p.to_string()),
        }
    }
    if paths.is_empty() {
        paths = engine::DEFAULT_ROOTS
            .iter()
            .map(|s| s.to_string())
            .collect();
    }

    let report = match engine::run(&root, &paths) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("selsync-lint: scan failed: {e}");
            return ExitCode::from(2);
        }
    };
    if report.files_scanned == 0 {
        eprintln!(
            "selsync-lint: no .rs files under {} in {:?}",
            root.display(),
            paths
        );
        return ExitCode::from(2);
    }

    if let Some(path) = write_baseline {
        let snapshot = baseline::to_json(&report);
        if let Err(e) = json::validate(&snapshot) {
            eprintln!("selsync-lint: internal error: baseline JSON is malformed: {e}");
            return ExitCode::from(2);
        }
        if let Err(e) = std::fs::write(&path, &snapshot) {
            eprintln!("selsync-lint: writing {}: {e}", path.display());
            return ExitCode::from(2);
        }
        eprintln!(
            "selsync-lint: snapshotted {} finding(s) ({} unsuppressed) to {}",
            report.findings.len(),
            report.unsuppressed_count(),
            path.display()
        );
        return ExitCode::SUCCESS;
    }

    if json_mode {
        let out = json::to_json(&report);
        if let Err(e) = json::validate(&out) {
            eprintln!("selsync-lint: internal error: emitted JSON is malformed: {e}");
            return ExitCode::from(2);
        }
        print!("{out}");
    }

    if let Some(path) = baseline_path {
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("selsync-lint: reading {}: {e}", path.display());
                return ExitCode::from(2);
            }
        };
        let base = match baseline::parse(&text) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("selsync-lint: {}: {e}", path.display());
                return ExitCode::from(2);
            }
        };
        let d = baseline::diff(&report, &base);
        if !json_mode {
            for f in &d.new {
                println!(
                    "{}:{} {} [NEW vs baseline] {}",
                    f.path, f.line, f.rule, f.message
                );
            }
            for b in &d.stale {
                println!(
                    "{}:{} {} [STALE baseline entry] regenerate with --write-baseline",
                    b.path, b.line, b.rule
                );
            }
            println!(
                "selsync-lint: {} new, {} stale, {} baselined, {} files scanned",
                d.new.len(),
                d.stale.len(),
                d.matched,
                report.files_scanned
            );
        }
        return if d.clean() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    if !json_mode {
        print!("{}", engine::format_human(&report));
    }

    if report.unsuppressed_count() > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
