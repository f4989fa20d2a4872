//! File discovery, rule execution, suppression resolution and report
//! formatting.

use crate::rules::{all_rules, is_known_rule};
use crate::source::SourceFile;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// A finding after suppression resolution, tied to its file.
#[derive(Debug, Clone)]
pub struct RecordedFinding {
    /// Path relative to the scan root, forward slashes.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Rule name.
    pub rule: String,
    /// Human-readable explanation.
    pub message: String,
    /// `true` when a justified (or bare) `lint:allow` silenced it.
    pub suppressed: bool,
    /// The suppression's justification, when one applied.
    pub justification: Option<String>,
}

/// Result of one lint run.
#[derive(Debug, Default)]
pub struct Report {
    /// Every finding, suppressed ones included, sorted by
    /// (path, line, rule) so output is deterministic.
    pub findings: Vec<RecordedFinding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Findings that fail the build.
    pub fn unsuppressed(&self) -> impl Iterator<Item = &RecordedFinding> {
        self.findings.iter().filter(|f| !f.suppressed)
    }

    /// Count of findings that fail the build.
    pub fn unsuppressed_count(&self) -> usize {
        self.unsuppressed().count()
    }

    /// Count of silenced findings.
    pub fn suppressed_count(&self) -> usize {
        self.findings.len() - self.unsuppressed_count()
    }
}

/// Directory names never descended into. `fixtures` holds deliberate
/// violations for the self-tests; `vendor` and `target` are external.
const SKIP_DIRS: [&str; 4] = ["target", "vendor", "fixtures", ".git"];

/// Default scan roots, relative to the workspace root.
pub const DEFAULT_ROOTS: [&str; 4] = ["crates", "src", "tests", "examples"];

/// Collect every `.rs` file under `root`/`sub` for each sub-root, in
/// sorted order. A sub-root may also name a single file.
fn collect_files(root: &Path, subs: &[String]) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    for sub in subs {
        let p = root.join(sub);
        if p.is_file() {
            files.push(p);
        } else if p.is_dir() {
            walk(&p, &mut files)?;
        }
    }
    files.sort();
    files.dedup();
    Ok(files)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for p in entries {
        let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if p.is_dir() {
            if !SKIP_DIRS.contains(&name) {
                walk(&p, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// Run every rule over the `.rs` files under `root` (restricted to the
/// given sub-roots), resolve suppressions per file, and return the
/// report: a `lint:allow(rule)` targeting a finding's line silences it,
/// and unused/bare allows are reported.
pub fn run(root: &Path, subs: &[String]) -> io::Result<Report> {
    let rules = all_rules();
    let mut report = Report::default();
    for path in collect_files(root, subs)? {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let file = SourceFile::new(rel, &fs::read_to_string(&path)?);
        report.files_scanned += 1;
        let mut raw = Vec::new();
        for rule in &rules {
            if rule.in_scope(&file.rel) && (rule.lints_tests() || !file.is_test_file) {
                rule.check(&file, &mut raw);
            }
        }
        let rel = &file.rel;
        // resolve suppressions: a lint:allow silences findings of its
        // rule on its target line (justified or not — an unjustified
        // allow is reported separately below, so CI still fails)
        for f in raw {
            let supp = file
                .suppressions
                .iter()
                .find(|s| s.rule == f.rule && s.target == f.line);
            if let Some(s) = supp {
                s.used.set(true);
            }
            report.findings.push(RecordedFinding {
                path: rel.clone(),
                line: f.line,
                rule: f.rule.to_string(),
                message: f.message,
                suppressed: supp.is_some(),
                justification: supp.and_then(|s| s.justification.clone()),
            });
        }

        // suppression hygiene: these meta-findings cannot themselves be
        // suppressed
        for s in &file.suppressions {
            if !s.justified() {
                report.findings.push(RecordedFinding {
                    path: rel.clone(),
                    line: s.line,
                    rule: "bare-allow".to_string(),
                    message: format!(
                        "lint:allow({}) without a written justification; append \
                         `: <why this is sound>`",
                        s.rule
                    ),
                    suppressed: false,
                    justification: None,
                });
            }
            if !s.used.get() {
                let why = if is_known_rule(&s.rule) {
                    "it silences nothing on its target line — remove it"
                } else {
                    "no such rule exists — fix the rule name or remove it"
                };
                report.findings.push(RecordedFinding {
                    path: rel.clone(),
                    line: s.line,
                    rule: "unused-allow".to_string(),
                    message: format!("lint:allow({}): {}", s.rule, why),
                    suppressed: false,
                    justification: None,
                });
            }
        }
    }
    report
        .findings
        .sort_by(|a, b| (&a.path, a.line, &a.rule).cmp(&(&b.path, b.line, &b.rule)));
    Ok(report)
}

/// Human-readable report: one `path:line rule message` per unsuppressed
/// finding, plus a summary line.
pub fn format_human(report: &Report) -> String {
    let mut out = String::new();
    for f in report.unsuppressed() {
        let _ = writeln!(out, "{}:{} {} {}", f.path, f.line, f.rule, f.message);
    }
    let _ = writeln!(
        out,
        "selsync-lint: {} unsuppressed finding(s), {} suppressed, {} files scanned",
        report.unsuppressed_count(),
        report.suppressed_count(),
        report.files_scanned
    );
    out
}
