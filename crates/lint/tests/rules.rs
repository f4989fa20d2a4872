//! Fixture self-tests: one true positive and one true negative per
//! rule, plus the suppression lifecycle (justified silences, bare
//! fires, unused fires) and a workspace-clean run against the real
//! repo.
//!
//! The fixture tree mirrors `crates/<name>/src/` so each rule's path
//! scoping is exercised exactly as it is against the real workspace.

use selsync_lint::engine::{self, Report};
use selsync_lint::json;
use std::path::Path;

fn fixtures_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures"))
}

fn run_fixtures() -> Report {
    engine::run(fixtures_root(), &["crates".to_string()]).expect("fixture scan")
}

/// (rule, line) pairs of all findings (suppressed included) for one
/// fixture file.
fn findings(report: &Report, file: &str) -> Vec<(String, u32, bool)> {
    report
        .findings
        .iter()
        .filter(|f| f.path == file)
        .map(|f| (f.rule.clone(), f.line, f.suppressed))
        .collect()
}

fn rules_hit(report: &Report, file: &str) -> Vec<String> {
    findings(report, file)
        .into_iter()
        .map(|(r, _, _)| r)
        .collect()
}

#[test]
fn nondet_iteration_positive_and_negative() {
    let r = run_fixtures();
    let pos = findings(&r, "crates/comm/src/nondet_iter_pos.rs");
    assert_eq!(
        pos,
        vec![
            ("nondet-iteration".into(), 3, false),
            ("nondet-iteration".into(), 5, false),
        ]
    );
    // HashMap appears in the negative fixture only inside a string and a
    // comment; a token-aware linter must stay silent.
    assert!(rules_hit(&r, "crates/comm/src/nondet_iter_neg.rs").is_empty());
}

#[test]
fn nondet_time_positive_and_allowlisted_negative() {
    let r = run_fixtures();
    assert_eq!(
        findings(&r, "crates/comm/src/nondet_time_pos.rs"),
        vec![("nondet-time".into(), 6, false)]
    );
    // same call, but in the allowlisted watchdog module path
    assert!(rules_hit(&r, "crates/comm/src/elastic.rs").is_empty());
    // ...while the protocol core beside it is not on the allowlist
    assert_eq!(
        findings(&r, "crates/comm/src/elastic/core.rs"),
        vec![("nondet-time".into(), 7, false)]
    );
    // and in the poll loop's allowlisted redial/idle-sleep module
    assert!(rules_hit(&r, "crates/net/src/poll.rs").is_empty());
}

#[test]
fn unwrap_in_prod_positive_and_test_code_negative() {
    let r = run_fixtures();
    assert_eq!(
        findings(&r, "crates/core/src/unwrap_pos.rs"),
        vec![
            ("unwrap-in-prod".into(), 4, false),
            ("unwrap-in-prod".into(), 6, false),
        ]
    );
    // unwraps confined to #[cfg(test)] items (and unwrap_or_else) pass
    assert!(rules_hit(&r, "crates/core/src/unwrap_neg.rs").is_empty());
}

#[test]
fn unsafe_needs_safety_positive_and_negative() {
    let r = run_fixtures();
    assert_eq!(
        findings(&r, "crates/tensor/src/unsafe_nodoc_pos.rs"),
        vec![("unsafe-needs-safety".into(), 5, false)]
    );
    // SAFETY comment adjacent, or separated only by attribute lines
    assert!(rules_hit(&r, "crates/tensor/src/unsafe_doc_neg.rs").is_empty());
}

#[test]
fn unsafe_outside_kernels_positive_and_negative() {
    let r = run_fixtures();
    assert_eq!(
        findings(&r, "crates/core/src/unsafe_outside_pos.rs"),
        vec![("unsafe-outside-kernels".into(), 8, false)]
    );
    assert!(rules_hit(&r, "crates/tensor/src/unsafe_kernel_neg.rs").is_empty());
    // the checksum kernel's file is allowed; the crate around it is not
    assert!(rules_hit(&r, "crates/comm/src/crc.rs").is_empty());
    assert_eq!(
        findings(&r, "crates/comm/src/unsafe_outside_pos.rs"),
        vec![("unsafe-outside-kernels".into(), 7, false)]
    );
}

#[test]
fn float_order_positive_and_negative() {
    let r = run_fixtures();
    assert_eq!(
        findings(&r, "crates/nn/src/float_order_pos.rs"),
        vec![
            ("float-order".into(), 6, false),
            ("float-order".into(), 12, false),
        ]
    );
    // serial reductions, disjoint-chunk for_each, and a serial sum
    // nested inside a parallel map are all ordered
    assert!(rules_hit(&r, "crates/nn/src/float_order_neg.rs").is_empty());
}

#[test]
fn libm_call_positive_and_negative() {
    let r = run_fixtures();
    // a method call and an `f32::` path call on the model crates' path
    assert_eq!(
        findings(&r, "crates/nn/src/libm_call_pos.rs"),
        vec![
            ("libm-call".into(), 4, false),
            ("libm-call".into(), 6, false),
        ]
    );
    // comments, strings, instructions (`sqrt`, `mul_add`, `abs`) and
    // test code stay silent; a justified allow silences its line
    assert_eq!(
        findings(&r, "crates/tensor/src/libm_call_neg.rs"),
        vec![("libm-call".into(), 10, true)]
    );
    // outside tensor and nn the rule does not run
    assert!(rules_hit(&r, "crates/core/src/libm_call_scope_neg.rs").is_empty());
}

#[test]
fn simd_intrinsic_positive_and_negative() {
    let r = run_fixtures();
    // one finding per fn that calls an intrinsic, plain or turbofished,
    // on the first line of its attributes
    assert_eq!(
        findings(&r, "crates/tensor/src/simd_intrinsic_pos.rs"),
        vec![
            ("simd-intrinsic".into(), 4, false),
            ("simd-intrinsic".into(), 13, false),
        ]
    );
    // comments, strings, `use` lists, safe bodies under
    // #[target_feature] and test code stay silent; a justified allow
    // above the item silences it
    assert_eq!(
        findings(&r, "crates/tensor/src/simd_intrinsic_neg.rs"),
        vec![("simd-intrinsic".into(), 17, true)]
    );
    // outside tensor the rule does not run
    assert!(rules_hit(&r, "crates/nn/src/simd_intrinsic_scope_neg.rs").is_empty());
}

#[test]
fn raw_net_positive_and_negative() {
    let r = run_fixtures();
    assert_eq!(
        findings(&r, "crates/comm/src/raw_net_pos.rs"),
        vec![("raw-net".into(), 3, false)]
    );
    assert!(rules_hit(&r, "crates/net/src/raw_net_neg.rs").is_empty());
}

#[test]
fn wire_wildcard_positive_and_negative() {
    let r = run_fixtures();
    assert_eq!(
        findings(&r, "crates/comm/src/wire_wildcard_pos.rs"),
        vec![("wire-wildcard".into(), 16, false)]
    );
    // exhaustive payload match, plus a wildcard over a non-protocol
    // scrutinee, both pass
    assert!(rules_hit(&r, "crates/comm/src/wire_wildcard_neg.rs").is_empty());
}

#[test]
fn compressed_payload_kinds_demand_exhaustive_matches() {
    let r = run_fixtures();
    // a catch-all over the compressed wire kinds (SparseGrad/SignGrad)
    // fires: it would silently swallow the next codec variant
    assert_eq!(
        findings(&r, "crates/comm/src/compressed_wire_pos.rs"),
        vec![("wire-wildcard".into(), 25, false)]
    );
    // the variant-by-variant match over the full pipelined/compressed
    // set (Bucket, SparseGrad, SignGrad, LowRank) stays silent
    assert!(rules_hit(&r, "crates/comm/src/compressed_wire_neg.rs").is_empty());
}

#[test]
fn net_codec_fixtures_cover_kind_matches_and_handshake_panics() {
    let r = run_fixtures();
    // in crates/net the frame `kind` byte is a protocol scrutinee: a
    // catch-all arm over it fires wire-wildcard
    assert_eq!(
        findings(&r, "crates/net/src/codec_wildcard_pos.rs"),
        vec![("wire-wildcard".into(), 9, false)]
    );
    // panicking escape hatches in handshake code fire unwrap-in-prod
    assert_eq!(
        findings(&r, "crates/net/src/handshake_unwrap_pos.rs"),
        vec![
            ("unwrap-in-prod".into(), 5, false),
            ("unwrap-in-prod".into(), 7, false),
        ]
    );
    // the real codec idiom — exhaustive kinds plus a typed BadKind
    // binding for the rest — stays silent under both rules
    assert!(rules_hit(&r, "crates/net/src/codec_total_neg.rs").is_empty());
}

#[test]
fn serve_crate_is_in_scope_with_timer_allowlisted() {
    let r = run_fixtures();
    // a serving module reading the clock directly fires nondet-time...
    assert_eq!(
        findings(&r, "crates/serve/src/deadline_pos.rs"),
        vec![("nondet-time".into(), 7, false)]
    );
    // ...but the crate's designated clock source is allowlisted, so the
    // identical call there stays silent
    assert!(rules_hit(&r, "crates/serve/src/timer.rs").is_empty());
    // and a wildcard arm in a router Payload match fires wire-wildcard
    assert_eq!(
        findings(&r, "crates/serve/src/router_wildcard_pos.rs"),
        vec![("wire-wildcard".into(), 17, false)]
    );
}

#[test]
fn shard_crate_is_in_scope_with_failover_clock_allowlisted() {
    let r = run_fixtures();
    // the partition map is replicated protocol state: nondeterministic
    // iteration and panicking escape hatches both fire in crates/shard
    assert_eq!(
        findings(&r, "crates/shard/src/partition_pos.rs"),
        vec![
            ("nondet-iteration".into(), 3, false),
            ("nondet-iteration".into(), 5, false),
            ("unwrap-in-prod".into(), 6, false),
            ("unwrap-in-prod".into(), 7, false),
        ]
    );
    assert!(rules_hit(&r, "crates/shard/src/partition_neg.rs").is_empty());
    // a wildcard arm in a sub-frame Payload match fires wire-wildcard
    assert_eq!(
        findings(&r, "crates/shard/src/route_wildcard_pos.rs"),
        vec![("wire-wildcard".into(), 16, false)]
    );
    // the sharded client's failover-deadline module reads the clock from
    // the allowlist, like the elastic watchdog beside it
    assert!(rules_hit(&r, "crates/comm/src/shard.rs").is_empty());
}

#[test]
fn justified_allow_suppresses_both_forms() {
    let r = run_fixtures();
    let f = findings(&r, "crates/comm/src/suppressed_ok.rs");
    // trailing-form nondet-time and own-line-form raw-net both silenced,
    // and no bare-allow / unused-allow hygiene findings appear
    assert_eq!(
        f,
        vec![
            ("nondet-time".into(), 6, true),
            ("raw-net".into(), 12, true)
        ]
    );
    for rec in r
        .findings
        .iter()
        .filter(|x| x.path == "crates/comm/src/suppressed_ok.rs")
    {
        assert!(rec.justification.is_some());
    }
}

#[test]
fn bare_allow_suppresses_target_but_fails_itself() {
    let r = run_fixtures();
    let f = findings(&r, "crates/comm/src/suppressed_bare.rs");
    assert_eq!(
        f,
        vec![
            ("bare-allow".into(), 6, false),
            ("nondet-time".into(), 6, true),
        ]
    );
}

#[test]
fn unused_and_unknown_allows_are_findings() {
    let r = run_fixtures();
    assert_eq!(
        findings(&r, "crates/comm/src/unused_allow.rs"),
        vec![
            ("unused-allow".into(), 4, false),
            ("unused-allow".into(), 9, false),
        ]
    );
}

#[test]
fn fixture_report_json_round_trips() {
    let r = run_fixtures();
    let j = json::to_json(&r);
    assert!(
        json::validate(&j).is_ok(),
        "emitted JSON failed self-validation"
    );
    // spot-check the schema carries the failure count
    assert!(j.contains("\"unsuppressed\""));
    assert!(j.contains("\"findings\""));
}

#[test]
fn poll_blocking_positive_and_negative() {
    let r = run_fixtures();
    // the sleep in driver_loop itself, and two hops down the call graph
    // (driver_loop -> sweep_once -> ...) the recv and the FFI poll(2)
    // call — the call, not its extern declaration four lines up
    assert_eq!(
        findings(&r, "crates/net/src/poll_blocking_pos.rs"),
        vec![
            ("poll-blocking".into(), 8, false),
            ("poll-blocking".into(), 18, false),
            ("poll-blocking".into(), 28, false),
        ]
    );
    // try_recv is nonblocking and declaring poll(2) is not calling it;
    // blocking_setup is unreachable from driver_loop, so the call graph
    // keeps its connect and its poll call out of scope
    assert!(rules_hit(&r, "crates/net/src/poll_blocking_neg.rs").is_empty());
}

#[test]
fn poll_blocking_suppression_lifecycle() {
    let r = run_fixtures();
    assert_eq!(
        findings(&r, "crates/net/src/poll_blocking_suppressed.rs"),
        vec![("poll-blocking".into(), 11, true)]
    );
    let f = r
        .findings
        .iter()
        .find(|f| f.path == "crates/net/src/poll_blocking_suppressed.rs")
        .expect("suppressed finding recorded");
    assert_eq!(
        f.justification.as_deref(),
        Some("readiness wait bounded by PARK_CAP (100ms)")
    );
}

#[test]
fn unbounded_retry_positive_and_negative() {
    let r = run_fixtures();
    assert_eq!(
        findings(&r, "crates/net/src/retry_unbounded_pos.rs"),
        vec![("unbounded-retry".into(), 5, false)]
    );
    // deadline/backoff-capped while loop and attempt-capped for loop
    assert!(rules_hit(&r, "crates/net/src/retry_bounded_neg.rs").is_empty());
}

#[test]
fn lock_across_send_positive_and_negative() {
    let r = run_fixtures();
    assert_eq!(
        findings(&r, "crates/comm/src/lock_send_pos.rs"),
        vec![("lock-across-send".into(), 7, false)]
    );
    // drop(guard) before send, and a guard confined to an inner block
    assert!(rules_hit(&r, "crates/comm/src/lock_send_neg.rs").is_empty());
}

#[test]
fn committed_baseline_matches_workspace() {
    // ci.sh enforces this too, but keep the drift check in-tree: the
    // committed baseline must parse and exactly match today's findings
    let root = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    let text = std::fs::read_to_string(root.join("lint-baseline.json"))
        .expect("committed lint-baseline.json");
    let base = selsync_lint::baseline::parse(&text).expect("baseline parses");
    let subs: Vec<String> = engine::DEFAULT_ROOTS
        .iter()
        .map(|s| s.to_string())
        .collect();
    let report = engine::run(root, &subs).expect("workspace scan");
    let d = selsync_lint::baseline::diff(&report, &base);
    assert!(
        d.clean(),
        "baseline drift: {} new, {} stale — regenerate with --write-baseline",
        d.new.len(),
        d.stale.len()
    );
}

#[test]
fn real_workspace_is_clean() {
    // the acceptance bar: the linter runs over the actual repo and every
    // finding is suppressed with a written justification
    let root = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    let subs: Vec<String> = engine::DEFAULT_ROOTS
        .iter()
        .map(|s| s.to_string())
        .collect();
    let report = engine::run(root, &subs).expect("workspace scan");
    assert!(report.files_scanned > 50, "scan found too few files");
    let loud: Vec<_> = report.unsuppressed().collect();
    assert!(
        loud.is_empty(),
        "unsuppressed findings in the workspace:\n{}",
        engine::format_human(&report)
    );
    for f in report.findings.iter().filter(|f| f.suppressed) {
        assert!(
            f.justification.is_some(),
            "{}:{} {} suppressed without justification",
            f.path,
            f.line,
            f.rule
        );
    }
}
