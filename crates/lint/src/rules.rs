//! The determinism & protocol-invariant rules.
//!
//! Each rule is a token-level check with a path scope. Scopes are
//! matched against workspace-relative paths (`crates/<name>/...`), so
//! the fixture trees under `tests/fixtures/` exercise the same scoping
//! logic as the real workspace.

use crate::lexer::TokKind;
use crate::source::SourceFile;

/// One raised finding, before suppression is applied.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule that raised it.
    pub rule: &'static str,
    /// 1-based line.
    pub line: u32,
    /// Human-readable explanation.
    pub message: String,
}

/// A lint rule: a named token-level check with a path scope.
pub trait Rule {
    /// Kebab-case rule name, as used in `lint:allow(<name>)`.
    fn name(&self) -> &'static str;
    /// Whether findings inside test code count. Most determinism rules
    /// police runtime behaviour only; the `unsafe` rules police
    /// everything.
    fn lints_tests(&self) -> bool {
        false
    }
    /// Whether this rule runs on the file at workspace-relative `rel`.
    fn in_scope(&self, rel: &str) -> bool;
    /// Scan the file and append findings.
    fn check(&self, f: &SourceFile, out: &mut Vec<Finding>);
}

/// The full registry, in stable order.
pub fn all_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(NondetIteration),
        Box::new(NondetTime),
        Box::new(UnwrapInProd),
        Box::new(UnsafeNeedsSafety),
        Box::new(UnsafeOutsideKernels),
        Box::new(FloatOrder),
        Box::new(RawNet),
        Box::new(WireWildcard),
        Box::new(PollBlocking),
        Box::new(UnboundedRetry),
        Box::new(LockAcrossSend),
        Box::new(LibmCall),
        Box::new(SimdIntrinsic),
    ]
}

/// Names of findings the engine itself emits about suppression misuse.
pub const META_RULES: [&str; 2] = ["bare-allow", "unused-allow"];

/// Is `name` a real rule (registry or engine meta-rule)?
pub fn is_known_rule(name: &str) -> bool {
    all_rules().iter().any(|r| r.name() == name) || META_RULES.contains(&name)
}

fn in_crates(rel: &str, crates: &[&str]) -> bool {
    crates
        .iter()
        .any(|c| rel.starts_with(&format!("crates/{c}/")))
}

/// Emit a finding for each occurrence, honoring the rule's test-code
/// policy.
fn emit(rule: &dyn Rule, f: &SourceFile, line: u32, message: String, out: &mut Vec<Finding>) {
    if !rule.lints_tests() && f.is_test_line(line) {
        return;
    }
    out.push(Finding {
        rule: rule.name(),
        line,
        message,
    });
}

// ---------------------------------------------------------------------
// nondet-iteration
// ---------------------------------------------------------------------

/// `HashMap`/`HashSet` in protocol, fingerprint, checkpoint and
/// state-serialization paths. Their iteration order is randomized per
/// process, so any loop, `.keys()`, `.values()` or serialization over
/// one breaks the bit-identical-replay contract. Require `BTreeMap`/
/// `BTreeSet` (deterministic order) or an explicit sort.
struct NondetIteration;

impl Rule for NondetIteration {
    fn name(&self) -> &'static str {
        "nondet-iteration"
    }
    fn in_scope(&self, rel: &str) -> bool {
        in_crates(rel, &["comm", "core", "net", "chaos", "serve", "shard"])
    }
    fn check(&self, f: &SourceFile, out: &mut Vec<Finding>) {
        for t in &f.toks {
            if t.is_ident("HashMap") || t.is_ident("HashSet") {
                emit(
                    self,
                    f,
                    t.line,
                    format!(
                        "`{}` has nondeterministic iteration order in a protocol/state path; \
                         use BTreeMap/BTreeSet or sort before iterating",
                        t.text
                    ),
                    out,
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// nondet-time
// ---------------------------------------------------------------------

/// Wall-clock reads outside the allowlisted timeout/watchdog modules.
/// A protocol decision derived from `Instant::now()` diverges across
/// ranks and replays; clocks are only legitimate for liveness deadlines
/// in the modules that own them.
struct NondetTime;

/// Modules allowed to read the clock: they implement timeouts,
/// watchdogs and liveness deadlines, where wall time is the point.
const TIME_ALLOWLIST: [&str; 7] = [
    "crates/comm/src/elastic.rs",
    "crates/comm/src/fabric.rs",
    "crates/comm/src/shard.rs",
    "crates/net/src/endpoint.rs",
    "crates/net/src/poll.rs",
    "crates/net/src/tcp.rs",
    "crates/serve/src/timer.rs",
];

impl Rule for NondetTime {
    fn name(&self) -> &'static str {
        "nondet-time"
    }
    fn in_scope(&self, rel: &str) -> bool {
        in_crates(rel, &["comm", "core", "net", "serve", "shard"]) && !TIME_ALLOWLIST.contains(&rel)
    }
    fn check(&self, f: &SourceFile, out: &mut Vec<Finding>) {
        for w in f.toks.windows(4) {
            if (w[0].is_ident("Instant") || w[0].is_ident("SystemTime"))
                && w[1].is_punct(':')
                && w[2].is_punct(':')
                && w[3].is_ident("now")
            {
                emit(
                    self,
                    f,
                    w[0].line,
                    format!(
                        "`{}::now()` outside the timeout/watchdog allowlist makes protocol \
                         behaviour wall-clock dependent; plumb deadlines in from an \
                         allowlisted module",
                        w[0].text
                    ),
                    out,
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// unwrap-in-prod
// ---------------------------------------------------------------------

/// Panicking escape hatches in production paths of the distributed
/// stack. PR 3 purged `net`/`comm` so a lost packet degrades to a typed
/// `TransportError` instead of killing the rank; this rule keeps them
/// purged and extends the contract to `chaos`/`core`/`data`/`stats`.
struct UnwrapInProd;

impl Rule for UnwrapInProd {
    fn name(&self) -> &'static str {
        "unwrap-in-prod"
    }
    fn in_scope(&self, rel: &str) -> bool {
        in_crates(
            rel,
            &[
                "net", "comm", "chaos", "core", "data", "stats", "serve", "shard",
            ],
        )
    }
    fn check(&self, f: &SourceFile, out: &mut Vec<Finding>) {
        let toks = &f.toks;
        for i in 0..toks.len() {
            let t = &toks[i];
            if t.kind != TokKind::Ident {
                continue;
            }
            let next_is = |c: char| toks.get(i + 1).is_some_and(|n| n.is_punct(c));
            let prev_is_dot = i > 0 && toks[i - 1].is_punct('.');
            let hit = match t.text.as_str() {
                "unwrap" | "expect" => prev_is_dot && next_is('('),
                "panic" | "unreachable" | "todo" | "unimplemented" => next_is('!') && !prev_is_dot,
                _ => false,
            };
            if hit {
                let what = if next_is('!') {
                    format!("{}!", t.text)
                } else {
                    format!(".{}()", t.text)
                };
                emit(
                    self,
                    f,
                    t.line,
                    format!(
                        "`{what}` in production code can kill a rank mid-protocol; return a \
                         typed error or justify with lint:allow"
                    ),
                    out,
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// unsafe-needs-safety
// ---------------------------------------------------------------------

/// Every `unsafe` block/fn/impl must be immediately preceded by a
/// `// SAFETY:` comment stating the invariant that makes it sound
/// (attribute lines may sit between the comment and the keyword).
struct UnsafeNeedsSafety;

impl Rule for UnsafeNeedsSafety {
    fn name(&self) -> &'static str {
        "unsafe-needs-safety"
    }
    fn lints_tests(&self) -> bool {
        true
    }
    fn in_scope(&self, _rel: &str) -> bool {
        true
    }
    fn check(&self, f: &SourceFile, out: &mut Vec<Finding>) {
        for t in &f.toks {
            if t.is_ident("unsafe") && !has_safety_comment(f, t.line) {
                out.push(Finding {
                    rule: self.name(),
                    line: t.line,
                    message: "`unsafe` without an immediately preceding `// SAFETY:` comment \
                              stating the invariant that makes it sound"
                        .to_string(),
                });
            }
        }
    }
}

/// Is the `unsafe` on `line` covered by a SAFETY comment? Accepted
/// shapes: a comment on the same line before the keyword, or a
/// contiguous comment block directly above (attribute-only lines in
/// between are skipped) in which some line starts with `SAFETY:`.
fn has_safety_comment(f: &SourceFile, line: u32) -> bool {
    let is_safety = |text: &str| text.trim_start().starts_with("SAFETY:");
    // same-line comment (e.g. `let x = /* SAFETY: ... */ unsafe { .. }`)
    if f.comments
        .iter()
        .any(|c| c.line == line && is_safety(&c.text))
    {
        return true;
    }
    // walk upward over attribute-only lines to the adjacent line
    let mut l = line.saturating_sub(1);
    while l > 0 && f.is_attr_only_line(l) {
        l -= 1;
    }
    // the contiguous run of comment lines ending at `l`
    let mut covered = l;
    loop {
        let Some(c) = f
            .comments
            .iter()
            .find(|c| c.own_line && c.end_line == covered)
        else {
            return false;
        };
        if is_safety(&c.text) {
            return true;
        }
        if c.line == 0 {
            return false;
        }
        covered = c.line - 1;
    }
}

// ---------------------------------------------------------------------
// unsafe-outside-kernels
// ---------------------------------------------------------------------

/// `unsafe` is confined to the places with a reason to exist below the
/// safety line: the crates `tensor` (SIMD microkernels) and `net` (raw
/// socket setup), and the one file `crates/comm/src/crc.rs` (the
/// carry-less-multiply checksum kernel) — a file-level allowance, not
/// one for the `comm` crate. Everywhere else it is a finding — and
/// additionally compiler-enforced via `#![deny(unsafe_code)]` in those
/// crate roots (`comm`'s included, with one `#[allow]` on the kernel's
/// submodule).
struct UnsafeOutsideKernels;

/// The checksum kernel: the only file outside `tensor` and `net` where
/// `unsafe` is permitted.
const CRC_KERNEL: &str = "crates/comm/src/crc.rs";

impl Rule for UnsafeOutsideKernels {
    fn name(&self) -> &'static str {
        "unsafe-outside-kernels"
    }
    fn lints_tests(&self) -> bool {
        true
    }
    fn in_scope(&self, rel: &str) -> bool {
        rel.starts_with("crates/") && !in_crates(rel, &["tensor", "net"]) && rel != CRC_KERNEL
    }
    fn check(&self, f: &SourceFile, out: &mut Vec<Finding>) {
        for t in &f.toks {
            if t.is_ident("unsafe") {
                out.push(Finding {
                    rule: self.name(),
                    line: t.line,
                    message: "`unsafe` is permitted only in crates/tensor (SIMD kernels), \
                              crates/net (socket setup) and crates/comm/src/crc.rs (checksum \
                              kernel)"
                        .to_string(),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------
// float-order
// ---------------------------------------------------------------------

/// Unordered parallel float reductions. `par_iter().sum()` and friends
/// combine partial results in scheduler-dependent order; float addition
/// is not associative, so the result varies run to run and breaks the
/// serial≡parallel bit-identity contract (PR 4). Reduce over a fixed
/// chunking instead, combining partials in index order.
struct FloatOrder;

const PAR_SOURCES: [&str; 7] = [
    "par_iter",
    "par_iter_mut",
    "into_par_iter",
    "par_bridge",
    "par_chunks",
    "par_chunks_exact",
    "par_windows",
];
const UNORDERED_REDUCERS: [&str; 3] = ["sum", "product", "reduce"];

impl Rule for FloatOrder {
    fn name(&self) -> &'static str {
        "float-order"
    }
    fn in_scope(&self, rel: &str) -> bool {
        rel.starts_with("crates/") || rel.starts_with("src/") || rel.starts_with("examples/")
    }
    fn check(&self, f: &SourceFile, out: &mut Vec<Finding>) {
        let toks = &f.toks;
        for i in 0..toks.len() {
            let t = &toks[i];
            if !(t.kind == TokKind::Ident && PAR_SOURCES.contains(&t.text.as_str()))
                || i == 0
                || !toks[i - 1].is_punct('.')
            {
                continue;
            }
            // scan the rest of the method chain: stop at a statement
            // boundary or when the expression's nesting closes
            let mut depth = 0i32;
            for j in i + 1..toks.len() {
                let u = &toks[j];
                if u.is_punct('(') || u.is_punct('[') || u.is_punct('{') {
                    depth += 1;
                } else if u.is_punct(')') || u.is_punct(']') || u.is_punct('}') {
                    depth -= 1;
                    if depth < 0 {
                        break;
                    }
                } else if u.is_punct(';') && depth == 0 {
                    break;
                } else if depth == 0
                    && u.kind == TokKind::Ident
                    && UNORDERED_REDUCERS.contains(&u.text.as_str())
                    && j > 0
                    && toks[j - 1].is_punct('.')
                {
                    emit(
                        self,
                        f,
                        u.line,
                        format!(
                            "`.{}()` after `.{}()` reduces in scheduler order; float \
                             accumulation must combine partials in index order to stay \
                             bit-identical across thread counts",
                            u.text, t.text
                        ),
                        out,
                    );
                    break;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// raw-net
// ---------------------------------------------------------------------

/// `std::net` types outside `crates/net`. All wire traffic must flow
/// through the `Transport` abstraction so byte accounting, chaos
/// injection and the codec's frame invariants cannot be bypassed.
struct RawNet;

impl Rule for RawNet {
    fn name(&self) -> &'static str {
        "raw-net"
    }
    fn in_scope(&self, rel: &str) -> bool {
        !rel.starts_with("crates/net/")
    }
    fn check(&self, f: &SourceFile, out: &mut Vec<Finding>) {
        for w in f.toks.windows(4) {
            if w[0].is_ident("std")
                && w[1].is_punct(':')
                && w[2].is_punct(':')
                && w[3].is_ident("net")
            {
                emit(
                    self,
                    f,
                    w[0].line,
                    "`std::net` outside crates/net bypasses the Transport layer (byte \
                     accounting, chaos injection, frame codec); use selsync-net"
                        .to_string(),
                    out,
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// wire-wildcard
// ---------------------------------------------------------------------

/// No `_ =>` wildcard arms in matches over `Payload` (or the codec's
/// frame `kind`). A wildcard silently swallows newly added wire
/// variants; an explicit variant list makes the compiler flag every
/// match site when the wire format grows.
struct WireWildcard;

impl Rule for WireWildcard {
    fn name(&self) -> &'static str {
        "wire-wildcard"
    }
    fn in_scope(&self, rel: &str) -> bool {
        in_crates(rel, &["comm", "net", "core", "chaos", "serve", "shard"])
    }
    fn check(&self, f: &SourceFile, out: &mut Vec<Finding>) {
        let toks = &f.toks;
        let in_net = f.rel.starts_with("crates/net/");
        let mut i = 0;
        while i < toks.len() {
            if !toks[i].is_ident("match") {
                i += 1;
                continue;
            }
            // scrutinee: tokens between `match` and its body `{`
            let mut j = i + 1;
            let mut paren = 0i32;
            let mut relevant = false;
            while j < toks.len() {
                let u = &toks[j];
                if u.is_punct('(') || u.is_punct('[') {
                    paren += 1;
                } else if u.is_punct(')') || u.is_punct(']') {
                    paren -= 1;
                } else if u.is_punct('{') && paren == 0 {
                    break;
                } else if u.kind == TokKind::Ident
                    && (u.text == "payload" || u.text == "Payload" || (in_net && u.text == "kind"))
                {
                    relevant = true;
                }
                j += 1;
            }
            if !relevant || j >= toks.len() {
                i += 1;
                continue;
            }
            // body: find `_ =>` or `_ if` arms at arm level
            let mut brace = 0i32;
            let mut paren2 = 0i32;
            let mut k = j;
            while k < toks.len() {
                let u = &toks[k];
                if u.is_punct('{') {
                    brace += 1;
                } else if u.is_punct('}') {
                    brace -= 1;
                    if brace == 0 {
                        break;
                    }
                } else if u.is_punct('(') || u.is_punct('[') {
                    paren2 += 1;
                } else if u.is_punct(')') || u.is_punct(']') {
                    paren2 -= 1;
                } else if brace == 1
                    && paren2 == 0
                    && u.is_ident("_")
                    && toks.get(k + 1).is_some_and(|n| {
                        (n.is_punct('=') && toks.get(k + 2).is_some_and(|m| m.is_punct('>')))
                            || n.is_ident("if")
                    })
                {
                    emit(
                        self,
                        f,
                        u.line,
                        "wildcard `_ =>` arm in a Payload/codec match silently swallows \
                         future wire variants; list the variants explicitly so new ones \
                         fail at compile time"
                            .to_string(),
                        out,
                    );
                }
                k += 1;
            }
            i += 1;
        }
    }
}

// ---------------------------------------------------------------------
// poll-blocking
// ---------------------------------------------------------------------

/// Blocking calls inside the poll driver. `PollTcpEndpoint`'s single
/// driver thread multiplexes every connection with nonblocking I/O; one
/// blocking `read`/`sleep`/`lock` in `driver_loop` or anything it calls
/// stalls *all* peers at once. The rule builds the intra-file call
/// graph from `driver_loop` and denies a fixed list of blocking calls
/// in every reachable fn; justified `lint:allow(poll-blocking)` marks
/// the deliberate exceptions (the bounded readiness wait, the bounded
/// redial attempt).
struct PollBlocking;

/// Call names that block the calling thread. `recv` is exact — the
/// nonblocking `try_recv` and deadline-bounded `recv_timeout` pass.
/// `poll` is the FFI `poll(2)`: the driver's one intended wait, which
/// must carry a justification naming its timeout bound.
const BLOCKING_CALLS: [&str; 15] = [
    "sleep",
    "poll",
    "read_exact",
    "write_all",
    "read_to_end",
    "read_to_string",
    "recv",
    "lock",
    "join",
    "wait",
    "park",
    "dial",
    "connect",
    "connect_timeout",
    "shake_hands_as_dialer",
];

impl Rule for PollBlocking {
    fn name(&self) -> &'static str {
        "poll-blocking"
    }
    fn in_scope(&self, rel: &str) -> bool {
        rel.starts_with("crates/net/")
            && rel
                .rsplit('/')
                .next()
                .is_some_and(|f| f.starts_with("poll"))
    }
    fn check(&self, f: &SourceFile, out: &mut Vec<Finding>) {
        let fns = &f.items.fns;
        let Some(entry) = fns.iter().position(|x| x.name == "driver_loop") else {
            return;
        };
        // BFS over the intra-file call graph from driver_loop
        let mut reachable = vec![false; fns.len()];
        reachable[entry] = true;
        let mut work = vec![entry];
        while let Some(cur) = work.pop() {
            for k in fns[cur].body.clone() {
                let t = &f.toks[k];
                if t.kind != TokKind::Ident
                    || !f.toks.get(k + 1).is_some_and(|n| n.is_punct('('))
                    || (k > 0 && f.toks[k - 1].is_ident("fn"))
                {
                    continue;
                }
                if let Some(callee) = fns.iter().position(|x| x.name == t.text) {
                    if !reachable[callee] {
                        reachable[callee] = true;
                        work.push(callee);
                    }
                }
            }
        }
        for (fi, item) in fns.iter().enumerate() {
            if !reachable[fi] {
                continue;
            }
            for k in item.body.clone() {
                let t = &f.toks[k];
                let is_call = t.kind == TokKind::Ident
                    && f.toks.get(k + 1).is_some_and(|n| n.is_punct('('))
                    && !(k > 0 && f.toks[k - 1].is_ident("fn"));
                if !is_call || !BLOCKING_CALLS.contains(&t.text.as_str()) {
                    continue;
                }
                // a call resolving to a local fn is traversed by the
                // BFS instead; only calls leaving the file are denied
                if fns.iter().any(|x| x.name == t.text) {
                    continue;
                }
                emit(
                    self,
                    f,
                    t.line,
                    format!(
                        "`{}(...)` blocks the poll driver (reachable from driver_loop via {}); \
                         the sweep must stay nonblocking — use a try_/timeout variant or move \
                         the work off the driver thread",
                        t.text, item.name
                    ),
                    out,
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// unbounded-retry
// ---------------------------------------------------------------------

/// Retry loops without a visible bound. A `loop`/`while` that redials
/// or reconnects must reference *some* cap — a deadline, timeout,
/// backoff, attempt counter or budget — inside its head or body, or a
/// dead peer turns into an infinite spin that holds the rank forever
/// instead of surfacing a typed liveness error.
struct UnboundedRetry;

/// Call names that mark a loop as a dial/send-retry loop.
const RETRY_CALLS: [&str; 8] = [
    "dial",
    "redial",
    "redial_once",
    "reconnect",
    "connect",
    "connect_timeout",
    "bind_reuse",
    "resend",
];

/// Identifier substrings accepted as evidence of a bound.
const BOUND_MARKERS: [&str; 9] = [
    "deadline", "timeout", "backoff", "budget", "attempt", "retries", "patience", "max_",
    "shutdown",
];

impl Rule for UnboundedRetry {
    fn name(&self) -> &'static str {
        "unbounded-retry"
    }
    fn in_scope(&self, rel: &str) -> bool {
        in_crates(rel, &["net", "comm"])
    }
    fn check(&self, f: &SourceFile, out: &mut Vec<Finding>) {
        let toks = &f.toks;
        for l in &f.items.loops {
            let span = l.span.clone();
            let is_call = |k: usize| {
                toks[k].kind == TokKind::Ident
                    && toks.get(k + 1).is_some_and(|n| n.is_punct('('))
                    && !(k > 0 && toks[k - 1].is_ident("fn"))
            };
            let has_dial = span
                .clone()
                .any(|k| is_call(k) && RETRY_CALLS.contains(&toks[k].text.as_str()));
            let has_resend = span.clone().any(|k| is_call(k) && toks[k].text == "send")
                && span.clone().any(|k| toks[k].is_ident("Err"))
                && span.clone().any(|k| toks[k].is_ident("continue"));
            if !has_dial && !has_resend {
                continue;
            }
            // a bound marker anywhere in the loop head or body counts,
            // but not the retry call's own name (connect_timeout bounds
            // one attempt, not the loop)
            let bounded = span.clone().any(|k| {
                let t = &toks[k];
                if t.kind != TokKind::Ident
                    || (is_call(k) && RETRY_CALLS.contains(&t.text.as_str()))
                {
                    return false;
                }
                let lower = t.text.to_lowercase();
                BOUND_MARKERS.iter().any(|m| lower.contains(m))
            });
            if !bounded {
                emit(
                    self,
                    f,
                    l.line,
                    "retry loop with no visible bound: reference a deadline, timeout, \
                     backoff, attempt cap or budget in the loop, or a dead peer spins \
                     this rank forever"
                        .to_string(),
                    out,
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// lock-across-send
// ---------------------------------------------------------------------

/// A `MutexGuard` held across a `Transport::send`. The send can block
/// on a slow or dead peer (bounded only by the transport's own
/// timeout), and every thread contending on the mutex stalls with it —
/// the classic path from one sick peer to a wedged rank. Drop the
/// guard (end its block or `drop(guard)`) before sending.
struct LockAcrossSend;

impl Rule for LockAcrossSend {
    fn name(&self) -> &'static str {
        "lock-across-send"
    }
    fn in_scope(&self, rel: &str) -> bool {
        rel.starts_with("crates/comm/")
    }
    fn check(&self, f: &SourceFile, out: &mut Vec<Finding>) {
        struct Guard {
            name: Option<String>,
            depth: i32,
            line: u32,
        }
        let toks = &f.toks;
        let mut depth = 0i32;
        let mut guards: Vec<Guard> = Vec::new();
        // index of the current statement's first token, for `let` naming
        let mut stmt_start = 0usize;
        for k in 0..toks.len() {
            let t = &toks[k];
            if t.is_punct('{') {
                depth += 1;
                stmt_start = k + 1;
            } else if t.is_punct('}') {
                depth -= 1;
                guards.retain(|g| g.depth <= depth);
                stmt_start = k + 1;
            } else if t.is_punct(';') {
                // statement end: temporaries (unnamed guards) at this
                // depth die here
                guards.retain(|g| g.name.is_some() || g.depth < depth);
                stmt_start = k + 1;
            } else if t.is_ident("drop")
                && toks.get(k + 1).is_some_and(|n| n.is_punct('('))
                && toks.get(k + 3).is_some_and(|n| n.is_punct(')'))
            {
                if let Some(name) = toks.get(k + 2).filter(|n| n.kind == TokKind::Ident) {
                    guards.retain(|g| g.name.as_deref() != Some(name.text.as_str()));
                }
            } else if t.is_ident("lock")
                && k > 0
                && toks[k - 1].is_punct('.')
                && toks.get(k + 1).is_some_and(|n| n.is_punct('('))
            {
                // `let [mut] NAME = ...lock()...` binds a named guard;
                // anything else holds an unnamed temporary
                let name = if toks.get(stmt_start).is_some_and(|s| s.is_ident("let")) {
                    let mut n = stmt_start + 1;
                    if toks.get(n).is_some_and(|s| s.is_ident("mut")) {
                        n += 1;
                    }
                    toks.get(n)
                        .filter(|s| s.kind == TokKind::Ident)
                        .map(|s| s.text.clone())
                } else {
                    None
                };
                guards.push(Guard {
                    name,
                    depth,
                    line: t.line,
                });
            } else if t.is_ident("send")
                && k > 0
                && toks[k - 1].is_punct('.')
                && toks.get(k + 1).is_some_and(|n| n.is_punct('('))
            {
                if let Some(g) = guards.last() {
                    emit(
                        self,
                        f,
                        t.line,
                        format!(
                            "`.send()` while the mutex guard taken on line {} is still \
                             live; a slow peer now stalls every thread contending on \
                             that lock — drop the guard before sending",
                            g.line
                        ),
                        out,
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// libm-call
// ---------------------------------------------------------------------

/// Per-element libm calls on the model's step path. A call into libm is
/// opaque to the optimiser, so a loop over one never vectorises, and its
/// bits are whatever the platform's libm returns. The model crates call
/// the bit-exact lane kernels of `tensor::math` instead; every call that
/// survives says why it is not per element (set-up only, once per row,
/// a reported metric).
struct LibmCall;

/// `f32`/`f64` methods that lower to a libm call. Not `sqrt` or `abs`,
/// which are instructions everywhere, nor `mul_add`: it is one where
/// FMA is available (the kernels' AVX2 bodies are compiled for it), and
/// elsewhere a libm `fma` call that is exact, so its bits are the same
/// on every host; only its speed is not (DESIGN.md §7).
const LIBM_CALLS: [&str; 20] = [
    "exp", "exp2", "exp_m1", "ln", "ln_1p", "log", "log2", "log10", "powf", "sin", "cos", "tan",
    "sin_cos", "asin", "acos", "atan", "atan2", "sinh", "cosh", "tanh",
];

impl Rule for LibmCall {
    fn name(&self) -> &'static str {
        "libm-call"
    }
    fn in_scope(&self, rel: &str) -> bool {
        rel.starts_with("crates/tensor/src/") || rel.starts_with("crates/nn/src/")
    }
    fn check(&self, f: &SourceFile, out: &mut Vec<Finding>) {
        let toks = &f.toks;
        for i in 1..toks.len() {
            let t = &toks[i];
            if t.kind != TokKind::Ident
                || !LIBM_CALLS.contains(&t.text.as_str())
                || !toks.get(i + 1).is_some_and(|n| n.is_punct('('))
            {
                continue;
            }
            // `x.exp(` or `f32::exp(`
            let method = toks[i - 1].is_punct('.');
            let path = i >= 3
                && toks[i - 1].is_punct(':')
                && toks[i - 2].is_punct(':')
                && (toks[i - 3].is_ident("f32") || toks[i - 3].is_ident("f64"));
            if method || path {
                emit(
                    self,
                    f,
                    t.line,
                    format!(
                        "`{}` calls libm, which does not vectorise and returns the platform's \
                         bits; use a tensor::math lane kernel, or justify a call that is not \
                         per element with lint:allow",
                        t.text
                    ),
                    out,
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// simd-intrinsic
// ---------------------------------------------------------------------

/// Hand-written SIMD intrinsics in the tensor kernels. A body of
/// `_mm256_*`/`_mm_*` calls is raw-pointer code the compiler cannot
/// check, and a safe body compiled under `#[target_feature]` often
/// vectorises to the same instructions (the GEMM microkernel does). So
/// every fn that calls one is a finding, once, on the first line of its
/// attributes, where a `lint:allow(simd-intrinsic)` above the item lands;
/// the allow cites the measurement that keeps the intrinsics: the safe
/// twin's time against theirs.
struct SimdIntrinsic;

impl Rule for SimdIntrinsic {
    fn name(&self) -> &'static str {
        "simd-intrinsic"
    }
    fn in_scope(&self, rel: &str) -> bool {
        rel.starts_with("crates/tensor/src/")
    }
    fn check(&self, f: &SourceFile, out: &mut Vec<Finding>) {
        let toks = &f.toks;
        let fns = &f.items.fns;
        // innermost fn holding each call, in order of first call
        let mut callers: Vec<usize> = Vec::new();
        for (i, t) in toks.iter().enumerate() {
            let intrinsic = t.kind == TokKind::Ident
                && (t.text.starts_with("_mm256_") || t.text.starts_with("_mm_"));
            // `_mm256_add_ps(` or `_mm256_shuffle_ps::<0x44>(`
            let punct = |k: usize, c: char| toks.get(i + k).is_some_and(|n| n.is_punct(c));
            if !intrinsic || !(punct(1, '(') || punct(1, ':') && punct(2, ':') && punct(3, '<')) {
                continue;
            }
            let caller = (0..fns.len())
                .filter(|&x| fns[x].body.contains(&i))
                .min_by_key(|&x| fns[x].body.len());
            match caller {
                Some(x) if !callers.contains(&x) => callers.push(x),
                Some(_) => {}
                None => emit(
                    self,
                    f,
                    t.line,
                    "a SIMD intrinsic outside any fn".into(),
                    out,
                ),
            }
        }
        for x in callers {
            let mut line = fns[x].line;
            while line > 1 && f.is_attr_only_line(line - 1) {
                line -= 1;
            }
            emit(
                self,
                f,
                line,
                format!(
                    "`{}` calls SIMD intrinsics; write the body as safe code compiled under \
                     #[target_feature], or cite with lint:allow the measurement that keeps them",
                    fns[x].name
                ),
                out,
            );
        }
    }
}
