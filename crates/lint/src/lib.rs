//! `selsync-lint`: the workspace determinism & protocol-invariant
//! linter.
//!
//! SelSync's reproduction claim is *bit-identical determinism*: same
//! seed + same fault plan ⇒ identical parameters across in-process,
//! TCP multi-process, crash/recovery, and reference-vs-packed-kernel
//! runs. Runtime tests defend that property against today's code; this
//! crate defends it against future diffs, by statically rejecting the
//! constructs that historically break it:
//!
//! | rule | defends against |
//! |------|-----------------|
//! | `nondet-iteration` | `HashMap`/`HashSet` order leaking into protocol/state paths |
//! | `nondet-time` | wall-clock reads outside the timeout/watchdog modules |
//! | `unwrap-in-prod` | panicking escape hatches killing ranks mid-protocol |
//! | `unsafe-needs-safety` | undocumented `unsafe` |
//! | `unsafe-outside-kernels` | `unsafe` escaping the two audited crates and the checksum kernel file |
//! | `float-order` | unordered parallel float reductions |
//! | `raw-net` | sockets bypassing the Transport layer |
//! | `wire-wildcard` | `_ =>` arms silently swallowing new wire variants |
//! | `poll-blocking` | blocking calls reachable from the poll driver's sweep |
//! | `unbounded-retry` | dial/send retry loops with no visible cap or deadline |
//! | `lock-across-send` | a MutexGuard held across a `Transport::send` |
//! | `wire-conformance` | a `Payload` variant missing one of its five codec sites |
//!
//! The pass is offline and dependency-free (std only), built on a
//! hand-rolled lexer so rules see real tokens — never the contents of
//! strings or comments. Above the lexer sits a lightweight item-tree
//! parser (fn/enum/const/loop extents, match arms — no type inference)
//! and a once-per-run [`index::WorkspaceIndex`], which is what lets
//! `wire-conformance` cross-check the `Payload` enum in crates/comm
//! against the codec in crates/net. Findings are silenced inline with
//! `// lint:allow(rule): <justification>`; a bare allow without a
//! justification, and an allow that silences nothing, are themselves
//! findings. `--baseline` diffs a run against a committed snapshot
//! (see [`baseline`]) so a new rule can land strict while existing,
//! justified debt stays auditable.
#![deny(unsafe_code)]

pub mod baseline;
pub mod engine;
pub mod index;
pub mod json;
pub mod lexer;
pub mod parser;
pub mod rules;
pub mod source;
pub mod wire;

pub use engine::{
    format_human, load_index, run, run_on_index, RecordedFinding, Report, DEFAULT_ROOTS,
};
