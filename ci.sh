#!/usr/bin/env bash
# Full local CI: build, format check, lint, static analysis, test. Run
# before every PR.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release"
cargo build --release --workspace

# benchmark/ is a standalone package outside the workspace, so nothing
# above compiles it; it links against selsync-net's public surface (two
# distinct endpoint types, `connect_with_listener` as a fn value,
# `link_faults`, `selsync_net::crc32`) and selsync-core's
# (`trainer::run_worker_rank` and `run_server_rank` over any
# `Transport`, `WorkerOutput` built and read field by field, a
# `RunConfig` literal naming every field, `selsync_core::prelude`), and a
# refactor that breaks that surface must fail here, not in the benchmark
# pipeline.
echo "==> benchmark/ build + tests"
cargo build --release --offline --manifest-path benchmark/Cargo.toml
cargo test -q --offline --manifest-path benchmark/Cargo.toml

# Run what the pipeline runs. Each workload's warm-up episode is checked
# bit for bit against the same job on the channel fabric, and the mesh's
# byte and fault counters are checked at exit; a change that breaks
# either must fail here, not in the benchmark pipeline. A 2 s window is
# K = 2 episodes: a few seconds per workload.
echo "==> benchmark/ workload smoke (seed 1, 2 s windows)"
for workload in train_local_chan train_bsp_tcp train_selsync_poll sync_dense_tcp; do
  last="$(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    --workload "$workload" --seed 1 --seconds 2 --trace 0 | tail -n 1)" || true
  case "$last" in
    *'"correct": true'*'"failed": 0,'*) ;;
    *)
      echo "benchmark workload ${workload} failed its checks: ${last}" >&2
      exit 1
      ;;
  esac
done

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Every intra-doc link must resolve to an item the docs show, so a link
# to a private or deleted item fails here. vendor/ is left out: the
# vendored proptest has an ambiguous `[vec]` link that is not ours.
echo "==> cargo doc -D warnings (workspace crates)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps \
  -p selsync-bench -p selsync-chaos -p selsync-comm -p selsync-core \
  -p selsync-data -p selsync-lint -p selsync-net -p selsync-nn \
  -p selsync-serve -p selsync-shard -p selsync-stats -p selsync-tensor \
  -p selsync-suite

# Workspace-wide determinism & protocol-invariant linter (DESIGN.md §8,
# §13). The run is ratcheted against the committed baseline: any finding
# not in lint-baseline.json (or any baseline entry the code no longer
# produces) exits 1. The --json pass re-runs with the machine report,
# which the binary self-validates before printing and exits 2 on if
# malformed.
echo "==> selsync-lint (workspace, baselined)"
./target/release/selsync-lint --baseline lint-baseline.json
./target/release/selsync-lint --json --baseline lint-baseline.json > /dev/null

# The committed baseline must be byte-identical to a fresh snapshot —
# a stale baseline (lines drifted, findings added/removed without
# regenerating) fails here even when the diff above happens to be clean.
echo "==> selsync-lint baseline regenerate-check"
./target/release/selsync-lint --write-baseline /tmp/selsync_lint_baseline_ci.json 2> /dev/null
diff -u lint-baseline.json /tmp/selsync_lint_baseline_ci.json || {
  echo "lint-baseline.json is stale; regenerate with: ./target/release/selsync-lint --write-baseline lint-baseline.json" >&2
  exit 1
}

# The wire-protocol table in DESIGN.md §13 is derived, not hand-written:
# regenerate it from the Payload enum + codec and diff against the copy
# committed between the wire-table markers.
echo "==> selsync-lint --wire-table vs DESIGN.md"
./target/release/selsync-lint --wire-table > /tmp/selsync_wire_table_ci.md
awk '/<!-- wire-table:begin -->/{f=1;next} /<!-- wire-table:end -->/{f=0} f' DESIGN.md > /tmp/selsync_wire_table_design.md
diff -u /tmp/selsync_wire_table_design.md /tmp/selsync_wire_table_ci.md || {
  echo "DESIGN.md wire table is stale; paste the output of: ./target/release/selsync-lint --wire-table" >&2
  exit 1
}

echo "==> cargo test -q (workspace, minus multi-process suites)"
cargo test -q --workspace --exclude selsync-bench --exclude selsync-serve

# The CRC32 kernel has the only `unsafe` in crates/comm (PCLMULQDQ
# folding behind runtime detection); the run above tested the crate in
# a debug build, this one tests all of it as the optimiser compiles it,
# so a bit-identity test that only the optimiser breaks fails here.
# --nocapture shows which CRC kernels this machine could exercise.
echo "==> cargo test -q --release (comm, crc kernels under the optimiser)"
cargo test -q --release -p selsync-comm -- --nocapture

# A warm 4 MB sync round allocates nothing model-sized in net/comm: a
# counting global allocator over two workers and the round server, on
# both drivers. The debug run above checks it without the optimiser;
# this one checks the build the benchmark ships.
echo "==> cargo test -q --release (fabric allocations under the optimiser)"
cargo test -q --release -p selsync-net --test fabric_allocations

# The GEMM microkernel reads B in place through raw pointers and the
# conv / norm loops lean on the optimiser for their speed; the debug run
# above checked their bit-identity oracles without it, this one checks
# them as they ship. Both runs include nn's `model_digests` (gradients
# and parameters of the five models, bit for bit against constants
# recorded before the layer contract was unified) and `heap_allocations`
# (a counting global allocator: two allocations per steady-state training
# step, none per predict), so the optimiser is held to both as well.
echo "==> cargo test -q --release (tensor + nn kernels under the optimiser)"
cargo test -q --release -p selsync-tensor -p selsync-nn

echo "==> cargo test -q (bench unit tests)"
cargo test -q -p selsync-bench --lib --bins

echo "==> cargo test -q (serve unit + steady-state tests)"
cargo test -q -p selsync-serve --lib --bins
cargo test -q -p selsync-serve --test steady_state

# The multi-process suites spawn real selsync_dist / selsync_serve OS
# processes on loopback TCP with liveness timeouts; under
# workspace-wide parallel load they miss heartbeat deadlines and flake.
# Run each binary alone, single-threaded.
for suite in dist_processes chaos_processes ps_failover_processes shard_processes overlap_processes; do
  echo "==> cargo test -q (${suite}, isolated)"
  cargo test -q -p selsync-bench --test "${suite}" -- --test-threads=1
done

echo "==> cargo test -q (serve_processes, isolated)"
cargo test -q -p selsync-serve --test serve_processes -- --test-threads=1

# Seeded mutational fuzzing of the frame codec: ~12k mutated frames
# across every payload kind must decode to Ok or a typed FrameError —
# never a panic — and every accepted frame must re-encode bit-identical.
echo "==> frame-fuzz smoke (codec totality)"
cargo test -q -p selsync-net --test frame_fuzz

# Chaos sweep: the nine named scenarios (worker crash, stragglers,
# lossy and corrupting links, PS and shard crashes restarted from their
# checkpoints, one over a torn generation) × the channel, blocking-TCP
# and poll-TCP fabrics, then 51 seeded random FaultPlans across the
# monolithic / bucketed / sharded / serve topologies, training
# schedules rotating over the three fabrics by index. Every run is
# checked against the soak invariants (deadline, conservation,
# classified recovery, bit-identity with the channel fault-free run, PS
# restart fired and resumed). Exits 1 on violation and writes a shrunk
# JSON repro for a failing random schedule.
echo "==> selsync_soak --quick (named chaos scenarios + randomized fault sweep)"
./target/release/selsync_soak --quick --out /tmp/SOAK_repro_ci.json > /dev/null

# Writes a quick-mode kernel table to /tmp (the committed
# BENCH_kernels.json is itself a quick-mode snapshot, but one a CI smoke
# run must not overwrite) and exits nonzero if the file is malformed or any optimized
# kernel's checksum diverges from the naive reference kernels beyond
# float-reassociation tolerance. The overlap smoke rides along: the
# `overlap_steps_per_sec` rows re-run the real bucketed vs monolithic
# BSP cluster and fail the run unless the two are bit-identical
# (DESIGN.md §12).
echo "==> kernel bench (quick; checksum + overlap bit-identity + JSON validation)"
./target/release/kernel_bench --quick --out /tmp/BENCH_kernels_ci.json > /dev/null

# Merges the sharded-PS sweep rows into the same /tmp table (must run
# after kernel_bench, which rewrites the file wholesale) and exits
# nonzero if the fan-out byte accounting drifts, results diverge across
# shard counts, or the modeled K=4 stops beating K=1 at the congested
# point.
echo "==> shard bench (quick; byte-accounting + crossover validation)"
./target/release/shard_bench --quick --out /tmp/BENCH_kernels_ci.json > /dev/null

# Regenerates BENCH_serve.json from an in-process serving group and
# exits nonzero if any grid point dropped a request, produced a
# non-finite rate, or wrote a malformed file.
echo "==> serve bench (quick; request-accounting + JSON validation)"
./target/release/serve_bench --quick --out /tmp/BENCH_serve_ci.json > /dev/null

echo "CI OK"
