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

# Two properties of the release codegen the kernels' speed rests on and
# no test sees: `transpose8` inlined into its AVX2 callers (left out of
# line, the lane layout's `to_lanes` ran about 6x slower), and no 64-bit
# `div` in the GEMM microkernel (counting B's rows with one cost a
# division per tile). The check needs binutils and skips without them.
echo "==> release codegen: transpose8 inlined, no div in microkernel_fma"
if command -v nm > /dev/null && command -v objdump > /dev/null; then
  bin=target/release/selsync_run
  if nm -C "$bin" | grep -q 'transpose8'; then
    echo "${bin} carries an out-of-line transpose8" >&2
    exit 1
  fi
  kernels="$(objdump -d --no-show-raw-insn -C "$bin" \
    | awk '/^[0-9a-f]+ <selsync_tensor::matmul::microkernel_fma[<>]/ {f = 1; n++; next}
           /^$/ {f = 0}
           f && /\tdiv/ {d++}
           END {print n + 0, d + 0}')"
  read -r bodies divs <<< "$kernels"
  if [ "$bodies" -eq 0 ] || [ "$divs" -ne 0 ]; then
    echo "${bin}: ${bodies} microkernel_fma bodies, ${divs} div instructions in them (want >0 and 0)" >&2
    exit 1
  fi
else
  echo "nm or objdump not found; skipping the codegen check"
fi

# The wire codec's byte swaps are one safe body compiled twice, and the
# AVX2 compilation is what runs on an AVX2 host. Its speed rests on the
# optimiser vectorising the swap into `vpshufb`; a body that stayed
# scalar still passes every test. The release binary that ships the
# TCP fabric must carry the AVX2 bodies, and each must hold a `vpshufb`.
# (`selsync_run` trains over in-process channels and links no codec.)
echo "==> release codegen: the wire codec's AVX2 swap bodies use vpshufb"
if command -v objdump > /dev/null; then
  bin=target/release/selsync_dist
  swaps="$(objdump -d --no-show-raw-insn -C "$bin" \
    | awk '/^[0-9a-f]+ <selsync_net::codec::[a-z_]+_avx2[<>]/ {f = 1; n++; s = 0; next}
           /^$/ {if (f && s == 0) z++; f = 0}
           f && /\tvpshufb/ {s++}
           END {print n + 0, z + 0}')"
  read -r bodies scalar <<< "$swaps"
  if [ "$bodies" -eq 0 ] || [ "$scalar" -ne 0 ]; then
    echo "${bin}: ${bodies} AVX2 codec bodies, ${scalar} of them without vpshufb (want >0 and 0)" >&2
    exit 1
  fi
else
  echo "objdump not found; skipping the codec codegen check"
fi

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
# the root-package test renders it from the wire schema that declares
# `Payload` and compares it byte for byte with the copy committed
# between the wire-table markers. It is run by name, and a filter that
# ran no test fails here as hard as a stale table.
echo "==> wire-table vs DESIGN.md"
wire_table="$(cargo test -q --test wire_table -- --exact design_wire_table_matches_the_schema 2>&1)" || {
  echo "${wire_table}" >&2
  echo "DESIGN.md wire table is stale; paste the table printed above between its markers" >&2
  exit 1
}
case "$wire_table" in
  *'test result: ok. 1 passed'*) ;;
  *)
    echo "${wire_table}" >&2
    echo "the wire-table test did not run" >&2
    exit 1
    ;;
esac

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

# The GEMM microkernel reads B in place and stores full tiles straight
# into C, the NT pack transposes 8x8 blocks in registers, and the conv
# lowering's masked shifts and the norm loops lean on the optimiser for
# their speed. selsync-tensor is optimised in the debug profile too
# (Cargo.toml: unoptimised, each `mul_add` is two calls), so the debug
# run above checked these oracles with debug assertions on; this one
# checks them as they ship: both NT pack bodies against each other and the definition
# (`transposed_pack_bodies_write_identical_panels`), direct-store tiles
# against the accumulator path over a stale C
# (`direct_store_tiles_match_the_acc_path`), and im2col / col2im against
# their definitions with NaN, +-inf and -0.0 on masked and kept pixels,
# which a multiply-by-zero mask fails, as it fails conv2d's row-major
# oracle on an x and a dy that carry a NaN and an inf. Both runs include nn's `model_digests` (gradients
# and parameters of the five models, bit for bit against constants
# recorded before the layer contract was unified) and `heap_allocations`
# (a counting global allocator: two allocations per steady-state training
# step, none per predict), so the optimiser is held to both as well.
# The packed GEMM is held bit for bit to the exact reference kernels
# here too, at the 256^3, transformer, im2col and conv shapes the models
# run and the per-head attention oracle's 12x8x12, as NN, TN and NT, on
# plain and on NaN/inf/-0.0-salted operands
# (`tile_boundary_shapes_match_reference`), and the microkernel's
# baseline and FMA compilations to each other.
# This step also carries the exhaustive sweeps of `tensor::math`, each
# against libm by `to_bits` on all 2^32 inputs, on scoped threads: every
# body of the `tanh` lane kernel (AVX2 and portable) against `f32::tanh`
# (about 100 s on two cores), and the `expf` lane kernel, which is
# glibc's FMA build on every host, against `f32::exp` (about 22 s): on an
# AVX2+FMA host its AVX2 vector and lane bodies, exact; without FMA its
# portable body, one ulp above the host's generic build at exactly the
# two split inputs. Both are `#[cfg_attr(debug_assertions, ignore)]`, so
# the debug run above skips them. The batched-heads attention kernel and the row softmax are held
# here, as in debug, to the per-head path they replaced, by `to_bits`
# (`lane_kernel_matches_per_head_oracle_on_salted_inputs`,
# `layer_matches_per_head_layer_across_an_eval_forward`).
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

# Regenerates BENCH_serve.json from an in-process serving group and
# exits nonzero if any grid point dropped a request, produced a
# non-finite rate, or wrote a malformed file.
echo "==> serve bench (quick; request-accounting + JSON validation)"
./target/release/serve_bench --quick --out /tmp/BENCH_serve_ci.json > /dev/null

echo "CI OK"
