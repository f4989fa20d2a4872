#!/usr/bin/env bash
# One set of runs for `compare`: every workload once per seed with tracing
# off, and once with tracing on for the first seed (the exact `core.*`
# counts), each run appended to <out.jsonl>. The window is the frozen one.
#   benchmark/run_set.sh out/a.jsonl 1 2 3 4 5 6 7 8 9 10
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$1"
traced_seed="$2"
shift
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
run() {
    cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- \
        --workload "$1" --seed "$2" --trace "$3" --json-out "$out" | tail -n 1
}
for seed in "$@"; do
    for workload in train_local_chan train_bsp_tcp train_selsync_poll sync_dense_tcp; do
        run "$workload" "$seed" 0
        if [ "$seed" = "$traced_seed" ]; then
            run "$workload" "$seed" 1
        fi
    done
done
