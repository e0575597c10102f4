#!/usr/bin/env bash
# Prints every metric of every workload: the end-to-end metrics from an
# untraced run, then the per-layer metrics from a traced run, each table
# with units, sample counts and run metadata. Run from the repository
# root; SEED and RUN_SECONDS override the defaults.
set -euo pipefail
seed="${SEED:-0x51A02021}"
seconds="${RUN_SECONDS:-20}"
for workload in sweep-kernels attack-scan trace-cold warm-rerun; do
    for trace in 0 1; do
        echo "== $workload (trace $trace)"
        cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
            --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace"
    done
done
