#!/bin/sh
# Runs every workload untraced (end-to-end metrics) and then traced
# (per-layer metrics), from the repository root:
#
#   sh perfbench/all.sh [seed] [seconds]
#
# Stops with a non-zero status at the first run with a wrong output.
set -e
seed=${1:-1}
seconds=${2:-25}
for workload in edgar_cold sfx_checked serve_edits; do
    for trace in 0 1; do
        cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
            --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace"
    done
done
