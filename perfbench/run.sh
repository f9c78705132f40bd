#!/usr/bin/env bash
# Builds and runs the benchmark from the repository root:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# On a machine with more than one CPU the whole run is pinned to the last
# one. Client, connection handler and solver then take turns on one core
# instead of waking each other across cores, which on a two-core virtual
# machine cut the run-to-run spread of the served workloads from about a
# fifth to about a twentieth of the median; the last CPU rather than CPU 0
# because CPU 0 takes most device interrupts there.
set -euo pipefail

pin=()
cpus=$(nproc)
if [ "$cpus" -gt 1 ] && command -v taskset >/dev/null 2>&1; then
    pin=(taskset -c "$((cpus - 1))")
fi
exec ${pin[@]+"${pin[@]}"} cargo run --release --offline --quiet \
    --manifest-path perfbench/Cargo.toml -- "$@"
