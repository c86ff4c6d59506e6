#!/usr/bin/env bash
# The one command: builds the benchmark (its own cargo workspace, offline,
# against the committed lock file) and runs it.
#
#   benchmark/run.sh                                  all four workloads
#   benchmark/run.sh --quick                          cubes a tenth the size, ~10 s in all
#   benchmark/run.sh --workload adhoc_disk --seed 7   one workload, one seed
#   benchmark/run.sh --repeat 5                       min/median/max over 5 runs of one seed
#   benchmark/run.sh --workload <w> --seed <n> --seconds <s> --trace <0|1>
#                                                     one run; the last line of
#                                                     stdout is the JSON result
#
# Build artefacts go to $CARGO_TARGET_DIR when set, else to target/benchmark
# under the repo root (already ignored); run artefacts to benchmark/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/../target/benchmark}"
cargo build --release --offline --locked --quiet \
    --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
exec "$target/release/dc-benchmark" --out "$here/out" "$@"
