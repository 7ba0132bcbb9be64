#!/usr/bin/env bash
# Builds the daemons and the benchmark, then runs the benchmark with the
# given arguments (see README.md; `--help` lists them).
#
#   benchmark/run.sh                       every workload, end to end
#   benchmark/run.sh --traced              every workload, per-layer ladder
#   benchmark/run.sh --smoke               a fiftieth of the size, one rep
#   benchmark/run.sh --sets 2              the suite twice, then compared
#   benchmark/run.sh --compare DIR_A DIR_B
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Everything is built from source into CARGO_TARGET_DIR (default: the
# repository's target/), so that pangead and pangea-mgr land beside the
# benchmark's executable, which is where it looks for them.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

target="${CARGO_TARGET_DIR:-target}"
case "$target" in
    /*) ;;
    *) target="$root/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

# Build output goes to stderr: stdout carries the results.
cargo build --release --offline -p pangea-coord --bins 1>&2
cargo build --release --offline --manifest-path "$here/Cargo.toml" 1>&2

exec "$target/release/pangea-benchmark" "$@"
