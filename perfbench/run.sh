#!/usr/bin/env bash
# Build the benchmark from source and run it from the repository root:
#   bash perfbench/run.sh --workload list-1t|hash-4t|service|all \
#     --seed N --seconds S --trace 0|1
# Build output goes to stderr, so the last line of stdout stays the
# benchmark's JSON result.  See perfbench/README.md.
set -eu
cd "$(dirname "$0")/.."
dune build --root . ./perfbench/bench.exe 1>&2
exec ./_build/default/perfbench/bench.exe "$@"
