#!/usr/bin/env bash
# Build the benchmark from source, then run it from the repository root:
#
#   bash benchmark/run.sh [--workload W] [--seed N] [--seconds S] [--trace 0|1]
#                         [--smoke] [--out DIR]
#
# Build output goes to stderr, so the last line of standard output is the
# run's JSON summary.  Everything is built and written inside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)"
export DUNE_CACHE=disabled
mkdir -p benchmark/out/tmp
TMPDIR="$PWD/benchmark/out/tmp"
export TMPDIR
dune build --root . ./benchmark/main.exe ./bin/benchgen_cli.exe 1>&2
exec ./_build/default/benchmark/main.exe run "$@"
