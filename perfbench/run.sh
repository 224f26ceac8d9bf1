#!/bin/sh
# Builds the benchmark from this checkout's sources and runs one workload:
#
#   sh perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run it from the root of the checkout.  Build output goes to
# .bench_build/ (dune's shared cache is off, so nothing is written
# outside the checkout); build messages go to standard error.  Without
# the repository's sources next to it, it exits 2 and prints no result.
set -eu

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f perfbench/perf.ml ]; then
  echo "perfbench: run from the root of a full checkout" >&2
  exit 2
fi

dune build --root . --build-dir .bench_build --cache=disabled \
  ./perfbench/perf.exe >&2
exec ./.bench_build/default/perfbench/perf.exe "$@"
