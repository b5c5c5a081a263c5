#!/usr/bin/env bash
# Build the benchmark from this checkout's sources, then run it with the
# given arguments (see perf.ml).  Run from the root of the checkout:
#   bash bench/perf/run.sh --workload steady --seed 1 --seconds 10 --trace 0
set -euo pipefail
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "bench/perf/run.sh: run from the root of a checkout of the repository" >&2
  exit 2
fi
# dune's shared cache lives outside the checkout
export DUNE_CACHE=disabled
dune build --root . --display quiet ./bench/perf/perf.exe 1>&2
exec ./_build/default/bench/perf/perf.exe "$@"
