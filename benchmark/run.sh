#!/usr/bin/env bash
# Build the benchmark from source, then run it:
#
#   bash benchmark/run.sh --workload static --seed 42 --seconds 10 --trace 0
#
# Build output goes to _build/ under the repository root; nothing is
# read from or written to the shared dune cache.  Build messages go to
# stderr, so the last stdout line stays the benchmark's JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."

# One domain and the runtime's default GC settings, whatever the
# caller's environment says: the timings must not depend on it.
unset XEN_NUMA_JOBS XEN_NUMA_INNER_JOBS OCAMLRUNPARAM

DUNE_CACHE=disabled dune build --root . ./benchmark/main.exe >&2
exec ./_build/default/benchmark/main.exe "$@"
