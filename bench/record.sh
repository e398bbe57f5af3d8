#!/bin/sh
# Write a performance record of the simulator: one pass of each repo
# benchmark workload (benchmark/run.sh, seed 42), timed in reference
# time.
#
#   sh bench/record.sh FILE
#
# For each workload the record keeps the benchmark's result line (its
# last stdout line: correct, attempted, failed and the end-to-end
# metrics) and the pass's result_digest, one workload per line, so that
# tier1.sh's perf gate can read it with sed.  It also keeps the
# revision, the host's core count and the seed.  A committed record is
# named BENCH_<rev>.json after the revision it measured; tier1.sh
# writes a fresh record with this script and compares the two.
set -e
if [ $# -ne 1 ]; then
  echo "usage: sh bench/record.sh FILE" >&2
  exit 2
fi
case $1 in
  /*) out=$1 ;;
  *) out=$PWD/$1 ;;
esac
cd "$(dirname "$0")/.."

seed=42
rev=$(git describe --always --dirty --abbrev=7 2>/dev/null || echo unknown)
run=$(mktemp)
body=$(mktemp)
trap 'rm -f "$run" "$body"' EXIT

sep=
for workload in static carrefour faults consolidation; do
  bash benchmark/run.sh --workload "$workload" --seed "$seed" --seconds 1 > "$run"
  digest=$(sed -n 's/^result_digest \([0-9a-f]*\)$/\1/p' "$run")
  printf '%s    "%s": {"result_digest": "%s", "result": %s}' \
    "$sep" "$workload" "$digest" "$(tail -n 1 "$run")" >> "$body"
  sep=",
"
done

{
  printf '{\n  "git_rev": "%s",\n  "host_cores": %s,\n  "seed": %s,\n  "workloads": {\n' \
    "$rev" "$(nproc)" "$seed"
  cat "$body"
  printf '\n  }\n}\n'
} > "$out"
