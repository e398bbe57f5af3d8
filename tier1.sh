#!/bin/sh
# Tier-1 verification in one command: full build, full test suite,
# the chaos grid, determinism checks of the bench driver's grids and
# the perf gate over the repo benchmark.
set -e
cd "$(dirname "$0")"

dune build

# Placement decisions belong to lib/policies: no other module matches
# or compares Spec.placement; the engine asks Spec and Policies.Manager
# what a placement implies.
if grep -rn --include='*.ml' --exclude-dir=_build \
  'Spec\.\(placement\|First_touch\|Round_1g\|Round_4k\)' . | grep -v '^\./lib/policies/'; then
  echo "tier1: FAIL - placement dispatch outside lib/policies (lines above)" >&2
  exit 1
fi

# Every command's help must render cleanly: a bad escape in a doc
# string makes cmdliner print "cmdliner error" lines into the help text.
for cmd in "xen_numa_sim run" "xen_numa_sim list" "xen_numa_sim topology" \
  "xen_numa_sim compare" "xen_numa_sim advise" "xen_numa_sim microsim" \
  "xen_numa_trace summary" "xen_numa_trace check" "xen_numa_trace query"; do
  set -- $cmd
  if dune exec "bin/$1.exe" -- "$2" --help=plain 2>&1 | grep -q 'cmdliner error'; then
    echo "tier1: FAIL - $cmd --help prints a cmdliner error" >&2
    exit 1
  fi
done

dune runtest

# Chaos suite, pinned seed: the degradation grid must complete every
# fault plan (a plan that hits the epoch cap prints a WARNING).
dune exec bench/main.exe -- chaos --jobs 2

# Combined chaos + RAS smoke: software faults and hardware RAS compose
# in one plan — queue loss and flaky allocations while a node dies and
# ECC errors land.  The run must still complete.
dune exec bin/xen_numa_sim.exe -- run swaptions -m xen+ -p ft+carrefour \
  --faults "alloc=0.2,batch-loss=0.3,ecc-ce=0.5,ecc-ue=0.02,node_fail=1.0@50" >/dev/null
echo "tier1: chaos+ras combined smoke OK"

TRACE_DIR="$(mktemp -d)"
trap 'rm -rf "$TRACE_DIR"' EXIT

# Perf gate: bench/record.sh runs one pass of each repo benchmark
# workload (benchmark/run.sh, seed 42) and the result is compared with
# the committed record named here.  Each workload must complete every
# cell, reproduce the record's result_digest exactly, and keep pass_s
# (reference time, which takes out the host's slowdowns) and
# peak_rss_mb within their BENCHMARK.json end_to_end bounds of the
# record; both are lower-is-better.  Re-baseline by committing a new
# record and naming it on this line.
PERF_REF=BENCH_991787b.json
sh bench/record.sh "$TRACE_DIR/perf_now.json"
# The value on WORKLOAD's line of a record: perf_field FILE WORKLOAD REGEX,
# where REGEX holds one \(...\) group.
perf_field() { sed -n "s/^ *\"$2\": .*$3.*/\1/p" "$1"; }
perf_bad=0
for w in static carrefour faults consolidation; do
  now_line=$(grep "^ *\"$w\": " "$TRACE_DIR/perf_now.json" || true)
  case $now_line in
    *'"correct": true, '*'"failed": 0, '*) ;;
    *)
      echo "tier1: FAIL - perf gate: $w has failed cells" >&2
      perf_bad=1
      ;;
  esac
  ref_digest=$(perf_field "$PERF_REF" "$w" '"result_digest": "\([0-9a-f]*\)"')
  now_digest=$(perf_field "$TRACE_DIR/perf_now.json" "$w" '"result_digest": "\([0-9a-f]*\)"')
  if [ -z "$ref_digest" ] || [ "$now_digest" != "$ref_digest" ]; then
    echo "tier1: FAIL - perf gate: $w result_digest $now_digest, record $ref_digest" >&2
    perf_bad=1
  fi
  for m in pass_s peak_rss_mb; do
    bound=$(sed -n "s/.*\"name\": \"$m\".*\"bound\": \([0-9.]*\).*/\1/p" BENCHMARK.json)
    ref=$(perf_field "$PERF_REF" "$w" "\"$m\": {\"value\": \([0-9.e+-]*\)")
    now=$(perf_field "$TRACE_DIR/perf_now.json" "$w" "\"$m\": {\"value\": \([0-9.e+-]*\)")
    if ! awk -v w="$w" -v m="$m" -v now="$now" -v ref="$ref" -v bound="$bound" 'BEGIN {
      if (now == "" || ref == "" || bound == "") exit 1
      printf "tier1: perf gate %s %s %.4g, record %.4g (%+.1f%%, bound +%.0f%%)\n",
        w, m, now, ref, 100 * (now / ref - 1), 100 * bound
      exit !(now <= ref * (1 + bound))
    }'; then
      echo "tier1: FAIL - perf gate: $w $m is worse than $PERF_REF allows" >&2
      perf_bad=1
    fi
  done
done
[ "$perf_bad" -eq 0 ] || exit 1
echo "tier1: perf gate OK vs $PERF_REF"

# Usage errors must be reported as such: unknown sections and a
# malformed --jobs both exit non-zero, and a --threads outside 1 to the
# host's CPU count exits non-zero as a usage error, never as an
# internal error.
if dune exec bench/main.exe -- no-such-section >/dev/null 2>&1; then
  echo "tier1: FAIL - unknown bench section did not exit non-zero" >&2
  exit 1
fi
if dune exec bench/main.exe -- tab1 --jobs banana >/dev/null 2>&1; then
  echo "tier1: FAIL - bad --jobs did not exit non-zero" >&2
  exit 1
fi
for cmd in run compare; do
  for threads in 0 49; do
    if dune exec bin/xen_numa_sim.exe -- $cmd swaptions -t $threads >"$TRACE_DIR/usage.out" 2>&1; then
      echo "tier1: FAIL - $cmd -t $threads did not exit non-zero" >&2
      exit 1
    fi
    if grep -q 'internal error' "$TRACE_DIR/usage.out"; then
      echo "tier1: FAIL - $cmd -t $threads is an internal error, not a usage error" >&2
      exit 1
    fi
  done
done

# Determinism across worker schedules: each grid below, traced at
# --jobs 1 and at --jobs 4, must print byte-identical stdout and export
# byte-identical JSONL (streams are merged by config-derived label,
# never by worker schedule, and bench prints no timing), and the
# checker must accept the trace.  Both runs write the same trace path,
# renamed after each run, so bench's "wrote FILE" line matches too.
# - tab1: the paper's baseline grid;
# - hugepage: the promotion scan is cursor-driven and the TLB blend
#   derives from P2M state, so the worker schedule must not leak in;
# - mitosis: walk-off cells must replay the baseline engine byte for
#   byte, and the replica update stream (hence the walk/replica
#   summary events) must be a function of the cell seed alone;
# - ras: node-failure targets, ECC draws, evacuation batches and the
#   degraded traffic model must all be functions of the cell seed.
for grid in tab1:j hugepage:hp mitosis:mt ras:ras; do
  section=${grid%%:*}
  tag=${grid#*:}
  for jobs in 1 4; do
    dune exec bench/main.exe -- "$section" --jobs "$jobs" --trace "$TRACE_DIR/$tag.jsonl" \
      --trace-cap 512 > "$TRACE_DIR/$tag$jobs.out"
    mv "$TRACE_DIR/$tag.jsonl" "$TRACE_DIR/$tag$jobs.jsonl"
  done
  cmp "$TRACE_DIR/${tag}1.out" "$TRACE_DIR/${tag}4.out" || {
    echo "tier1: FAIL - $section stdout differs between --jobs 1 and --jobs 4" >&2
    exit 1
  }
  cmp "$TRACE_DIR/${tag}1.jsonl" "$TRACE_DIR/${tag}4.jsonl" || {
    echo "tier1: FAIL - $section traces differ between --jobs 1 and --jobs 4" >&2
    exit 1
  }
  dune exec bin/xen_numa_trace.exe -- check "$TRACE_DIR/${tag}1.jsonl"
  echo "tier1: $section determinism OK ($(wc -l < "$TRACE_DIR/${tag}1.jsonl") JSONL lines)"
done
# Every trace line is one JSON object, and the summariser accepts the
# file.
grep -cv '^{.*}$' "$TRACE_DIR/j1.jsonl" >/dev/null 2>&1 && {
  echo "tier1: FAIL - trace contains non-JSON-object lines" >&2
  exit 1
}
dune exec bin/xen_numa_trace.exe -- summary --timeline 4 "$TRACE_DIR/j1.jsonl" >/dev/null

# Fast-forward equivalence: the steady-state delta replay must be
# invisible in the trace bytes.  One static cell (round-4k quiesces
# into a pure replay streak) and one Carrefour cell (decade boundaries
# punctuate the streaks) run with fast-forward on and off; the JSONL
# exports must be byte-identical — same events, same floats, same
# order — with only the stdout replay count allowed to differ.
dune exec bin/xen_numa_sim.exe -- run swaptions -t 8 -m xen+ -p round-4k \
  --trace "$TRACE_DIR/ffon.jsonl" >/dev/null
dune exec bin/xen_numa_sim.exe -- run swaptions -t 8 -m xen+ -p round-4k \
  --no-fast-forward --trace "$TRACE_DIR/ffoff.jsonl" >/dev/null
cmp "$TRACE_DIR/ffon.jsonl" "$TRACE_DIR/ffoff.jsonl" || {
  echo "tier1: FAIL - static-cell traces differ between fast-forward on and off" >&2
  exit 1
}
dune exec bin/xen_numa_sim.exe -- run streamcluster -t 8 -m xen+ -p round-4k/carrefour \
  --trace "$TRACE_DIR/ffcon.jsonl" >/dev/null
dune exec bin/xen_numa_sim.exe -- run streamcluster -t 8 -m xen+ -p round-4k/carrefour \
  --no-fast-forward --trace "$TRACE_DIR/ffcoff.jsonl" >/dev/null
cmp "$TRACE_DIR/ffcon.jsonl" "$TRACE_DIR/ffcoff.jsonl" || {
  echo "tier1: FAIL - carrefour-cell traces differ between fast-forward on and off" >&2
  exit 1
}
# The same bar for the runs that used to fork the engine: a fault plan
# with a node-failure window (replays outside it; the manager tick keeps
# its clock on replayed epochs, so the drain timing matches), unpinned
# vCPUs (the credit scheduler draws on every epoch), and the whole RAS
# grid.
dune exec bin/xen_numa_sim.exe -- run swaptions -p first-touch --faults node_fail=1.0@120-170 \
  --trace "$TRACE_DIR/ffnon.jsonl" >/dev/null
dune exec bin/xen_numa_sim.exe -- run swaptions -p first-touch --faults node_fail=1.0@120-170 \
  --no-fast-forward --trace "$TRACE_DIR/ffnoff.jsonl" >/dev/null
cmp "$TRACE_DIR/ffnon.jsonl" "$TRACE_DIR/ffnoff.jsonl" || {
  echo "tier1: FAIL - node-failure traces differ between fast-forward on and off" >&2
  exit 1
}
dune exec bin/xen_numa_sim.exe -- run cg.C -t 48 -m xen+ -p first-touch/carrefour --unpinned \
  --trace "$TRACE_DIR/ffuon.jsonl" >/dev/null
dune exec bin/xen_numa_sim.exe -- run cg.C -t 48 -m xen+ -p first-touch/carrefour --unpinned \
  --no-fast-forward --trace "$TRACE_DIR/ffuoff.jsonl" >/dev/null
cmp "$TRACE_DIR/ffuon.jsonl" "$TRACE_DIR/ffuoff.jsonl" || {
  echo "tier1: FAIL - unpinned traces differ between fast-forward on and off" >&2
  exit 1
}
dune exec bench/main.exe -- ras --jobs 2 --no-fast-forward --trace "$TRACE_DIR/rasoff.jsonl" \
  --trace-cap 512 >/dev/null
cmp "$TRACE_DIR/ras1.jsonl" "$TRACE_DIR/rasoff.jsonl" || {
  echo "tier1: FAIL - ras traces differ between fast-forward on and off" >&2
  exit 1
}
echo "tier1: fast-forward trace equivalence OK"

# Trace query engine smoke: the streaming query over the tab1 traces
# from --jobs 1 and --jobs 4 must render byte-identical tables (the
# aggregates are pure functions of the trace bytes), and the same run
# captured in both codecs must answer every query, check and summary
# identically.
dune exec bin/xen_numa_trace.exe -- query "$TRACE_DIR/j1.jsonl" > "$TRACE_DIR/q1.txt"
dune exec bin/xen_numa_trace.exe -- query "$TRACE_DIR/j4.jsonl" > "$TRACE_DIR/q4.txt"
cmp "$TRACE_DIR/q1.txt" "$TRACE_DIR/q4.txt" || {
  echo "tier1: FAIL - query output differs between --jobs 1 and --jobs 4 traces" >&2
  exit 1
}
dune exec bin/xen_numa_sim.exe -- run swaptions -t 8 -m xen+ -p first-touch/carrefour \
  --trace "$TRACE_DIR/codec.jsonl" --trace-cap 512 >/dev/null
dune exec bin/xen_numa_sim.exe -- run swaptions -t 8 -m xen+ -p first-touch/carrefour \
  --trace "$TRACE_DIR/codec.bin" --trace-cap 512 >/dev/null
dune exec bin/xen_numa_trace.exe -- query --class page_fault,epoch_boundary --epochs 0-200 \
  --format jsonl --heatmap "$TRACE_DIR/heat_jsonl.csv" "$TRACE_DIR/codec.jsonl" \
  > "$TRACE_DIR/qc_jsonl.txt"
dune exec bin/xen_numa_trace.exe -- query --class page_fault,epoch_boundary --epochs 0-200 \
  --format jsonl --heatmap "$TRACE_DIR/heat_bin.csv" "$TRACE_DIR/codec.bin" \
  > "$TRACE_DIR/qc_bin.txt"
cmp "$TRACE_DIR/qc_jsonl.txt" "$TRACE_DIR/qc_bin.txt" || {
  echo "tier1: FAIL - query output differs between JSONL and binary codecs" >&2
  exit 1
}
cmp "$TRACE_DIR/heat_jsonl.csv" "$TRACE_DIR/heat_bin.csv" || {
  echo "tier1: FAIL - heatmap CSV differs between JSONL and binary codecs" >&2
  exit 1
}
for sub in check summary; do
  dune exec bin/xen_numa_trace.exe -- $sub "$TRACE_DIR/codec.jsonl" > "$TRACE_DIR/${sub}_jsonl.txt"
  dune exec bin/xen_numa_trace.exe -- $sub "$TRACE_DIR/codec.bin" > "$TRACE_DIR/${sub}_bin.txt"
  cmp "$TRACE_DIR/${sub}_jsonl.txt" "$TRACE_DIR/${sub}_bin.txt" || {
    echo "tier1: FAIL - $sub output differs between JSONL and binary codecs" >&2
    exit 1
  }
done
echo "tier1: trace query engine OK (codecs and schedules agree)"

# Query usage errors: an unknown class name and a corrupt trace file
# must both exit non-zero (the class error enumerates the valid names;
# truncation must never be silently accepted by any subcommand, whether
# a binary trace is cut mid-record or a JSONL trace at a line boundary).
if dune exec bin/xen_numa_trace.exe -- query --class no_such_class "$TRACE_DIR/codec.jsonl" \
  >/dev/null 2>&1; then
  echo "tier1: FAIL - unknown query class did not exit non-zero" >&2
  exit 1
fi
head -c 100 "$TRACE_DIR/codec.bin" > "$TRACE_DIR/truncated.bin"
head -n 200 "$TRACE_DIR/codec.jsonl" > "$TRACE_DIR/truncated.jsonl"
for sub in query check summary; do
  if dune exec bin/xen_numa_trace.exe -- $sub "$TRACE_DIR/truncated.bin" >/dev/null 2>&1; then
    echo "tier1: FAIL - $sub accepted a truncated binary trace" >&2
    exit 1
  fi
  if dune exec bin/xen_numa_trace.exe -- $sub "$TRACE_DIR/truncated.jsonl" >/dev/null 2>&1; then
    echo "tier1: FAIL - $sub accepted a JSONL trace cut at a line boundary" >&2
    exit 1
  fi
done

# Phase profiler smoke: --profile prints the span table (and SLO
# objectives evaluate without disturbing the run).
dune exec bin/xen_numa_sim.exe -- run swaptions -t 8 --slo p99=10000 --profile \
  > "$TRACE_DIR/profile.txt"
grep -q "phase" "$TRACE_DIR/profile.txt" || {
  echo "tier1: FAIL - --profile printed no span table" >&2
  exit 1
}
grep -q "slo p99" "$TRACE_DIR/profile.txt" || {
  echo "tier1: FAIL - --slo printed no objective row" >&2
  exit 1
}
echo "tier1: profiler and SLO smoke OK"

# SLO verdicts on replayed epochs: a replayed epoch recomputes its
# objectives from the captured latencies.  The targets sit inside the
# run's epoch-latency range (the steady-state p99 exceeds 220 cycles
# and the warm-up epochs do not; the mean exceeds 218 only during
# warm-up), so some but not all epochs violate.  Stdout must match with
# fast-forward on and off once the replay count is stripped.
for ff in "" --no-fast-forward; do
  dune exec bin/xen_numa_sim.exe -- run swaptions -t 8 --slo p99=220,mean=218 $ff \
    > "$TRACE_DIR/slo.txt"
  sed 's/ ([0-9]* replayed)//' "$TRACE_DIR/slo.txt" > "$TRACE_DIR/slo${ff:-on}.txt"
done
cmp "$TRACE_DIR/sloon.txt" "$TRACE_DIR/slo--no-fast-forward.txt" || {
  echo "tier1: FAIL - SLO output differs between fast-forward on and off" >&2
  exit 1
}
awk '/epochs in violation/ { rows++; for (i = 1; i <= NF; i++) if ($i ~ /^[0-9]+\/[0-9]+$/) {
       split($i, f, "/"); if (f[1] == 0 || f[1] == f[2]) bad = 1 } }
     END { exit (bad || rows != 2) }' "$TRACE_DIR/sloon.txt" || {
  echo "tier1: FAIL - SLO targets no longer split the epochs into violating and not" >&2
  exit 1
}
echo "tier1: SLO fast-forward equivalence OK"

# Short randomised chaos pass: a fresh QCHECK_SEED (overridable for
# replay) re-runs the fault-injection property suite, whose
# frame-accounting invariant (no leaks, no double frees) and the
# unarmed-epoch injector property (no answer, no draw outside armed
# windows — what the fast-forward relies on) fail the build on
# violation.
QCHECK_SEED="${QCHECK_SEED:-$(date +%s)}"
export QCHECK_SEED
echo "tier1: randomised chaos pass (QCHECK_SEED=$QCHECK_SEED)"
dune exec test/test_main.exe -- test faults

# Same randomised seed over the property suites: the buddy partition
# invariant (the memory.buddy filter also matches memory.buddy.offline,
# whose free + allocated + offlined = total invariant covers page
# offlining, and memory.buddy.props; all three check
# Buddy.check_consistent), the run-wise free_run = per-frame free
# differential (memory.buddy), the P2M superpage consistency invariant,
# the top-k heap invariant, the batched-vs-per-page P2M equivalences
# (invalidate_batch, migrate_batch) and the invalidate_range =
# invalidate_batch differential (xen.p2m.batch), the queue +
# page_ops_hypercall = newest-first reference differential (the one
# most-recent-op-wins pass, guest.pv_queue), the evacuation
# frame-conservation property (post-drain P2M maps exactly the
# pre-failure guest frames, none on an offlined mfn), the
# replica-equivalence invariant (mirrors track the primary through any
# op interleaving), the radix walk monotonicity properties, the
# fast-forward equivalence property (a delta-replayed run equals the
# naive run bit for bit across randomised policies, vCPU counts, fault
# plans and pinning),
# the Carrefour properties (the budget-bounded decide equals the
# full-ranking oracle in actions and RNG state; the heat table's cached
# row sums and argmax stay exact under decay and sampling; the
# exponent-scaled heat table, sorted by the test, equals eager halving
# in pfn order, counts, sums, argmax, read heat and keys across a
# renormalisation and into subnormal counts; run_epoch on the scaled
# live table equals decide on the eager readout; decide capped below
# the row count on the live table equals decide on the ranked,
# unscaled readout cut to the cap; decide ignores row order and
# readout scale, under any cap), and the promote-scan differential
# (the early-exit scan equals the full-classification oracle in return
# value, cursor, P2M, counters, charged time and trace events;
# policies.promote).
echo "tier1: randomised property pass (QCHECK_SEED=$QCHECK_SEED)"
dune exec test/test_main.exe -- test memory.buddy
dune exec test/test_main.exe -- test xen.p2m
dune exec test/test_main.exe -- test stats.topk
dune exec test/test_main.exe -- test xen.p2m.batch
dune exec test/test_main.exe -- test guest.pv_queue
dune exec test/test_main.exe -- test engine.ff
dune exec test/test_main.exe -- test policies.evacuation
dune exec test/test_main.exe -- test obs.latency
dune exec test/test_main.exe -- test obs.query
dune exec test/test_main.exe -- test xen.pt
dune exec test/test_main.exe -- test guest.tlb.walk
dune exec test/test_main.exe -- test policies.carrefour
dune exec test/test_main.exe -- test policies.promote

echo "tier1: OK"
