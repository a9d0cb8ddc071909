#!/bin/sh
# Single entry point for the repo's source checks, run both by hand and
# as part of `dune runtest` (see the rule in ./dune):
#
#   1. tools/lint_unsafe.sh   — no Obj casts, no direct Table .rows access
#   2. span-bridging lint     — every Physical operator constructor has an
#                               arm in Executor.span_label, so new operators
#                               cannot silently vanish from traces
#   3. dune build @fmt        — formatting, skipped when already running
#                               under dune (INSIDE_DUNE is set): dune
#                               cannot re-enter itself, and the runtest
#                               rule depends on the fmt alias instead.
set -eu

cd "$(dirname "$0")/.."

status=0

sh tools/lint_unsafe.sh || status=1

# --- span-bridging completeness ----------------------------------------
# The operator constructors of the physical algebra, straight from the
# type definition...
constructors=$(
  awk '/^and node =/,/^$/' lib/plan/physical.mli \
    | grep -oE '^  \| [A-Z][A-Za-z_]*' | awk '{print $2}'
)
methods=$(
  grep -oE 'type join_method = .*' lib/plan/physical.mli \
    | grep -oE '[A-Z][A-Za-z_]*' | grep -v join_method || true
)
# ...must each appear in the span_label match of the executor.
region=$(awk '/^let span_label/,/^$/' lib/exec/executor.ml)
if [ -z "$region" ]; then
  echo "lint: span_label not found in lib/exec/executor.ml" >&2
  status=1
fi
for c in $constructors $methods; do
  if ! printf '%s\n' "$region" | grep -q "Physical\.$c"; then
    echo "lint: Physical.$c has no arm in Executor.span_label — operator spans would miss it" >&2
    status=1
  fi
done

# --- span-category completeness ----------------------------------------
# Every constructor of Span.category must be listed in Span.all_categories:
# Profile.summary's per-category table and Flight's phase rollups iterate
# that list, so a forgotten constructor silently vanishes from both (it
# happened to Io/Pipeline/Breaker/Serve once — never again).
span_constructors=$(
  awk '/^type category =/,/^$/' lib/util/span.mli \
    | grep -oE '^  \| [A-Z][A-Za-z_]*' | awk '{print $2}'
)
cat_region=$(awk '/^let all_categories/,/^$/' lib/util/span.ml)
if [ -z "$cat_region" ]; then
  echo "lint: all_categories not found in lib/util/span.ml" >&2
  status=1
fi
for c in $span_constructors; do
  if ! printf '%s\n' "$cat_region" | grep -qE "\b$c\b"; then
    echo "lint: Span.$c is missing from Span.all_categories — profiles and flight rollups would drop it" >&2
    status=1
  fi
done

# --- bench baseline drift ----------------------------------------------
# The committed BENCH_*.json dumps all come from ONE harness run
# (`bench --queries 12 --baseline-out BENCH_pr5.json --serve-out
# BENCH_pr6.json --io-out BENCH_pr7.json --pipeline-out BENCH_pr8.json
# --telemetry-out BENCH_pr9.json --metrics-out BENCH_pr10.json`, then
# BENCH_pr4.json is a copy of the regenerated BENCH_pr5.json), so
# shared entries are byte-identical across the stack and every diff —
# histograms included — runs full.
# Each later baseline is a superset: pr6 adds the "serve" entry, pr7
# the "io" buffer-pool entry, pr8 the "pipeline" executor entry (the
# pipelined engine's intermediate-table and partition-reuse counters;
# its materializing-engine counterparts went with that engine), pr9
# the "telemetry" serving entry, pr10 the "columnar" layout entry.
# The exe is a declared dep of the runtest rule; when running by hand it
# lives under _build.
bench_diff=tools/bench_diff/bench_diff.exe
[ -x "$bench_diff" ] || bench_diff=_build/default/tools/bench_diff/bench_diff.exe
if [ -x "$bench_diff" ] && [ -f BENCH_pr4.json ] && [ -f BENCH_pr5.json ]; then
  "$bench_diff" BENCH_pr4.json BENCH_pr5.json || {
    echo "check: BENCH_pr5.json regresses against BENCH_pr4.json" >&2
    status=1
  }
else
  echo "check: bench_diff not built — skipping baseline diff" >&2
fi
if [ -x "$bench_diff" ] && [ -f BENCH_pr5.json ] && [ -f BENCH_pr6.json ]; then
  "$bench_diff" BENCH_pr5.json BENCH_pr6.json || {
    echo "check: BENCH_pr6.json regresses against BENCH_pr5.json" >&2
    status=1
  }
fi
if [ -x "$bench_diff" ] && [ -f BENCH_pr6.json ] && [ -f BENCH_pr7.json ]; then
  "$bench_diff" BENCH_pr6.json BENCH_pr7.json || {
    echo "check: BENCH_pr7.json regresses against BENCH_pr6.json" >&2
    status=1
  }
  grep -q '"io"' BENCH_pr7.json || {
    echo "check: BENCH_pr7.json is missing the \"io\" buffer-pool entry" >&2
    status=1
  }
fi
if [ -x "$bench_diff" ] && [ -f BENCH_pr7.json ] && [ -f BENCH_pr8.json ]; then
  "$bench_diff" BENCH_pr7.json BENCH_pr8.json || {
    echo "check: BENCH_pr8.json regresses against BENCH_pr7.json" >&2
    status=1
  }
  grep -q '"pipeline"' BENCH_pr8.json || {
    echo "check: BENCH_pr8.json is missing the \"pipeline\" executor entry" >&2
    status=1
  }
fi
if [ -x "$bench_diff" ] && [ -f BENCH_pr8.json ] && [ -f BENCH_pr9.json ]; then
  "$bench_diff" BENCH_pr8.json BENCH_pr9.json || {
    echo "check: BENCH_pr9.json regresses against BENCH_pr8.json" >&2
    status=1
  }
  grep -q '"telemetry"' BENCH_pr9.json || {
    echo "check: BENCH_pr9.json is missing the \"telemetry\" serving entry" >&2
    status=1
  }
fi
if [ -x "$bench_diff" ] && [ -f BENCH_pr9.json ] && [ -f BENCH_pr10.json ]; then
  "$bench_diff" BENCH_pr9.json BENCH_pr10.json || {
    echo "check: BENCH_pr10.json regresses against BENCH_pr9.json" >&2
    status=1
  }
  grep -q '"columnar"' BENCH_pr10.json || {
    echo "check: BENCH_pr10.json is missing the \"columnar\" layout entry" >&2
    status=1
  }
fi

# --- formatting + out-of-core fuzz corpus ------------------------------
# Both already covered by `dune runtest` (which cannot re-enter dune);
# when invoked by hand, also re-run the buffer-pool suite — it replays
# the 200-query differential corpus fully out-of-core through 1- and
# 4-frame pools and checks digests against in-memory execution.
if [ -z "${INSIDE_DUNE:-}" ]; then
  dune build @fmt || {
    echo "check: dune build @fmt failed — run 'dune fmt'" >&2
    status=1
  }
  dune exec test/test_main.exe -- test bufpool || {
    echo "check: out-of-core buffer-pool suite failed" >&2
    status=1
  }
fi

exit $status
