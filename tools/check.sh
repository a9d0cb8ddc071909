#!/bin/sh
# Single entry point for the repo's source checks, run both by hand and
# as part of `dune runtest` (see the rule in ./dune):
#
#   1. tools/lint_unsafe.sh   — no Obj casts, no direct Table .rows access
#   2. span-bridging lint     — every Physical operator constructor has an
#                               arm in Executor.span_label, so new operators
#                               cannot silently vanish from traces
#   3. span-category lint     — every Span.category constructor is in
#                               Span.all_categories
#   4. one domain per query   — lib/core, lib/plan, lib/exec and
#                               lib/storage never reference Qs_util.Pool
#   5. compiled predicates    — lib/exec evaluates predicates through
#                               Expr.compile; Expr.eval / eval_scalar stay
#                               only in the reference execution (naive.ml)
#   6. no whole-chunk decode  — lib/exec never calls Columnar.to_rows:
#                               a columnar morsel decodes only the rows
#                               (and the filter only the cells) it reads
#   7. no full-row lookup     — lib/exec never calls Table.row: the
#                               index-NL inner decodes only the cells
#                               its filters, residual and gather map
#                               read (Table.row_cells, one reused buffer)
#   8. dune build @fmt        — formatting, skipped when already running
#                               under dune (INSIDE_DUNE is set): dune
#                               cannot re-enter itself, and the runtest
#                               rule depends on the fmt alias instead.
#
# The metrics golden is not checked here: a second runtest rule in ./dune
# regenerates BENCH.json and diffs it exactly against the committed one.
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

# --- one domain per query ---------------------------------------------
# Parallelism lives only across queries: harness cells fan out under
# --domains and the server runs sessions on its pool. A query runs on
# the domain that picked it up, so the engine layers below must not
# reach for a domain pool (no per-query pooled DP, join, scan or I/O).
for dir in lib/core lib/plan lib/exec lib/storage; do
  if grep -rnE '(Qs_util\.Pool|(^|[^A-Za-z0-9_])Pool\.)' "$dir" \
       --include='*.ml' --include='*.mli' >&2; then
    echo "lint: $dir references Qs_util.Pool — queries run on one domain" >&2
    status=1
  fi
done

# --- compiled predicates in the engine ---------------------------------
# The engine resolves a predicate's column positions once per operator
# (Expr.compile), never per row. The interpreter (Expr.eval and
# Expr.eval_scalar) is kept only by the reference execution, naive.ml
# (its reference join included), so the reference stays independent of
# the compiler it checks.
for f in lib/exec/*.ml; do
  [ "$f" = lib/exec/naive.ml ] && continue
  if grep -nE 'Expr\.eval' "$f" >&2; then
    echo "lint: $f uses Expr.eval outside naive.ml — use Expr.compile" >&2
    status=1
  fi
done

# --- no whole-chunk decode in the engine --------------------------------
# A morsel over a columnar chunk hands out rows by ordinal, decoding
# each the first time it is fetched; a sparse morsel buffers only its
# survivors; the filter's row fallback decodes only the cells its
# residual reads. Columnar.to_rows (every row of a 65,536-row frame)
# stays out of lib/exec so that decode cannot creep back onto the path.
if grep -nE 'Columnar\.to_rows' lib/exec/*.ml >&2; then
  echo "lint: lib/exec calls Columnar.to_rows — decode only the ordinals a morsel hands out" >&2
  status=1
fi

# --- no full-row lookup in the engine -----------------------------------
# An index nested-loop join looks its inner rows up by row id. Table.row
# decodes every column of a spilled frame's row into a fresh array;
# the join reads a few of them, so it decodes just those cells into one
# reused buffer (Table.row_cells, which hands a resident row over as it
# is). Table.row stays out of lib/exec so the full-row decode cannot
# come back onto the lookup path.
if grep -nE 'Table\.row([^_A-Za-z0-9]|$)' lib/exec/*.ml >&2; then
  echo "lint: lib/exec calls Table.row — decode only the cells read (Table.row_cells)" >&2
  status=1
fi

# --- formatting + out-of-core fuzz corpus ------------------------------
# Both already covered by `dune runtest` (which cannot re-enter dune);
# when invoked by hand, also re-run the buffer-pool suite — it replays
# the 200-query differential corpus fully out-of-core (column-major
# frames) through 1- and 4-frame pools and checks digests against
# in-memory (row-major) execution.
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
