#!/bin/sh
# Fail the build when unsafe patterns appear in library, binary or bench
# sources:
#
#   1. Obj.magic / Obj.repr / Obj.obj — the typed Scratch cache exists
#      precisely so nothing needs them; new uses must extend ALLOW below
#      with a justification.
#   2. Direct `.rows` record access — Table stores rows in chunks; every
#      caller outside lib/storage must go through the chunk API
#      (Table.chunk_data / iter_chunk_data) so scans stay shardable.
#      (`Naive.rows` is a function call, not a field access, and is
#      excluded.)
#   3. Direct Chunk_file access — spilled chunks are read through the
#      Buffer_pool (pinning, eviction, fault coalescing); a raw
#      Chunk_file.read outside lib/storage would bypass all of it.
#      (Chunk_file.ser_chunk_size is a pure size computation with no
#      I/O and is exempt — the bench metrics report it.)
#   4. Table.to_rows outside lib/exec and lib/storage — it copies every
#      chunk of a table into one flat array, defeating both morsel
#      pipelining and out-of-core execution on intermediates; consumers
#      stream through Table.iter / iter_chunk_data instead.
#   5. Telemetry ring-buffer mutation (ring_push / ring_snapshot)
#      outside lib/obs — the lock-striped flight ring's striping and
#      overwrite-oldest invariants live entirely in Telemetry; everyone
#      else goes through Telemetry.complete / Telemetry.snapshot.
#   6. Columnar field constructors (CInt/CFloat/CBool/CStr/CGen)
#      outside lib/storage — the storage picks a column's encoding
#      (resident tables hold boxed columns, chunk-file frames fault
#      back typed) and the columnar invariants (dummy values in NULL
#      slots, shared dictionaries, validity-bitset collapse) live in
#      Columnar.encode/of_pending; building or matching the raw
#      representation elsewhere would let a consumer skip them.
#      Everyone else uses the kernels (eval_cmp, take, project,
#      reader) and must work on whichever encoding a column arrives
#      in.
#
# Allow-list entries:
#   lib/util/scratch.ml / .mli — only *mention* Obj in documentation
#      comments explaining what Scratch replaces.
set -eu

ALLOW="lib/util/scratch.ml lib/util/scratch.mli"
TO_ROWS_ALLOW=""

status=0
for f in $(find lib bin bench \( -name '*.ml' -o -name '*.mli' \) | sort); do
  skip=0
  for a in $ALLOW; do
    [ "$f" = "$a" ] && skip=1
  done
  [ $skip -eq 1 ] && continue
  if grep -nE 'Obj\.(magic|repr|obj)' "$f"; then
    echo "lint: unsafe Obj cast in $f (see tools/lint_unsafe.sh)" >&2
    status=1
  fi
  case "$f" in
    lib/storage/*) continue ;;
  esac
  if grep -nE '\.rows\b' "$f" | grep -vE '(Naive|Qs_exec\.Naive)\.rows'; then
    echo "lint: direct Table .rows access in $f — use the chunk API (see tools/lint_unsafe.sh)" >&2
    status=1
  fi
  if grep -nE 'Chunk_file\.' "$f" | grep -vE 'Chunk_file\.ser_chunk_size'; then
    echo "lint: direct chunk-file access in $f — spilled chunks are read through Buffer_pool/Table (see tools/lint_unsafe.sh)" >&2
    status=1
  fi
  if grep -nE '\b(CInt|CFloat|CBool|CStr|CGen)\b' "$f"; then
    echo "lint: raw columnar constructor in $f — build/consume columns through Columnar functions (see tools/lint_unsafe.sh)" >&2
    status=1
  fi
  case "$f" in
    lib/obs/*) : ;;
    *)
      if grep -nE '\bring_(push|snapshot)\b' "$f"; then
        echo "lint: telemetry ring-buffer access in $f — use Telemetry.complete / Telemetry.snapshot (see tools/lint_unsafe.sh)" >&2
        status=1
      fi ;;
  esac
  case "$f" in
    lib/exec/*) continue ;;
  esac
  allowed=0
  for a in $TO_ROWS_ALLOW; do
    [ "$f" = "$a" ] && allowed=1
  done
  [ $allowed -eq 1 ] && continue
  if grep -nE '\bto_rows\b' "$f"; then
    echo "lint: Table.to_rows in $f flattens a table — stream with Table.iter / iter_chunk_data (see tools/lint_unsafe.sh)" >&2
    status=1
  fi
done
exit $status
