#!/bin/sh
# Build the benchmark from source and run one workload:
#
#   sh perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Build output goes to stderr; the report
# goes to stdout and ends with one JSON line. Exits non-zero when the
# build fails or a result digest does not match its reference.
set -eu
# keep every file the build and the run write inside the checkout
export DUNE_CACHE=disabled
mkdir -p _bench_work/tmp
TMPDIR="$(pwd)/_bench_work/tmp"
export TMPDIR
dune build --root . ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
