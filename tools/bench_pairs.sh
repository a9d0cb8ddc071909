#!/bin/sh
# Paired benchmark runs of two checkouts of this repository:
#
#   sh tools/bench_pairs.sh PARENT_DIR CHANGE_DIR WORKLOAD [PAIRS]
#
# For each seed 1..PAIRS (default 5) it runs
#
#   sh perfbench/run.sh --workload WORKLOAD --seed <seed> --seconds 25 --trace 0
#
# once in each checkout, alternating which of the two goes first, and
# keeps each run's final JSON line as
# _bench_work/pairs/WORKLOAD-{parent,change}-seed<seed>.json under this
# repository's root. It then prints, for every end-to-end metric of
# BENCHMARK.json, each side's median and quartiles, the ratio of the
# medians (change / parent) and in how many pairs the change was the
# better one (ties count for neither side).
# It also appends one line per side (one series of runs) to
# BENCH_history.jsonl at this repository's root: the workload, the
# side, the checkout's commit (suffixed -dirty when it has uncommitted
# changes, "unknown" outside git), nproc, the CPU model from
# /proc/cpuinfo, the number of runs and, for every end-to-end metric,
# the median and the interquartile range of the runs.
# Exits 1 if any run reports "correct": false or ends without a JSON
# line. Needs jq.
set -eu

if [ $# -lt 3 ] || [ $# -gt 4 ]; then
  echo "usage: $0 PARENT_DIR CHANGE_DIR WORKLOAD [PAIRS]" >&2
  exit 2
fi
command -v jq >/dev/null || { echo "$0: jq not found" >&2; exit 2; }
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
pairs=${4:-5}

cd "$(dirname "$0")/.."
spec="$(pwd)/BENCHMARK.json"
out="$(pwd)/_bench_work/pairs"
mkdir -p "$out"
rm -f "$out/$workload-parent.jsonl" "$out/$workload-change.jsonl"

status=0

# run SIDE DIR SEED: one benchmark run, its JSON line kept and checked
run() {
  echo "== $workload $1 seed $3" >&2
  json="$out/$workload-$1-seed$3.json"
  report=$(cd "$2" && sh perfbench/run.sh --workload "$workload" --seed "$3" \
    --seconds 25 --trace 0) || true
  printf '%s\n' "$report" | tail -n 1 > "$json"
  if ! jq -e '.correct == true' "$json" > /dev/null 2>&1; then
    echo "$0: $workload $1 seed $3 did not report correct: true" >&2
    status=1
  fi
  if jq -e '.metrics' "$json" > /dev/null 2>&1; then
    cat "$json" >> "$out/$workload-$1.jsonl"
  fi
}

seed=1
while [ "$seed" -le "$pairs" ]; do
  if [ $((seed % 2)) -eq 1 ]; then
    run parent "$parent" "$seed"
    run change "$change" "$seed"
  else
    run change "$change" "$seed"
    run parent "$parent" "$seed"
  fi
  seed=$((seed + 1))
done

# commit DIR: the checked-out commit, -dirty when tracked files changed
commit() {
  if c=$(git -C "$1" rev-parse HEAD 2>/dev/null); then
    if [ -n "$(git -C "$1" status --porcelain --untracked-files=no 2>/dev/null)" ]; then
      c="$c-dirty"
    fi
    echo "$c"
  else
    echo unknown
  fi
}

# the quantile helper shared by the summary and the history lines:
# linear interpolation between the closest ranks
jq_quantile='def quantile($q): sort | ($q * (length - 1)) as $x | ($x | floor) as $i
  | .[$i] + (.[[$i + 1, length - 1] | min] - .[$i]) * ($x - $i);'

cpu=$(sed -n 's/^model name[[:space:]]*: //p' /proc/cpuinfo 2>/dev/null | head -n 1)
for side in parent change; do
  [ -s "$out/$workload-$side.jsonl" ] || continue
  if [ "$side" = parent ]; then dir=$parent; else dir=$change; fi
  jq -n -c \
    --arg workload "$workload" --arg side "$side" --arg commit "$(commit "$dir")" \
    --arg nproc "$(nproc)" --arg cpu "${cpu:-unknown}" \
    --slurpfile runs "$out/$workload-$side.jsonl" \
    --slurpfile spec "$spec" "$jq_quantile"'
    {workload: $workload, side: $side, commit: $commit, nproc: ($nproc | tonumber),
     cpu: $cpu, runs: ($runs | length),
     metrics: ([$spec[0].end_to_end[] | .name as $m
       | [$runs[] | .metrics[$m].value] as $v
       | {($m): {median: ($v | quantile(0.5)),
                 iqr: (($v | quantile(0.75)) - ($v | quantile(0.25)))}}] | add)}' \
    >> BENCH_history.jsonl
done

if [ -s "$out/$workload-parent.jsonl" ] && [ -s "$out/$workload-change.jsonl" ]; then
  printf '%-16s %28s %28s %7s %6s\n' metric 'parent median [q1-q3]' \
    'change median [q1-q3]' ratio wins
  jq -n -r \
    --slurpfile p "$out/$workload-parent.jsonl" \
    --slurpfile c "$out/$workload-change.jsonl" \
    --slurpfile spec "$spec" "$jq_quantile"'
    def summary: [quantile(0.5), quantile(0.25), quantile(0.75)];
    $spec[0].end_to_end[] | .name as $m | .better as $better
    | [$p[] | .metrics[$m].value] as $pv
    | [$c[] | .metrics[$m].value] as $cv
    | [range(0; [$pv, $cv] | map(length) | min)
       | select(if $better == "higher" then $cv[.] > $pv[.] else $cv[.] < $pv[.] end)]
      as $wins
    | [$m] + ($pv | summary) + ($cv | summary) + ["\($wins | length)/\($pv | length)"]
    | @tsv' |
    awk -F '\t' '{
      ratio = ($2 == 0) ? "-" : sprintf("%.3f", $5 / $2)
      printf "%-16s %10.4g [%7.4g-%7.4g] %10.4g [%7.4g-%7.4g] %7s %6s\n",
        $1, $2, $3, $4, $5, $6, $7, ratio, $8
    }'
fi
exit "$status"
