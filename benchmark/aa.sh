#!/usr/bin/env bash
# aa.sh — A/A: run the end-to-end set twice on one build, with two seeds, and
# print per workload × end-to-end metric how far the two runs differ against
# the metric's bound in BENCHMARK.json. Non-zero exit on any breach.
#
#   benchmark/aa.sh [seedA seedB] [extra run.sh flags, e.g. -window 1s]
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
a="${1:-1}" b="${2:-2}"
shift $(( $# < 2 ? $# : 2 ))
"$here/run.sh" -trace 0 -seed "$a" "$@"
cp "$here/out/results.json" "$here/out/aa-a.json"
"$here/run.sh" -trace 0 -seed "$b" "$@"
cp "$here/out/results.json" "$here/out/aa-b.json"
"$here/out/amber-benchmark" compare "$here/out/aa-a.json" "$here/out/aa-b.json" "$here/../BENCHMARK.json"
