#!/usr/bin/env bash
# run.sh — the one command: build the benchmark image and drive it.
#
#   benchmark/run.sh                      all seven workloads end to end, then
#                                         each one's per-layer pass (probes,
#                                         counts, traced stages)
#   benchmark/run.sh -workload NAME       one workload
#   benchmark/run.sh -seed N -window 2s   another seed, another window length
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#                                         the driver's contract: one workload,
#                                         one mode, result as the last line
#
# Prints `workload metric value unit [min..max] n=` one per line, writes
# benchmark/out/results.json (and trace.json after a traced pass), and exits
# non-zero if the build, a workload or a correctness check fails. Everything
# it writes, the Go build cache and temporary files included, stays under
# benchmark/out.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
out="$here/out"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local
(cd "$here" && go build -o "$out/amber-benchmark" ./amber-benchmark)
exec "$out/amber-benchmark" drive -out "$out" "$@"
