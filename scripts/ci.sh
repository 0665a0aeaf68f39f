#!/usr/bin/env bash
# ci.sh — the repo's full static + test gate: vet, build, and the test suite
# under the race detector. The trace ring and stats histograms are lock-free
# hot-path structures, so -race is not optional here.
#
# Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== lint =="
if command -v golangci-lint >/dev/null 2>&1; then
	# .golangci.yml enables govet (incl. copylocks) and staticcheck; the
	# objspace descriptor embeds a mutex+cond, so accidental descriptor
	# copies are exactly the class of bug copylocks exists for.
	golangci-lint run ./...
else
	echo "golangci-lint not installed; falling back to go vet (copylocks et al)"
	go vet ./...
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go test -race =="
go test -race ./...

echo "== benchmark module (frozen: vet, build, short tests) =="
# benchmark/ is its own module and BENCHMARK.json freezes it, so the root
# build never compiles it: an internal API change that breaks it must fail
# here, not in the PR driver.
(cd benchmark && go vet ./... && go test -short ./...)

echo "== fault suite (crash/partition injection, retry, dedup) =="
# The failure-domain scenarios are timing-sensitive by nature, so they run a
# second time under -race with fresh state: seeded injectors make the fault
# schedules deterministic, and any flake here is a real ordering bug.
go test -race -count=1 \
	-run 'TestFaults|FuzzFaultRules|TestTimeoutClassified|TestRetry|TestIdempotent|TestNonIdempotent|TestGeneration|TestWatchPeer|TestDedup|TestCrash|TestOrphaned|TestForwardingChainRepair|TestThreeNodeCrash|TestSimCrash|TestCapture|TestFleet|TestRetryExhaustedTrigger|TestEntryPointParity|TestInvokeChain|TestAsync|TestLease|TestChainSteps' \
	./internal/transport/ ./internal/rpc/ ./internal/core/ ./internal/sim/

echo "== one invocation engine (structure check, protocol fuzzing) =="
# Invoke, AsyncInvoke, InvokeChain and AsyncInvokeChain are one engine
# (DESIGN.md §13): TestEngineSaysItOnce parses internal/core with go/ast and
# fails if a second request builder, failure ladder, forwarder or executor has
# grown beside the first. The protocol decoders then run their seed corpus
# plus five seconds of fresh inputs each (go test -fuzz takes one target per
# run).
go test -count=1 -run 'TestEngineSaysItOnce' ./internal/core/
for target in FuzzRoutedMsg FuzzInvokeReply FuzzInstallMsg; do
	go test -run '^$' -fuzz "^$target\$" -fuzztime 5s ./internal/core/
done

echo "== scheduler stress suite (steal/release/SetPolicy races, starvation) =="
# The per-slot scheduler's fast path is mutex-free atomics with a two-sided
# lost-wakeup check; these tests force the steal, handoff, spill and policy
# swap interleavings and re-run them under -race with fresh state. The heat
# placement tests ride along: they drive real cross-node migrations.
go test -race -count=1 \
	-run 'TestSetPolicyRacesHotPaths|TestStealVsReleaseRace|TestStarvation|TestFairnessAcrossSlots|TestStealingDisabled|TestDequeSpills|TestHeat' \
	./internal/sched/ ./internal/core/

echo "== observability smoke (live 3-node cluster: /cluster, /heat, amber-top) =="
# Real TCP, real HTTP: three amberd processes, then scrape node 0's fleet
# endpoint — which fans out over procStatsPull — and assert the exposition
# parses and sees all three nodes. This is the only place the debug plane is
# exercised over actual sockets rather than httptest.
OBSDIR=$(mktemp -d /tmp/amber-ci-obs.XXXXXX)
OBS_PIDS=""
obs_cleanup() {
	[ -z "$OBS_PIDS" ] || kill $OBS_PIDS 2>/dev/null || true
	rm -rf "$OBSDIR"
}
trap obs_cleanup EXIT
go build -o "$OBSDIR/amberd" ./cmd/amberd
go build -o "$OBSDIR/amber-top" ./cmd/amber-top
BP=7760 # base node port; debug ports are BP+20..22
for i in 0 1 2; do
	peers=""
	for j in 0 1 2; do
		[ "$j" = "$i" ] || peers="${peers:+$peers,}$j=127.0.0.1:$((BP + j))"
	done
	"$OBSDIR/amberd" -node "$i" -listen "127.0.0.1:$((BP + i))" -peers "$peers" \
		-procs 2 -debug-addr "127.0.0.1:$((BP + 20 + i))" -heat-interval 50ms \
		>"$OBSDIR/node$i.log" 2>&1 &
	OBS_PIDS="$OBS_PIDS $!"
done
CLUSTER_URL="http://127.0.0.1:$((BP + 20))/cluster"
for attempt in $(seq 1 50); do
	if curl -fsS --max-time 2 "$CLUSTER_URL" >"$OBSDIR/cluster.txt" 2>/dev/null &&
		grep -q '^amber_cluster_nodes_reporting 3$' "$OBSDIR/cluster.txt"; then
		break
	fi
	if [ "$attempt" = 50 ]; then
		echo "FAIL: /cluster never reported 3 nodes" >&2
		tail -5 "$OBSDIR"/node*.log >&2 || true
		exit 1
	fi
	sleep 0.2
done
grep -q '^amber_cluster_nodes 3$' "$OBSDIR/cluster.txt" ||
	{ echo "FAIL: /cluster missing amber_cluster_nodes 3" >&2; exit 1; }
# Every non-comment line must parse as Prometheus text: amber_-prefixed
# metric (with optional {labels}) plus exactly one value.
awk '
	/^$/ || /^#/ { next }
	!/^amber_[a-zA-Z0-9_]+(\{[^}]*\})? -?[0-9.e+-]+$/ { print "bad exposition line: " $0; bad = 1 }
	END { exit bad }
' "$OBSDIR/cluster.txt" || { echo "FAIL: /cluster Prometheus parse" >&2; exit 1; }
# Every TYPEd metric family carries a HELP line (the naming-audit satellite).
awk '
	$2 == "HELP" { help[$3] = 1 }
	$2 == "TYPE" && !($3 in help) { print "TYPE without HELP: " $3; bad = 1 }
	END { exit bad }
' "$OBSDIR/cluster.txt" || { echo "FAIL: /cluster HELP coverage" >&2; exit 1; }
curl -fsS --max-time 2 "http://127.0.0.1:$((BP + 21))/heat" >"$OBSDIR/heat.json"
grep -q '"enabled": true' "$OBSDIR/heat.json" ||
	{ echo "FAIL: /heat does not show the enabled tracker" >&2; cat "$OBSDIR/heat.json" >&2; exit 1; }
"$OBSDIR/amber-top" -addr "127.0.0.1:$((BP + 20))" -once >"$OBSDIR/top.txt"
grep -q '3/3 nodes reporting' "$OBSDIR/top.txt" ||
	{ echo "FAIL: amber-top did not see the fleet" >&2; cat "$OBSDIR/top.txt" >&2; exit 1; }
kill $OBS_PIDS 2>/dev/null || true
wait $OBS_PIDS 2>/dev/null || true
OBS_PIDS=""
echo "observability smoke passed: /cluster parses, HELP coverage holds, amber-top renders"

echo "== load smoke (amber-load joins a live 3-node cluster, overload burst) =="
# Open-loop overload against real sockets: three amberd processes plus
# amber-load joining as node 3. The arrival rate deliberately exceeds what
# one core can serve so the admission cap must shed — the assertions are
# that goodput stays above zero (no livelock/deadlock under overload) and
# that the generator drains and exits cleanly within its own bound.
LOADDIR=$(mktemp -d /tmp/amber-ci-load.XXXXXX)
LOAD_PIDS=""
load_cleanup() {
	[ -z "$LOAD_PIDS" ] || kill $LOAD_PIDS 2>/dev/null || true
	rm -rf "$LOADDIR"
}
trap 'load_cleanup; obs_cleanup' EXIT
go build -o "$LOADDIR/amberd" ./cmd/amberd
go build -o "$LOADDIR/amber-load" ./cmd/amber-load
LP=7790 # base node port; node 3 is the load generator
for i in 0 1 2; do
	peers=""
	for j in 0 1 2 3; do
		[ "$j" = "$i" ] || peers="${peers:+$peers,}$j=127.0.0.1:$((LP + j))"
	done
	"$LOADDIR/amberd" -node "$i" -listen "127.0.0.1:$((LP + i))" -peers "$peers" \
		-procs 2 >"$LOADDIR/node$i.log" 2>&1 &
	LOAD_PIDS="$LOAD_PIDS $!"
done
timeout 120 "$LOADDIR/amber-load" -node 3 -listen "127.0.0.1:$((LP + 3))" \
	-peers "0=127.0.0.1:$LP,1=127.0.0.1:$((LP + 1)),2=127.0.0.1:$((LP + 2))" \
	-procs 2 -objects 32 -clients 2000 -rate 50000 -duration 3s -deadline 500ms \
	>"$LOADDIR/load.txt" 2>&1 ||
	{ echo "FAIL: amber-load exited nonzero" >&2; cat "$LOADDIR/load.txt" >&2
	  tail -5 "$LOADDIR"/node*.log >&2 || true; exit 1; }
cat "$LOADDIR/load.txt"
GOODPUT=$(awk '/^goodput / { print $2 }' "$LOADDIR/load.txt")
awk -v g="${GOODPUT:-0}" 'BEGIN { exit !(g > 0) }' ||
	{ echo "FAIL: overload burst produced no goodput (got '${GOODPUT:-}')" >&2; exit 1; }
kill $LOAD_PIDS 2>/dev/null || true
wait $LOAD_PIDS 2>/dev/null || true
LOAD_PIDS=""
echo "load smoke passed: goodput $GOODPUT ops/s under 50k/s overload, clean drain"

echo "== lease-churn stress (3-node cluster, writer + 8 leased readers, reader killed mid-lease) =="
# The coherence layer over real sockets: three amberd owners grant reader
# leases (5s TTL), a readmostly load on node 3 drives 8 concurrent clients at
# 90% leased reads / 10% fenced writes, and a second pure-reader process on
# node 4 acquires leases and is SIGKILLed while they are live. Assertions:
# the primary load keeps positive goodput and drains cleanly (write fences
# must not hang on the dead holder), the owners actually granted leases, and
# the dead reader's grant entries are purged via the health-down signal
# (amber_node_lease_grants_dropped_down) rather than lingering until expiry.
CHDIR=$(mktemp -d /tmp/amber-ci-lease.XXXXXX)
CH_PIDS=""
ch_cleanup() {
	[ -z "$CH_PIDS" ] || kill -9 $CH_PIDS 2>/dev/null || true
	rm -rf "$CHDIR"
}
trap 'ch_cleanup; load_cleanup; obs_cleanup' EXIT
go build -o "$CHDIR/amberd" ./cmd/amberd
go build -o "$CHDIR/amber-load" ./cmd/amber-load
CP=7820 # base node port; debug ports are CP+20..22
CH_PEERS="0=127.0.0.1:$CP,1=127.0.0.1:$((CP + 1)),2=127.0.0.1:$((CP + 2))"
for i in 0 1 2; do
	peers=""
	for j in 0 1 2 3 4; do
		[ "$j" = "$i" ] || peers="${peers:+$peers,}$j=127.0.0.1:$((CP + j))"
	done
	"$CHDIR/amberd" -node "$i" -listen "127.0.0.1:$((CP + i))" -peers "$peers" \
		-procs 2 -lease-ttl 5s -debug-addr "127.0.0.1:$((CP + 20 + i))" \
		>"$CHDIR/node$i.log" 2>&1 &
	CH_PIDS="$CH_PIDS $!"
done
# The doomed reader: pure leased reads against its own cacheable objects,
# long duration — it exists to be killed mid-lease.
timeout 60 "$CHDIR/amber-load" -node 4 -listen "127.0.0.1:$((CP + 4))" \
	-peers "$CH_PEERS" -procs 2 -objects 8 -clients 8 -rate 2000 \
	-duration 30s -deadline 2s -workload readmostly -readratio 1.0 \
	>"$CHDIR/reader.txt" 2>&1 &
READER_PID=$!
CH_PIDS="$CH_PIDS $READER_PID"
sleep 2 # let the reader install its leases (TTL 5s: still live at the kill)
# The primary: one process, 8 clients mixing leased reads with fenced writes.
timeout 120 "$CHDIR/amber-load" -node 3 -listen "127.0.0.1:$((CP + 3))" \
	-peers "$CH_PEERS" -procs 2 -objects 16 -clients 8 -rate 4000 \
	-duration 8s -deadline 2s -workload readmostly -readratio 0.9 \
	>"$CHDIR/churn.txt" 2>&1 &
PRIMARY_PID=$!
CH_PIDS="$CH_PIDS $PRIMARY_PID"
sleep 2
kill -9 "$READER_PID" 2>/dev/null || true
wait "$PRIMARY_PID" ||
	{ echo "FAIL: readmostly load exited nonzero with a reader dead" >&2
	  cat "$CHDIR/churn.txt" >&2; tail -n 5 "$CHDIR"/node*.log >&2 || true; exit 1; }
cat "$CHDIR/churn.txt"
CH_GOODPUT=$(awk '/^goodput / { print $2 }' "$CHDIR/churn.txt")
awk -v g="${CH_GOODPUT:-0}" 'BEGIN { exit !(g > 0) }' ||
	{ echo "FAIL: lease churn produced no goodput (got '${CH_GOODPUT:-}')" >&2; exit 1; }
CH_READS=$(awk -F'[= ]' '/^reads=/ { print $2 }' "$CHDIR/churn.txt")
CH_WRITES=$(awk -F'[= ]' '/^writes=/ { print $2 }' "$CHDIR/churn.txt")
[ "${CH_READS:-0}" -gt 0 ] && [ "${CH_WRITES:-0}" -gt 0 ] ||
	{ echo "FAIL: readmostly load did not mix reads and writes (reads=${CH_READS:-0} writes=${CH_WRITES:-0})" >&2; exit 1; }
# The owners must have granted leases, and must have dropped the dead
# reader's grant entries on the health-down signal — poll because peer-death
# detection is asynchronous.
lease_metric_sum() {
	local name="$1" total=0 v
	for i in 0 1 2; do
		v=$(curl -fsS --max-time 2 "http://127.0.0.1:$((CP + 20 + i))/metrics" 2>/dev/null |
			awk -v m="amber_node_$name" '$1 == m { print $2 }')
		total=$((total + ${v:-0}))
	done
	echo "$total"
}
GRANTS=$(lease_metric_sum lease_grants)
[ "$GRANTS" -gt 0 ] ||
	{ echo "FAIL: owners granted no leases (amber_node_lease_grants = 0)" >&2
	  tail -n 5 "$CHDIR"/node*.log >&2 || true; exit 1; }
for attempt in $(seq 1 40); do
	# Peer-death detection is demand-driven: nobody calls a silent pure
	# reader, so nothing notices it died until some call to it fails. A
	# fleet scrape is exactly how a real deployment notices — node 0's
	# /cluster pull calls every peer, the pull to the dead reader fails,
	# and the health probe marks it down, firing the grant purge.
	curl -fsS --max-time 5 "http://127.0.0.1:$((CP + 20))/cluster" >/dev/null 2>&1 || true
	DROPPED=$(lease_metric_sum lease_grants_dropped_down)
	[ "$DROPPED" -gt 0 ] && break
	if [ "$attempt" = 40 ]; then
		echo "FAIL: dead reader's grants never purged (amber_node_lease_grants_dropped_down = 0)" >&2
		tail -n 5 "$CHDIR"/node*.log >&2 || true
		exit 1
	fi
	sleep 0.5
done
kill -9 $CH_PIDS 2>/dev/null || true
wait $CH_PIDS 2>/dev/null || true
CH_PIDS=""
echo "lease churn passed: goodput $CH_GOODPUT ops/s (reads=$CH_READS writes=$CH_WRITES), $GRANTS grants, dead reader purged ($DROPPED entries dropped)"

echo "== bench smoke (100 iterations, compile+run only, no gates) =="
# Not a performance gate — scripts/bench.sh owns those. This exists so a
# refactor that breaks a headline benchmark's setup (cluster config, replica
# install wait, -cpu sharding) fails CI instead of failing the next perf run.
go test -run '^$' \
	-bench '^(BenchmarkTable1LocalInvoke|BenchmarkTable1RemoteInvoke|BenchmarkImmutableRemoteInvokeCold|BenchmarkImmutableRemoteInvokeWarm|BenchmarkMutableLeaseWarm|BenchmarkMutableLeaseWriteFence|BenchmarkLocalInvokeParallel|BenchmarkSkewedInvokeStatic|BenchmarkSkewedInvokeHeat|BenchmarkFanInSerial64|BenchmarkFanInAsync64|BenchmarkAcquireRelease)$' \
	-benchtime 100x -count 1 . ./internal/sched/

echo "== allocation regression (Table 1 invoke benches, -benchmem) =="
# Allocation counts are deterministic where ns/op is host-noise: these gates
# run in CI proper, not just the perf script. Local invoke (and the warm
# replica/lease hits, which run the same compiled dispatch plans) must stay
# within 3 allocs/op; remote invoke within 30 allocs/op and 3000 B/op (every
# message buffer is pooled end to end). Memory profiles are archived next to
# the run so a failure comes with its own evidence.
ALLOCDIR=${CI_ARTIFACTS:-$(mktemp -d /tmp/amber-ci-alloc.XXXXXX)}
mkdir -p "$ALLOCDIR"
ALLOC_RAW=$(go test -run '^$' \
	-bench '^(BenchmarkTable1LocalInvoke|BenchmarkTable1RemoteInvoke|BenchmarkImmutableRemoteInvokeWarm|BenchmarkMutableLeaseWarm)$' \
	-benchmem -benchtime 20000x -count 1 \
	-memprofile "$ALLOCDIR/invoke_mem.pprof" .)
echo "$ALLOC_RAW"
echo "memprofile archived at $ALLOCDIR/invoke_mem.pprof"
echo "$ALLOC_RAW" | awk '
	function allocs(    i) { for (i = 3; i + 1 <= NF; i += 2) if ($(i+1) == "allocs/op") return $i + 0; return -1 }
	$1 ~ /^BenchmarkTable1LocalInvoke(-[0-9]+)?$/        { v = allocs(); if (v < 0 || v > 3)  { print "FAIL: local invoke " v " allocs/op (budget 3)"; bad = 1 } }
	$1 ~ /^BenchmarkImmutableRemoteInvokeWarm(-[0-9]+)?$/ { v = allocs(); if (v < 0 || v > 3)  { print "FAIL: warm replica hit " v " allocs/op (budget 3)"; bad = 1 } }
	$1 ~ /^BenchmarkMutableLeaseWarm(-[0-9]+)?$/          { v = allocs(); if (v < 0 || v > 3)  { print "FAIL: warm lease read " v " allocs/op (budget 3)"; bad = 1 } }
	function bytes(    i) { for (i = 3; i + 1 <= NF; i += 2) if ($(i+1) == "B/op") return $i + 0; return -1 }
	$1 ~ /^BenchmarkTable1RemoteInvoke(-[0-9]+)?$/        { v = allocs(); if (v < 0 || v > 30) { print "FAIL: remote invoke " v " allocs/op (budget 30)"; bad = 1 }
	                                                         v = bytes();  if (v < 0 || v > 3000) { print "FAIL: remote invoke " v " B/op (budget 3000)"; bad = 1 } }
	END { exit bad }
' || { echo "FAIL: allocation regression — an invoke path fell off its budget" >&2; exit 1; }
echo "allocation gates passed (local/warm <= 3 allocs/op, remote <= 30 allocs/op and <= 3000 B/op)"

echo
echo "ci: all gates passed"
