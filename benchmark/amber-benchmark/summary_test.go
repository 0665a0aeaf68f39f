package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"amber/internal/trace"
)

// The test binary doubles as the serve role, so the smoke test can spawn its
// cluster without building the benchmark first.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		os.Exit(serveMain(os.Args[2:]))
	}
	os.Exit(m.Run())
}

func TestBucketsCoverEveryValue(t *testing.T) {
	prev := -1
	for _, v := range []uint64{0, 1, 127, 128, 129, 255, 256, 1000, 1 << 20, 1<<20 + 12345, 1 << 40, math.MaxInt64} {
		i := bucketOf(v)
		lo, width := bucketBounds(i)
		if v < lo || v-lo >= width {
			t.Errorf("value %d landed in bucket %d = [%d, %d)", v, i, lo, lo+width)
		}
		if i <= prev {
			t.Errorf("bucket index not increasing at %d: %d after %d", v, i, prev)
		}
		if v >= subCount && float64(width)/float64(lo) > 1.0/subCount {
			t.Errorf("bucket %d is %d wide at %d: more than 1/%d", i, width, lo, subCount)
		}
		prev = i
	}
}

func TestHistQuantiles(t *testing.T) {
	h := newHist()
	for us := 1; us <= 1000; us++ {
		h.add(time.Duration(us) * time.Microsecond)
	}
	for _, c := range []struct{ q, wantUs float64 }{{0.5, 500}, {0.99, 990}, {0.999, 999}} {
		got := h.quantile(c.q) / 1e3
		if math.Abs(got-c.wantUs)/c.wantUs > 0.01 {
			t.Errorf("quantile(%v) = %.2f us, want %.0f within 1 %%", c.q, got, c.wantUs)
		}
	}
	if got := h.quantile(1); got != 1e6 {
		t.Errorf("quantile(1) = %v, want the largest sample 1e6", got)
	}
	if got := newHist().quantile(0.5); got != 0 {
		t.Errorf("empty histogram: quantile = %v, want 0", got)
	}

	a, b := newHist(), newHist()
	a.add(10 * time.Microsecond)
	b.add(30 * time.Microsecond)
	a.merge(b)
	if a.n != 2 || a.max != 30000 {
		t.Errorf("merge: n=%d max=%d, want 2 and 30000", a.n, a.max)
	}
}

// The tail percentile is only as high as leaves ten samples beyond it.
func TestTailQuantileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		q    float64
		n    uint64
		want float64
	}{
		{0.99, 100000, 0.99}, {0.99, 1000, 0.99}, {0.99, 999, 1 - 10.0/999}, {0.99, 500, 0.98},
		{0.95, 1000, 0.95}, {0.95, 200, 0.95}, {0.95, 199, 1 - 10.0/199},
		{0.99, 20, 0.5}, {0.99, 19, 1}, {0.95, 2, 1},
	} {
		if got := tailQuantile(c.q, c.n); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("tailQuantile(%v, %d) = %v, want %v", c.q, c.n, got, c.want)
		}
	}
	for n := uint64(20); n < 3000; n += 7 {
		if beyond := float64(n) * (1 - tailQuantile(0.99, n)); beyond < 10-1e-9 {
			t.Errorf("n=%d: only %.2f samples beyond the reported tail", n, beyond)
		}
	}
}

func TestMedianOf(t *testing.T) {
	if got := medianOf([]float64{5, 1, 9}); got != (stat{5, 1, 9}) {
		t.Errorf("odd: %+v", got)
	}
	if got := medianOf([]float64{4, 1, 9, 2}); got != (stat{3, 1, 9}) {
		t.Errorf("even: %+v", got)
	}
	if got := medianOf(nil); got != (stat{}) {
		t.Errorf("empty: %+v", got)
	}
}

// A reported value is the median of the per-window values, and a window's
// throughput is the sum of what each client did in its own elapsed time.
func TestSummarizeWindowsIsMedianOfWindows(t *testing.T) {
	mk := func(ops uint64, dur time.Duration, lat time.Duration) clientWindow {
		h := newHist()
		for i := uint64(0); i < ops; i++ {
			h.add(lat)
		}
		return clientWindow{tally: tally{ops: ops, samples: ops}, dur: dur, lat: h}
	}
	res := [][]clientWindow{
		{mk(100, time.Second, 10*time.Microsecond), mk(300, time.Second, 20*time.Microsecond), mk(200, 2*time.Second, 30*time.Microsecond)},
		{mk(100, 2*time.Second, 10*time.Microsecond), mk(100, time.Second, 20*time.Microsecond), mk(200, time.Second, 30*time.Microsecond)},
	}
	ws := summarizeWindows(res, false)
	for j, want := range []float64{150, 400, 300} {
		if math.Abs(ws.opsPerS[j]-want) > 1e-9 {
			t.Errorf("window %d: %v ops/s, want %v", j, ws.opsPerS[j], want)
		}
	}
	m := &measurement{windowSeries: ws, setups: []float64{0.3, 0.1, 0.2}}
	vals := endToEndValues(m)
	if v := vals["ops_per_s"]; v.Value != 300 || v.Min != 150 || v.Max != 400 {
		t.Errorf("ops_per_s = %+v, want median 300 of [150..400]", v)
	}
	if v := vals["p50_us"].Value; math.Abs(v-20) > 0.2 {
		t.Errorf("p50_us = %v, want the middle window's 20", v)
	}
	if v := vals["setup_s"].Value; v != 0.2 {
		t.Errorf("setup_s = %v, want the median 0.2", v)
	}
}

func TestDeltaCountersSubtractsTheSnapshotsOwnTraffic(t *testing.T) {
	before := counters{"transport.msgs_sent": 100, "node.forwards": 7, "rpc.rpc_sent": 50}
	after := counters{"transport.msgs_sent": 304, "node.forwards": 7, "rpc.rpc_sent": 152, "node.lease_hits": 9}
	overhead := counters{"transport.msgs_sent": 4, "rpc.rpc_sent": 2}
	got := deltaCounters(before, after, overhead)
	want := counters{"transport.msgs_sent": 200, "rpc.rpc_sent": 100, "node.lease_hits": 9}
	if len(got) != len(want) {
		t.Fatalf("delta = %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("delta[%s] = %d, want %d", k, got[k], v)
		}
	}
}

func TestStageMedians(t *testing.T) {
	var evs []trace.Event
	// Three blocking invocations shipped from node 2: 40/2/30, 50/4/40 and
	// 60/6/50 µs, then an async execution with no invoke span around it.
	for i, legs := range [][3]int64{{40, 2, 30}, {50, 4, 40}, {60, 6, 50}} {
		inv, ex := uint64(100+i), uint64(200+i)
		t0 := int64(1e9 * (i + 1))
		evs = append(evs,
			trace.Event{Kind: trace.KInvokeStart, Span: inv, TimeNs: t0},
			trace.Event{Kind: trace.KExecStart, Span: ex, Parent: inv, TimeNs: t0 + legs[0]*1e3},
			trace.Event{Kind: trace.KExecEnd, Span: ex, Parent: inv, TimeNs: t0 + (legs[0]+legs[1])*1e3},
			trace.Event{Kind: trace.KInvokeEnd, Span: inv, TimeNs: t0 + (legs[0]+legs[1]+legs[2])*1e3},
		)
	}
	evs = append(evs,
		trace.Event{Kind: trace.KExecStart, Span: 300, TimeNs: 5e9},
		trace.Event{Kind: trace.KExecEnd, Span: 300, TimeNs: 5e9 + 4e3},
		trace.Event{Kind: trace.KExecStart, Span: 301, TimeNs: 6e9}, // its end fell out of the ring
	)
	out, exec, ret, matched := stageMedians(evs)
	if out != 50 || exec != 4 || ret != 40 || matched != 3 {
		t.Errorf("stages = %v/%v/%v matched %d, want 50/4/40 matched 3", out, exec, ret, matched)
	}
}

// BENCHMARK.json and the program name the same workloads and metrics.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, spec.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, over 200", w.name, len(w.why))
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the program %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

// One real cluster, end to end: three processes over loopback TCP, the remote
// invocation workload for a second, every check on.
func TestSmokeInvokeRemote(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a three-process cluster")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	defer killChildren()
	w := findWorkload("invoke.remote")
	m, err := measure(w, exe, 1, 1, 1, false, false)
	if err != nil {
		t.Fatal(err)
	}
	if m.checkErr != nil || m.failed != 0 || m.ops == 0 {
		t.Fatalf("ops=%d failed=%d check=%v", m.ops, m.failed, m.checkErr)
	}
	if got := m.counts["transport.msgs_sent"]; got != 2*int64(m.ops) {
		t.Errorf("%d messages for %d remote invocations, want exactly two each", got, m.ops)
	}
	for name, v := range endToEndValues(m) {
		if !(v.Value > 0) {
			t.Errorf("%s = %v, want a positive number", name, v.Value)
		}
	}
}
