package core

import (
	"testing"

	"amber/internal/gaddr"
	"amber/internal/trace"
)

// newTracedCluster builds a cluster with thread-journey recording enabled.
func newTracedCluster(t testing.TB, nodes, procs int) *Cluster {
	t.Helper()
	cl, err := NewCluster(ClusterConfig{Nodes: nodes, ProcsPerNode: procs, Tracing: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	registerFixtures(t, cl)
	return cl
}

// findOne returns the single event matching pred, failing on zero or many.
func findOne(t *testing.T, evs []trace.Event, what string, pred func(trace.Event) bool) trace.Event {
	t.Helper()
	var hits []trace.Event
	for _, ev := range evs {
		if pred(ev) {
			hits = append(hits, ev)
		}
	}
	if len(hits) != 1 {
		t.Fatalf("%s: %d matching events, want 1\nall: %+v", what, len(hits), evs)
	}
	return hits[0]
}

// TestTraceStitchesAcrossThreeNodes drives one Started thread through a
// chained remote invocation — node 0 starts the thread, it ships to the
// Caller on node 1, whose Relay ships on to the Counter on node 2 — and
// asserts that the events recorded on all three rings form a single journey
// whose span parentage mirrors the hop order.
func TestTraceStitchesAcrossThreeNodes(t *testing.T) {
	cl := newTracedCluster(t, 3, 2)
	target, err := cl.Node(2).Root().New(&Counter{})
	if err != nil {
		t.Fatal(err)
	}
	caller, err := cl.Node(1).Root().New(&Caller{Target: target})
	if err != nil {
		t.Fatal(err)
	}

	ctx0 := cl.Node(0).Root()
	th, err := ctx0.StartThread(caller, "Relay", 5)
	if err != nil {
		t.Fatal(err)
	}
	out, err := ctx0.Join(th)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].(int) != 5 {
		t.Fatalf("Relay returned %v, want 5", out[0])
	}

	all := cl.CollectTrace()
	birth := findOne(t, all, "thread.start",
		func(ev trace.Event) bool { return ev.Kind == trace.KThreadStart && ev.Label == "Relay" })
	tid := birth.Trace

	journey := trace.FilterTrace(all, tid)
	if len(journey) < 10 {
		t.Fatalf("journey has %d events, want >=10:\n%+v", len(journey), journey)
	}
	// Every hop's events carry the one trace ID (checked by construction of
	// journey) and the one thread identity.
	for _, ev := range journey {
		if ev.Thread != tid {
			t.Fatalf("event %+v carries thread %#x, want %#x", ev, ev.Thread, tid)
		}
	}
	// Ring coverage: the journey left events on all three nodes.
	nodes := map[int32]bool{}
	for _, ev := range journey {
		nodes[ev.Node] = true
	}
	for n := int32(0); n < 3; n++ {
		if !nodes[n] {
			t.Fatalf("journey left no events on node %d: %+v", n, journey)
		}
	}

	// Span parentage mirrors the hop order:
	//   invoke Relay @0  ─envelope→  exec Relay @1
	//   invoke Add   @1 (parent = exec Relay span)  ─envelope→  exec Add @2
	invRelay := findOne(t, journey, "invoke Relay @0", func(ev trace.Event) bool {
		return ev.Kind == trace.KInvokeStart && ev.Label == "Relay" && ev.Node == 0
	})
	execRelay := findOne(t, journey, "exec Relay @1", func(ev trace.Event) bool {
		return ev.Kind == trace.KExecStart && ev.Label == "Relay" && ev.Node == 1
	})
	invAdd := findOne(t, journey, "invoke Add @1", func(ev trace.Event) bool {
		return ev.Kind == trace.KInvokeStart && ev.Label == "Add" && ev.Node == 1
	})
	execAdd := findOne(t, journey, "exec Add @2", func(ev trace.Event) bool {
		return ev.Kind == trace.KExecStart && ev.Label == "Add" && ev.Node == 2
	})
	if execRelay.Parent != invRelay.Span {
		t.Fatalf("exec@1 parent %#x, want invoke@0 span %#x", execRelay.Parent, invRelay.Span)
	}
	if invAdd.Parent != execRelay.Span {
		t.Fatalf("nested invoke@1 parent %#x, want exec@1 span %#x", invAdd.Parent, execRelay.Span)
	}
	if execAdd.Parent != invAdd.Span {
		t.Fatalf("exec@2 parent %#x, want invoke@1 span %#x", execAdd.Parent, invAdd.Span)
	}
	// Migration instants line up with the same spans.
	findOne(t, journey, "migrate.out @0", func(ev trace.Event) bool {
		return ev.Kind == trace.KMigrateOut && ev.Node == 0 && ev.Span == invRelay.Span && ev.Arg == 1
	})
	findOne(t, journey, "migrate.in @2", func(ev trace.Event) bool {
		return ev.Kind == trace.KMigrateIn && ev.Node == 2 && ev.Span == execAdd.Span && ev.Arg == 1
	})

	// The same stitching holds whichever entry point starts the journey: the
	// four share one engine, so each leaves invoke.start → migrate.out →
	// exec.start → exec.end → invoke.end under one trace, an exec pair per
	// step parented under the origin's invoke span, a forward event where a
	// chain is handed on mid-way, and a remote-latency exemplar at the origin.
	a, err := cl.Node(1).Root().New(&Counter{})
	if err != nil {
		t.Fatal(err)
	}
	chain := []ChainStep{{Obj: a, Method: "Add", Args: []any{1}}, {Obj: target, Method: "Add", Args: []any{ChainPrev}}}
	origin := cl.Node(0)
	for _, in := range []struct {
		name  string
		steps int
		run   func(ctx *Ctx) error
	}{
		{"Invoke", 1, func(ctx *Ctx) error { _, err := ctx.Invoke(a, "Add", 1); return err }},
		{"AsyncInvoke", 1, func(ctx *Ctx) error { _, err := ctx.AsyncInvoke(a, "Add", 1).Join(ctx); return err }},
		{"InvokeChain", 2, func(ctx *Ctx) error { _, err := ctx.InvokeChain(chain); return err }},
		{"AsyncInvokeChain", 2, func(ctx *Ctx) error { _, err := ctx.AsyncInvokeChain(chain).Join(ctx); return err }},
	} {
		known := map[uint64]bool{}
		for _, ev := range cl.CollectTrace() {
			known[ev.Trace] = true
		}
		origin.exRemote.Reset()
		if err := in.run(origin.Root()); err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		all := cl.CollectTrace()
		start := findOne(t, all, in.name+": invoke.start @0", func(ev trace.Event) bool {
			return ev.Kind == trace.KInvokeStart && ev.Node == 0 && !known[ev.Trace]
		})
		journey := trace.FilterTrace(all, start.Trace)
		end := findOne(t, journey, in.name+": invoke.end @0", func(ev trace.Event) bool {
			return ev.Kind == trace.KInvokeEnd && ev.Node == 0 && ev.Span == start.Span
		})
		out := findOne(t, journey, in.name+": migrate.out @0", func(ev trace.Event) bool {
			return ev.Kind == trace.KMigrateOut && ev.Node == 0 && ev.Span == start.Span && ev.Arg == 1
		})
		last := out.TimeNs
		for step := 0; step < in.steps; step++ {
			at := int32(step + 1) // a lives on node 1, target on node 2
			es := findOne(t, journey, in.name+": exec.start", func(ev trace.Event) bool {
				return ev.Kind == trace.KExecStart && ev.Node == at
			})
			ee := findOne(t, journey, in.name+": exec.end", func(ev trace.Event) bool {
				return ev.Kind == trace.KExecEnd && ev.Node == at && ev.Span == es.Span
			})
			if es.Parent != start.Span {
				t.Fatalf("%s: exec@%d parent %#x, want the invoke span %#x", in.name, at, es.Parent, start.Span)
			}
			if es.TimeNs < last || ee.TimeNs < es.TimeNs {
				t.Fatalf("%s: step %d out of order: %+v %+v", in.name, step, es, ee)
			}
			last = ee.TimeNs
		}
		if start.TimeNs > out.TimeNs || end.TimeNs < last {
			t.Fatalf("%s: the invoke span does not enclose the journey:\n%+v", in.name, journey)
		}
		forwards := 0
		for _, ev := range journey {
			if ev.Kind == trace.KForward {
				forwards++
				if ev.Node != 1 || ev.Arg != 2 {
					t.Fatalf("%s: forward %+v, want node 1 handing on to node 2", in.name, ev)
				}
			}
		}
		if forwards != in.steps-1 {
			t.Fatalf("%s: %d forward events, want %d", in.name, forwards, in.steps-1)
		}
		if ex := origin.exRemote.Snapshot(); len(ex) != 1 || ex[0].Trace != start.Trace {
			t.Fatalf("%s: remote-latency exemplars %+v, want one for journey %#x", in.name, ex, start.Trace)
		}
	}
}

// TestTraceDumpRPC exercises the procTraceDump path Node.CollectTrace uses
// for multi-process deployments: node 0 pulls the rings of its peers.
func TestTraceDumpRPC(t *testing.T) {
	cl := newTracedCluster(t, 2, 1)
	ref, err := cl.Node(1).Root().New(&Counter{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Node(0).Root().Invoke(ref, "Add", 1); err != nil {
		t.Fatal(err)
	}
	evs, err := cl.Node(0).CollectTrace([]gaddr.NodeID{0, 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var sawRemoteExec bool
	for _, ev := range evs {
		if ev.Kind == trace.KExecStart && ev.Node == 1 {
			sawRemoteExec = true
		}
	}
	if !sawRemoteExec {
		t.Fatalf("dump did not return node 1's exec events: %+v", evs)
	}
	if got := cl.Node(0).Tracer().Last(1); len(got) != 1 {
		t.Fatalf("Last(1) returned %d events", len(got))
	}
}

// TestTracingDisabledIsSilentAndFree asserts the zero-cost contract: with
// tracing off, remote invocations leave no events in any ring, and the
// instrumentation guard itself does not allocate.
func TestTracingDisabledIsSilentAndFree(t *testing.T) {
	cl := newTestCluster(t, 2, 1) // Tracing unset
	ref, err := cl.Node(1).Root().New(&Counter{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := cl.Node(0).Root()
	for i := 0; i < 10; i++ {
		if _, err := ctx.Invoke(ref, "Add", 1); err != nil {
			t.Fatal(err)
		}
	}
	if evs := cl.CollectTrace(); len(evs) != 0 {
		t.Fatalf("disabled tracing recorded %d events: %+v", len(evs), evs)
	}
	// The guard every hot-path site runs: one atomic load, no allocation.
	tr := cl.Node(0).Tracer()
	c := ctx
	allocs := testing.AllocsPerRun(1000, func() {
		if tr.On() {
			tr.Emit(trace.Event{Kind: trace.KInvokeStart, Trace: c.rec.ID,
				Thread: c.rec.ID, Obj: uint64(ref), Label: "Add"})
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled instrumentation allocated %v per op, want 0", allocs)
	}
}

// TestTracingToggleAtRuntime flips recording on mid-flight, as the /trace
// endpoint's ?on=1 does.
func TestTracingToggleAtRuntime(t *testing.T) {
	cl := newTestCluster(t, 2, 1)
	ref, err := cl.Node(1).Root().New(&Counter{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := cl.Node(0).Root()
	if _, err := ctx.Invoke(ref, "Add", 1); err != nil {
		t.Fatal(err)
	}
	if len(cl.CollectTrace()) != 0 {
		t.Fatal("events recorded while disabled")
	}
	cl.SetTracing(true)
	if _, err := ctx.Invoke(ref, "Add", 1); err != nil {
		t.Fatal(err)
	}
	evs := cl.CollectTrace()
	if len(evs) == 0 {
		t.Fatal("no events after enabling tracing")
	}
	cl.SetTracing(false)
	before := len(evs)
	if _, err := ctx.Invoke(ref, "Add", 1); err != nil {
		t.Fatal(err)
	}
	if got := len(cl.CollectTrace()); got != before {
		t.Fatalf("disabled tracing still recorded events (%d -> %d)", before, got)
	}
}

// TestInvokeHistogramsPopulate checks that the latency histograms wired into
// the invoke hot paths actually fill, on both sides of a remote call.
func TestInvokeHistogramsPopulate(t *testing.T) {
	cl := newTestCluster(t, 2, 1)
	ref, err := cl.Node(1).Root().New(&Counter{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := cl.Node(0).Root()
	for i := 0; i < 5; i++ {
		if _, err := ctx.Invoke(ref, "Add", 1); err != nil {
			t.Fatal(err)
		}
	}
	remote := cl.Node(0).Stats().Hist("invoke_remote_ns")
	if remote.Count() != 5 {
		t.Fatalf("invoke_remote_ns count = %d, want 5", remote.Count())
	}
	if remote.P50() <= 0 || remote.P99() < remote.P50() {
		t.Fatalf("implausible remote quantiles: p50=%v p99=%v", remote.P50(), remote.P99())
	}
	exec := cl.Node(1).Stats().Hist("invoke_exec_ns")
	if exec.Count() != 5 {
		t.Fatalf("invoke_exec_ns count = %d, want 5", exec.Count())
	}
	if err := ctx.MoveTo(ref, 0); err != nil {
		t.Fatal(err)
	}
	if cl.Node(0).Stats().Hist("move_ns").Count() == 0 {
		t.Fatal("move_ns histogram did not record the MoveTo")
	}
}
