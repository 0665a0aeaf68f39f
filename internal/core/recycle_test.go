package core

import (
	"bytes"
	"runtime"
	"testing"
	"time"
)

// The message path's buffers are pooled end to end (DESIGN.md §6.2): a remote
// invocation's request and reply are each assembled in, received into and
// recycled as one pooled buffer. These tests hold the path to that — a leak
// anywhere shows as garbage per operation — and check that recycling never
// reaches a buffer something still refers to.

// Sink is the fixture: operations with no, small and bulk arguments.
type Sink struct{ N int }

func (s *Sink) Touch() int              { s.N++; return s.N }
func (s *Sink) Put(p []byte) int        { s.N += len(p); return len(p) }
func (s *Sink) Echo(p []byte) []byte    { return p }
func (s *Sink) Add(n int) int           { s.N += n; return s.N }
func (s *Sink) AddTo(n, m int) int      { return n + m }
func (s *Sink) AmberReadOnly() []string { return []string{"Echo", "AddTo"} }

// bytesPerOp runs op ops times and reports the heap bytes allocated per call,
// across every goroutine of the in-process cluster.
func bytesPerOp(t *testing.T, ops int, op func()) float64 {
	t.Helper()
	for i := 0; i < ops/10; i++ { // warm-up: fill the pools, size the hints
		op()
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < ops; i++ {
		op()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(ops)
}

func TestRemoteInvokeRecyclesBuffers(t *testing.T) {
	cl := newTestCluster(t, 2, 2)
	if err := cl.Register(&Sink{}); err != nil {
		t.Fatal(err)
	}
	owner := cl.Node(1).Root()
	ref, err := owner.New(&Sink{})
	if err != nil {
		t.Fatal(err)
	}
	ref2, err := owner.New(&Sink{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := cl.Node(0).Root()
	must := func(_ []any, err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	bulk := make([]byte, 8<<10)
	chain := []ChainStep{
		{Obj: ref, Method: "Add", Args: []any{1}},
		{Obj: ref2, Method: "AddTo", Args: []any{ChainPrev, 1}},
	}
	// Budgets in bytes per operation. What legitimately remains is the decoded
	// values (the 8 KiB argument must be copied out of the frame for the
	// method to keep), thread and call bookkeeping, and goroutine start-up —
	// not message buffers: before they were recycled end to end the no-arg
	// call allocated 6.5 KB and the 8 KiB one 27 KB.
	for _, c := range []struct {
		name   string
		budget float64
		op     func()
	}{
		{"no-arg", 3000, func() { must(ctx.Invoke(ref, "Touch")) }},
		{"8KiB", 14000, func() { must(ctx.Invoke(ref, "Put", bulk)) }},
		{"async", 3000, func() { must(ctx.AsyncInvoke(ref, "Touch").Join(ctx)) }},
		{"chain", 4000, func() { must(ctx.InvokeChain(chain)) }},
	} {
		got := bytesPerOp(t, 1000, c.op)
		t.Logf("%s: %.0f B/op (budget %.0f)", c.name, got, c.budget)
		if got > c.budget && !raceEnabled {
			t.Errorf("%s: %.0f B/op, budget %.0f", c.name, got, c.budget)
		}
	}
}

// An in-process remote invoke, counted across both nodes, allocates at most
// nine times. The inbound request runs on its link's reader, so no goroutine
// is started for it, and no closure is made to start one.
func TestRemoteInvokeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops Puts on purpose")
	}
	cl := newTestCluster(t, 2, 2)
	if err := cl.Register(&Sink{}); err != nil {
		t.Fatal(err)
	}
	ref, err := cl.Node(1).Root().New(&Sink{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := cl.Node(0).Root()
	var ierr error
	invoke := func() {
		if _, err := ctx.Invoke(ref, "Touch"); err != nil {
			ierr = err
		}
	}
	for i := 0; i < 200; i++ { // warm-up: fill the pools, learn the location
		invoke()
	}
	allocs := testing.AllocsPerRun(2000, invoke)
	if ierr != nil {
		t.Fatal(ierr)
	}
	if allocs > 9 {
		t.Fatalf("remote invoke allocates %v times per call, want <= 9", allocs)
	}
}

// A retried call keeps its request body across attempts while the callee's
// dedup window keeps the reply body across replays, both beside a pool that
// other traffic is churning. If either were recycled while still referenced,
// the echoed bytes would come back as some other message's.
func TestRetryUnderCutLinkKeepsBuffers(t *testing.T) {
	cl, fl := newFailureCluster(t, 3, 11)
	if err := cl.Register(&Sink{}); err != nil {
		t.Fatal(err)
	}
	ref, _ := cl.Node(1).Root().New(&Sink{})
	other, _ := cl.Node(2).Root().New(&Sink{})
	want := bytes.Repeat([]byte{0xA5, 0x5A, 0xC3}, 3000)

	// Replies from node 1 are lost: the call executes, its reply body enters
	// the dedup window, and every retry is answered from there — into the void
	// until the link heals.
	fl.Cut(1, 0)
	type outcome struct {
		out []any
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		out, err := cl.Node(0).Root().Invoke(ref, "Echo", append([]byte(nil), want...),
			WithDeadline(100*time.Millisecond),
			WithRetry(RetryPolicy{MaxAttempts: 60, Backoff: 10 * time.Millisecond, MaxBackoff: 50 * time.Millisecond}))
		done <- outcome{out, err}
	}()

	// Churn the shared pool with frames of the same size class until a retry
	// has been replayed from the window, then heal.
	churn := cl.Node(0).Root()
	noise := bytes.Repeat([]byte{0xFF}, len(want))
	deadline := time.Now().Add(10 * time.Second)
	for cl.Node(1).RPCStats().Value("rpc_dedup_hits") < 2 {
		if _, err := churn.Invoke(other, "Echo", noise); err != nil {
			t.Fatalf("churn: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("no retry was ever replayed from the dedup window")
		}
	}
	fl.Heal(1, 0)
	var res outcome
	for got := false; !got; {
		select {
		case res = <-done:
			got = true
		default:
			if _, err := churn.Invoke(other, "Echo", noise); err != nil {
				t.Fatalf("churn: %v", err)
			}
		}
	}
	if res.err != nil {
		t.Fatalf("retried invoke: %v", res.err)
	}
	if got := res.out[0].([]byte); !bytes.Equal(got, want) {
		t.Fatalf("echo came back corrupted (%d bytes, first %x)", len(got), got[:8])
	}
	if n := cl.Node(0).RPCStats().Value("rpc_retries"); n < 2 {
		t.Fatalf("rpc_retries = %d", n)
	}
}
