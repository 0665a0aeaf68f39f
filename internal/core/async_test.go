package core

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// --- AsyncInvoke / Future semantics ---

func TestAsyncInvokeLocalAndRemote(t *testing.T) {
	cl := newTestCluster(t, 2, 2)
	ctx := cl.Node(0).Root()
	local, _ := ctx.New(&Counter{})
	remote, _ := ctx.New(&Counter{})
	if err := ctx.MoveTo(remote, 1); err != nil {
		t.Fatal(err)
	}
	fl := ctx.AsyncInvoke(local, "Add", 3)
	fr := ctx.AsyncInvoke(remote, "Add", 4)
	out, err := fl.Join(ctx)
	if err != nil || out[0].(int) != 3 {
		t.Fatalf("local future: %v, %v", out, err)
	}
	out, err = fr.Join(ctx)
	if err != nil || out[0].(int) != 4 {
		t.Fatalf("remote future: %v, %v", out, err)
	}
	// Join is idempotent: a second Join returns the same outcome without
	// blocking.
	out, err = fr.Join(nil)
	if err != nil || out[0].(int) != 4 {
		t.Fatalf("re-Join: %v, %v", out, err)
	}
	if !fr.Done() {
		t.Fatal("joined future not Done")
	}
	if got := cl.Node(0).Stats().Value("async_invokes"); got < 2 {
		t.Fatalf("async_invokes = %d, want >= 2", got)
	}
}

func TestAsyncInvokeNilRefFailsFast(t *testing.T) {
	cl := newTestCluster(t, 1, 1)
	ctx := cl.Node(0).Root()
	f := ctx.AsyncInvoke(NilRef, "Add", 1)
	if _, err := f.Join(ctx); !errors.Is(err, ErrNoSuchObject) {
		t.Fatalf("nil-ref future: %v, want ErrNoSuchObject", err)
	}
}

func TestAsyncJoinAfterCrashIsNodeDown(t *testing.T) {
	cl, fl := newFailureCluster(t, 2, 7)
	ref, _ := cl.Node(1).Root().New(&Counter{})
	ctx := cl.Node(0).Root()
	if _, err := ctx.Invoke(ref, "Add", 1); err != nil {
		t.Fatal(err)
	}
	fl.Crash(1)
	f := ctx.AsyncInvoke(ref, "Add", 1, WithDeadline(200*time.Millisecond))
	_, err := f.Join(ctx)
	if !errors.Is(err, ErrNodeDown) {
		t.Fatalf("future into crashed node: %v, want ErrNodeDown", err)
	}
	if errors.Is(err, ErrTimeout) {
		t.Fatalf("error matches both sentinels: %v", err)
	}
	// The async path funnels through the same anomaly classifier as blocking
	// invokes: the caller's fleet counters saw the failure.
	if got := cl.Node(0).Stats().Value("anomalies_node_down"); got == 0 {
		t.Fatal("anomalies_node_down not counted for the async failure")
	}
}

func TestAsyncDeadlineAgainstSlowPeerIsTimeout(t *testing.T) {
	// The peer stays alive (answers probes) but holds the invocation well past
	// the deadline — the future must resolve to ErrTimeout, not ErrNodeDown.
	cl, _ := newFailureCluster(t, 2, 7)
	ref, _ := cl.Node(1).Root().New(&Slow{})
	ctx := cl.Node(0).Root()
	f := ctx.AsyncInvoke(ref, "Work", 600, WithDeadline(100*time.Millisecond))
	_, err := f.Join(ctx)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("deadline-expired future: %v, want ErrTimeout", err)
	}
	if errors.Is(err, ErrNodeDown) {
		t.Fatalf("error matches both sentinels: %v", err)
	}
	if got := cl.Node(0).Stats().Value("anomalies_deadline"); got == 0 {
		t.Fatal("anomalies_deadline not counted for the async timeout")
	}
}

func TestAsyncSentinelRehydratesAcrossHop(t *testing.T) {
	cl := newTestCluster(t, 2, 2)
	ctx := cl.Node(0).Root()
	ref, _ := ctx.New(&Counter{})
	if err := ctx.MoveTo(ref, 1); err != nil {
		t.Fatal(err)
	}
	// The method error is raised on node 1 and crosses back as a string; the
	// future's error must still be errors.Is-matchable.
	f := ctx.AsyncInvoke(ref, "Nope")
	if _, err := f.Join(ctx); !errors.Is(err, ErrUnknownMethod) {
		t.Fatalf("unknown method via future: %v, want ErrUnknownMethod", err)
	}
}

func TestAsyncOnDoneRunsOnceCompleted(t *testing.T) {
	cl := newTestCluster(t, 2, 2)
	ctx := cl.Node(0).Root()
	ref, _ := ctx.New(&Counter{})
	if err := ctx.MoveTo(ref, 1); err != nil {
		t.Fatal(err)
	}
	done := make(chan int, 2)
	f := ctx.AsyncInvoke(ref, "Add", 2)
	f.OnDone(func(fu *Future) {
		out, err := fu.Join(nil) // future complete: non-blocking
		if err != nil {
			t.Errorf("OnDone future: %v", err)
			return
		}
		done <- out[0].(int)
	})
	select {
	case v := <-done:
		if v != 2 {
			t.Fatalf("OnDone saw %d, want 2", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("OnDone callback never ran")
	}
	// Registering after completion fires immediately on the caller.
	f.OnDone(func(fu *Future) { done <- -1 })
	select {
	case v := <-done:
		if v != -1 {
			t.Fatalf("late OnDone saw %d", v)
		}
	default:
		t.Fatal("late OnDone did not run synchronously")
	}
}

// TestAsyncPipelinedStress drives many outstanding futures at one peer
// through the shared pipeline; run under -race this shakes the pending-table,
// pipe and future completion paths. The mutex inside Counter makes the
// concurrent executions on node 1 well-defined.
func TestAsyncPipelinedStress(t *testing.T) {
	cl := newTestCluster(t, 2, 4)
	ctx := cl.Node(0).Root()
	ref, _ := ctx.New(&Counter{})
	if err := ctx.MoveTo(ref, 1); err != nil {
		t.Fatal(err)
	}
	const calls = 512
	futs := make([]*Future, calls)
	for i := range futs {
		futs[i] = ctx.AsyncInvoke(ref, "Add", 1)
	}
	for i, f := range futs {
		if _, err := f.Join(ctx); err != nil {
			t.Fatalf("future %d: %v", i, err)
		}
	}
	out, err := ctx.Invoke(ref, "Get")
	if err != nil || out[0].(int) != calls {
		t.Fatalf("counter = %v, %v — want %d (every future executed exactly once)", out, err, calls)
	}
}

// Many goroutines × many futures against one pipelined peer, exceeding the
// pipeline depth so the backpressure path (enqueue blocking on a full pipe)
// gets exercised too.
func TestAsyncBackpressureUnderConcurrency(t *testing.T) {
	cl, err := NewCluster(ClusterConfig{
		Nodes: 2, ProcsPerNode: 4,
		PipelineWindow: 8, PipelineDepth: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	registerFixtures(t, cl)
	ctx := cl.Node(0).Root()
	ref, _ := ctx.New(&Counter{})
	if err := ctx.MoveTo(ref, 1); err != nil {
		t.Fatal(err)
	}
	const workers, perWorker = 8, 64
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wctx := cl.Node(0).Root()
			for i := 0; i < perWorker; i++ {
				if _, err := wctx.AsyncInvoke(ref, "Add", 1).Join(wctx); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	out, err := ctx.Invoke(ref, "Get")
	if err != nil || out[0].(int) != workers*perWorker {
		t.Fatalf("counter = %v, %v — want %d", out, err, workers*perWorker)
	}
}

func TestAsyncRetryExactlyOnceOverLostReplies(t *testing.T) {
	cl, fl := newFailureCluster(t, 2, 7)
	ref, _ := cl.Node(1).Root().New(&Counter{})
	ctx := cl.Node(0).Root()
	// Requests arrive and execute; replies vanish. Retries under one
	// idempotency token must converge to exactly one execution once the link
	// heals.
	fl.Cut(1, 0)
	go func() {
		time.Sleep(400 * time.Millisecond)
		fl.Heal(1, 0)
	}()
	f := ctx.AsyncInvoke(ref, "Add", 1,
		WithDeadline(100*time.Millisecond),
		WithRetry(RetryPolicy{MaxAttempts: 30, Backoff: 25 * time.Millisecond, MaxBackoff: 100 * time.Millisecond}))
	out, err := f.Join(ctx)
	if err != nil {
		t.Fatalf("retried future: %v", err)
	}
	if out[0].(int) != 1 {
		t.Fatalf("Add returned %v, want 1 (exactly-once)", out[0])
	}
	got, err := ctx.Invoke(ref, "Get")
	if err != nil || got[0].(int) != 1 {
		t.Fatalf("counter = %v, %v — retries re-executed the operation", got, err)
	}
	if cl.Node(0).RPCStats().Value("rpc_retries") == 0 {
		t.Fatal("rpc_retries not counted")
	}
}

// --- option-surface unification ---

// Every public entry point takes the same trailing CallOptions; a crashed
// peer must classify identically (ErrNodeDown) no matter which op carried the
// options.
func TestControlOpsAcceptCallOptions(t *testing.T) {
	cl, fl := newFailureCluster(t, 2, 7)
	ctx := cl.Node(0).Root()
	ref, _ := cl.Node(1).Root().New(&Counter{})
	peer, _ := cl.Node(1).Root().New(&Counter{})
	if _, err := ctx.Invoke(ref, "Get"); err != nil {
		t.Fatal(err)
	}
	fl.Crash(1)
	d := WithDeadline(150 * time.Millisecond)
	if err := ctx.SetImmutable(ref, d); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("SetImmutable into crashed node: %v, want ErrNodeDown", err)
	}
	if err := ctx.Delete(ref, d); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("Delete into crashed node: %v, want ErrNodeDown", err)
	}
	if err := ctx.Attach(ref, peer, d); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("Attach into crashed node: %v, want ErrNodeDown", err)
	}
	if err := ctx.Unattach(ref, peer, d); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("Unattach into crashed node: %v, want ErrNodeDown", err)
	}
	if _, err := ctx.NewAt(1, &Counter{}, d); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("NewAt into crashed node: %v, want ErrNodeDown", err)
	}
	// New is node-local: options are accepted but cannot fail the creation.
	if _, err := ctx.New(&Counter{}, d); err != nil {
		t.Fatalf("local New with options: %v", err)
	}
}
