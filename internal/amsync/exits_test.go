package amsync

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"amber/internal/core"
)

// exitBound is how long after a fault every wait must have ended: the
// long-wait probe fires within RPCTimeout (150 ms) and a probe of a silent
// node fails within its own timeout.
const exitBound = 2 * time.Second

// patient is the deadline a remote waiter's caller gives its call, longer
// than exitBound, so the error it sees is the wait's own and not the
// caller's timeout.
var patient = core.WithDeadline(5 * time.Second)

// newFailureCluster builds a cluster whose timeouts classify a silent node
// quickly, with a fault injector attached.
func newFailureCluster(t *testing.T, nodes int) *core.Cluster {
	t.Helper()
	cl, err := core.NewCluster(core.ClusterConfig{
		Nodes: nodes, ProcsPerNode: 2,
		RPCTimeout:   150 * time.Millisecond,
		ProbeTimeout: 60 * time.Millisecond,
		FaultSeed:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	if err := RegisterAll(cl); err != nil {
		t.Fatal(err)
	}
	return cl
}

// awaitFor polls cond until it holds, failing the test after d.
func awaitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out after %v waiting for %s", d, what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// awaitBlocked waits until n threads in all have blocked on node's
// scheduler: the waiters are queued.
func awaitBlocked(t *testing.T, cl *core.Cluster, node int, n int64) {
	t.Helper()
	awaitFor(t, exitBound, "the waiters to queue", func() bool {
		return cl.Node(node).Scheduler().Stats().Value("blocks") >= n
	})
}

// invokeAsync runs ctx.Invoke on a goroutine and delivers its error.
func invokeAsync(ctx *core.Ctx, obj core.Ref, method string, args ...any) <-chan error {
	errc := make(chan error, 1)
	go func() {
		_, err := ctx.Invoke(obj, method, args...)
		errc <- err
	}()
	return errc
}

// awaitErr receives a waiter's outcome within exitBound.
func awaitErr(t *testing.T, errc <-chan error) error {
	t.Helper()
	select {
	case err := <-errc:
		return err
	case <-time.After(exitBound):
		t.Fatalf("a wait was still blocked %v after the fault", exitBound)
		return nil
	}
}

// TestWaitsHaveExits: a thread waiting on a synchronization object ends with
// an error when the thread that would wake it, or its own caller, can no
// longer be reached, and when the object's node closes — never in silence.
// Each row closes its cluster and checks that no goroutine outlives it.
func TestWaitsHaveExits(t *testing.T) {
	type holdWait struct {
		class      any
		hold, wait string
	}
	// holderDies queues a waiter from node 2 behind a holder from node 1 on
	// objects of node 0, then crashes node 1.
	holderDies := func(cases ...holdWait) func(t *testing.T) {
		return func(t *testing.T) {
			cl := newFailureCluster(t, 3)
			waiters := make([]<-chan error, len(cases))
			for i, c := range cases {
				obj, err := cl.Node(0).Root().New(c.class)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := cl.Node(1).Root().Invoke(obj, c.hold); err != nil {
					t.Fatal(err)
				}
				waiters[i] = invokeAsync(cl.Node(2).Root(), obj, c.wait, patient)
			}
			awaitBlocked(t, cl, 0, int64(len(cases)))
			cl.Faults().Crash(1)
			for i, errc := range waiters {
				if err := awaitErr(t, errc); !errors.Is(err, core.ErrNodeDown) {
					t.Errorf("%s behind a dead %s holder: %v, want ErrNodeDown", cases[i].wait, cases[i].hold, err)
				}
			}
			cl.Close()
		}
	}
	rows := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"lock holder's node crashes", holderDies(holdWait{&Lock{}, "Acquire", "Acquire"})},
		{"monitor and rwlock writer's node crashes", holderDies(
			holdWait{&Monitor{}, "Enter", "Enter"},
			holdWait{&RWLock{}, "AcquireWrite", "AcquireWrite"},
			holdWait{&RWLock{}, "AcquireWrite", "AcquireRead"})},
		{"queued waiter's home crashes", func(t *testing.T) {
			cl := newFailureCluster(t, 3)
			holder := cl.Node(0).Root()
			lock, _ := holder.New(&Lock{})
			if _, err := holder.Invoke(lock, "Acquire"); err != nil {
				t.Fatal(err)
			}
			// The first waiter's caller gives up at its RPCTimeout; the thread
			// it shipped to node 0 waits on.
			invokeAsync(cl.Node(1).Root(), lock, "Acquire")
			awaitBlocked(t, cl, 0, 1)
			live := cl.Node(2).Root()
			errc := invokeAsync(live, lock, "Acquire", patient)
			awaitBlocked(t, cl, 0, 2)
			cl.Faults().Crash(1)
			awaitFor(t, exitBound, "node 0 to mark node 1 down", func() bool {
				return cl.Node(0).Endpoint().PeerDown(1)
			})
			if _, err := holder.Invoke(lock, "Release"); err != nil {
				t.Fatal(err)
			}
			if err := awaitErr(t, errc); err != nil {
				t.Fatalf("live waiter behind an orphaned one: %v", err)
			}
			if _, err := live.Invoke(lock, "Release", patient); err != nil {
				t.Fatalf("the live waiter does not hold the lock: %v", err)
			}
			cl.Close()
		}},
		{"node closes with waiters on every class", func(t *testing.T) {
			cl := newFailureCluster(t, 1)
			ctx := cl.Node(0).Root()
			newObj := func(v any) core.Ref {
				ref, err := ctx.New(v)
				if err != nil {
					t.Fatal(err)
				}
				return ref
			}
			lock, mon, rw := newObj(&Lock{}), newObj(&Monitor{}), newObj(&RWLock{})
			for _, hold := range []struct {
				obj    core.Ref
				method string
			}{{lock, "Acquire"}, {mon, "Enter"}, {rw, "AcquireWrite"}} {
				if _, err := ctx.Invoke(hold.obj, hold.method); err != nil {
					t.Fatal(err)
				}
			}
			condMon := newObj(&Monitor{})
			cond := newObj(NewCondVar(condMon))
			waiters := []<-chan error{
				invokeAsync(cl.Node(0).Root(), lock, "Acquire"),
				invokeAsync(cl.Node(0).Root(), mon, "Enter"),
				invokeAsync(cl.Node(0).Root(), rw, "AcquireWrite"),
				invokeAsync(cl.Node(0).Root(), rw, "AcquireRead"),
				invokeAsync(cl.Node(0).Root(), newObj(NewSemaphore(0)), "P"),
				invokeAsync(cl.Node(0).Root(), newObj(&Event{}), "Wait"),
				invokeAsync(cl.Node(0).Root(), newObj(NewBarrier(2)), "Arrive"),
			}
			condWaiter := make(chan error, 1)
			go func() {
				c := cl.Node(0).Root()
				if _, err := c.Invoke(condMon, "Enter"); err != nil {
					condWaiter <- err
					return
				}
				_, err := c.Invoke(cond, "Wait")
				condWaiter <- err
			}()
			waiters = append(waiters, condWaiter)
			awaitBlocked(t, cl, 0, int64(len(waiters)))
			cl.Close()
			for i, errc := range waiters {
				if err := awaitErr(t, errc); !errors.Is(err, core.ErrNodeDown) {
					t.Errorf("waiter %d after Close: %v, want ErrNodeDown", i, err)
				}
			}
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			row.run(t)
			awaitFor(t, exitBound, "the cluster's goroutines to end", func() bool {
				return runtime.NumGoroutine() <= before
			})
		})
	}
}
