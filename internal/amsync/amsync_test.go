package amsync

import (
	"errors"
	"sync"
	"testing"
	"time"

	"amber/internal/core"
	"amber/internal/gaddr"
)

// Account is a shared object protected by an external Lock, the fine-grained
// locking style §2.2 advocates.
type Account struct{ Balance int }

func (a *Account) Deposit(n int) { a.Balance += n }
func (a *Account) Read() int     { return a.Balance }
func (a *Account) Mangle(ctx *core.Ctx, lock core.Ref, n int) error {
	if _, err := ctx.Invoke(lock, "Acquire"); err != nil {
		return err
	}
	v := a.Balance
	time.Sleep(time.Millisecond) // widen the race window
	a.Balance = v + n
	_, err := ctx.Invoke(lock, "Release")
	return err
}

func newCluster(t testing.TB, nodes, procs int) *core.Cluster {
	t.Helper()
	cl, err := core.NewCluster(core.ClusterConfig{Nodes: nodes, ProcsPerNode: procs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	if err := RegisterAll(cl); err != nil {
		t.Fatal(err)
	}
	if err := cl.Register(&Account{}); err != nil {
		t.Fatal(err)
	}
	return cl
}

func TestLockMutualExclusion(t *testing.T) {
	cl := newCluster(t, 1, 4)
	ctx := cl.Node(0).Root()
	lock, _ := ctx.New(&Lock{})
	acct, _ := ctx.New(&Account{})

	const k = 8
	threads := make([]core.Thread, k)
	for i := range threads {
		threads[i], _ = ctx.StartThread(acct, "Mangle", lock, 10)
	}
	for _, th := range threads {
		if _, err := ctx.Join(th); err != nil {
			t.Fatal(err)
		}
	}
	out, _ := ctx.Invoke(acct, "Read")
	if out[0].(int) != k*10 {
		t.Fatalf("balance = %v, want %d (lost updates without the lock)", out, k*10)
	}
}

func TestRemoteLockSynchronizesAcrossNodes(t *testing.T) {
	// §4.1: a lock on one node synchronizes threads on different nodes with
	// one RPC per acquire — no page shuttling.
	cl := newCluster(t, 3, 2)
	ctx0 := cl.Node(0).Root()
	lock, _ := ctx0.New(&Lock{})    // lock lives on node 0
	acct, _ := ctx0.New(&Account{}) // data co-located with the lock
	var threads []core.Thread
	for n := 1; n <= 2; n++ {
		c := cl.Node(n).Root()
		for i := 0; i < 4; i++ {
			th, err := c.StartThread(acct, "Mangle", lock, 5)
			if err != nil {
				t.Fatal(err)
			}
			threads = append(threads, th)
		}
	}
	for _, th := range threads {
		if _, err := ctx0.Join(th); err != nil {
			t.Fatal(err)
		}
	}
	out, _ := ctx0.Invoke(acct, "Read")
	if out[0].(int) != 8*5 {
		t.Fatalf("balance = %v, want 40", out)
	}
}

func TestLockErrorsAndTry(t *testing.T) {
	cl := newCluster(t, 1, 2)
	ctx := cl.Node(0).Root()
	lock, _ := ctx.New(&Lock{})
	// Release without holding.
	if _, err := ctx.Invoke(lock, "Release"); err == nil {
		t.Fatal("release of free lock should fail")
	}
	out, _ := ctx.Invoke(lock, "TryAcquire")
	if out[0].(bool) != true {
		t.Fatal("TryAcquire on free lock should succeed")
	}
	// Another thread cannot TryAcquire nor Release.
	th, _ := ctx.StartThread(lock, "TryAcquire")
	res, _ := ctx.Join(th)
	if res[0].(bool) {
		t.Fatal("TryAcquire on held lock should fail")
	}
	th, _ = ctx.StartThread(lock, "Release")
	if _, err := ctx.Join(th); err == nil || !contains(err.Error(), "not the owner") {
		t.Fatalf("foreign release: %v", err)
	}
	if _, err := ctx.Invoke(lock, "Release"); err != nil {
		t.Fatal(err)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestHeldLockRefusesToMove(t *testing.T) {
	cl := newCluster(t, 2, 2)
	ctx := cl.Node(0).Root()
	lock, _ := ctx.New(&Lock{})
	if _, err := ctx.Invoke(lock, "Acquire"); err != nil {
		t.Fatal(err)
	}
	if err := ctx.MoveTo(lock, 1); !errors.Is(err, ErrBusy) {
		t.Fatalf("moving held lock: %v", err)
	}
	if _, err := ctx.Invoke(lock, "Release"); err != nil {
		t.Fatal(err)
	}
	// Idle lock moves fine and still works on the new node.
	if err := ctx.MoveTo(lock, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.Invoke(lock, "Acquire"); err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.Invoke(lock, "Release"); err != nil {
		t.Fatal(err)
	}
	loc, _ := ctx.Locate(lock)
	if loc != 1 {
		t.Fatalf("lock at %d, want 1", loc)
	}
}

func TestSpinLock(t *testing.T) {
	cl := newCluster(t, 1, 2)
	ctx := cl.Node(0).Root()
	sl, _ := ctx.New(&SpinLock{})
	if _, err := ctx.Invoke(sl, "Acquire"); err != nil {
		t.Fatal(err)
	}
	out, _ := ctx.Invoke(sl, "TryAcquire")
	if out[0].(bool) {
		t.Fatal("TryAcquire on held spinlock")
	}
	if err := ctx.MoveTo(sl, 0); err != nil {
		// move-to-self is a no-op and must not consult CanMove; any error
		// here is a bug.
		t.Fatalf("noop move of held spinlock: %v", err)
	}
	if _, err := ctx.Invoke(sl, "Release"); err != nil {
		t.Fatal(err)
	}
	// Contended spin: thread A holds, thread B spins until A releases.
	if _, err := ctx.Invoke(sl, "Acquire"); err != nil {
		t.Fatal(err)
	}
	th, _ := ctx.StartThread(sl, "Acquire")
	time.Sleep(10 * time.Millisecond)
	if done, _ := ctx.ThreadDone(th); done {
		t.Fatal("spinner acquired a held lock")
	}
	ctx.Invoke(sl, "Release")
	if _, err := ctx.Join(th); err != nil {
		t.Fatal(err)
	}
}

func TestBarrierEpochs(t *testing.T) {
	cl := newCluster(t, 2, 2)
	ctx := cl.Node(0).Root()
	bar, _ := ctx.New(NewBarrier(3))

	for epoch := 0; epoch < 3; epoch++ {
		var threads []core.Thread
		for i := 0; i < 3; i++ {
			node := cl.Node(i % 2).Root()
			th, err := node.StartThread(bar, "Arrive")
			if err != nil {
				t.Fatal(err)
			}
			threads = append(threads, th)
		}
		for _, th := range threads {
			out, err := ctx.Join(th)
			if err != nil {
				t.Fatal(err)
			}
			if out[0].(int64) != int64(epoch) {
				t.Fatalf("epoch = %v, want %d", out[0], epoch)
			}
		}
	}
}

func TestBarrierPartialBlocksAndRefusesMove(t *testing.T) {
	cl := newCluster(t, 2, 2)
	ctx := cl.Node(0).Root()
	bar, _ := ctx.New(NewBarrier(2))
	th, _ := ctx.StartThread(bar, "Arrive")
	time.Sleep(20 * time.Millisecond)
	if done, _ := ctx.ThreadDone(th); done {
		t.Fatal("lone arrival passed a 2-party barrier")
	}
	if err := ctx.MoveTo(bar, 1); !errors.Is(err, ErrBusy) {
		t.Fatalf("moving occupied barrier: %v", err)
	}
	// Second arrival releases the first.
	if _, err := ctx.Invoke(bar, "Arrive"); err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.Join(th); err != nil {
		t.Fatal(err)
	}
}

func TestBarrierZeroParties(t *testing.T) {
	cl := newCluster(t, 1, 1)
	ctx := cl.Node(0).Root()
	bar, _ := ctx.New(&Barrier{})
	if _, err := ctx.Invoke(bar, "Arrive"); err == nil {
		t.Fatal("0-party barrier must error")
	}
}

func TestMonitorAndCondVar(t *testing.T) {
	cl := newCluster(t, 2, 2)
	ctx := cl.Node(0).Root()
	mon, _ := ctx.New(&Monitor{})
	cond, _ := ctx.New(NewCondVar(mon))
	if err := ctx.Attach(cond, mon); err != nil {
		t.Fatal(err)
	}

	// Consumer: enter monitor, wait for the flag.
	acct, _ := ctx.New(&Account{})
	consumer := func(c *core.Ctx) error {
		if _, err := c.Invoke(mon, "Enter"); err != nil {
			return err
		}
		for {
			out, err := c.Invoke(acct, "Read")
			if err != nil {
				return err
			}
			if out[0].(int) > 0 {
				break
			}
			if _, err := c.Invoke(cond, "Wait"); err != nil {
				return err
			}
		}
		_, err := c.Invoke(mon, "Exit")
		return err
	}
	done := make(chan error, 1)
	go func() { done <- consumer(cl.Node(1).Root()) }()

	time.Sleep(30 * time.Millisecond)
	// Producer: set the flag under the monitor and signal.
	if _, err := ctx.Invoke(mon, "Enter"); err != nil {
		t.Fatal(err)
	}
	ctx.Invoke(acct, "Deposit", 1)
	ctx.Invoke(cond, "Broadcast")
	if _, err := ctx.Invoke(mon, "Exit"); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("consumer never woke")
	}
}

func TestMonitorOwnership(t *testing.T) {
	cl := newCluster(t, 1, 2)
	ctx := cl.Node(0).Root()
	mon, _ := ctx.New(&Monitor{})
	if _, err := ctx.Invoke(mon, "Exit"); err == nil {
		t.Fatal("exit of free monitor should fail")
	}
	ctx.Invoke(mon, "Enter")
	out, _ := ctx.Invoke(mon, "Owner")
	if out[0].(uint64) != ctx.ThreadID() {
		t.Fatalf("owner = %v, want %d", out[0], ctx.ThreadID())
	}
	ctx.Invoke(mon, "Exit")
}

func TestSemaphore(t *testing.T) {
	cl := newCluster(t, 1, 4)
	ctx := cl.Node(0).Root()
	sem, _ := ctx.New(NewSemaphore(2))
	// Three threads P; only two proceed until a V.
	acct, _ := ctx.New(&Account{})
	_ = acct
	ctx.Invoke(sem, "P")
	ctx.Invoke(sem, "P")
	th, _ := ctx.StartThread(sem, "P")
	time.Sleep(20 * time.Millisecond)
	if done, _ := ctx.ThreadDone(th); done {
		t.Fatal("third P should have blocked")
	}
	ctx.Invoke(sem, "V")
	if _, err := ctx.Join(th); err != nil {
		t.Fatal(err)
	}
	out, _ := ctx.Invoke(sem, "Available")
	if out[0].(int) != 0 {
		t.Fatalf("permits = %v, want 0", out)
	}
}

func TestEvent(t *testing.T) {
	cl := newCluster(t, 2, 2)
	ctx := cl.Node(0).Root()
	ev, _ := ctx.New(&Event{})
	var threads []core.Thread
	for i := 0; i < 3; i++ {
		th, _ := cl.Node(i%2).Root().StartThread(ev, "Wait")
		threads = append(threads, th)
	}
	time.Sleep(20 * time.Millisecond)
	for _, th := range threads {
		if done, _ := ctx.ThreadDone(th); done {
			t.Fatal("waiter passed unset event")
		}
	}
	ctx.Invoke(ev, "Set")
	for _, th := range threads {
		if _, err := ctx.Join(th); err != nil {
			t.Fatal(err)
		}
	}
	out, _ := ctx.Invoke(ev, "IsSet")
	if !out[0].(bool) {
		t.Fatal("IsSet after Set")
	}
	// Set is idempotent; a fired event migrates as fired.
	ctx.Invoke(ev, "Set")
	if err := ctx.MoveTo(ev, 1); err != nil {
		t.Fatal(err)
	}
	out, _ = cl.Node(1).Root().Invoke(ev, "IsSet")
	if !out[0].(bool) {
		t.Fatal("event lost its state in migration")
	}
}

func TestIdleSyncObjectsMigrateWithState(t *testing.T) {
	cl := newCluster(t, 2, 1)
	ctx := cl.Node(0).Root()
	sem, _ := ctx.New(NewSemaphore(7))
	bar, _ := ctx.New(NewBarrier(4))
	for _, ref := range []core.Ref{sem, bar} {
		if err := ctx.MoveTo(ref, 1); err != nil {
			t.Fatal(err)
		}
	}
	out, _ := ctx.Invoke(sem, "Available")
	if out[0].(int) != 7 {
		t.Fatalf("semaphore permits after move = %v", out)
	}
	// Barrier still requires 4 parties after the move.
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			c := cl.Node(n % 2).Root()
			if _, err := c.Invoke(bar, "Arrive"); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
}

func TestLockOnSlowNetworkStillCorrect(t *testing.T) {
	reg := core.NewRegistry()
	cl, err := core.NewCluster(core.ClusterConfig{
		Nodes: 2, ProcsPerNode: 2, Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	RegisterAll(cl)
	cl.Register(&Account{})
	_ = gaddr.NodeID(0)
	ctx := cl.Node(0).Root()
	lock, _ := ctx.New(&Lock{})
	acct, _ := ctx.New(&Account{})
	var threads []core.Thread
	for i := 0; i < 6; i++ {
		th, _ := cl.Node(i%2).Root().StartThread(acct, "Mangle", lock, 1)
		threads = append(threads, th)
	}
	for _, th := range threads {
		if _, err := ctx.Join(th); err != nil {
			t.Fatal(err)
		}
	}
	out, _ := ctx.Invoke(acct, "Read")
	if out[0].(int) != 6 {
		t.Fatalf("balance = %v", out)
	}
}

func TestCondVarWaitWithoutMonitorFails(t *testing.T) {
	cl := newCluster(t, 1, 2)
	ctx := cl.Node(0).Root()
	mon, _ := ctx.New(&Monitor{})
	cond, _ := ctx.New(NewCondVar(mon))
	// Wait without holding the monitor: the internal Exit fails and the
	// error propagates; the waiter must not be left registered.
	if _, err := ctx.Invoke(cond, "Wait"); err == nil {
		t.Fatal("Wait without monitor should fail")
	}
	// A later Signal has nobody to wake and the condvar is movable (no
	// phantom waiters).
	ctx.Invoke(cond, "Signal")
	if err := (&CondVar{}).CanMove(); err != nil {
		t.Fatalf("fresh condvar CanMove: %v", err)
	}
}

func TestSignalWithoutWaitersIsNoop(t *testing.T) {
	cl := newCluster(t, 1, 1)
	ctx := cl.Node(0).Root()
	mon, _ := ctx.New(&Monitor{})
	cond, _ := ctx.New(NewCondVar(mon))
	if _, err := ctx.Invoke(cond, "Signal"); err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.Invoke(cond, "Broadcast"); err != nil {
		t.Fatal(err)
	}
}

func TestLockFIFOWakeup(t *testing.T) {
	// Waiters are granted in arrival order (one wake per release).
	cl := newCluster(t, 1, 4)
	ctx := cl.Node(0).Root()
	lk, _ := ctx.New(&Lock{})
	acct, _ := ctx.New(&Account{})
	if _, err := ctx.Invoke(lk, "Acquire"); err != nil {
		t.Fatal(err)
	}
	var threads []core.Thread
	for i := 0; i < 3; i++ {
		th, _ := ctx.StartThread(acct, "Mangle", lk, 1)
		threads = append(threads, th)
		time.Sleep(10 * time.Millisecond)
	}
	if _, err := ctx.Invoke(lk, "Release"); err != nil {
		t.Fatal(err)
	}
	for _, th := range threads {
		if _, err := ctx.Join(th); err != nil {
			t.Fatal(err)
		}
	}
	out, _ := ctx.Invoke(acct, "Read")
	if out[0].(int) != 3 {
		t.Fatalf("balance = %v", out)
	}
}

// Waiter is a consumer for TestCondVarSignalWakesOne: under the monitor it
// waits on the condition once, then leaves.
type Waiter struct{}

func (w *Waiter) WaitOnce(ctx *core.Ctx, mon, cond core.Ref) error {
	if _, err := ctx.Invoke(mon, "Enter"); err != nil {
		return err
	}
	if _, err := ctx.Invoke(cond, "Wait"); err != nil {
		return err
	}
	_, err := ctx.Invoke(mon, "Exit")
	return err
}

// SignalThenWait signals the condition, then waits on it once as WaitOnce
// does.
func (w *Waiter) SignalThenWait(ctx *core.Ctx, mon, cond core.Ref) error {
	if _, err := ctx.Invoke(cond, "Signal"); err != nil {
		return err
	}
	return w.WaitOnce(ctx, mon, cond)
}

// Each Signal lets exactly one of the queued waiters through.
func TestCondVarSignalWakesOne(t *testing.T) {
	cl := newCluster(t, 1, 4)
	if err := cl.Register(&Waiter{}); err != nil {
		t.Fatal(err)
	}
	ctx := cl.Node(0).Root()
	mon, _ := ctx.New(&Monitor{})
	cond, _ := ctx.New(NewCondVar(mon))
	if err := ctx.Attach(cond, mon); err != nil {
		t.Fatal(err)
	}
	var threads []core.Thread
	for i := 0; i < 2; i++ {
		w, _ := ctx.New(&Waiter{})
		th, _ := ctx.StartThread(w, "WaitOnce", mon, cond)
		threads = append(threads, th)
	}
	awaitBlocked(t, cl, 0, 2)
	done := func() (n int) {
		for _, th := range threads {
			if d, _ := ctx.ThreadDone(th); d {
				n++
			}
		}
		return n
	}
	for want := 1; want <= 2; want++ {
		if _, err := ctx.Invoke(cond, "Signal"); err != nil {
			t.Fatal(err)
		}
		awaitFor(t, exitBound, "a signalled waiter to finish", func() bool { return done() >= want })
		if got := done(); got != want {
			t.Fatalf("%d signals let %d waiters through", want, got)
		}
	}
	for _, th := range threads {
		if _, err := ctx.Join(th); err != nil {
			t.Fatal(err)
		}
	}
}

// A Signal wakes a waiter queued before it, never one that arrives after it.
// On a one-slot node the signalled thread cannot run until the signaller
// blocks, so the signaller's own Wait comes first and must not take the
// wake-up.
func TestCondVarSignalKeepsOrder(t *testing.T) {
	cl := newCluster(t, 1, 1)
	if err := cl.Register(&Waiter{}); err != nil {
		t.Fatal(err)
	}
	ctx := cl.Node(0).Root()
	mon, _ := ctx.New(&Monitor{})
	cond, _ := ctx.New(NewCondVar(mon))
	if err := ctx.Attach(cond, mon); err != nil {
		t.Fatal(err)
	}
	w, _ := ctx.New(&Waiter{})
	first, _ := ctx.StartThread(w, "WaitOnce", mon, cond)
	awaitBlocked(t, cl, 0, 1)
	later, _ := ctx.StartThread(w, "SignalThenWait", mon, cond)
	awaitFor(t, exitBound, "the signalled waiter to finish", func() bool {
		d, _ := ctx.ThreadDone(first)
		return d
	})
	if d, _ := ctx.ThreadDone(later); d {
		t.Fatal("the waiter that arrived after the Signal was let through")
	}
	if _, err := ctx.Invoke(cond, "Signal"); err != nil {
		t.Fatal(err)
	}
	for _, th := range []core.Thread{first, later} {
		if _, err := ctx.Join(th); err != nil {
			t.Fatal(err)
		}
	}
}
