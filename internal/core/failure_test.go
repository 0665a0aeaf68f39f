package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"amber/internal/transport"
)

// newFailureCluster builds a cluster with a seeded fault injector and
// timeouts short enough that injected failures classify quickly.
func newFailureCluster(t *testing.T, nodes int, seed int64) (*Cluster, *transport.Faults) {
	t.Helper()
	cl, err := NewCluster(ClusterConfig{
		Nodes: nodes, ProcsPerNode: 2,
		RPCTimeout:   150 * time.Millisecond,
		ProbeTimeout: 60 * time.Millisecond,
		FaultSeed:    seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	registerFixtures(t, cl)
	return cl, cl.Faults()
}

func TestCrashSurfacesNodeDown(t *testing.T) {
	cl, fl := newFailureCluster(t, 2, 7)
	ref, _ := cl.Node(1).Root().New(&Counter{})
	ctx := cl.Node(0).Root()
	if _, err := ctx.Invoke(ref, "Add", 1); err != nil {
		t.Fatal(err)
	}
	fl.Crash(1)
	_, err := ctx.Invoke(ref, "Add", 1)
	if !errors.Is(err, ErrNodeDown) {
		t.Fatalf("invoke into crashed node: %v, want ErrNodeDown", err)
	}
	if errors.Is(err, ErrTimeout) {
		t.Fatalf("error matches both sentinels: %v", err)
	}
	// In-process crash is network silence: memory survives, so restart
	// brings the object back untouched.
	fl.Restart(1)
	waitForRecovery(t, ctx, ref)
	out, err := ctx.Invoke(ref, "Get")
	if err != nil {
		t.Fatal(err)
	}
	if out[0].(int) != 2 {
		t.Fatalf("counter after restart = %v, want 2", out[0])
	}
}

// waitForRecovery retries Add until the down-mark expires and traffic flows
// again (the recheck window is 1s; invokes re-probe on their own timeouts).
func waitForRecovery(t *testing.T, ctx *Ctx, ref Ref) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := ctx.Invoke(ref, "Add", 1); err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("node never recovered after restart")
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func TestCrashDuringRemoteInvoke(t *testing.T) {
	cl, fl := newFailureCluster(t, 2, 7)
	ref, _ := cl.Node(1).Root().New(&Slow{})
	ctx := cl.Node(0).Root()
	// The invocation is mid-execution on node 1 when the node goes silent:
	// the reply can never come back.
	errCh := make(chan error, 1)
	go func() {
		_, err := ctx.Invoke(ref, "Work", 300)
		errCh <- err
	}()
	time.Sleep(50 * time.Millisecond)
	fl.Crash(1)
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrNodeDown) {
			t.Fatalf("crash mid-invoke: %v, want ErrNodeDown", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("invoke into crashed node hung")
	}
}

func TestCrashDuringMove(t *testing.T) {
	cl, fl := newFailureCluster(t, 2, 7)
	ctx := cl.Node(0).Root()
	ref, _ := ctx.New(&Counter{})
	ctx.Invoke(ref, "Add", 9)
	fl.Crash(1)
	err := ctx.MoveTo(ref, 1)
	if !errors.Is(err, ErrNodeDown) {
		t.Fatalf("move into crashed node: %v, want ErrNodeDown", err)
	}
	// The failed move reverted: the object is resident, consistent, usable.
	out, err := ctx.Invoke(ref, "Get")
	if err != nil || out[0].(int) != 9 {
		t.Fatalf("after failed move: %v, %v", out, err)
	}
	if loc, err := ctx.Locate(ref); err != nil || loc != 0 {
		t.Fatalf("Locate after failed move = %v, %v", loc, err)
	}
	fl.Restart(1)
	// After restart the same move goes through (retry until the down-mark
	// clears).
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := ctx.MoveTo(ref, 1); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("move never succeeded after restart")
		}
		time.Sleep(50 * time.Millisecond)
	}
	if loc, _ := ctx.Locate(ref); loc != 1 {
		t.Fatalf("Locate after healed move = %d", loc)
	}
}

func TestOrphanedThreadUnwindsAtJoin(t *testing.T) {
	cl, fl := newFailureCluster(t, 2, 7)
	ref, _ := cl.Node(1).Root().New(&Slow{})
	ctx := cl.Node(0).Root()
	th, err := ctx.StartThread(ref, "Work", 300)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	fl.Crash(1)
	done := make(chan error, 1)
	go func() {
		_, err := ctx.Join(th)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrOrphaned) {
			t.Fatalf("orphaned Join: %v, want ErrOrphaned", err)
		}
		if !errors.Is(err, ErrNodeDown) {
			t.Fatalf("orphan error should also carry its ErrNodeDown cause: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Join on an orphaned thread hung")
	}
	if cl.Node(0).Stats().Value("threads_orphaned") != 1 {
		t.Fatalf("threads_orphaned = %d", cl.Node(0).Stats().Value("threads_orphaned"))
	}
}

func TestRetryDeduplicatesLostReplies(t *testing.T) {
	cl, fl := newFailureCluster(t, 2, 7)
	ref, _ := cl.Node(1).Root().New(&Counter{})
	ctx := cl.Node(0).Root()
	// Sever the reply direction only: requests reach node 1 and execute, but
	// nothing (replies, pongs) comes back — the caller cannot tell this from
	// a crash. Heal mid-retry; the idempotency token ensures the operation
	// executed exactly once no matter how many attempts were sent.
	fl.Cut(1, 0)
	go func() {
		time.Sleep(400 * time.Millisecond)
		fl.Heal(1, 0)
	}()
	out, err := ctx.Invoke(ref, "Add", 1,
		WithDeadline(100*time.Millisecond),
		WithRetry(RetryPolicy{MaxAttempts: 30, Backoff: 25 * time.Millisecond, MaxBackoff: 100 * time.Millisecond}))
	if err != nil {
		t.Fatalf("retried invoke: %v", err)
	}
	if out[0].(int) != 1 {
		t.Fatalf("Add returned %v, want 1 (exactly-once)", out[0])
	}
	got, err := ctx.Invoke(ref, "Get")
	if err != nil || got[0].(int) != 1 {
		t.Fatalf("counter = %v, %v — retries re-executed the operation", got, err)
	}
	if cl.Node(1).RPCStats().Value("rpc_dedup_hits") < 1 {
		t.Fatalf("rpc_dedup_hits = %d, want >= 1",
			cl.Node(1).RPCStats().Value("rpc_dedup_hits"))
	}
	if cl.Node(0).RPCStats().Value("rpc_retries") < 1 {
		t.Fatalf("rpc_retries = %d, want >= 1", cl.Node(0).RPCStats().Value("rpc_retries"))
	}
}

func TestForwardingChainRepairAfterCrash(t *testing.T) {
	cl, fl := newFailureCluster(t, 3, 7)
	// Home on node 1, resident on node 2; node 0 learns a location hint
	// (the chain back-patch is a oneway, so wait for it to land).
	ref, _ := cl.Node(1).Root().New(&Counter{})
	if err := cl.Node(1).Root().MoveTo(ref, 2); err != nil {
		t.Fatal(err)
	}
	ctx := cl.Node(0).Root()
	if _, err := ctx.Invoke(ref, "Add", 1); err != nil {
		t.Fatal(err)
	}
	hintDeadline := time.Now().Add(5 * time.Second)
	for {
		if h, ok := cl.Node(0).space.HintGet(ref); ok && h.Node == 2 {
			break
		}
		if time.Now().After(hintDeadline) {
			t.Fatal("node 0 never learned the location hint")
		}
		time.Sleep(5 * time.Millisecond)
	}
	fl.Crash(2)
	// The hinted invoke discovers the crash the hard way: it ships to node 2,
	// times out, and the failed probe marks the peer down (the stale-route
	// retry then forgets the hint and tries home, which forwards into the
	// dead node — a typed error either way, never a hang).
	repairDeadline := time.Now().Add(10 * time.Second)
	for !cl.Node(0).Endpoint().PeerDown(2) {
		_, err := ctx.Invoke(ref, "Add", 1)
		if err == nil {
			t.Fatal("invoke into crashed node succeeded")
		}
		if !errors.Is(err, ErrNodeDown) && !errors.Is(err, ErrTimeout) {
			t.Fatalf("invoke during repair: %v, want ErrNodeDown or ErrTimeout", err)
		}
		if time.Now().After(repairDeadline) {
			t.Fatal("crashed peer never marked down at node 0")
		}
	}
	// Hint-cache repair: with the down-mark in place, an invoke that still
	// holds a hint into the dead node drops it up front (no send) and falls
	// back to home. Re-seed the hint to model the many other objects whose
	// cached locations also point at the dead incarnation.
	cl.Node(0).learnLocation(ref, 2, 0)
	ctx.Invoke(ref, "Add", 1)
	if got := cl.Node(0).Stats().Value("hints_dropped_down"); got < 1 {
		t.Fatalf("hints_dropped_down = %d, want >= 1", got)
	}
	if _, ok := cl.Node(0).space.HintGet(ref); ok {
		t.Fatal("stale hint into down peer survived")
	}
	// Forwarding-chain repair: home (node 1) learns its next hop is down from
	// its own watch probes and then refuses with ErrNodeDown instead of
	// forwarding threads into the dead node forever.
	for cl.Node(1).Stats().Value("forwards_refused_down") < 1 {
		_, err := ctx.Invoke(ref, "Add", 1)
		if err == nil {
			t.Fatal("invoke into crashed node succeeded")
		}
		if !errors.Is(err, ErrNodeDown) && !errors.Is(err, ErrTimeout) {
			t.Fatalf("invoke during repair: %v, want ErrNodeDown or ErrTimeout", err)
		}
		if time.Now().After(repairDeadline) {
			t.Fatalf("repair never converged: forwards_refused_down=%d",
				cl.Node(1).Stats().Value("forwards_refused_down"))
		}
		time.Sleep(20 * time.Millisecond)
	}
	// Converged: the refusal path answers ErrNodeDown without touching node 2.
	if _, err := ctx.Invoke(ref, "Add", 1); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("post-repair invoke: %v, want ErrNodeDown", err)
	}
	// Restart: the chain heals and the object (memory survived) answers.
	fl.Restart(2)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if out, err := ctx.Invoke(ref, "Get"); err == nil {
			if out[0].(int) != 1 {
				t.Fatalf("counter after heal = %v, want 1 (failed invokes must not have executed)", out[0])
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("forwarding chain never healed after restart")
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func TestGenerationChangeDropsHints(t *testing.T) {
	cl, fl := newFailureCluster(t, 3, 7)
	ref, _ := cl.Node(1).Root().New(&Counter{})
	if err := cl.Node(1).Root().MoveTo(ref, 2); err != nil {
		t.Fatal(err)
	}
	ctx := cl.Node(0).Root()
	if _, err := ctx.Invoke(ref, "Add", 1); err != nil {
		t.Fatal(err)
	}
	// Restart detection needs a prior sighting: generations ride in pongs, so
	// node 0 must have probed node 2 successfully once before the crash.
	cl.Node(0).Endpoint().WatchPeer(2)
	probeDeadline := time.Now().Add(5 * time.Second)
	for cl.Node(0).RPCStats().Value("rpc_probes_sent") == 0 {
		if time.Now().After(probeDeadline) {
			t.Fatal("pre-seed probe never sent")
		}
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond) // let the pong land and record the generation

	fl.Crash(2)
	// One hinted invoke discovers the crash and marks the peer down.
	if _, err := ctx.Invoke(ref, "Add", 1); err == nil {
		t.Fatal("invoke into crashed node succeeded")
	}
	downDeadline := time.Now().Add(5 * time.Second)
	for !cl.Node(0).Endpoint().PeerDown(2) {
		ctx.Invoke(ref, "Add", 1)
		if time.Now().After(downDeadline) {
			t.Fatal("crashed peer never marked down")
		}
		time.Sleep(20 * time.Millisecond)
	}

	// The node comes back as a new incarnation: the next pong node 0 sees
	// carries a changed generation, which fires the restart hook and drops
	// every hint pointing at the old incarnation. Drive detection with the
	// down-mark's own stale-recheck probes (no invokes — nothing may re-learn
	// the hint before we can observe the drop).
	cl.Node(2).Endpoint().SetGeneration(2)
	fl.Restart(2)
	deadline := time.Now().Add(10 * time.Second)
	for cl.Node(0).Stats().Value("peer_restarts_observed") == 0 {
		cl.Node(0).Endpoint().PeerDown(2) // stale mark -> async re-probe
		if time.Now().After(deadline) {
			t.Fatal("restart generation never observed")
		}
		time.Sleep(50 * time.Millisecond)
	}
	// The restart hook runs asynchronously; the hint to the old incarnation
	// must disappear.
	hintDeadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok := cl.Node(0).space.HintGet(ref); !ok {
			break
		}
		if time.Now().After(hintDeadline) {
			t.Fatal("hint to restarted peer never dropped")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Fresh routing (home chain, no stale hint) still reaches the object.
	waitForRecovery(t, ctx, ref)
}

// TestThreeNodeCrashMidWorkload is the acceptance scenario: a seeded 3-node
// cluster loses node 2 mid-workload and gets it back. Every in-flight invoke
// either surfaces ErrNodeDown or succeeds after the restart; nothing hangs;
// and the final counter values prove each successful operation executed
// exactly once (the dedup window absorbing every duplicate attempt).
func TestThreeNodeCrashMidWorkload(t *testing.T) {
	// The exactly-once audit must hold on every run. Whether a duplicate
	// attempt actually materialized is probabilistic, though: it needs a
	// retry to race the flapping reply path inside the fault window, and on
	// a slow or heavily loaded host every attempt can land after the heal.
	// So the hard invariants are checked each run, and only the "a duplicate
	// was demonstrably absorbed" side condition earns reruns.
	for attempt := 1; ; attempt++ {
		retries, dedup := runThreeNodeCrashWorkload(t)
		if t.Failed() || (retries >= 1 && dedup >= 1) {
			return
		}
		if attempt == 3 {
			t.Errorf("after %d runs: rpc_retries=%d rpc_dedup_hits=%d, want both >= 1 (no duplicate was ever absorbed)",
				attempt, retries, dedup)
			return
		}
		t.Logf("run %d absorbed no duplicate (retries=%d, dedup_hits=%d); rerunning", attempt, retries, dedup)
	}
}

func runThreeNodeCrashWorkload(t *testing.T) (retries, dedup int64) {
	cl, fl := newFailureCluster(t, 3, 1234)
	mk := func(node int) Ref {
		ref, err := cl.Node(node).Root().New(&Counter{})
		if err != nil {
			t.Fatal(err)
		}
		return ref
	}
	refs := []Ref{mk(1), mk(2)}

	const workers, perWorker = 4, 24
	var successes [2]atomic.Int64
	var failures [2]atomic.Int64
	var badErrors atomic.Int64
	var completed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := cl.Node(0).Root()
			for i := 0; i < perWorker; i++ {
				target := (w + i) % 2
				_, err := ctx.Invoke(refs[target], "Add", 1,
					WithDeadline(150*time.Millisecond),
					WithRetry(RetryPolicy{MaxAttempts: 10, Backoff: 25 * time.Millisecond, MaxBackoff: 100 * time.Millisecond}))
				switch {
				case err == nil:
					successes[target].Add(1)
				case errors.Is(err, ErrNodeDown), errors.Is(err, ErrTimeout):
					failures[target].Add(1)
				default:
					badErrors.Add(1)
					t.Errorf("invoke error outside the taxonomy: %v", err)
				}
				// Mid-workload (keyed on progress, not wall clock, so the faults
				// land while invokes are in flight no matter how fast the fabric
				// is): node 2 dies, and the reply path from node 1 flaps — lost
				// replies are what force dedup replays on a node that stays up.
				// The retry budget (~10 attempts over ~2s) comfortably outlives
				// the 250ms cut and the 600ms crash window.
				if completed.Add(1) == 16 {
					fl.Crash(2)
					fl.Cut(1, 0)
					time.AfterFunc(250*time.Millisecond, func() { fl.Heal(1, 0) })
					time.AfterFunc(600*time.Millisecond, func() { fl.Restart(2) })
				}
			}
		}(w)
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("workload hung — a thread never unwound")
	}
	if badErrors.Load() > 0 {
		t.Fatalf("%d errors escaped the ErrNodeDown/success taxonomy", badErrors.Load())
	}

	// Settle, then audit exactly-once: each counter must equal the number of
	// invokes that reported success. More would mean a duplicate attempt
	// executed twice (dedup failed); fewer would mean a success that never
	// ran.
	for target, ref := range refs {
		var got int
		deadline := time.Now().Add(10 * time.Second)
		for {
			out, err := cl.Node(0).Root().Invoke(ref, "Get",
				WithDeadline(time.Second),
				WithRetry(RetryPolicy{MaxAttempts: 10, Backoff: 50 * time.Millisecond}))
			if err == nil {
				got = out[0].(int)
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("counter %d unreachable after heal: %v", target, err)
			}
		}
		want := int(successes[target].Load())
		if got != want {
			t.Errorf("counter %d = %d, want %d (successes; %d ErrNodeDown) — not exactly-once",
				target, got, want, failures[target].Load())
		}
	}
	// The flapping reply path should have produced real duplicate
	// suppression — that is the counter the exactly-once audit above leans
	// on. The caller decides whether a zero here earns a rerun.
	dedup = cl.Node(1).RPCStats().Value("rpc_dedup_hits") + cl.Node(2).RPCStats().Value("rpc_dedup_hits")
	retries = cl.Node(0).RPCStats().Value("rpc_retries")
	t.Logf("workload: target1 ok=%d down=%d, target2 ok=%d down=%d, retries=%d, dedup_hits=%d",
		successes[0].Load(), failures[0].Load(), successes[1].Load(), failures[1].Load(),
		retries, dedup)
	return retries, dedup
}
