package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"amber/internal/gaddr"
	"amber/internal/rpc"
	"amber/internal/transport"
)

// LeasedCounter is the mutable-caching fixture: a counter whose Get is
// declared read-only, so marking an instance cacheable lets remote readers
// hold lease copies of it.
type LeasedCounter struct{ N int }

func (c *LeasedCounter) Add(n int) int { c.N += n; return c.N }
func (c *LeasedCounter) Get() int      { return c.N }

// AddAndFail mutates and then fails: a write whose reply is an error.
func (c *LeasedCounter) AddAndFail(n int) (int, error) {
	c.N += n
	return c.N, errAddAndFail
}

var errAddAndFail = errors.New("add and fail")

// AmberReadOnly declares Get non-mutating.
func (c *LeasedCounter) AmberReadOnly() []string { return []string{"Get"} }

// newLeaseCluster builds a cluster with reader leases enabled at the given
// TTL and the lease fixture registered.
func newLeaseCluster(t testing.TB, nodes int, ttl time.Duration) *Cluster {
	t.Helper()
	cl, err := NewCluster(ClusterConfig{Nodes: nodes, ProcsPerNode: 2, LeaseTTL: ttl})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	registerFixtures(t, cl)
	if err := cl.Register(&LeasedCounter{}); err != nil {
		t.Fatal(err)
	}
	return cl
}

// waitCounter waits out a node's queued installs (lease installs ride an
// asynchronous queue) and then checks that its counter has reached want.
func waitCounter(t *testing.T, n *Node, name string, want int64) {
	t.Helper()
	n.installBarrier()
	if got := n.Stats().Value(name); got < want {
		t.Fatalf("counter %s stuck at %d, want >= %d", name, got, want)
	}
}

// readUntilLeaseHit reads obj from node n until a read is served by a local
// lease copy, waiting out the installs each missed read queued (bounded;
// fails the test on timeout).
func readUntilLeaseHit(t *testing.T, cl *Cluster, n int, obj Ref, want int) {
	t.Helper()
	node := cl.Node(n)
	deadline := time.Now().Add(5 * time.Second)
	for {
		before := node.Stats().Value("lease_hits")
		out, err := node.Root().Invoke(obj, "Get")
		if err != nil {
			t.Fatalf("Get: %v", err)
		}
		if out[0].(int) != want {
			t.Fatalf("Get = %v, want %d", out[0], want)
		}
		if node.Stats().Value("lease_hits") > before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("no read was ever served by a local lease copy")
		}
		node.installBarrier()
	}
}

// TestLeaseGrantServesLocalReads is the warm-read property for mutable
// objects: after the first remote read pulls a lease, repeated reads are
// served locally (zero messages) while the owner records the grant.
func TestLeaseGrantServesLocalReads(t *testing.T) {
	cl := newLeaseCluster(t, 2, 5*time.Second)
	owner := cl.Node(1).Root()
	ref, err := owner.New(&LeasedCounter{N: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := owner.SetCacheable(ref); err != nil {
		t.Fatal(err)
	}
	readUntilLeaseHit(t, cl, 0, ref, 7)
	if g := cl.Node(1).Stats().Value("lease_grants"); g == 0 {
		t.Error("owner granted no lease")
	}
	if i := cl.Node(0).Stats().Value("lease_installs"); i == 0 {
		t.Error("reader installed no lease")
	}
	// The warm path must not touch the network: with the lease live, a read
	// burst adds zero shipped invokes.
	shipped := cl.Node(0).Stats().Value("invokes_shipped")
	for i := 0; i < 50; i++ {
		out, err := cl.Node(0).Root().Invoke(ref, "Get")
		if err != nil || out[0].(int) != 7 {
			t.Fatalf("warm Get = %v, %v", out, err)
		}
	}
	if after := cl.Node(0).Stats().Value("invokes_shipped"); after != shipped {
		t.Errorf("warm reads shipped %d messages, want 0", after-shipped)
	}
}

// TestLeaseWriteFenceInvalidates is the coherence half: once a write is
// acknowledged, no node may serve the old value, however recently it held a
// lease.
func TestLeaseWriteFenceInvalidates(t *testing.T) {
	cl := newLeaseCluster(t, 3, 5*time.Second)
	owner := cl.Node(2).Root()
	ref, err := owner.New(&LeasedCounter{})
	if err != nil {
		t.Fatal(err)
	}
	if err := owner.SetCacheable(ref); err != nil {
		t.Fatal(err)
	}
	for v := 1; v <= 5; v++ {
		// Both non-owner nodes pull leases of the current value.
		readUntilLeaseHit(t, cl, 0, ref, v-1)
		readUntilLeaseHit(t, cl, 1, ref, v-1)
		// Write from a rotating node: the ack must imply every lease copy is
		// fenced or revoked.
		out, err := cl.Node(v%3).Root().Invoke(ref, "Add", 1)
		if err != nil {
			t.Fatalf("Add: %v", err)
		}
		if out[0].(int) != v {
			t.Fatalf("Add = %v, want %d", out[0], v)
		}
		for n := 0; n < 3; n++ {
			got, err := cl.Node(n).Root().Invoke(ref, "Get")
			if err != nil {
				t.Fatalf("Get from node %d: %v", n, err)
			}
			if got[0].(int) != v {
				t.Fatalf("node %d read %v after acknowledged write of %d", n, got[0], v)
			}
		}
	}
	if f := cl.Node(2).Stats().Value("lease_invalidations_sent"); f == 0 {
		t.Error("writes invalidated no leases despite live readers")
	}
}

// TestLeaseExpiryAndRenewal: an expired lease copy degenerates into the
// forwarding path (lease_stale), and the re-granted lease re-arms the same
// copy in place (lease_renewals) when the object did not change.
func TestLeaseExpiryAndRenewal(t *testing.T) {
	cl := newLeaseCluster(t, 2, 50*time.Millisecond)
	owner := cl.Node(1).Root()
	ref, err := owner.New(&LeasedCounter{N: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := owner.SetCacheable(ref); err != nil {
		t.Fatal(err)
	}
	readUntilLeaseHit(t, cl, 0, ref, 3)
	time.Sleep(120 * time.Millisecond) // let the lease lapse
	out, err := cl.Node(0).Root().Invoke(ref, "Get")
	if err != nil || out[0].(int) != 3 {
		t.Fatalf("post-expiry Get = %v, %v", out, err)
	}
	if s := cl.Node(0).Stats().Value("lease_stale"); s == 0 {
		t.Error("expired lease did not forward")
	}
	waitCounter(t, cl.Node(0), "lease_renewals", 1)
}

// TestLeaseMutationPathsInvalidate audits the non-invoke mutation paths:
// MoveTo and Delete must both fence outstanding leases, and SetImmutable
// folds a leasable object back into the immutable-replica regime.
func TestLeaseMutationPathsInvalidate(t *testing.T) {
	cl := newLeaseCluster(t, 3, 5*time.Second)
	owner := cl.Node(1).Root()

	// MoveTo: the lease copy on node 0 must not survive the move as truth —
	// reads after the move still see the right value and the right location.
	ref, err := owner.New(&LeasedCounter{N: 11})
	if err != nil {
		t.Fatal(err)
	}
	if err := owner.SetCacheable(ref); err != nil {
		t.Fatal(err)
	}
	readUntilLeaseHit(t, cl, 0, ref, 11)
	if err := owner.MoveTo(ref, 2); err != nil {
		t.Fatal(err)
	}
	if loc, err := owner.Locate(ref); err != nil || loc != 2 {
		t.Fatalf("Locate after move = %v, %v", loc, err)
	}
	if out, err := cl.Node(0).Root().Invoke(ref, "Add", 1); err != nil || out[0].(int) != 12 {
		t.Fatalf("Add after move = %v, %v", out, err)
	}

	// Delete: reads from the ex-lease-holder must surface ErrNoSuchObject,
	// not the cached value — once any install it still had queued has been
	// dealt with, the delete's fence having outranked them all.
	if err := owner.Delete(ref); err != nil {
		t.Fatal(err)
	}
	cl.Node(0).installBarrier()
	if _, err := cl.Node(0).Root().Invoke(ref, "Get"); err == nil {
		t.Fatal("lease copy still serving a deleted object")
	} else if !errors.Is(err, ErrNoSuchObject) && !errors.Is(err, ErrDeleted) {
		t.Fatalf("Get after delete: %v", err)
	}

	// SetImmutable: the object leaves the lease regime; reads still work
	// everywhere (now via immutable replicas).
	ref2, err := owner.New(&LeasedCounter{N: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := owner.SetCacheable(ref2); err != nil {
		t.Fatal(err)
	}
	readUntilLeaseHit(t, cl, 0, ref2, 5)
	if err := owner.SetImmutable(ref2); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 3; n++ {
		if out, err := cl.Node(n).Root().Invoke(ref2, "Get"); err != nil || out[0].(int) != 5 {
			t.Fatalf("immutable Get from node %d = %v, %v", n, out, err)
		}
	}
}

// TestLeaseSetCacheableRejects pins the API contract: immutable objects
// cannot become cacheable, and marking twice is idempotent.
func TestLeaseSetCacheableRejects(t *testing.T) {
	cl := newLeaseCluster(t, 2, time.Second)
	ctx := cl.Node(0).Root()
	ref, err := ctx.New(&LeasedCounter{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx.SetCacheable(ref); err != nil {
		t.Fatal(err)
	}
	if err := ctx.SetCacheable(ref); err != nil {
		t.Fatalf("second SetCacheable: %v", err)
	}
	im, err := ctx.New(&LeasedCounter{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx.SetImmutable(im); err != nil {
		t.Fatal(err)
	}
	if err := ctx.SetCacheable(im); !errors.Is(err, ErrBadArgument) {
		t.Fatalf("SetCacheable on immutable = %v, want ErrBadArgument", err)
	}
}

// TestLeaseReadYourWritesProperty is the 10k-op coherence property: drive a
// random mix of leased reads, writes and moves over cacheable counters and
// check that no read — from any node, at any point — observes a value older
// than the last acknowledged write. The short TTL keeps expiry/renewal churn
// in the mix.
func TestLeaseReadYourWritesProperty(t *testing.T) {
	const (
		nodes = 3
		objs  = 4
		ops   = 10000
	)
	for _, seed := range []int64{1, 1989} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			cl := newLeaseCluster(t, nodes, 100*time.Millisecond)
			refs := make([]Ref, objs)
			model := make([]int, objs)
			for i := range refs {
				ctx := cl.Node(i % nodes).Root()
				ref, err := ctx.New(&LeasedCounter{})
				if err != nil {
					t.Fatal(err)
				}
				if err := ctx.SetCacheable(ref); err != nil {
					t.Fatal(err)
				}
				refs[i] = ref
			}
			ctx := cl.Node(0).Root()
			for i := 0; i < ops; i++ {
				o := rng.Intn(objs)
				n := rng.Intn(nodes)
				switch r := rng.Intn(100); {
				case r < 80: // leased read
					out, err := cl.Node(n).Root().Invoke(refs[o], "Get")
					if err != nil {
						t.Fatalf("op %d: Get: %v", i, err)
					}
					if got := out[0].(int); got != model[o] {
						t.Fatalf("op %d: node %d read %d for object %d, last acknowledged write was %d",
							i, n, got, o, model[o])
					}
				case r < 95: // write (possibly through a lease copy's forward)
					out, err := cl.Node(n).Root().Invoke(refs[o], "Add", 1)
					if err != nil {
						t.Fatalf("op %d: Add: %v", i, err)
					}
					model[o]++
					if got := out[0].(int); got != model[o] {
						t.Fatalf("op %d: Add returned %d, model %d", i, got, model[o])
					}
				default: // move the object under its leases
					if err := ctx.MoveTo(refs[o], gaddr.NodeID(n)); err != nil {
						t.Fatalf("op %d: MoveTo: %v", i, err)
					}
				}
			}
			hits := int64(0)
			for n := 0; n < nodes; n++ {
				hits += cl.Node(n).Stats().Value("lease_hits")
			}
			if hits == 0 {
				t.Error("property run exercised no lease hits — the read path never cached")
			}
		})
	}
}

// TestLeaseChurnMoveDeleteRace hammers lease grant/install/revoke against
// concurrent MoveTo and Delete churn; run under -race it is the data-race
// audit for the coherence layer. Readers tolerate exactly one error class:
// a dead reference error after a delete.
func TestLeaseChurnMoveDeleteRace(t *testing.T) {
	const (
		nodes   = 3
		objs    = 4
		readers = 8
	)
	cl := newLeaseCluster(t, nodes, 30*time.Millisecond)
	ctx := cl.Node(0).Root()
	refs := make([]Ref, objs)
	for i := range refs {
		ref, err := ctx.New(&LeasedCounter{})
		if err != nil {
			t.Fatal(err)
		}
		if err := ctx.SetCacheable(ref); err != nil {
			t.Fatal(err)
		}
		refs[i] = ref
	}
	stop := make(chan struct{})
	errc := make(chan error, readers)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				ref := refs[rng.Intn(objs)]
				n := rng.Intn(nodes)
				if _, err := cl.Node(n).Root().Invoke(ref, "Get"); err != nil &&
					!errors.Is(err, ErrNoSuchObject) && !errors.Is(err, ErrDeleted) {
					errc <- fmt.Errorf("reader %d: %w", r, err)
					return
				}
			}
		}(r)
	}
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 60; i++ {
		ref := refs[rng.Intn(objs)]
		switch rng.Intn(3) {
		case 0:
			if err := ctx.MoveTo(ref, gaddr.NodeID(rng.Intn(nodes))); err != nil &&
				!errors.Is(err, ErrNoSuchObject) && !errors.Is(err, ErrDeleted) {
				t.Fatalf("churn %d: MoveTo: %v", i, err)
			}
		case 1:
			if _, err := cl.Node(rng.Intn(nodes)).Root().Invoke(ref, "Add", 1); err != nil &&
				!errors.Is(err, ErrNoSuchObject) && !errors.Is(err, ErrDeleted) {
				t.Fatalf("churn %d: Add: %v", i, err)
			}
		case 2:
			if i > 40 { // deletes only near the end, so churn stays interesting
				if err := ctx.Delete(ref); err != nil &&
					!errors.Is(err, ErrNoSuchObject) && !errors.Is(err, ErrDeleted) {
					t.Fatalf("churn %d: Delete: %v", i, err)
				}
			}
		}
	}
	close(stop)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestLeasePurgeOnPeerDeath: when a peer is declared down, its lease copies
// and the grants recorded for it are dropped (the DropHintsTo fix extended to
// the coherence layer). In-process clusters cannot kill a node outright, so
// this drives purgePeer through the health hook's code path directly.
func TestLeasePurgeOnPeerDeath(t *testing.T) {
	cl := newLeaseCluster(t, 2, 5*time.Second)
	owner := cl.Node(1).Root()
	ref, err := owner.New(&LeasedCounter{N: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := owner.SetCacheable(ref); err != nil {
		t.Fatal(err)
	}
	readUntilLeaseHit(t, cl, 0, ref, 4)

	// Owner side: node 0 dies; its grant entry must go.
	cl.Node(1).purgePeer(0)
	if g := cl.Node(1).Stats().Value("lease_grants_dropped_down"); g == 0 {
		t.Error("grant table kept an entry for a dead peer")
	}
	// Holder side: node 1 (the grantor) dies; node 0's lease copy must go,
	// and the next read must not serve the orphaned copy locally.
	cl.Node(0).purgePeer(1)
	if p := cl.Node(0).Stats().Value("lease_purged_down"); p == 0 {
		t.Error("lease copy survived its grantor's death")
	}
	before := cl.Node(0).Stats().Value("lease_hits")
	if out, err := cl.Node(0).Root().Invoke(ref, "Get"); err != nil || out[0].(int) != 4 {
		t.Fatalf("Get after purge = %v, %v", out, err)
	}
	if cl.Node(0).Stats().Value("lease_hits") != before {
		t.Error("read after purge was served by the purged lease copy")
	}
}

// GatedCounter is a LeasedCounter whose HeldGet can be parked mid-call, so a
// test can keep a lease copy pinned by a reader for as long as it likes.
type GatedCounter struct{ N int }

// heldGate, when set, parks every HeldGet between entered and release.
var heldGate atomic.Pointer[struct{ entered, release chan struct{} }]

func (c *GatedCounter) Add(n int) int { c.N += n; return c.N }
func (c *GatedCounter) Get() int      { return c.N }
func (c *GatedCounter) HeldGet() int {
	if g := heldGate.Load(); g != nil {
		g.entered <- struct{}{}
		<-g.release
	}
	return c.N
}
func (c *GatedCounter) AmberReadOnly() []string { return []string{"Get", "HeldGet"} }

// TestLeaseRevokedWhilePinnedIsNotRenewed is read-your-writes for two threads
// sharing one cacheable counter from one node. Thread A is parked inside a
// leased read when thread B's write revokes the lease: the copy cannot be torn
// down under A, so it stays resident — dead, at the revoke's epoch, with
// pre-write state. B's next read is granted a fresh lease at that same epoch.
// Treating the grant as a renewal ("same epoch, same state") re-armed the
// stale copy, and B then read a value older than the one its own Add returned.
func TestLeaseRevokedWhilePinnedIsNotRenewed(t *testing.T) {
	cl := newLeaseCluster(t, 2, 30*time.Second)
	if err := cl.Register(&GatedCounter{}); err != nil {
		t.Fatal(err)
	}
	owner := cl.Node(1).Root()
	ref, err := owner.New(&GatedCounter{})
	if err != nil {
		t.Fatal(err)
	}
	if err := owner.SetCacheable(ref); err != nil {
		t.Fatal(err)
	}
	reader := cl.Node(0)
	a, b := reader.Root(), reader.Root()
	get := func(c *Ctx, method string) int {
		t.Helper()
		out, err := c.Invoke(ref, method)
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		return out[0].(int)
	}
	readUntilLeaseHit(t, cl, 0, ref, 0)

	// A parks inside the lease copy, pinning it.
	gate := &struct{ entered, release chan struct{} }{make(chan struct{}), make(chan struct{})}
	heldGate.Store(gate)
	defer heldGate.Store(nil)
	aSaw := make(chan int, 1)
	go func() { aSaw <- get(a, "HeldGet") }()
	<-gate.entered

	// B writes: the fence's revoke finds the copy pinned.
	out, err := b.Invoke(ref, "Add", 1)
	if err != nil {
		t.Fatal(err)
	}
	seen := out[0].(int)
	if seen != 1 {
		t.Fatalf("Add returned %d", seen)
	}
	if reader.Objects()["lease"] != 1 {
		t.Fatalf("the pinned copy should still be resident: %v", reader.Objects())
	}

	// B reads until the installer has dealt with the grant its read brought
	// back — refused (the copy is still pinned) or, before the fix, renewed —
	// and then once more. Every read must show B its own write.
	settled := func() int64 {
		s := reader.Stats()
		return s.Value("lease_installs_dropped") + s.Value("lease_renewals")
	}
	before := settled()
	for deadline := time.Now().Add(5 * time.Second); settled() == before; {
		if v := get(b, "Get"); v < seen {
			t.Fatalf("B read %d after its own Add returned %d", v, seen)
		}
		if time.Now().After(deadline) {
			t.Fatal("the grant was never offered to the installer")
		}
	}
	if n := reader.Stats().Value("lease_renewals"); n != 0 {
		t.Errorf("a revoked copy was renewed %d times", n)
	}
	for i := 0; i < 3; i++ {
		if v := get(b, "Get"); v < seen {
			t.Fatalf("B read %d after its own Add returned %d", v, seen)
		}
	}

	// A's read began before the write and may return either value; once it
	// leaves, the next grant replaces the dead copy and both threads read the
	// new value locally again.
	close(gate.release)
	if v := <-aSaw; v != 0 && v != 1 {
		t.Fatalf("A read %d", v)
	}
	heldGate.Store(nil)
	readUntilLeaseHit(t, cl, 0, ref, 1)
	if v := get(a, "Get"); v != 1 {
		t.Fatalf("A read %d after the lease was replaced", v)
	}
}

// TestChainStepsClassifiedLikeInvokes: the executing side has one step loop,
// so a chain's steps are classified read-or-write exactly as plain invokes
// are. A chain of read-only Gets on cacheable objects — declared by the class
// or by the call's WithReadOnly — runs on the shared side of the coherence
// lock and fences nothing; a chain containing a write fences once per write.
// (Chain steps used to ignore the per-call declaration and run as writes: a
// WithReadOnly chain of Gets bumped the epoch and revoked every lease.)
func TestChainStepsClassifiedLikeInvokes(t *testing.T) {
	cl := newLeaseCluster(t, 3, 30*time.Second)
	if err := cl.Register(&GatedCounter{}); err != nil {
		t.Fatal(err)
	}
	holder, reader, origin := cl.Node(2), cl.Node(1), cl.Node(0)
	var refs [2]Ref
	for i := range refs {
		ref, err := holder.Root().New(&GatedCounter{})
		if err != nil {
			t.Fatal(err)
		}
		if err := holder.Root().SetCacheable(ref); err != nil {
			t.Fatal(err)
		}
		// The reader node holds a live lease on each object: whatever the
		// holder fences arrives there as a revoke.
		readUntilLeaseHit(t, cl, 1, ref, 0)
		refs[i] = ref
	}
	a, b := refs[0], refs[1]
	expect := func(what string, epochA, epochB uint64, fences, revokes int64) {
		t.Helper()
		if got := holder.desc(a).Epoch(); got != epochA {
			t.Errorf("%s: epoch of a = %d, want %d", what, got, epochA)
		}
		if got := holder.desc(b).Epoch(); got != epochB {
			t.Errorf("%s: epoch of b = %d, want %d", what, got, epochB)
		}
		if got := holder.Stats().Value("lease_fences"); got != fences {
			t.Errorf("%s: lease_fences = %d, want %d", what, got, fences)
		}
		if got := reader.Stats().Value("lease_revokes"); got != revokes {
			t.Errorf("%s: lease_revokes at the reader = %d, want %d", what, got, revokes)
		}
	}
	ea, eb := holder.desc(a).Epoch(), holder.desc(b).Epoch()

	// A read parked inside a at the holder owns the shared side of a's
	// coherence lock: the chain completes beside it only if its Gets take the
	// shared side too.
	gate := &struct{ entered, release chan struct{} }{make(chan struct{}), make(chan struct{})}
	heldGate.Store(gate)
	defer heldGate.Store(nil)
	parked := make(chan error, 1)
	go func() {
		_, err := origin.Root().Invoke(a, "HeldGet")
		parked <- err
	}()
	<-gate.entered
	ctx := origin.Root()
	out, err := ctx.InvokeChain([]ChainStep{{Obj: a, Method: "Get"}, {Obj: b, Method: "Get"}},
		WithDeadline(5*time.Second))
	if err != nil {
		t.Fatalf("chain of Gets beside a parked reader: %v", err)
	}
	if out[0].(int) != 0 {
		t.Fatalf("chain of Gets = %v, want 0", out)
	}
	close(gate.release)
	if err := <-parked; err != nil {
		t.Fatalf("parked read: %v", err)
	}
	heldGate.Store(nil)
	expect("after a chain of reads", ea, eb, 0, 0)

	// One write, one read: exactly one fence, on the written object.
	if _, err := ctx.InvokeChain([]ChainStep{
		{Obj: a, Method: "Add", Args: []any{1}},
		{Obj: b, Method: "Get"},
	}); err != nil {
		t.Fatal(err)
	}
	expect("after a write and a read", ea+1, eb, 1, 1)

	// Two writes: each fences its own object once.
	out, err = ctx.InvokeChain([]ChainStep{
		{Obj: a, Method: "Add", Args: []any{1}},
		{Obj: b, Method: "Add", Args: []any{ChainPrev}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out[0].(int) != 2 {
		t.Fatalf("b.Add(a.Add(1)) = %v, want 2", out)
	}
	// a's leases were all revoked by the first write, so its second fence
	// finds nobody to tell; b's reaches the reader.
	expect("after two writes", ea+2, eb+1, 2, 2)

	// The per-call declaration reaches every step as well: Counter declares
	// nothing read-only, so only WithReadOnly keeps these Gets off the write
	// path.
	c, err := holder.Root().New(&Counter{})
	if err != nil {
		t.Fatal(err)
	}
	if err := holder.Root().SetCacheable(c); err != nil {
		t.Fatal(err)
	}
	installs := reader.Stats().Value("lease_installs")
	if _, err := reader.Root().Invoke(c, "Get", WithReadOnly()); err != nil {
		t.Fatal(err)
	}
	waitCounter(t, reader, "lease_installs", installs+1)
	ec := holder.desc(c).Epoch()
	if _, err := ctx.InvokeChain([]ChainStep{{Obj: c, Method: "Get"}, {Obj: c, Method: "Get"}},
		WithReadOnly()); err != nil {
		t.Fatal(err)
	}
	if got := holder.desc(c).Epoch(); got != ec {
		t.Errorf("a WithReadOnly chain bumped the epoch: %d, was %d", got, ec)
	}
	expect("after a WithReadOnly chain", ea+2, eb+1, 2, 2)
}

// TestLeaseRevokeRidesReply pins the write fence's shortcut: when the write's
// reply goes straight to a lease holder, that holder's revoke rides the reply
// (irFlagRevoked) instead of costing a message round of its own — and every
// path where the reply cannot carry it still runs the message round, while a
// reply that never lands leaves the holder fenced by the next write.
//
// Node 2 owns a cacheable counter (and a plain one, b, for the chain row);
// the rows name which nodes hold leases and how node 0 writes.
func TestLeaseRevokeRidesReply(t *testing.T) {
	type counts struct{ sent, onReply, fences int64 }
	for _, row := range []struct {
		name    string
		holders []int
		// write performs node 0's write and checks its outcome; the cluster
		// is quiet before it and the counter reads 0.
		write func(t *testing.T, cl *Cluster, a, b Ref)
		// want is the owner's counter movement across the write; revoked
		// lists the nodes whose lease the write revoked, either way.
		want    counts
		revoked []int
		value   int // the counter after the write
	}{
		{
			name: "the writer is the only holder", holders: []int{0},
			write:   writeOK,
			want:    counts{sent: 0, onReply: 1, fences: 0},
			revoked: []int{0}, value: 1,
		},
		{
			name: "the writer and another holder", holders: []int{0, 1},
			write:   writeOK,
			want:    counts{sent: 1, onReply: 1, fences: 1},
			revoked: []int{0, 1}, value: 1,
		},
		{
			name: "the method returns an error", holders: []int{0},
			write: func(t *testing.T, cl *Cluster, a, _ Ref) {
				if _, err := cl.Node(0).Root().Invoke(a, "AddAndFail", 1); err == nil {
					t.Fatal("AddAndFail succeeded")
				}
			},
			want:    counts{sent: 1, onReply: 0, fences: 1},
			revoked: []int{0}, value: 1,
		},
		{
			name: "the write is a mid-chain step", holders: []int{0},
			write: func(t *testing.T, cl *Cluster, a, b Ref) {
				if _, err := cl.Node(0).Root().InvokeChain([]ChainStep{
					{Obj: a, Method: "Add", Args: []any{1}},
					{Obj: b, Method: "Get"},
				}); err != nil {
					t.Fatal(err)
				}
			},
			want:    counts{sent: 1, onReply: 0, fences: 1},
			revoked: []int{0}, value: 1,
		},
		{
			// The first reply is lost; the retry reaches the owner's dedup
			// window, whose replay of the reply still carries the revoke.
			name: "WithRetry, the first reply lost", holders: []int{0},
			write: func(t *testing.T, cl *Cluster, a, _ Ref) {
				lost := dropFirstReply(cl, 2, 0)
				hits := cl.Node(2).RPCStats().Value("rpc_dedup_hits")
				out, err := cl.Node(0).Root().Invoke(a, "Add", 1, WithDeadline(100*time.Millisecond),
					WithRetry(RetryPolicy{MaxAttempts: 4, Backoff: 10 * time.Millisecond}))
				if err != nil {
					t.Fatalf("Add with retry: %v", err)
				}
				if out[0].(int) != 1 {
					t.Fatalf("Add = %v, want 1 (executed once)", out)
				}
				if lost.Load() != 1 {
					t.Fatalf("%d replies lost, want 1", lost.Load())
				}
				if got := cl.Node(2).RPCStats().Value("rpc_dedup_hits"); got == hits {
					t.Fatal("the retry was not answered by the dedup window")
				}
			},
			want:    counts{sent: 0, onReply: 1, fences: 0},
			revoked: []int{0}, value: 1,
		},
		{
			// The reply — and the revoke riding it — is lost, but the owner
			// stays up: the write fails with ErrTimeout, and node 0's lease
			// keeps serving. The owner kept node 0's grant entry, so the next
			// acknowledged write, node 1's, fences node 0 by message: node 0
			// must read that write's value afterwards.
			name: "the reply lost, the owner not down", holders: []int{0},
			write: func(t *testing.T, cl *Cluster, a, _ Ref) {
				lost := dropFirstReply(cl, 2, 0)
				_, err := cl.Node(0).Root().Invoke(a, "Add", 1, WithDeadline(100*time.Millisecond))
				if !errors.Is(err, rpc.ErrTimeout) {
					t.Fatalf("Add with its reply lost = %v, want rpc.ErrTimeout", err)
				}
				cl.Fabric().SetFault(nil)
				if lost.Load() != 1 {
					t.Fatalf("%d replies lost, want 1", lost.Load())
				}
				if cl.Node(0).Endpoint().PeerDown(2) {
					t.Fatal("the owner was marked down: this row needs a lost reply, not a dead peer")
				}
				if got := cl.Node(0).Stats().Value("lease_revokes"); got != 0 {
					t.Fatalf("node 0 applied %d revokes, want 0: the reply was to be lost", got)
				}
				sent := cl.Node(2).Stats().Value("lease_invalidations_sent")
				if out, err := cl.Node(1).Root().Invoke(a, "Add", 1); err != nil || out[0].(int) != 2 {
					t.Fatalf("node 1's Add = %v, %v; want 2", out, err)
				}
				if got := cl.Node(2).Stats().Value("lease_invalidations_sent") - sent; got != 1 {
					t.Errorf("node 1's write sent %d revokes, want 1 (to node 0)", got)
				}
			},
			want:    counts{sent: 1, onReply: 1, fences: 1},
			revoked: []int{0}, value: 2,
		},
	} {
		t.Run(row.name, func(t *testing.T) {
			cl := newLeaseCluster(t, 3, 30*time.Second)
			owner := cl.Node(2)
			a, err := owner.Root().New(&LeasedCounter{})
			if err != nil {
				t.Fatal(err)
			}
			if err := owner.Root().SetCacheable(a); err != nil {
				t.Fatal(err)
			}
			b, err := owner.Root().New(&LeasedCounter{})
			if err != nil {
				t.Fatal(err)
			}
			for _, h := range row.holders {
				readUntilLeaseHit(t, cl, h, a, 0)
			}
			stat := func(name string) int64 { return owner.Stats().Value(name) }
			before := counts{stat("lease_invalidations_sent"), stat("lease_revokes_on_reply"), stat("lease_fences")}
			row.write(t, cl, a, b)
			got := counts{stat("lease_invalidations_sent") - before.sent,
				stat("lease_revokes_on_reply") - before.onReply, stat("lease_fences") - before.fences}
			if got != row.want {
				t.Errorf("owner counts across the write = %+v, want %+v", got, row.want)
			}
			for n := 0; n < 2; n++ {
				want := int64(0)
				for _, r := range row.revoked {
					if r == n {
						want = 1
					}
				}
				if got := cl.Node(n).Stats().Value("lease_revokes"); got != want {
					t.Errorf("node %d applied %d revokes, want %d", n, got, want)
				}
			}
			// No read on a holder may return the old value now: not from
			// the writing thread, nor from another thread on its node.
			ctx := cl.Node(0).Root()
			readers := []*Ctx{ctx, ctx.Spawn()}
			for _, h := range row.holders[1:] {
				readers = append(readers, cl.Node(h).Root())
			}
			var wg sync.WaitGroup
			for i, c := range readers {
				wg.Add(1)
				go func(i int, c *Ctx) {
					defer wg.Done()
					out, err := c.Invoke(a, "Get")
					if err != nil {
						t.Errorf("reader %d on node %d: Get: %v", i, c.NodeID(), err)
					} else if out[0].(int) != row.value {
						t.Errorf("reader %d on node %d read %v after the write, want %d", i, c.NodeID(), out[0], row.value)
					}
				}(i, c)
			}
			wg.Wait()
		})
	}
}

// writeOK is the plain row's write: node 0 adds 1 and is acknowledged.
func writeOK(t *testing.T, cl *Cluster, a, _ Ref) {
	out, err := cl.Node(0).Root().Invoke(a, "Add", 1)
	if err != nil {
		t.Fatalf("Add: %v", err)
	}
	if out[0].(int) != 1 {
		t.Fatalf("Add = %v, want 1", out)
	}
}

// dropFirstReply arms the fabric to lose the first message from one node to
// another other than a health probe, and reports how many it lost.
func dropFirstReply(cl *Cluster, from, to gaddr.NodeID) *atomic.Int64 {
	var lost atomic.Int64
	cl.Fabric().SetFault(func(m transport.Message) bool {
		return m.From == from && m.To == to && !rpc.IsHealthProbe(m.Kind) && lost.CompareAndSwap(0, 1)
	})
	return &lost
}
