package core

import (
	"errors"
	"testing"
	"time"

	"amber/internal/gaddr"
)

// --- tracker unit tests ---

func TestHeatFoldDominantRemoteCallerMoves(t *testing.T) {
	h := newHeatTracker(time.Millisecond, 2.0, 4, 0)
	const self = gaddr.NodeID(0)
	a := gaddr.Addr(42)
	// Two intervals of heavy traffic from node 2 and a trickle of local use.
	for tick := 0; tick < 2; tick++ {
		for i := 0; i < 64; i++ {
			h.observe(a, 2)
		}
		h.observe(a, self)
		if mv := h.fold(self); tick == 0 && len(mv) != 0 {
			t.Fatalf("moved before settle: %+v", mv)
		} else if tick == 1 {
			if len(mv) != 1 || mv[0].obj != a || mv[0].dest != 2 {
				t.Fatalf("tick 1 moves = %+v, want move of %v to node 2", mv, a)
			}
		}
	}
}

func TestHeatFoldLocalUseDefendsResidency(t *testing.T) {
	h := newHeatTracker(time.Millisecond, 2.0, 4, 0)
	const self = gaddr.NodeID(0)
	a := gaddr.Addr(7)
	// Remote caller is hot but local use matches it: 64 vs 64 never clears
	// the 2x dominance bar, so the object stays.
	for tick := 0; tick < 5; tick++ {
		for i := 0; i < 64; i++ {
			h.observe(a, 3)
			h.observe(a, self)
		}
		if mv := h.fold(self); len(mv) != 0 {
			t.Fatalf("tick %d: moved despite local use: %+v", tick, mv)
		}
	}
}

func TestHeatFoldColdEntriesRetire(t *testing.T) {
	h := newHeatTracker(time.Millisecond, 2.0, 4, 0)
	const self = gaddr.NodeID(0)
	h.observe(gaddr.Addr(1), 1)
	h.observe(gaddr.Addr(2), 2)
	if got := h.tracked(); got != 2 {
		t.Fatalf("tracked = %d, want 2", got)
	}
	// With alpha 0.5 a one-shot count of 1 decays 0.5 → 0.25 → below the
	// cold threshold; both entries must be gone in a few idle folds.
	for i := 0; i < 4; i++ {
		h.fold(self)
	}
	if got := h.tracked(); got != 0 {
		t.Fatalf("tracked after idle folds = %d, want 0", got)
	}
}

func TestHeatFoldRespectsMoveCap(t *testing.T) {
	h := newHeatTracker(time.Millisecond, 2.0, 4, 0)
	const self = gaddr.NodeID(0)
	for o := 0; o < 3*heatMaxMovesPerTick; o++ {
		for i := 0; i < 64; i++ {
			h.observe(gaddr.Addr(o+1), 5)
		}
	}
	h.fold(self) // settle tick
	for o := 0; o < 3*heatMaxMovesPerTick; o++ {
		for i := 0; i < 64; i++ {
			h.observe(gaddr.Addr(o+1), 5)
		}
	}
	if mv := h.fold(self); len(mv) != heatMaxMovesPerTick {
		t.Fatalf("fold issued %d moves, cap is %d", len(mv), heatMaxMovesPerTick)
	}
}

func TestHeatObserveShedsWhenFull(t *testing.T) {
	h := newHeatTracker(time.Millisecond, 2.0, 4, heatShards) // one entry per shard
	// Fill one shard, then a second object hashing to the same shard sheds.
	a := gaddr.Addr(1)
	if !h.observe(a, 1) {
		t.Fatal("first observe shed")
	}
	s := h.shard(a)
	var b gaddr.Addr
	for c := gaddr.Addr(2); ; c++ {
		if h.shard(c) == s {
			b = c
			break
		}
	}
	if h.observe(b, 1) {
		t.Fatalf("observe on full shard did not shed")
	}
}

// --- node integration tests ---

func newHeatCluster(t testing.TB, cfg ClusterConfig) *Cluster {
	t.Helper()
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	registerFixtures(t, cl)
	return cl
}

func mustNew(t testing.TB, ctx *Ctx, v any) Ref {
	t.Helper()
	ref, err := ctx.New(v)
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

func TestHeatDisabledByDefault(t *testing.T) {
	cl := newHeatCluster(t, ClusterConfig{Nodes: 2, ProcsPerNode: 1})
	ctx := cl.Node(0).Root()
	ref := mustNew(t, ctx, &Counter{})
	for i := 0; i < 10; i++ {
		if _, err := cl.Node(1).Root().Invoke(ref, "Add", 1); err != nil {
			t.Fatal(err)
		}
	}
	if got := cl.Node(0).HeatTracked(); got != 0 {
		t.Fatalf("heat tracked with placement disabled = %d", got)
	}
	if got := cl.Node(0).Stats().Get("heat_observed").Load(); got != 0 {
		t.Fatalf("heat_observed = %d with placement disabled", got)
	}
}

func TestHeatMigratesHotObjectToDominantCaller(t *testing.T) {
	cl := newHeatCluster(t, ClusterConfig{
		Nodes: 3, ProcsPerNode: 2,
		HeatInterval: 10 * time.Millisecond,
		HeatMin:      4,
	})
	ctx := cl.Node(0).Root()
	ref := mustNew(t, ctx, &Counter{})

	// Hammer from node 1; nodes 0 and 2 stay quiet. Every remote execution
	// on node 0 is attributed to origin 1; within a few folds the tracker
	// must ship the object there.
	caller := cl.Node(1).Root()
	deadline := time.Now().Add(5 * time.Second)
	for {
		for i := 0; i < 50; i++ {
			if _, err := caller.Invoke(ref, "Add", 1); err != nil {
				t.Fatal(err)
			}
		}
		if at, err := caller.Locate(ref); err == nil && at == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("object never migrated to its dominant caller; at node %v, node0 heat stats: moves=%d failed=%d tracked=%d",
				locate(t, caller, ref),
				cl.Node(0).Stats().Get("heat_moves").Load(),
				cl.Node(0).Stats().Get("heat_move_failed").Load(),
				cl.Node(0).HeatTracked())
		}
	}
	// The object is resident at node 1 before node 0's MoveTo returns, and
	// the tick counts the move only after that. Ticks run one at a time, so
	// once the next tick has started the moving one has finished.
	ticks := cl.Node(0).Stats().Get("heat_ticks").Load()
	spinUntil(t, "the next heat tick", func() bool {
		return cl.Node(0).Stats().Get("heat_ticks").Load() > ticks
	}, nil)
	if got := cl.Node(0).Stats().Get("heat_moves").Load(); got < 1 {
		t.Fatalf("heat_moves = %d, want >= 1", got)
	}
	// The mover forgets the object after shipping it out.
	if got := cl.Node(0).HeatTracked(); got != 0 {
		t.Fatalf("origin still tracks %d objects after migration", got)
	}
	// And the object still works where it landed.
	out, err := caller.Invoke(ref, "Get")
	if err != nil {
		t.Fatal(err)
	}
	if out[0].(int) < 50 {
		t.Fatalf("counter lost updates across heat move: %v", out[0])
	}
}

func TestHeatImmutableObjectsNotTracked(t *testing.T) {
	cl := newHeatCluster(t, ClusterConfig{
		Nodes: 2, ProcsPerNode: 1,
		HeatInterval: 5 * time.Millisecond,
		HeatMin:      1,
	})
	ctx := cl.Node(0).Root()
	ref := mustNew(t, ctx, &Counter{N: 9})
	if err := ctx.SetImmutable(ref); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if _, err := cl.Node(1).Root().Invoke(ref, "Get"); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(30 * time.Millisecond)
	if got := cl.Node(0).Stats().Get("heat_moves").Load(); got != 0 {
		t.Fatalf("immutable object heat-moved %d times", got)
	}
}

func TestHeatUnmovableObjectBacksOff(t *testing.T) {
	cl := newHeatCluster(t, ClusterConfig{
		Nodes: 2, ProcsPerNode: 1,
		HeatInterval: 5 * time.Millisecond,
		HeatMin:      1,
	})
	ctx := cl.Node(0).Root()
	// Thread objects veto migration; a started-but-unjoined thread's object
	// is a convenient permanently pinned target.
	ref := mustNew(t, ctx, &Counter{})
	th, err := ctx.StartThread(ref, "Add", 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.Join(th); err != nil {
		t.Fatal(err)
	}
	remote := cl.Node(1).Root()
	deadline := time.Now().Add(3 * time.Second)
	for cl.Node(0).Stats().Get("heat_move_failed").Load() == 0 {
		for i := 0; i < 20; i++ {
			if _, err := remote.Invoke(th.Ref, "Done"); err != nil {
				t.Fatal(err)
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("pinned object never produced a failed heat move (moves=%d)",
				cl.Node(0).Stats().Get("heat_moves").Load())
		}
	}
	// The veto must hold: the thread object is still on node 0.
	if at, err := remote.Locate(th.Ref); err != nil || at != 0 {
		t.Fatalf("pinned thread object at %v (err %v), want node 0", at, err)
	}
}

func locate(t *testing.T, ctx *Ctx, ref Ref) gaddr.NodeID {
	t.Helper()
	at, err := ctx.Locate(ref)
	if err != nil && !errors.Is(err, ErrNoSuchObject) {
		t.Fatal(err)
	}
	return at
}
