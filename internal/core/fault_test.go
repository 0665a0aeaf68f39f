package core

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"amber/internal/rpc"
	"amber/internal/transport"
)

// newFaultyCluster builds a cluster with an RPC timeout so that injected
// message loss surfaces as errors rather than hangs.
func newFaultyCluster(t *testing.T, nodes int) *Cluster {
	t.Helper()
	reg := NewRegistry()
	cl, err := NewCluster(ClusterConfig{
		Nodes: nodes, ProcsPerNode: 2,
		RPCTimeout: 250 * time.Millisecond,
		Registry:   reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	registerFixtures(t, cl)
	return cl
}

func TestLostInvocationSurfacesTimeout(t *testing.T) {
	cl := newFaultyCluster(t, 2)
	ref, _ := cl.Node(1).Root().New(&Counter{})
	ctx := cl.Node(0).Root()
	// Sanity before the fault.
	if _, err := ctx.Invoke(ref, "Add", 1); err != nil {
		t.Fatal(err)
	}
	// Drop requests from node 0 to node 1 but let health probes through:
	// the node is alive, just lossy, so the caller gets ErrTimeout (not
	// ErrNodeDown) instead of hanging forever.
	cl.Fabric().SetFault(func(m transport.Message) bool {
		return m.From == 0 && m.To == 1 && !rpc.IsHealthProbe(m.Kind)
	})
	_, err := ctx.Invoke(ref, "Add", 1)
	if !errors.Is(err, rpc.ErrTimeout) {
		t.Fatalf("lost invoke returned %v, want rpc.ErrTimeout", err)
	}
	// Heal the network; the system keeps working (no retransmission layer,
	// faithfully to the original — callers retry).
	cl.Fabric().SetFault(nil)
	out, err := ctx.Invoke(ref, "Get")
	if err != nil {
		t.Fatal(err)
	}
	if out[0].(int) < 1 {
		t.Fatalf("Get after heal = %v", out)
	}
}

func TestLostReplySurfacesTimeout(t *testing.T) {
	cl := newFaultyCluster(t, 2)
	ref, _ := cl.Node(1).Root().New(&Counter{})
	ctx := cl.Node(0).Root()
	if _, err := ctx.Invoke(ref, "Get"); err != nil {
		t.Fatal(err)
	}
	// Drop only the reply direction: the operation executes on node 1, but
	// the caller still times out — at-most-once semantics are the
	// application's concern, exactly as with 1980s RPC.
	var executedBefore = cl.Node(1).Stats().Value("invokes_executed_for_remote")
	cl.Fabric().SetFault(func(m transport.Message) bool {
		return m.From == 1 && m.To == 0 && !rpc.IsHealthProbe(m.Kind)
	})
	_, err := ctx.Invoke(ref, "Add", 1)
	if !errors.Is(err, rpc.ErrTimeout) {
		t.Fatalf("lost reply returned %v", err)
	}
	cl.Fabric().SetFault(nil)
	deadline := time.Now().Add(2 * time.Second)
	for cl.Node(1).Stats().Value("invokes_executed_for_remote") == executedBefore {
		if time.Now().After(deadline) {
			t.Fatal("operation never executed")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestLostMoveLeavesObjectUsable(t *testing.T) {
	cl := newFaultyCluster(t, 2)
	ctx := cl.Node(0).Root()
	ref, _ := ctx.New(&Counter{})
	ctx.Invoke(ref, "Add", 7)
	// Drop the install message: the move must fail. Silence cannot tell a
	// lost install from a lost reply, so the move stays in doubt and the
	// source re-sends the install; once the network heals, the object lives
	// on the destination, still consistent.
	var dropped atomic.Int64
	cl.Fabric().SetFault(func(m transport.Message) bool {
		if m.From == 0 && m.To == 1 {
			dropped.Add(1)
			return true
		}
		return false
	})
	if err := ctx.MoveTo(ref, 1); err == nil {
		t.Fatal("move over a dead link should fail")
	}
	cl.Fabric().SetFault(nil)
	// The re-sent install landed and the object is fully usable.
	awaitSettled(t, cl, ref)
	out, err := ctx.Invoke(ref, "Get")
	if err != nil {
		t.Fatal(err)
	}
	if out[0].(int) != 7 {
		t.Fatalf("state after the move in doubt = %v", out)
	}
	loc, err := ctx.Locate(ref)
	if err != nil || loc != 1 {
		t.Fatalf("Locate after the move in doubt = %v, %v", loc, err)
	}
	// And it can still move once the network heals.
	if err := ctx.MoveTo(ref, 1); err != nil {
		t.Fatal(err)
	}
	if loc, _ = ctx.Locate(ref); loc != 1 {
		t.Fatalf("Locate after healed move = %d", loc)
	}
	checkOneResidence(t, cl, ref)
}
