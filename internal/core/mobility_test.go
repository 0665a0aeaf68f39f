package core

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"amber/internal/gaddr"
	"amber/internal/rpc"
	"amber/internal/wire"
)

func TestMoveToBasic(t *testing.T) {
	cl := newTestCluster(t, 3, 1)
	ctx := cl.Node(0).Root()
	ref, _ := ctx.New(&Counter{})
	if _, err := ctx.Invoke(ref, "Add", 5); err != nil {
		t.Fatal(err)
	}
	if err := ctx.MoveTo(ref, 2); err != nil {
		t.Fatal(err)
	}
	loc, err := ctx.Locate(ref)
	if err != nil {
		t.Fatal(err)
	}
	if loc != 2 {
		t.Fatalf("Locate = %d, want 2", loc)
	}
	// State travelled with the object.
	out, err := ctx.Invoke(ref, "Get")
	if err != nil {
		t.Fatal(err)
	}
	if out[0].(int) != 5 {
		t.Fatalf("Get after move = %v", out)
	}
	// And it executes over there now.
	out, _ = ctx.Invoke(ref, "Where")
	if out[0].(gaddr.NodeID) != 2 {
		t.Fatalf("Where = %v", out)
	}
	// Source keeps a forwarding tombstone.
	if cl.Node(0).Objects()["forwarded"] != 1 {
		t.Fatal("source should hold a forwarding descriptor")
	}
}

func TestMoveToSelfNodeNoop(t *testing.T) {
	cl := newTestCluster(t, 2, 1)
	ctx := cl.Node(0).Root()
	ref, _ := ctx.New(&Counter{})
	before := cl.NetStats().Value("msgs_sent")
	if err := ctx.MoveTo(ref, 0); err != nil {
		t.Fatal(err)
	}
	if got := cl.NetStats().Value("msgs_sent"); got != before {
		t.Fatalf("move-to-self used the network: %d messages", got-before)
	}
}

func TestMoveChainAndHomeFallback(t *testing.T) {
	cl := newTestCluster(t, 4, 1)
	ctx := cl.Node(0).Root()
	ref, _ := ctx.New(&Counter{})
	// Hop the object 0 → 1 → 2 → 3, always instructing from node 0, which
	// learns each location in turn.
	for dest := gaddr.NodeID(1); dest <= 3; dest++ {
		if err := ctx.MoveTo(ref, dest); err != nil {
			t.Fatal(err)
		}
	}
	// A node that has never heard of the object resolves it via home
	// fallback (node 0) and the forwarding chain.
	ctx2 := cl.Node(2).Root()
	out, err := ctx2.Invoke(ref, "Where")
	if err != nil {
		t.Fatal(err)
	}
	if out[0].(gaddr.NodeID) != 3 {
		t.Fatalf("resolved to node %v, want 3", out[0])
	}
}

func TestForwardingChainCaching(t *testing.T) {
	cl := newTestCluster(t, 4, 1)
	ctx0 := cl.Node(0).Root()
	ref, _ := ctx0.New(&Counter{})
	// Build a chain: the object walks 0→1→2→3 under instruction from the
	// nodes themselves so intermediate hints get stale.
	for dest := gaddr.NodeID(1); dest <= 3; dest++ {
		mover := cl.Node(int(dest - 1)).Root()
		if err := mover.MoveTo(ref, dest); err != nil {
			t.Fatal(err)
		}
	}
	// First reference from node 1 follows the chain (1 knows "2", 2 knows
	// "3").
	ctx1 := cl.Node(1).Root()
	if _, err := ctx1.Invoke(ref, "Get"); err != nil {
		t.Fatal(err)
	}
	// Wait for the oneway cache updates to land.
	deadline := time.Now().Add(2 * time.Second)
	for {
		d := cl.Node(1).desc(ref)
		d.Lock()
		fwd := d.Fwd
		st := d.State()
		d.Unlock()
		if st == stateForwarded && fwd == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("chain cache not updated: state=%d fwd=%d", st, fwd)
		}
		time.Sleep(time.Millisecond)
	}
	// Second reference goes straight there: exactly one forward... zero
	// forwards — direct ship to node 3.
	before := cl.Node(1).Stats().Value("invokes_shipped")
	fwdBefore := cl.Node(2).Stats().Value("forwards")
	if _, err := ctx1.Invoke(ref, "Get"); err != nil {
		t.Fatal(err)
	}
	if got := cl.Node(1).Stats().Value("invokes_shipped"); got != before+1 {
		t.Fatalf("shipped = %d, want %d", got, before+1)
	}
	if got := cl.Node(2).Stats().Value("forwards"); got != fwdBefore {
		t.Fatalf("node 2 forwarded again (%d → %d): cache not used", fwdBefore, got)
	}
}

// TestHintNeverAimsBackward: a location hint obeys the same rule as a
// tombstone — only a strictly newer epoch moves it. Node 0 never hosts the
// object, learns (node 2, epoch 5) from a reply, and then receives a late
// chain update claiming (node 1, epoch 3). The late claim must not retarget
// the hint: the next invoke ships straight to node 2.
func TestHintNeverAimsBackward(t *testing.T) {
	cl := newTestCluster(t, 4, 1)
	ref, _ := cl.Node(1).Root().New(&Counter{}) // epoch 1 at node 1, its home
	// Each hop is instructed by the holder: 1→2 (epoch 2), 2→1 (3), 1→3 (4),
	// 3→2 (5).
	for _, hop := range [][2]int{{1, 2}, {2, 1}, {1, 3}, {3, 2}} {
		if err := cl.Node(hop[0]).Root().MoveTo(ref, gaddr.NodeID(hop[1])); err != nil {
			t.Fatal(err)
		}
	}
	if got := cl.Node(2).desc(ref).Epoch(); got != 5 {
		t.Fatalf("epoch at node 2 = %d, want 5", got)
	}
	ctx := cl.Node(0).Root()
	if _, err := ctx.Invoke(ref, "Add", 1); err != nil {
		t.Fatal(err)
	}
	if h, ok := cl.Node(0).space.HintGet(ref); !ok || h.Node != 2 {
		t.Fatalf("hint after the reply = %+v (%v), want node 2", h, ok)
	}
	// Node 1 held the object at epoch 3; its stale claim arrives now.
	n0 := cl.Node(0).Stats()
	landed := n0.Value("chain_updates_applied") + n0.Value("chain_updates_stale")
	cl.Node(1).sendChainUpdates(ref, 3, []gaddr.NodeID{0}, gaddr.NoNode)
	deadline := time.Now().Add(5 * time.Second)
	for n0.Value("chain_updates_applied")+n0.Value("chain_updates_stale") == landed {
		if time.Now().After(deadline) {
			t.Fatal("the chain update never landed at node 0")
		}
		runtime.Gosched()
	}
	shipped := n0.Value("invokes_shipped")
	forwards := int64(0)
	for i := 0; i < cl.NumNodes(); i++ {
		forwards += cl.Node(i).Stats().Value("forwards")
	}
	out, err := ctx.Invoke(ref, "Where")
	if err != nil {
		t.Fatal(err)
	}
	if out[0].(gaddr.NodeID) != 2 {
		t.Fatalf("executed on node %v, want 2", out[0])
	}
	if got := n0.Value("invokes_shipped") - shipped; got != 1 {
		t.Fatalf("invokes shipped = %d, want 1", got)
	}
	for i := 0; i < cl.NumNodes(); i++ {
		forwards -= cl.Node(i).Stats().Value("forwards")
	}
	if forwards != 0 {
		t.Fatalf("the invoke was forwarded %d times: the stale update aimed the hint backward", -forwards)
	}
}

func TestMoveWhileInvoking(t *testing.T) {
	// Threads hammer an object while it migrates back and forth; every
	// invocation must succeed and execute wherever the object is.
	cl := newTestCluster(t, 3, 2)
	ctx := cl.Node(0).Root()
	ref, _ := ctx.New(&Counter{})

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 64)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(node int) {
			defer wg.Done()
			c := cl.Node(node).Root()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := c.Invoke(ref, "Add", 1); err != nil {
					errs <- err
					return
				}
			}
		}(w % 3)
	}
	mover := cl.Node(0).Root()
	for i := 0; i < 10; i++ {
		dest := gaddr.NodeID(i % 3)
		if err := mover.MoveTo(ref, dest); err != nil {
			errs <- err
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	out, err := ctx.Invoke(ref, "Get")
	if err != nil {
		t.Fatal(err)
	}
	if out[0].(int) < 10 {
		t.Fatalf("counter made little progress: %v", out)
	}
}

func TestMoveDrainsBoundThreads(t *testing.T) {
	cl := newTestCluster(t, 2, 2)
	ctx := cl.Node(0).Root()
	ref, _ := ctx.New(&Slow{})
	th, _ := ctx.StartThread(ref, "Work", 100)
	time.Sleep(20 * time.Millisecond) // let the operation pin the object
	start := time.Now()
	if err := ctx.MoveTo(ref, 1); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 50*time.Millisecond {
		t.Fatalf("move completed in %v — did not wait for the bound thread", d)
	}
	if _, err := ctx.Join(th); err != nil {
		t.Fatal(err)
	}
	loc, _ := ctx.Locate(ref)
	if loc != 1 {
		t.Fatalf("Locate = %d", loc)
	}
}

func TestSelfMoveDeferred(t *testing.T) {
	cl := newTestCluster(t, 2, 1)
	ctx := cl.Node(0).Root()
	ref, _ := ctx.New(&SelfMover{})
	cl.Node(0).desc(ref).Payload.obj.Interface().(*SelfMover).Self = ref

	out, err := ctx.Invoke(ref, "Relocate", gaddr.NodeID(1))
	if err != nil {
		t.Fatal(err)
	}
	// The operation observed itself still on node 0 (shipment deferred).
	if out[0].(gaddr.NodeID) != 0 {
		t.Fatalf("operation found itself on %v", out[0])
	}
	// After the operation returned, the deferred shipment completes.
	deadline := time.Now().Add(3 * time.Second)
	for {
		loc, err := ctx.Locate(ref)
		if err != nil {
			t.Fatal(err)
		}
		if loc == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("deferred move never completed; object still on %d", loc)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if cl.Node(0).Stats().Value("moves_deferred") != 1 {
		t.Fatal("expected a deferred move")
	}
}

func TestMoveUnserializableRejected(t *testing.T) {
	cl := newTestCluster(t, 2, 1)
	ctx := cl.Node(0).Root()
	ref, _ := ctx.New(&Counter{})
	th, err := ctx.StartThread(ref, "Get")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.Join(th); err != nil {
		t.Fatal(err)
	}
	// Thread objects refuse to move.
	if err := ctx.MoveTo(th.Ref, 1); !errors.Is(err, ErrNotMovable) {
		if err == nil || !errorContains(err, "not movable") {
			t.Fatalf("moving a thread object: %v", err)
		}
	}
}

func errorContains(err error, sub string) bool {
	return err != nil && len(err.Error()) > 0 && (errors.Is(err, ErrNotMovable) || containsStr(err.Error(), sub))
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// --- attachment ---

func TestAttachMovesTogether(t *testing.T) {
	cl := newTestCluster(t, 3, 1)
	ctx := cl.Node(0).Root()
	a, _ := ctx.New(&Counter{})
	b, _ := ctx.New(&Counter{})
	if err := ctx.Attach(b, a); err != nil {
		t.Fatal(err)
	}
	if err := ctx.MoveTo(a, 2); err != nil {
		t.Fatal(err)
	}
	la, _ := ctx.Locate(a)
	lb, _ := ctx.Locate(b)
	if la != 2 || lb != 2 {
		t.Fatalf("locations after move: a=%d b=%d, want both 2", la, lb)
	}
	// Symmetric component: moving the attached child also brings the parent.
	if err := ctx.MoveTo(b, 1); err != nil {
		t.Fatal(err)
	}
	la, _ = ctx.Locate(a)
	lb, _ = ctx.Locate(b)
	if la != 1 || lb != 1 {
		t.Fatalf("after moving child: a=%d b=%d, want both 1", la, lb)
	}
}

func TestAttachAcrossNodesCoLocates(t *testing.T) {
	cl := newTestCluster(t, 3, 1)
	ctx := cl.Node(0).Root()
	child, _ := ctx.New(&Counter{})
	parent, _ := cl.Node(2).Root().New(&Counter{})
	if err := ctx.Attach(child, parent); err != nil {
		t.Fatal(err)
	}
	lc, _ := ctx.Locate(child)
	if lc != 2 {
		t.Fatalf("child at %d after attach, want 2 (parent's node)", lc)
	}
}

func TestAttachTransitiveComponent(t *testing.T) {
	cl := newTestCluster(t, 2, 1)
	ctx := cl.Node(0).Root()
	a, _ := ctx.New(&Counter{})
	b, _ := ctx.New(&Counter{})
	c, _ := ctx.New(&Counter{})
	if err := ctx.Attach(b, a); err != nil {
		t.Fatal(err)
	}
	if err := ctx.Attach(c, b); err != nil {
		t.Fatal(err)
	}
	if err := ctx.MoveTo(a, 1); err != nil {
		t.Fatal(err)
	}
	for _, ref := range []Ref{a, b, c} {
		loc, _ := ctx.Locate(ref)
		if loc != 1 {
			t.Fatalf("component member at %d, want 1", loc)
		}
	}
}

func TestUnattach(t *testing.T) {
	cl := newTestCluster(t, 2, 1)
	ctx := cl.Node(0).Root()
	a, _ := ctx.New(&Counter{})
	b, _ := ctx.New(&Counter{})
	if err := ctx.Attach(b, a); err != nil {
		t.Fatal(err)
	}
	if err := ctx.Unattach(b, a); err != nil {
		t.Fatal(err)
	}
	// Now they move independently.
	if err := ctx.MoveTo(a, 1); err != nil {
		t.Fatal(err)
	}
	la, _ := ctx.Locate(a)
	lb, _ := ctx.Locate(b)
	if la != 1 || lb != 0 {
		t.Fatalf("a=%d b=%d, want 1 and 0", la, lb)
	}
	if err := ctx.Unattach(b, a); !errors.Is(err, ErrNotAttached) {
		t.Fatalf("double unattach: %v", err)
	}
}

func TestAttachErrors(t *testing.T) {
	cl := newTestCluster(t, 2, 1)
	ctx := cl.Node(0).Root()
	a, _ := ctx.New(&Counter{})
	if err := ctx.Attach(a, a); !errors.Is(err, ErrBadArgument) {
		t.Fatalf("self attach: %v", err)
	}
	imm, _ := ctx.New(&Counter{})
	if err := ctx.SetImmutable(imm); err != nil {
		t.Fatal(err)
	}
	if err := ctx.Attach(imm, a); !errors.Is(err, ErrNotMovable) {
		t.Fatalf("attach immutable child: %v", err)
	}
	if err := ctx.Attach(a, imm); !errors.Is(err, ErrNotMovable) {
		t.Fatalf("attach to immutable parent: %v", err)
	}
}

// TestAttachFromInsideFailsWithoutMoving attaches an object to a remote peer
// from inside one of the object's own operations. The co-locating move would
// have to defer until the requesting thread unpins, so the attach fails —
// and it must fail with NO side effects: the rejected attach must not leave
// the component marked moving or ship it to the peer's node once the
// operation returns.
func TestAttachFromInsideFailsWithoutMoving(t *testing.T) {
	cl := newTestCluster(t, 2, 1)
	ctx := cl.Node(0).Root()
	obj, err := ctx.New(&SelfAttacher{})
	if err != nil {
		t.Fatal(err)
	}
	peer, err := cl.Node(1).Root().New(&Counter{})
	if err != nil {
		t.Fatal(err)
	}
	sa := cl.Node(0).desc(obj).Payload.obj.Interface().(*SelfAttacher)
	sa.Self, sa.Peer = obj, peer

	if _, err := ctx.Invoke(obj, "AttachSelf"); !errors.Is(err, ErrNotMovable) {
		t.Fatalf("attach from inside: %v", err)
	}
	// The operation has returned (its pin is released); a deferred shipment
	// scheduled by the failed attach would complete now. Nothing may move.
	time.Sleep(50 * time.Millisecond)
	if loc, err := ctx.Locate(obj); err != nil || loc != 0 {
		t.Fatalf("after failed attach: Locate = %d, %v; want node 0", loc, err)
	}
	d := cl.Node(0).desc(obj)
	d.Lock()
	st, al := d.State(), d.AttachLen()
	d.Unlock()
	if st != stateResident || al != 0 {
		t.Fatalf("after failed attach: state=%v attachments=%d, want resident and none", st, al)
	}
	if got := cl.Node(0).Stats().Value("moves_deferred"); got != 0 {
		t.Fatalf("failed attach scheduled a deferred move (moves_deferred=%d)", got)
	}
	// The object stays fully mobile.
	if err := ctx.MoveTo(obj, 1); err != nil {
		t.Fatal(err)
	}
}

// --- immutability and replication ---

func TestImmutableReplicationOnMove(t *testing.T) {
	cl := newTestCluster(t, 3, 1)
	ctx := cl.Node(0).Root()
	ref, _ := ctx.New(&Greeter{Prefix: "hi "})
	if err := ctx.SetImmutable(ref); err != nil {
		t.Fatal(err)
	}
	// MoveTo now copies: the original stays on node 0.
	if err := ctx.MoveTo(ref, 1); err != nil {
		t.Fatal(err)
	}
	if err := ctx.MoveTo(ref, 2); err != nil {
		t.Fatal(err)
	}
	loc, _ := ctx.Locate(ref)
	if loc != 0 {
		t.Fatalf("original should still answer locally, got %d", loc)
	}
	// Each node now serves invocations locally — no shipping.
	for i := 0; i < 3; i++ {
		n := cl.Node(i)
		before := n.Stats().Value("invokes_shipped")
		out, err := n.Root().Invoke(ref, "Greet", "x")
		if err != nil {
			t.Fatal(err)
		}
		if out[0].(string) != "hi x" {
			t.Fatalf("node %d replica answered %v", i, out)
		}
		if n.Stats().Value("invokes_shipped") != before {
			t.Fatalf("node %d shipped an invoke despite local replica", i)
		}
	}
	if cl.Node(1).Objects()["replica"] != 1 || cl.Node(2).Objects()["replica"] != 1 {
		t.Fatal("replicas not installed")
	}
}

func TestImmutableDeleteRejected(t *testing.T) {
	cl := newTestCluster(t, 1, 1)
	ctx := cl.Node(0).Root()
	ref, _ := ctx.New(&Counter{})
	ctx.SetImmutable(ref)
	if err := ctx.Delete(ref); !errors.Is(err, ErrImmutableDelete) {
		t.Fatalf("delete immutable: %v", err)
	}
}

func TestImmutableWriteDetection(t *testing.T) {
	reg := NewRegistry()
	cl, err := NewCluster(ClusterConfig{Nodes: 1, ProcsPerNode: 1, DebugImmutable: true, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.Register(&Counter{})
	ctx := cl.Node(0).Root()
	ref, _ := ctx.New(&Counter{})
	ctx.SetImmutable(ref)
	if _, err := ctx.Invoke(ref, "Get"); err != nil {
		t.Fatalf("read of immutable: %v", err)
	}
	if _, err := ctx.Invoke(ref, "Add", 1); !errors.Is(err, ErrImmutableViolated) {
		t.Fatalf("write of immutable: %v", err)
	}
}

func TestSetImmutableIdempotentAndRouted(t *testing.T) {
	cl := newTestCluster(t, 2, 1)
	ctx0 := cl.Node(0).Root()
	ref, _ := cl.Node(1).Root().New(&Greeter{Prefix: "p"})
	// SetImmutable routed cross-node.
	if err := ctx0.SetImmutable(ref); err != nil {
		t.Fatal(err)
	}
	if err := ctx0.SetImmutable(ref); err != nil {
		t.Fatalf("idempotent SetImmutable: %v", err)
	}
}

// --- delete ---

func TestDeleteAndTombstone(t *testing.T) {
	cl := newTestCluster(t, 2, 1)
	ctx := cl.Node(0).Root()
	ref, _ := ctx.New(&Counter{})
	if err := ctx.Delete(ref); err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.Invoke(ref, "Get"); !errors.Is(err, ErrDeleted) {
		t.Fatalf("invoke after delete: %v", err)
	}
	// From another node (routes via home, finds tombstone).
	if _, err := cl.Node(1).Root().Invoke(ref, "Get"); err == nil {
		t.Fatal("remote invoke after delete should fail")
	}
	if err := ctx.Delete(ref); !errors.Is(err, ErrDeleted) {
		t.Fatalf("double delete: %v", err)
	}
}

func TestDeleteFromInsideRejected(t *testing.T) {
	cl := newTestCluster(t, 1, 1)
	ctx := cl.Node(0).Root()
	ref, _ := ctx.New(&SelfMover{})
	cl.Node(0).desc(ref).Payload.obj.Interface().(*SelfMover).Self = ref
	// Reuse SelfMover: add an operation that deletes itself via a wrapper
	// class would be overkill; instead check the pin rule directly through
	// the control path.
	msg := routedMsg{Op: opDelete, Obj: ref, Thread: ThreadRec{ID: 1, Pins: []gaddr.Addr{ref}}}
	_, err := cl.Node(0).control(&Ctx{node: cl.Node(0), rec: ThreadRec{ID: 1, Pins: []gaddr.Addr{ref}}}, &msg, callOpts{})
	if !errors.Is(err, ErrNotMovable) {
		t.Fatalf("self delete: %v", err)
	}
	_ = ctx
}

// TestDeleteDrainsConcurrentInvokers hammers an object with lock-free
// fast-path invocations while deleting it. Delete must mark the descriptor
// non-resident *before* draining pins: draining while still resident lets a
// TryPin slip in between the count reaching zero and the flip to deleted, so
// clearing the payload races the pinned reader's lock-free payload access
// (caught by -race), and a stream of TryPins on a hot object can starve the
// drain into ErrMoveTimeout.
func TestDeleteDrainsConcurrentInvokers(t *testing.T) {
	cl := newTestCluster(t, 1, 4)
	ref, err := cl.Node(0).Root().New(&Counter{})
	if err != nil {
		t.Fatal(err)
	}

	const invokers = 8
	var wg sync.WaitGroup
	fail := make(chan error, invokers)
	for g := 0; g < invokers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := cl.Node(0).Root()
			for {
				if _, err := c.Invoke(ref, "Add", 1); err != nil {
					if !errors.Is(err, ErrDeleted) {
						fail <- err
					}
					return // the delete won; invokers stop
				}
			}
		}()
	}
	time.Sleep(5 * time.Millisecond) // let the fast-path traffic get hot
	if err := cl.Node(0).Root().Delete(ref); err != nil {
		t.Fatalf("delete under invoke pressure: %v", err)
	}
	wg.Wait()
	close(fail)
	for err := range fail {
		t.Fatal(err)
	}
	if _, err := cl.Node(0).Root().Invoke(ref, "Get"); !errors.Is(err, ErrDeleted) {
		t.Fatalf("invoke after delete: %v", err)
	}
}

func TestDeleteAttachedRejected(t *testing.T) {
	cl := newTestCluster(t, 1, 1)
	ctx := cl.Node(0).Root()
	a, _ := ctx.New(&Counter{})
	b, _ := ctx.New(&Counter{})
	ctx.Attach(b, a)
	if err := ctx.Delete(a); !errors.Is(err, ErrNotAttached) {
		t.Fatalf("delete attached: %v", err)
	}
}

// TestInstallBatchAllOrNothing feeds handleInstall a batch whose second
// snapshot cannot be decoded (unregistered type). The valid prefix must NOT
// be applied: the source node reacts to the error by reverting the whole
// component to resident, so a partially-applied batch would leave two nodes
// holding live resident copies of the prefix objects.
func TestInstallBatchAllOrNothing(t *testing.T) {
	cl := newTestCluster(t, 1, 1)
	n := cl.Node(0)
	ti, err := n.reg.lookupValue(&Counter{})
	if err != nil {
		t.Fatal(err)
	}
	addr := gaddr.Addr(0x7f000000)
	msg := installMsg{From: 0, Objects: []snapshot{
		{Addr: addr, TypeName: ti.name, Epoch: 3},
		{Addr: addr + 1, TypeName: "no/such.Type", Epoch: 3},
	}}
	body, err := wire.MarshalInto(&msg)
	if err != nil {
		t.Fatal(err)
	}
	n.handleInstall(&rpc.Ctx{Body: body}) // CallID 0: Reply is a no-op
	if d := n.desc(addr); d != nil && d.State() != stateAbsent {
		t.Fatalf("prefix of a failed install batch was applied (state %v)", d.State())
	}
}

// --- locate ---

func TestLocateRemote(t *testing.T) {
	cl := newTestCluster(t, 3, 1)
	ref, _ := cl.Node(2).Root().New(&Counter{})
	loc, err := cl.Node(0).Root().Locate(ref)
	if err != nil {
		t.Fatal(err)
	}
	if loc != 2 {
		t.Fatalf("Locate = %d, want 2", loc)
	}
}

func TestLocateNoSuchObject(t *testing.T) {
	cl := newTestCluster(t, 2, 1)
	ctx := cl.Node(0).Root()
	// An address in node 1's granted space that was never allocated:
	ref, _ := cl.Node(1).Root().New(&Counter{})
	bogus := ref + 0x8000
	if _, err := ctx.Locate(bogus); !errors.Is(err, ErrNoSuchObject) {
		t.Fatalf("bogus locate: %v", err)
	}
}

// --- concurrent move/invoke storm (ordering + chain integrity) ---

func TestMigrationStorm(t *testing.T) {
	if testing.Short() {
		t.Skip("storm test in -short mode")
	}
	cl := newTestCluster(t, 4, 2)
	ctx := cl.Node(0).Root()
	const objs = 8
	refs := make([]Ref, objs)
	for i := range refs {
		refs[i], _ = ctx.New(&Counter{})
	}
	var wg sync.WaitGroup
	errs := make(chan error, 256)
	stop := make(chan struct{})
	// Invokers on every node.
	for n := 0; n < 4; n++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			c := cl.Node(n).Root()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := c.Invoke(refs[i%objs], "Add", 1); err != nil {
					errs <- err
					return
				}
			}
		}(n)
	}
	// Movers shuffle objects around.
	for m := 0; m < 2; m++ {
		wg.Add(1)
		go func(m int) {
			defer wg.Done()
			c := cl.Node(m).Root()
			for i := 0; i < 25; i++ {
				ref := refs[(i+m)%objs]
				dest := gaddr.NodeID((i + m) % 4)
				if err := c.MoveTo(ref, dest); err != nil {
					errs <- err
					return
				}
			}
		}(m)
	}
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Every object is reachable and consistent afterwards.
	total := 0
	for _, ref := range refs {
		out, err := ctx.Invoke(ref, "Get")
		if err != nil {
			t.Fatal(err)
		}
		total += out[0].(int)
	}
	if total == 0 {
		t.Fatal("no progress during storm")
	}
}

// spinUntil returns once cond holds, failing the test if the operation that
// reports on op finishes first. It is a barrier on an event the runtime
// counts, not a pause: it yields the processor between looks and never
// sleeps.
func spinUntil(t *testing.T, what string, cond func() bool, op <-chan error) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		select {
		case err := <-op:
			t.Fatalf("returned (%v) before %s", err, what)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("never saw %s", what)
		}
		runtime.Gosched()
	}
}

// TestControlWaitsOutTransition holds a component move in its drain — a
// thread is parked inside one member — and issues each control operation on
// the other member, or naming it as the peer. Each must wait for the move to
// end and then complete with the result it would have had after the move.
// entries_blocked_on_move counts the wait: the entry protocol's for an
// operation on the member, awaitTransition's for an attach whose executor
// finds its peer mid-move (on an arrival's node and on the caller's own).
func TestControlWaitsOutTransition(t *testing.T) {
	locIs := func(t *testing.T, cl *Cluster, ref Ref, want gaddr.NodeID) {
		t.Helper()
		if got, err := cl.Node(2).Root().Locate(ref); err != nil || got != want {
			t.Errorf("Locate(%#x) = %d, %v; want %d", uint64(ref), got, err, want)
		}
	}
	member := func(cl *Cluster, ref Ref) *descriptor { return cl.Node(1).Space().Get(gaddr.Addr(ref)) }
	for _, tc := range []struct {
		name  string
		from  int // the issuing node
		op    func(c *Ctx, a, b, x Ref) error
		want  error // nil, or what errors.Is must find
		check func(t *testing.T, cl *Cluster, a, b, x Ref)
	}{
		{"Move", 2, func(c *Ctx, a, b, x Ref) error { return c.MoveTo(b, 2) }, nil,
			func(t *testing.T, cl *Cluster, a, b, x Ref) { locIs(t, cl, a, 2); locIs(t, cl, b, 2) }},
		{"Delete", 2, func(c *Ctx, a, b, x Ref) error { return c.Delete(b) }, ErrNotAttached,
			func(t *testing.T, cl *Cluster, a, b, x Ref) { locIs(t, cl, b, 1) }},
		{"SetImmutable", 2, func(c *Ctx, a, b, x Ref) error { return c.SetImmutable(b) }, ErrNotMovable,
			func(t *testing.T, cl *Cluster, a, b, x Ref) {
				if member(cl, b).Immutable() {
					t.Error("an attached object was marked immutable")
				}
			}},
		{"SetCacheable", 2, func(c *Ctx, a, b, x Ref) error { return c.SetCacheable(b) }, nil,
			func(t *testing.T, cl *Cluster, a, b, x Ref) {
				if !member(cl, b).Leasable() {
					t.Error("the moved object is not cacheable at its new node")
				}
			}},
		{"Attach", 2, func(c *Ctx, a, b, x Ref) error { return c.Attach(x, b) }, nil,
			func(t *testing.T, cl *Cluster, a, b, x Ref) { locIs(t, cl, x, 1) }},
		{"AttachFromHome", 0, func(c *Ctx, a, b, x Ref) error { return c.Attach(x, b) }, nil,
			func(t *testing.T, cl *Cluster, a, b, x Ref) { locIs(t, cl, x, 1) }},
		{"Unattach", 2, func(c *Ctx, a, b, x Ref) error { return c.Unattach(b, a) }, nil,
			func(t *testing.T, cl *Cluster, a, b, x Ref) {
				d := member(cl, b)
				d.Lock()
				defer d.Unlock()
				if d.HasAttach(gaddr.Addr(a)) {
					t.Error("the edge survived the unattach")
				}
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cl := newTestCluster(t, 3, 2)
			if err := cl.Register(&GatedCounter{}); err != nil {
				t.Fatal(err)
			}
			n0 := cl.Node(0)
			home := n0.Root()
			a, err := home.New(&GatedCounter{})
			if err != nil {
				t.Fatal(err)
			}
			b, _ := home.New(&Counter{})
			x, _ := home.New(&Counter{})
			if err := home.Attach(b, a); err != nil {
				t.Fatal(err)
			}

			// A thread parks inside a; the move of {a, b} marks both members
			// moving and then waits for that pin to drain.
			gate := &struct{ entered, release chan struct{} }{make(chan struct{}), make(chan struct{})}
			heldGate.Store(gate)
			defer heldGate.Store(nil)
			var once sync.Once
			release := func() { once.Do(func() { close(gate.release) }) }
			defer release() // a failed assertion must not leave the thread parked
			held := make(chan error, 1)
			go func() { _, err := n0.Root().Invoke(a, "HeldGet"); held <- err }()
			<-gate.entered
			moved := make(chan error, 1)
			go func() { moved <- n0.Root().MoveTo(a, 1) }()
			spinUntil(t, "the move marked its members", func() bool {
				return n0.Stats().Value("moves_started") > 0
			}, moved)

			// The operation blocks on b. The wait is counted under b's mutex
			// just before it sleeps on b's condition variable, so once the
			// count is up, taking that mutex means the waiter is parked.
			blocked := n0.Stats().Value("entries_blocked_on_move")
			done := make(chan error, 1)
			go func() { done <- tc.op(cl.Node(tc.from).Root(), a, b, x) }()
			spinUntil(t, "the operation waited on the move", func() bool {
				return n0.Stats().Value("entries_blocked_on_move") > blocked
			}, done)
			d := n0.Space().Get(gaddr.Addr(b))
			d.Lock()
			d.Unlock()
			select {
			case err := <-done:
				t.Fatalf("returned (%v) while the move was still draining", err)
			default:
			}

			release()
			if err := <-held; err != nil {
				t.Fatalf("held invoke: %v", err)
			}
			if err := <-moved; err != nil {
				t.Fatalf("move: %v", err)
			}
			err = <-done
			if tc.want == nil && err != nil || tc.want != nil && !errors.Is(err, tc.want) {
				t.Fatalf("%s = %v, want %v", tc.name, err, tc.want)
			}
			tc.check(t, cl, a, b, x)
		})
	}
}

// TestStaleAttachEdgeIsRoutingLost: an attach edge that names an object no
// longer resident here is a condition no wait clears — every component walk
// finds the member forwarded. The move gives up after its bounded reruns with
// one counted ErrRoutingLost, never with the internal retry, and the object
// stays where it was.
func TestStaleAttachEdgeIsRoutingLost(t *testing.T) {
	cl := newTestCluster(t, 2, 1)
	n0 := cl.Node(0)
	ctx := n0.Root()
	a, _ := ctx.New(&Counter{})
	b, _ := ctx.New(&Counter{})
	if err := ctx.MoveTo(b, 1); err != nil {
		t.Fatal(err)
	}
	if st := n0.Space().Get(gaddr.Addr(b)).State(); st != stateForwarded {
		t.Fatalf("b's descriptor on node 0 is %v, want forwarded", st)
	}
	d := n0.Space().Get(gaddr.Addr(a))
	d.Lock()
	d.AddAttach(gaddr.Addr(b))
	d.Unlock()

	before := n0.Stats().Value("routing_lost")
	err := ctx.MoveTo(a, 1)
	if !errors.Is(err, ErrRoutingLost) {
		t.Fatalf("MoveTo over a stale edge = %v, want ErrRoutingLost", err)
	}
	if errorContains(err, "internal:") {
		t.Errorf("internal error text reached the caller: %v", err)
	}
	if got := n0.Stats().Value("routing_lost") - before; got != 1 {
		t.Errorf("routing_lost rose by %d, want 1", got)
	}
	if out, err := ctx.Invoke(a, "Add", 1); err != nil || out[0].(int) != 1 {
		t.Errorf("a after the failed move: %v, %v", out, err)
	}
}
