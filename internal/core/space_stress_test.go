package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"amber/internal/gaddr"
)

// stressCluster builds a cluster with an explicit object-space shard count so
// the same workload can be aimed at a single stripe (maximum move-lock
// collision) or spread across many.
func stressCluster(t *testing.T, nodes, shards int) *Cluster {
	t.Helper()
	// The tiny replica cache keeps demand-pulled immutable replicas under
	// constant eviction pressure in the workloads that use them; workloads
	// with only mutable objects never touch it.
	cl, err := NewCluster(ClusterConfig{
		Nodes: nodes, ProcsPerNode: 4, SpaceShards: shards, ReplicaCache: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	registerFixtures(t, cl)
	return cl
}

// runInvokeMoveAttachStress hammers one set of objects with concurrent
// invokers, movers and attachers. Invocations must never fail — the routing
// layer is supposed to absorb any interleaving of moves — and every Add must
// land exactly once (checked against a shared tally at the end).
func runInvokeMoveAttachStress(t *testing.T, shards int) {
	const (
		nodes     = 3
		counters  = 4
		attachers = 2
		invokers  = 6
		movers    = 3
		opsPer    = 120
	)
	cl := stressCluster(t, nodes, shards)
	ctx := cl.Node(0).Root()

	refs := make([]Ref, counters)
	for i := range refs {
		r, err := ctx.New(&Counter{})
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = r
	}
	// A separate pair pool for the attachers so component churn (attach is a
	// co-locating move) overlaps the movers' traffic without the test having
	// to model merged components.
	pairs := make([]Ref, 2*attachers)
	for i := range pairs {
		r, err := ctx.New(&Counter{})
		if err != nil {
			t.Fatal(err)
		}
		pairs[i] = r
	}

	var adds [counters]atomic.Int64
	var wg sync.WaitGroup
	fail := make(chan error, invokers+movers+attachers)

	for g := 0; g < invokers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) + 1))
			for i := 0; i < opsPer; i++ {
				k := rng.Intn(counters)
				c := cl.Node(rng.Intn(nodes)).Root()
				if _, err := c.Invoke(refs[k], "Add", 1); err != nil {
					fail <- fmt.Errorf("invoker %d op %d: %v", g, i, err)
					return
				}
				adds[k].Add(1)
			}
		}(g)
	}
	for g := 0; g < movers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) + 100))
			for i := 0; i < opsPer; i++ {
				ref := refs[rng.Intn(counters)]
				if rng.Intn(4) == 0 {
					ref = pairs[rng.Intn(len(pairs))]
				}
				dest := gaddr.NodeID(rng.Intn(nodes))
				if err := cl.Node(rng.Intn(nodes)).Root().MoveTo(ref, dest); err != nil {
					fail <- fmt.Errorf("mover %d op %d: %v", g, i, err)
					return
				}
			}
		}(g)
	}
	for g := 0; g < attachers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			a, b := pairs[2*g], pairs[2*g+1]
			c := cl.Node(g % nodes).Root()
			for i := 0; i < opsPer/4; i++ {
				if err := c.Attach(a, b); err != nil {
					// Attach chases a component that the movers keep
					// relocating; bounded chasing can legitimately give up.
					if errors.Is(err, ErrRoutingLost) {
						continue
					}
					fail <- fmt.Errorf("attacher %d op %d: attach: %v", g, i, err)
					return
				}
				if err := c.Unattach(a, b); err != nil {
					fail <- fmt.Errorf("attacher %d op %d: unattach: %v", g, i, err)
					return
				}
			}
		}(g)
	}

	wg.Wait()
	close(fail)
	for err := range fail {
		t.Fatal(err)
	}

	// Every Add landed exactly once, observable from any node.
	for k, ref := range refs {
		out, err := ctx.Invoke(ref, "Get")
		if err != nil {
			t.Fatalf("final Get(%d): %v", k, err)
		}
		if got := out[0].(int); int64(got) != adds[k].Load() {
			t.Errorf("counter %d = %d, want %d", k, got, adds[k].Load())
		}
	}
}

// TestStressInvokeMoveAttachOneShard drives the full mixed workload with the
// space collapsed to a single stripe: every move serializes on one lock and
// every hint shares one cache, the worst case for the striping design.
func TestStressInvokeMoveAttachOneShard(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	runInvokeMoveAttachStress(t, 1)
}

// TestStressInvokeMoveAttachManyShards runs the same workload across the
// default stripe count, so concurrent operations mostly touch different
// shards and the multi-shard lock ordering paths get exercised.
func TestStressInvokeMoveAttachManyShards(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	runInvokeMoveAttachStress(t, 64)
}

// TestPinStateInvariants interleaves ~10k random operations with periodic
// whole-cluster audits of the descriptor invariants the packed-word protocol
// promises:
//
//   - at quiescence no descriptor is pinned or mid-move;
//   - a mutable object is resident on exactly one node (payload present
//     there, absent everywhere else);
//   - every forwarding tombstone reaches the residence within MaxHops, and
//     never carries an epoch newer than the residence it points to;
//   - attachment edges are symmetric and attached objects co-resident;
//   - a replica is only ever a resident immutable descriptor with a payload —
//     the replica bit never survives onto a moving, forwarded or deleted
//     descriptor — and immutable objects keep exactly one non-replica
//     residence (the source) no matter how many replicas install and evict.
//
// The op mix includes invokes on immutable objects from random nodes, so
// demand-pulled replicas install, serve hits and get evicted (cache cap 2)
// concurrently with the mutable move/attach churn.
func TestPinStateInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	const (
		nodes      = 3
		workers    = 8
		batches    = 10
		perOp      = 125 // workers*batches*perOp = 10_000 ops
		objects    = 6
		immutables = 4
	)
	cl := stressCluster(t, nodes, 4)
	ctx := cl.Node(0).Root()

	refs := make([]Ref, objects)
	for i := range refs {
		r, err := ctx.New(&Counter{})
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = r
	}
	irefs := make([]Ref, immutables)
	ctx1 := cl.Node(1).Root()
	for i := range irefs {
		r, err := ctx1.New(&Greeter{Prefix: fmt.Sprintf("i%d:", i)})
		if err != nil {
			t.Fatal(err)
		}
		if err := ctx1.SetImmutable(r); err != nil {
			t.Fatal(err)
		}
		irefs[i] = r
	}

	audit := func(batch int) {
		t.Helper()
		type residence struct {
			node  gaddr.NodeID
			epoch uint64
		}
		res := map[Ref]residence{}
		// First pass: find residences; check quiescence invariants per
		// descriptor.
		for n := 0; n < nodes; n++ {
			node := cl.Node(n)
			node.Space().Range(func(a gaddr.Addr, d *descriptor) bool {
				d.Lock()
				defer d.Unlock()
				if p := d.Pins(); p != 0 {
					t.Errorf("batch %d: node %d %#x: %d pins at quiescence", batch, n, uint64(a), p)
				}
				switch st := d.State(); st {
				case stateMoving:
					t.Errorf("batch %d: node %d %#x: still moving at quiescence", batch, n, uint64(a))
				case stateResident:
					if !d.Payload.obj.IsValid() {
						t.Errorf("batch %d: node %d %#x: resident without payload", batch, n, uint64(a))
					}
					if d.Copy() {
						// A replica is an extra residence of an immutable
						// object; it must carry the immutable bit and never
						// be mid-move (it is torn down, not migrated).
						if !d.Immutable() {
							t.Errorf("batch %d: node %d %#x: replica without immutable bit", batch, n, uint64(a))
						}
						if d.Mv != nil {
							t.Errorf("batch %d: node %d %#x: replica with pending move", batch, n, uint64(a))
						}
						return true
					}
					if prev, dup := res[Ref(a)]; dup {
						t.Errorf("batch %d: %#x resident on both node %d and %d", batch, uint64(a), prev.node, n)
					}
					res[Ref(a)] = residence{gaddr.NodeID(n), d.Epoch()}
				case stateAbsent, stateForwarded, stateDeleted:
					if d.Payload.obj.IsValid() {
						t.Errorf("batch %d: node %d %#x: payload retained in state %v", batch, n, uint64(a), st)
					}
					if d.Copy() {
						t.Errorf("batch %d: node %d %#x: replica bit carried into state %v", batch, n, uint64(a), st)
					}
				default:
					t.Errorf("batch %d: node %d %#x: invalid state %v", batch, n, uint64(a), st)
				}
				return true
			})
		}
		// Second pass: tombstones must chase to the residence with epochs no
		// newer than the residence's, and attach edges must be symmetric.
		for n := 0; n < nodes; n++ {
			node := cl.Node(n)
			node.Space().Range(func(a gaddr.Addr, d *descriptor) bool {
				d.Lock()
				st, fwd, ep := d.State(), d.Fwd, d.Epoch()
				peers := d.AttachPeers()
				d.Unlock()
				r, ok := res[Ref(a)]
				if st == stateForwarded {
					if !ok {
						// The object may be deleted cluster-wide; tombstones
						// to nowhere only matter if something is resident.
						return true
					}
					if ep > r.epoch {
						t.Errorf("batch %d: node %d %#x: tombstone epoch %d > residence epoch %d",
							batch, n, uint64(a), ep, r.epoch)
					}
					// Walk the chain from here; it must reach the residence.
					cur, hops := fwd, 0
					for ; hops < nodes+2; hops++ {
						if cur == r.node {
							break
						}
						next := cl.Node(int(cur)).Space().Get(a)
						if next == nil {
							t.Errorf("batch %d: chain for %#x fell off at node %d", batch, uint64(a), cur)
							return true
						}
						next.Lock()
						ns, nf := next.State(), next.Fwd
						next.Unlock()
						if ns != stateForwarded {
							break
						}
						cur = nf
					}
					if cur != r.node {
						t.Errorf("batch %d: tombstone chain for %#x from node %d never reached residence node %d",
							batch, uint64(a), n, r.node)
					}
				}
				if st == stateResident {
					for _, p := range peers {
						pr, ok := res[Ref(p)]
						if !ok {
							t.Errorf("batch %d: %#x attached to non-resident %#x", batch, uint64(a), uint64(p))
							continue
						}
						if pr.node != r.node {
							t.Errorf("batch %d: attached pair %#x(node %d) / %#x(node %d) not co-resident",
								batch, uint64(a), r.node, uint64(p), pr.node)
						}
						pd := cl.Node(int(pr.node)).Space().Get(p)
						pd.Lock()
						sym := pd.HasAttach(a)
						pd.Unlock()
						if !sym {
							t.Errorf("batch %d: attach edge %#x→%#x not symmetric", batch, uint64(a), uint64(p))
						}
					}
				}
				return true
			})
		}
		// Every object created must still be resident somewhere; for the
		// immutable set that residence is the one non-replica copy (the
		// source), which replication must never have disturbed.
		for _, ref := range refs {
			if _, ok := res[ref]; !ok {
				t.Errorf("batch %d: object %#x has no residence", batch, uint64(ref))
			}
		}
		for _, ref := range irefs {
			if r, ok := res[ref]; !ok {
				t.Errorf("batch %d: immutable %#x has no source residence", batch, uint64(ref))
			} else if r.node != cl.Node(1).ID() {
				t.Errorf("batch %d: immutable %#x source drifted to node %d", batch, uint64(ref), r.node)
			}
		}
	}

	for batch := 0; batch < batches; batch++ {
		var wg sync.WaitGroup
		fail := make(chan error, workers)
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(batch*workers+g) + 1))
				for i := 0; i < perOp; i++ {
					ref := refs[rng.Intn(objects)]
					c := cl.Node(rng.Intn(nodes)).Root()
					var err error
					switch rng.Intn(8) {
					case 0, 1, 2:
						_, err = c.Invoke(ref, "Add", 1)
					case 3, 4:
						err = c.MoveTo(ref, gaddr.NodeID(rng.Intn(nodes)))
					case 6, 7:
						// Immutable traffic: first touch from a node pulls a
						// replica; the tiny cache keeps evicting them, so the
						// same refs flap install→hit→evict→re-chase all run.
						k := rng.Intn(immutables)
						var out []any
						if out, err = c.Invoke(irefs[k], "Greet", "s"); err == nil {
							if want := fmt.Sprintf("i%d:s", k); out[0].(string) != want {
								err = fmt.Errorf("immutable invoke %d = %q, want %q", k, out[0], want)
							}
						}
					case 5:
						peer := refs[rng.Intn(objects)]
						if peer == ref {
							continue
						}
						if rng.Intn(2) == 0 {
							err = c.Attach(ref, peer)
							if errors.Is(err, ErrRoutingLost) {
								err = nil // bounded chasing gave up; fine
							}
						} else {
							err = c.Unattach(ref, peer)
							if errors.Is(err, ErrNotAttached) {
								err = nil // racing unattachers; fine
							}
						}
					}
					if err != nil {
						var dump string
						for dn := 0; dn < nodes; dn++ {
							d := cl.Node(dn).Space().Get(gaddr.Addr(ref))
							if d == nil {
								dump += fmt.Sprintf("[node %d: nil] ", dn)
								continue
							}
							d.Lock()
							dump += fmt.Sprintf("[node %d: %v fwd=%d epoch=%d] ", dn, d.State(), d.Fwd, d.Epoch())
							d.Unlock()
						}
						fail <- fmt.Errorf("batch %d worker %d op %d: %v\n  obj state: %s", batch, g, i, err, dump)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		close(fail)
		for err := range fail {
			t.Fatal(err)
		}
		audit(batch)
		if t.Failed() {
			t.Fatalf("invariant violations after batch %d", batch)
		}
	}
}
