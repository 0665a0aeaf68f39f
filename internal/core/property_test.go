package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"amber/internal/gaddr"
)

// TestRandomOpSequenceAgainstModel drives a cluster with a random sequence
// of create/invoke/move/locate/attach/unattach/immutable operations and
// checks every observable against a flat reference model. This is the
// runtime's "model checking" test: whatever the placement history, an
// object's state and reachability must match the model exactly.
func TestRandomOpSequenceAgainstModel(t *testing.T) {
	const (
		nodes = 4
		ops   = 400
	)
	for _, seed := range []int64{1, 7, 42, 1989} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			cl := newTestCluster(t, nodes, 2)
			ctx := cl.Node(0).Root()

			type modelObj struct {
				value     int
				loc       gaddr.NodeID
				immutable bool
				attached  map[Ref]bool
			}
			model := map[Ref]*modelObj{}
			var refs []Ref

			newObj := func() {
				node := gaddr.NodeID(rng.Intn(nodes))
				ref, err := cl.Node(int(node)).Root().New(&Counter{})
				if err != nil {
					t.Fatal(err)
				}
				refs = append(refs, ref)
				model[ref] = &modelObj{loc: node, attached: map[Ref]bool{}}
			}
			newObj()
			newObj()

			// component computes the attachment component in the model.
			component := func(root Ref) map[Ref]bool {
				seen := map[Ref]bool{root: true}
				queue := []Ref{root}
				for len(queue) > 0 {
					cur := queue[0]
					queue = queue[1:]
					for peer := range model[cur].attached {
						if !seen[peer] {
							seen[peer] = true
							queue = append(queue, peer)
						}
					}
				}
				return seen
			}

			for i := 0; i < ops; i++ {
				ref := refs[rng.Intn(len(refs))]
				m := model[ref]
				switch rng.Intn(10) {
				case 0:
					if len(refs) < 12 {
						newObj()
					}
				case 1, 2, 3: // invoke Add from a random node
					if m.immutable {
						continue
					}
					n := rng.Intn(nodes)
					delta := rng.Intn(5) + 1
					out, err := cl.Node(n).Root().Invoke(ref, "Add", delta)
					if err != nil {
						t.Fatalf("op %d: Add: %v", i, err)
					}
					m.value += delta
					if out[0].(int) != m.value {
						t.Fatalf("op %d: Add returned %v, model %d", i, out[0], m.value)
					}
				case 4, 5: // move (with component semantics)
					dest := gaddr.NodeID(rng.Intn(nodes))
					if err := ctx.MoveTo(ref, dest); err != nil {
						t.Fatalf("op %d: MoveTo: %v", i, err)
					}
					if m.immutable {
						// Copy semantics: the original stays; model keeps loc.
						continue
					}
					for peer := range component(ref) {
						model[peer].loc = dest
					}
				case 6: // locate
					loc, err := ctx.Locate(ref)
					if err != nil {
						t.Fatalf("op %d: Locate: %v", i, err)
					}
					if !m.immutable && loc != m.loc {
						t.Fatalf("op %d: Locate(%#x) = %d, model %d", i, uint64(ref), loc, m.loc)
					}
				case 7: // read and compare
					n := rng.Intn(nodes)
					out, err := cl.Node(n).Root().Invoke(ref, "Get")
					if err != nil {
						t.Fatalf("op %d: Get: %v", i, err)
					}
					if out[0].(int) != m.value {
						t.Fatalf("op %d: Get = %v, model %d", i, out[0], m.value)
					}
				case 8: // attach to a random peer
					peer := refs[rng.Intn(len(refs))]
					pm := model[peer]
					if peer == ref || m.immutable || pm.immutable {
						continue
					}
					if err := ctx.Attach(ref, peer); err != nil {
						t.Fatalf("op %d: Attach: %v", i, err)
					}
					m.attached[peer] = true
					pm.attached[ref] = true
					// Attach co-locates ref's old component at peer's node.
					for member := range component(ref) {
						model[member].loc = pm.loc
					}
				case 9: // set immutable (only detached objects)
					if len(m.attached) > 0 || m.immutable {
						continue
					}
					if err := ctx.SetImmutable(ref); err != nil {
						t.Fatalf("op %d: SetImmutable: %v", i, err)
					}
					m.immutable = true
				}
			}

			// Final audit: every object readable from every node with the
			// model's value, and located where the model says.
			for ref, m := range model {
				for n := 0; n < nodes; n++ {
					out, err := cl.Node(n).Root().Invoke(ref, "Get")
					if err != nil {
						t.Fatalf("audit: Get(%#x) from node %d: %v", uint64(ref), n, err)
					}
					if out[0].(int) != m.value {
						t.Fatalf("audit: %#x = %v from node %d, model %d",
							uint64(ref), out[0], n, m.value)
					}
				}
				if !m.immutable {
					loc, _ := ctx.Locate(ref)
					if loc != m.loc {
						t.Fatalf("audit: %#x at node %d, model %d", uint64(ref), loc, m.loc)
					}
				}
			}
		})
	}
}

// TestQuickInvokeArgsRoundTrip uses testing/quick to check that arbitrary
// argument values survive a function-shipped invocation.
func TestQuickInvokeArgsRoundTrip(t *testing.T) {
	cl := newTestCluster(t, 2, 1)
	ref, err := cl.Node(1).Root().New(&Greeter{Prefix: ""})
	if err != nil {
		t.Fatal(err)
	}
	ctx := cl.Node(0).Root()
	f := func(s string) bool {
		out, err := ctx.Invoke(ref, "Greet", s)
		if err != nil {
			return false
		}
		return out[0].(string) == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickMoveAnywherePreservesState: for any sequence of destinations, the
// object's state survives every hop and is readable at the end.
func TestQuickMoveAnywherePreservesState(t *testing.T) {
	cl := newTestCluster(t, 4, 1)
	ctx := cl.Node(0).Root()
	f := func(hops []uint8, val uint8) bool {
		if len(hops) > 12 {
			hops = hops[:12]
		}
		ref, err := ctx.New(&Counter{N: int(val)})
		if err != nil {
			return false
		}
		for _, h := range hops {
			if err := ctx.MoveTo(ref, gaddr.NodeID(h%4)); err != nil {
				return false
			}
		}
		out, err := ctx.Invoke(ref, "Get")
		return err == nil && out[0].(int) == int(val)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestTimesliceCheckpointYields verifies cooperative timeslicing (§2.1):
// with a quantum configured, compute-bound threads calling Checkpoint share
// one processor fairly; with none (the default), Checkpoint never yields —
// the quantum stamp is taken only when there is a quantum to measure.
func TestTimesliceCheckpointYields(t *testing.T) {
	for _, quantum := range []time.Duration{0, time.Millisecond} {
		t.Run(fmt.Sprintf("quantum=%v", quantum), func(t *testing.T) {
			reg := NewRegistry()
			cl, err := NewCluster(ClusterConfig{
				Nodes: 1, ProcsPerNode: 1, Quantum: quantum, Registry: reg,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			if err := cl.Register(&Yielder{}); err != nil {
				t.Fatal(err)
			}
			ctx := cl.Node(0).Root()
			a, _ := ctx.New(&Yielder{})
			b, _ := ctx.New(&Yielder{})
			tha, _ := ctx.StartThread(a, "Spin", 40)
			thb, _ := ctx.StartThread(b, "Spin", 40)
			for _, th := range []Thread{tha, thb} {
				if _, err := ctx.Join(th); err != nil {
					t.Fatal(err)
				}
			}
			if got := cl.Node(0).Stats().Value("timeslice_yields"); (got > 0) != (quantum > 0) {
				t.Fatalf("timeslice_yields = %d with quantum %v: Checkpoint yields exactly when a quantum is set", got, quantum)
			}
		})
	}
}

// Yielder burns CPU in slices, checkpointing between them.
type Yielder struct{ Rounds int }

// Spin runs n compute slices of ~2ms each with checkpoints.
func (y *Yielder) Spin(ctx *Ctx, n int) int {
	for i := 0; i < n; i++ {
		deadline := time.Now().Add(2 * time.Millisecond)
		for time.Now().Before(deadline) {
		}
		y.Rounds++
		ctx.Checkpoint()
	}
	return y.Rounds
}
