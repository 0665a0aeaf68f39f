package core

import (
	"sync"
	"testing"
	"time"

	"amber/internal/gaddr"
)

// TestCopyParity runs each scenario of a cached copy's life on both kinds of
// copy — of an immutable object and of a cacheable mutable one, instances of
// the same class — and asserts the same counts in both columns: a copy is
// one mechanism with a mode bit (DESIGN.md §10), so the two kinds may differ
// only in the names their counters report under. Every row is exact: each
// waits out the installer with installBarrier instead of sleeping.
func TestCopyParity(t *testing.T) {
	columns := []struct {
		name string
		// mark turns a fresh object into one a reader may copy.
		mark func(ctx *Ctx, ref Ref) error
		// census is the Objects() key a copy of this kind is counted under;
		// the rest are its counters' names.
		census, installs, hits, stale, purged string
	}{
		{name: "immutable", mark: func(ctx *Ctx, ref Ref) error { return ctx.SetImmutable(ref) },
			census: "replica", installs: "replica_installs", hits: "replica_hits",
			stale: "replica_installs_stale", purged: "replicas_purged_down"},
		{name: "mutable", mark: func(ctx *Ctx, ref Ref) error { return ctx.SetCacheable(ref) },
			census: "lease", installs: "lease_installs", hits: "lease_hits",
			stale: "lease_installs_stale", purged: "lease_purged_down"},
	}
	// coldMsgs is what a read that pulls a copy costs: the request to the
	// source and its reply, which carries the copy.
	const coldMsgs = 2
	for _, col := range columns {
		col := col
		// setup builds a two-node cluster whose node 0 keeps at most one copy,
		// with objects on node 1 holding 10, 11, ...; read reads one from node
		// 0 and returns the messages it cost.
		setup := func(t *testing.T, objs int) (*Cluster, []Ref, func(ctx *Ctx, i int) int64) {
			cl, err := NewCluster(ClusterConfig{Nodes: 2, ProcsPerNode: 2, SpaceShards: 1,
				ReplicaCache: 1, LeaseTTL: 30 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(cl.Close)
			registerFixtures(t, cl)
			if err := cl.Register(&LeasedCounter{}); err != nil {
				t.Fatal(err)
			}
			owner := cl.Node(1).Root()
			refs := make([]Ref, objs)
			for i := range refs {
				ref, err := owner.New(&LeasedCounter{N: 10 + i})
				if err != nil {
					t.Fatal(err)
				}
				if err := col.mark(owner, ref); err != nil {
					t.Fatal(err)
				}
				refs[i] = ref
			}
			read := func(ctx *Ctx, i int) int64 {
				t.Helper()
				before := cl.NetStats().Value("msgs_sent")
				out, err := ctx.Invoke(refs[i], "Get")
				if err != nil {
					t.Fatalf("Get: %v", err)
				}
				if out[0].(int) != 10+i {
					t.Fatalf("Get = %v, want %d", out[0], 10+i)
				}
				return cl.NetStats().Value("msgs_sent") - before
			}
			return cl, refs, read
		}
		expect := func(t *testing.T, n *Node, counts map[string]int64) {
			t.Helper()
			for name, want := range counts {
				if got := n.Stats().Value(name); got != want {
					t.Errorf("%s = %d, want %d", name, got, want)
				}
			}
		}
		census := func(t *testing.T, n *Node, copies, forwarded int) {
			t.Helper()
			n.installBarrier()
			if got := n.Objects(); got[col.census] != copies || got["forwarded"] != forwarded {
				t.Errorf("census %v, want %s = %d and forwarded = %d", got, col.census, copies, forwarded)
			}
		}

		t.Run(col.name+"/cold read pulls one copy, warm read sends nothing", func(t *testing.T) {
			cl, _, read := setup(t, 1)
			n0 := cl.Node(0)
			if got := read(n0.Root(), 0); got != coldMsgs {
				t.Errorf("cold read sent %d messages, want %d", got, coldMsgs)
			}
			census(t, n0, 1, 0)
			if got := read(n0.Root(), 0); got != 0 {
				t.Errorf("warm read sent %d messages, want 0", got)
			}
			expect(t, n0, map[string]int64{col.installs: 1, col.hits: 1})
		})

		t.Run(col.name+"/FIFO eviction leaves a tombstone at the source", func(t *testing.T) {
			cl, refs, read := setup(t, 2)
			n0 := cl.Node(0)
			read(n0.Root(), 0)
			census(t, n0, 1, 0)
			read(n0.Root(), 1) // the second copy displaces the first
			census(t, n0, 1, 1)
			d := n0.desc(refs[0])
			d.Lock()
			st, fwd := d.State(), d.Fwd
			d.Unlock()
			if st != stateForwarded || fwd != cl.Node(1).ID() {
				t.Errorf("evicted copy: state %v aimed at %d, want forwarded to the source %d", st, fwd, cl.Node(1).ID())
			}
			// The tombstone leads straight back to the source: re-pulling costs
			// what the first pull did, and displaces the other copy in turn.
			if got := read(n0.Root(), 0); got != coldMsgs {
				t.Errorf("re-pull sent %d messages, want %d", got, coldMsgs)
			}
			census(t, n0, 1, 1)
			expect(t, n0, map[string]int64{col.installs: 3, "replica_evicted": 2})
		})

		t.Run(col.name+"/a source declared down purges the copy", func(t *testing.T) {
			cl, _, read := setup(t, 1)
			n0 := cl.Node(0)
			read(n0.Root(), 0)
			census(t, n0, 1, 0)
			before := cl.NetStats().Value("msgs_sent")
			n0.purgePeer(cl.Node(1).ID()) // the health plane's down hook
			if got := cl.NetStats().Value("msgs_sent") - before; got != 0 {
				t.Errorf("purge sent %d messages, want 0", got)
			}
			census(t, n0, 0, 1)
			expect(t, n0, map[string]int64{col.purged: 1})
			// Nothing stale is served: the next read goes to the source.
			if got := read(n0.Root(), 0); got != coldMsgs {
				t.Errorf("read after the purge sent %d messages, want %d", got, coldMsgs)
			}
			expect(t, n0, map[string]int64{col.hits: 0})
		})

		t.Run(col.name+"/an install older than a local tombstone drops", func(t *testing.T) {
			cl, refs, read := setup(t, 1)
			n0 := cl.Node(0)
			// A tombstone here already knows a newer residency than the one
			// the copy will carry.
			src := cl.Node(1).desc(refs[0])
			d := n0.descEnsure(gaddr.Addr(refs[0]))
			d.Lock()
			d.Fwd = cl.Node(1).ID()
			d.SetEpochLocked(src.Epoch() + 5)
			d.SetStateLocked(stateForwarded)
			d.Unlock()
			if got := read(n0.Root(), 0); got != coldMsgs {
				t.Errorf("read through the tombstone sent %d messages, want %d", got, coldMsgs)
			}
			census(t, n0, 0, 1)
			expect(t, n0, map[string]int64{col.stale: 1, col.installs: 0})
		})

		t.Run(col.name+"/a burst of cold reads ends with one copy", func(t *testing.T) {
			cl, refs, _ := setup(t, 1)
			n0 := cl.Node(0)
			const readers = 4
			before := cl.NetStats().Value("msgs_sent")
			start := make(chan struct{})
			var wg sync.WaitGroup
			for i := 0; i < readers; i++ {
				ctx := n0.Root()
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					if out, err := ctx.Invoke(refs[0], "Get"); err != nil || out[0].(int) != 10 {
						t.Errorf("Get = %v, %v", out, err)
					}
				}()
			}
			close(start)
			wg.Wait()
			if msgs := cl.NetStats().Value("msgs_sent") - before; msgs > readers*coldMsgs {
				t.Errorf("%d cold reads sent %d messages, want at most %d", readers, msgs, readers*coldMsgs)
			}
			census(t, n0, 1, 0)
			expect(t, n0, map[string]int64{col.installs: 1})
		})
	}
}
