package core

import (
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"amber/internal/sched"
)

func TestNewAtPlacesObject(t *testing.T) {
	cl := newTestCluster(t, 3, 1)
	ctx := cl.Node(0).Root()
	ref, err := ctx.NewAt(2, &Counter{N: 5})
	if err != nil {
		t.Fatal(err)
	}
	loc, err := ctx.Locate(ref)
	if err != nil || loc != 2 {
		t.Fatalf("Locate = %v, %v", loc, err)
	}
	out, _ := ctx.Invoke(ref, "Get")
	if out[0].(int) != 5 {
		t.Fatalf("state = %v", out)
	}
	// NewAt to the local node is a pure create. Measured while the cluster
	// is quiet: every call so far went straight to node 2 and was answered,
	// so nothing is left in flight. (The forwarded invoke below leaves a
	// health probe and a chain update in flight after its reply.)
	before := cl.NetStats().Value("msgs_sent")
	if _, err := ctx.NewAt(0, &Counter{}); err != nil {
		t.Fatal(err)
	}
	if cl.NetStats().Value("msgs_sent") != before {
		t.Fatal("local NewAt used the network")
	}
	// Home stays at the creator: a third node resolving the ref goes via
	// node 0's forwarding descriptor.
	if _, err := cl.Node(1).Root().Invoke(ref, "Get"); err != nil {
		t.Fatal(err)
	}
}

// Tracker records the order operations start, for scheduling tests.
type Tracker struct {
	mu      sync.Mutex
	Order   []int
	release chan struct{}
}

func (tr *Tracker) Run(ctx *Ctx, tag, ms int) int {
	tr.mu.Lock()
	tr.Order = append(tr.Order, tag)
	tr.mu.Unlock()
	time.Sleep(time.Duration(ms) * time.Millisecond)
	return tag
}

func (tr *Tracker) Snapshot() []int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return append([]int(nil), tr.Order...)
}

// Hold parks the calling thread on its processor slot until release is
// closed, so a test can keep a node's slots busy for as long as it likes.
func (tr *Tracker) Hold() int {
	<-tr.release
	return 0
}

// waitSched spins until cond holds on node n's scheduler, failing the test
// after five seconds.
func waitSched(t *testing.T, n *Node, what string, cond func(*sched.Scheduler) bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond(n.Scheduler()) {
		if time.Now().After(deadline) {
			t.Fatalf("node %d: %s never held (running %d, waiting %d)",
				n.ID(), what, n.Scheduler().Running(), n.Scheduler().Waiting())
		}
		runtime.Gosched()
	}
}

// TestPriorityPolicyHonoursThreadPriorities holds the single slot of the
// node hosting a tracker, queues threads with priorities 1, 9 and 5 behind
// the hog, and releases it: they must run highest-first. In the shipped row
// the threads start on another node, so ThreadRec.Priority must survive the
// function ship.
func TestPriorityPolicyHonoursThreadPriorities(t *testing.T) {
	for _, row := range []struct {
		name              string
		nodes, from, host int
	}{
		{"local", 1, 0, 0},
		{"shipped", 2, 0, 1},
	} {
		t.Run(row.name, func(t *testing.T) {
			cl := newTestCluster(t, row.nodes, 1)
			if err := cl.Register(&Tracker{}); err != nil {
				t.Fatal(err)
			}
			hn := cl.Node(row.host)
			hn.Scheduler().SetPolicy(sched.NewPriority)
			trk := &Tracker{release: make(chan struct{})}
			ref, err := hn.Root().New(trk)
			if err != nil {
				t.Fatal(err)
			}
			hog, err := hn.Root().StartThread(ref, "Hold")
			if err != nil {
				t.Fatal(err)
			}
			waitSched(t, hn, "hog on the CPU", func(s *sched.Scheduler) bool { return s.Running() == 1 })
			var threads []Thread
			for i, prio := range []int{1, 9, 5} {
				spawner := cl.Node(row.from).Root()
				spawner.SetPriority(prio)
				th, err := spawner.StartThread(ref, "Run", prio, 0)
				if err != nil {
					t.Fatal(err)
				}
				threads = append(threads, th)
				waitSched(t, hn, "queueing", func(s *sched.Scheduler) bool { return s.Waiting() == i+1 })
			}
			close(trk.release)
			if _, err := hn.Root().Join(hog); err != nil {
				t.Fatal(err)
			}
			for _, th := range threads {
				if _, err := cl.Node(row.from).Root().Join(th); err != nil {
					t.Fatal(err)
				}
			}
			if order, want := trk.Snapshot(), []int{9, 5, 1}; !slices.Equal(order, want) {
				t.Fatalf("run order = %v, want %v", order, want)
			}
		})
	}
}
