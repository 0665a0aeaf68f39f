package core

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"amber/internal/gaddr"
	"amber/internal/wire"
)

// installBarrier waits until n's installer worker has handled every copy
// queued ahead of this call. acceptReply queues a reply's copy before the
// invoke returns and the queue is FIFO, so once the barrier passes every copy
// the caller's invokes brought back has been installed or refused.
func (n *Node) installBarrier() {
	done := make(chan struct{})
	n.installq <- copyInstall{done: done}
	<-done
}

// waitObjects waits out node n's queued installs and then checks that its
// lock-free census reports want[state] descriptors (copies install
// asynchronously off the reply path).
func waitObjects(t *testing.T, n *Node, state string, want int) {
	t.Helper()
	n.installBarrier()
	if got := n.Objects()[state]; got != want {
		t.Fatalf("node %d: %s = %d, want %d (census %v)", n.ID(), state, got, want, n.Objects())
	}
}

// TestReplicaInstallOnRemoteInvoke is the tentpole scenario: the first invoke
// on a remote immutable object ships the thread and pulls a replica back on
// the reply; every subsequent invoke executes locally with zero messages.
func TestReplicaInstallOnRemoteInvoke(t *testing.T) {
	cl := newTestCluster(t, 2, 1)
	ctx0, ctx1 := cl.Node(0).Root(), cl.Node(1).Root()
	ref, err := ctx1.New(&Greeter{Prefix: "hi "})
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx1.SetImmutable(Ref(ref)); err != nil {
		t.Fatal(err)
	}

	// Cold call: remote, and a replica miss.
	out, err := ctx0.Invoke(ref, "Greet", "amber")
	if err != nil {
		t.Fatal(err)
	}
	if out[0].(string) != "hi amber" {
		t.Fatalf("cold invoke = %v", out[0])
	}
	if got := cl.Node(0).Stats().Value("replica_misses"); got == 0 {
		t.Error("cold remote invoke on immutable object should count a replica miss")
	}
	waitObjects(t, cl.Node(0), "replica", 1)
	if got := cl.Node(0).Stats().Value("replica_installs"); got != 1 {
		t.Errorf("replica_installs = %d, want 1", got)
	}

	// Warm call: local fast path, zero messages on the fabric.
	before := cl.NetStats().Value("msgs_sent")
	out, err = ctx0.Invoke(ref, "Greet", "again")
	if err != nil {
		t.Fatal(err)
	}
	if out[0].(string) != "hi again" {
		t.Fatalf("warm invoke = %v", out[0])
	}
	if got := cl.NetStats().Value("msgs_sent"); got != before {
		t.Errorf("warm replica invoke sent %d messages, want 0", got-before)
	}
	if got := cl.Node(0).Stats().Value("replica_hits"); got == 0 {
		t.Error("warm invoke should count a replica hit")
	}
	// The source still serves its own invokes from the original.
	if out, err = ctx1.Invoke(ref, "Greet", "src"); err != nil || out[0].(string) != "hi src" {
		t.Fatalf("source invoke after replication: %v %v", out, err)
	}
}

// TestReplicaLocateZeroMessages pins the Locate fast path: once a replica is
// resident, Locate answers with the local node and puts nothing on the wire.
func TestReplicaLocateZeroMessages(t *testing.T) {
	cl := newTestCluster(t, 2, 1)
	ctx0, ctx1 := cl.Node(0).Root(), cl.Node(1).Root()
	ref, err := ctx1.New(&Greeter{Prefix: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx1.SetImmutable(Ref(ref)); err != nil {
		t.Fatal(err)
	}
	if _, err := ctx0.Invoke(ref, "Greet", "warm"); err != nil {
		t.Fatal(err)
	}
	waitObjects(t, cl.Node(0), "replica", 1)

	before := cl.NetStats().Value("msgs_sent")
	at, err := ctx0.Locate(ref)
	if err != nil {
		t.Fatal(err)
	}
	if at != cl.Node(0).ID() {
		t.Errorf("Locate = node %d, want local node %d", at, cl.Node(0).ID())
	}
	if got := cl.NetStats().Value("msgs_sent"); got != before {
		t.Errorf("Locate on local replica sent %d messages, want 0", got-before)
	}
	if got := cl.Node(0).Stats().Value("locates_local_replica"); got != 1 {
		t.Errorf("locates_local_replica = %d, want 1", got)
	}
}

// TestReplicaEvictionForwardsToSource caps the cache at one replica: pulling
// a second evicts the first down to a forwarding tombstone aimed at its
// source, and a later invoke on the evicted object chases back and re-pulls.
func TestReplicaEvictionForwardsToSource(t *testing.T) {
	cl, err := NewCluster(ClusterConfig{Nodes: 2, ProcsPerNode: 1, SpaceShards: 1, ReplicaCache: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	registerFixtures(t, cl)
	ctx0, ctx1 := cl.Node(0).Root(), cl.Node(1).Root()

	refs := make([]Ref, 2)
	for i := range refs {
		r, err := ctx1.New(&Greeter{Prefix: fmt.Sprintf("g%d ", i)})
		if err != nil {
			t.Fatal(err)
		}
		if err := ctx1.SetImmutable(r); err != nil {
			t.Fatal(err)
		}
		refs[i] = r
	}

	if _, err := ctx0.Invoke(refs[0], "Greet", "a"); err != nil {
		t.Fatal(err)
	}
	waitObjects(t, cl.Node(0), "replica", 1)
	if _, err := ctx0.Invoke(refs[1], "Greet", "b"); err != nil {
		t.Fatal(err)
	}
	// The second install displaces the first; the census settles at one
	// replica plus one forwarding tombstone.
	waitObjects(t, cl.Node(0), "forwarded", 1)
	waitObjects(t, cl.Node(0), "replica", 1)
	if got := cl.Node(0).Stats().Value("replica_evicted"); got != 1 {
		t.Errorf("replica_evicted = %d, want 1", got)
	}

	// The evicted object is still reachable: the tombstone forwards to the
	// source, and the chase re-pulls a replica (displacing the other again).
	out, err := ctx0.Invoke(refs[0], "Greet", "back")
	if err != nil {
		t.Fatal(err)
	}
	if out[0].(string) != "g0 back" {
		t.Fatalf("re-chased invoke = %v", out[0])
	}
	waitObjects(t, cl.Node(0), "forwarded", 1)
	waitObjects(t, cl.Node(0), "replica", 1)
}

// TestReplicaDeleteRejected: a replica carries the immutable bit, so Delete
// through it fails exactly as it does at the source.
func TestReplicaDeleteRejected(t *testing.T) {
	cl := newTestCluster(t, 2, 1)
	ctx0, ctx1 := cl.Node(0).Root(), cl.Node(1).Root()
	ref, err := ctx1.New(&Greeter{Prefix: "p"})
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx1.SetImmutable(ref); err != nil {
		t.Fatal(err)
	}
	if _, err := ctx0.Invoke(ref, "Greet", "w"); err != nil {
		t.Fatal(err)
	}
	waitObjects(t, cl.Node(0), "replica", 1)
	if err := ctx0.Delete(ref); !errors.Is(err, ErrImmutableDelete) {
		t.Errorf("Delete through replica = %v, want ErrImmutableDelete", err)
	}
	if err := ctx1.Delete(ref); !errors.Is(err, ErrImmutableDelete) {
		t.Errorf("Delete at source = %v, want ErrImmutableDelete", err)
	}
}

// TestReplicaInstallStaleEpochDrop drives installCopy directly against a
// descriptor whose tombstone already knows a newer residency version: the
// stale snapshot must drop, and an equal-epoch one must install (the
// tombstone and the replica describe the same residency).
func TestReplicaInstallStaleEpochDrop(t *testing.T) {
	cl := newTestCluster(t, 2, 1)
	n0 := cl.Node(0)
	ctx1 := cl.Node(1).Root()
	ref, err := ctx1.New(&Greeter{Prefix: "s"})
	if err != nil {
		t.Fatal(err)
	}
	ti, err := n0.reg.lookupValue(&Greeter{})
	if err != nil {
		t.Fatal(err)
	}
	state, err := wire.Marshal(reflect.ValueOf(&Greeter{Prefix: "s"}).Elem().Interface())
	if err != nil {
		t.Fatal(err)
	}

	// Fabricate a tombstone that knows residency version 5.
	d := n0.descEnsure(gaddr.Addr(ref))
	d.Lock()
	d.Fwd = cl.Node(1).ID()
	d.SetEpochLocked(5)
	d.SetStateLocked(stateForwarded)
	d.Unlock()

	install := func(epoch uint64) {
		n0.installCopy(copyInstall{obj: gaddr.Addr(ref), from: cl.Node(1).ID(), typ: ti.name,
			state: state, epoch: epoch, ttl: copyForever})
	}
	install(3)
	if st := d.State(); st != stateForwarded {
		t.Fatalf("stale install changed state to %v", st)
	}
	if got := n0.Stats().Value("replica_installs_stale"); got != 1 {
		t.Errorf("replica_installs_stale = %d, want 1", got)
	}

	install(5)
	if st := d.State(); st != stateResident || !d.Copy() || !d.Immutable() {
		t.Fatalf("equal-epoch install: state %v copy %v immutable %v",
			st, d.Copy(), d.Immutable())
	}
	if got := d.Epoch(); got != 5 {
		t.Errorf("replica epoch = %d, want 5 (unchanged by install)", got)
	}

	// A duplicate install on the now-resident replica drops.
	install(5)
	if got := n0.Stats().Value("replica_installs_dropped"); got != 1 {
		t.Errorf("replica_installs_dropped = %d, want 1", got)
	}
}

// TestReplicaInstallRace hammers the install path from many sides at once
// under -race: invokes racing SetImmutable, installs racing each other, and a
// tiny cache forcing constant evictions. The test asserts the end state is
// coherent: every surviving replica is resident and immutable, and every
// invocation observed a correct value.
func TestReplicaInstallRace(t *testing.T) {
	cl, err := NewCluster(ClusterConfig{Nodes: 2, ProcsPerNode: 4, SpaceShards: 1, ReplicaCache: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	registerFixtures(t, cl)
	ctx1 := cl.Node(1).Root()

	const objs = 8
	refs := make([]Ref, objs)
	for i := range refs {
		r, err := ctx1.New(&Greeter{Prefix: fmt.Sprintf("o%d:", i)})
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = r
	}

	var wg sync.WaitGroup
	// Marker goroutine: flips the objects immutable in random order while the
	// invokers below are already pulling on them.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(1))
		for _, i := range rng.Perm(objs) {
			time.Sleep(time.Duration(rng.Intn(3)) * time.Millisecond)
			if err := ctx1.SetImmutable(refs[i]); err != nil {
				t.Errorf("SetImmutable: %v", err)
			}
		}
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			ctx := cl.Node(0).Root()
			for k := 0; k < 400; k++ {
				i := rng.Intn(objs)
				out, err := ctx.Invoke(refs[i], "Greet", "x")
				if err != nil {
					t.Errorf("invoke %d: %v", i, err)
					return
				}
				if want := fmt.Sprintf("o%d:x", i); out[0].(string) != want {
					t.Errorf("invoke %d = %q, want %q", i, out[0], want)
					return
				}
			}
		}(int64(w + 2))
	}
	wg.Wait()

	// Let in-flight async installs drain, then audit the survivors.
	n0 := cl.Node(0)
	n0.installBarrier()
	n0.space.Range(func(a gaddr.Addr, d *descriptor) bool {
		if d.Copy() {
			if d.State() != stateResident {
				t.Errorf("replica %#x in state %v", uint64(a), d.State())
			}
			if !d.Immutable() {
				t.Errorf("replica %#x without immutable bit", uint64(a))
			}
		}
		return true
	})
	if n0.Objects()["replica"] > 2 {
		t.Errorf("replica census %d exceeds cache cap 2", n0.Objects()["replica"])
	}
}
