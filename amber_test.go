package amber

import (
	"errors"
	"testing"
	"time"
)

// BankAccount is a public-API demo class: state + operations + its own
// concurrency control via an Amber Lock reference (§2.2 style).
type BankAccount struct {
	Balance int
	Guard   Ref
}

// Deposit adds funds under the account's lock.
func (a *BankAccount) Deposit(ctx *Ctx, n int) (int, error) {
	if a.Guard != NilRef {
		if _, err := ctx.Invoke(a.Guard, "Acquire"); err != nil {
			return 0, err
		}
		defer ctx.Invoke(a.Guard, "Release")
	}
	a.Balance += n
	return a.Balance, nil
}

// Read returns the balance.
func (a *BankAccount) Read() int { return a.Balance }

func TestPublicAPIEndToEnd(t *testing.T) {
	cl, err := NewCluster(ClusterConfig{Nodes: 3, ProcsPerNode: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := RegisterSyncClasses(cl); err != nil {
		t.Fatal(err)
	}
	if err := cl.Register(&BankAccount{}); err != nil {
		t.Fatal(err)
	}

	ctx := cl.Node(0).Root()
	guard, err := ctx.New(&Lock{})
	if err != nil {
		t.Fatal(err)
	}
	acct, err := ctx.New(&BankAccount{Guard: guard})
	if err != nil {
		t.Fatal(err)
	}
	// Co-locate the lock with the account, then move the pair to node 2.
	if err := ctx.Attach(guard, acct); err != nil {
		t.Fatal(err)
	}
	if err := ctx.MoveTo(acct, 2); err != nil {
		t.Fatal(err)
	}
	for _, ref := range []Ref{acct, guard} {
		loc, err := ctx.Locate(ref)
		if err != nil {
			t.Fatal(err)
		}
		if loc != 2 {
			t.Fatalf("object at node %d, want 2", loc)
		}
	}

	// Concurrent deposits from every node.
	var threads []Thread
	for i := 0; i < 3; i++ {
		th, err := cl.Node(i).Root().StartThread(acct, "Deposit", 10)
		if err != nil {
			t.Fatal(err)
		}
		threads = append(threads, th)
	}
	for _, th := range threads {
		if _, err := ctx.Join(th); err != nil {
			t.Fatal(err)
		}
	}
	out, err := ctx.Invoke(acct, "Read")
	if err != nil {
		t.Fatal(err)
	}
	if out[0].(int) != 30 {
		t.Fatalf("balance = %v, want 30", out)
	}
}

func TestPublicErrorsSurface(t *testing.T) {
	cl, err := NewCluster(ClusterConfig{Nodes: 2, ProcsPerNode: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.Register(&BankAccount{})
	ctx := cl.Node(0).Root()
	if _, err := ctx.Invoke(NilRef, "Read"); !errors.Is(err, ErrNoSuchObject) {
		t.Fatalf("nil invoke: %v", err)
	}
	ref, _ := ctx.New(&BankAccount{})
	if _, err := ctx.Invoke(ref, "Missing"); !errors.Is(err, ErrUnknownMethod) {
		t.Fatalf("missing method: %v", err)
	}
	if err := ctx.Delete(ref); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Node(1).Root().Invoke(ref, "Read"); !errors.Is(err, ErrDeleted) {
		t.Fatalf("deleted cross-node: %v", err)
	}
}

func TestSchedulerPolicySwap(t *testing.T) {
	cl, err := NewCluster(ClusterConfig{Nodes: 1, ProcsPerNode: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.Register(&BankAccount{})
	n := cl.Node(0)
	ctx := n.Root()
	ref, _ := ctx.New(&BankAccount{})
	// Threads keep running across swaps in both directions.
	deposit := func(want int) {
		t.Helper()
		out, err := ctx.Invoke(ref, "Deposit", 5)
		if err != nil || out[0].(int) != want {
			t.Fatalf("deposit = %v, %v; want %d", out, err, want)
		}
	}
	n.Scheduler().SetPolicy(PriorityPolicy)
	deposit(5)
	n.Scheduler().SetPolicy(DequePolicy)
	deposit(10)
}

func TestImmutableReplicationPublic(t *testing.T) {
	cl, err := NewCluster(ClusterConfig{Nodes: 2, ProcsPerNode: 1, DebugImmutable: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.Register(&BankAccount{})
	ctx := cl.Node(0).Root()
	ref, _ := ctx.New(&BankAccount{Balance: 99})
	if err := ctx.SetImmutable(ref); err != nil {
		t.Fatal(err)
	}
	if err := cl.Node(1).Root().MoveTo(ref, 1); err != nil {
		t.Fatal(err)
	}
	out, err := cl.Node(1).Root().Invoke(ref, "Read")
	if err != nil {
		t.Fatal(err)
	}
	if out[0].(int) != 99 {
		t.Fatalf("replica read %v", out)
	}
	if _, err := ctx.Invoke(ref, "Deposit", 1); !errors.Is(err, ErrImmutableViolated) {
		t.Fatalf("mutation of immutable: %v", err)
	}
}

func TestNetworkProfileOnPublicSurface(t *testing.T) {
	cl, err := NewCluster(ClusterConfig{
		Nodes: 2, ProcsPerNode: 1,
		Profile: NetProfile{Latency: 4 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.Register(&BankAccount{})
	remote, _ := cl.Node(1).Root().New(&BankAccount{})
	start := time.Now()
	if _, err := cl.Node(0).Root().Invoke(remote, "Read"); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 7*time.Millisecond {
		t.Fatalf("remote invoke took %v; profile not applied", d)
	}
}
