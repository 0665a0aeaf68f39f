package core

import (
	"testing"
	"time"

	"amber/internal/gaddr"
	"amber/internal/transport"
)

// newTCPCluster assembles nodes over real sockets (the cmd/amberd path) in
// one process: same registry, loopback TCP.
func newTCPCluster(t *testing.T, n int) []*Node {
	t.Helper()
	reg := NewRegistry()
	if err := reg.Register(&Counter{}); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(&Slow{}); err != nil {
		t.Fatal(err)
	}

	return startNodes(t, reg, tcpTransports(t, n), NodeConfig{Procs: 2})
}

// startNodes starts node i on trs[i] with cfg (ID and ServerNode filled in),
// node 0 hosting the address-space server.
func startNodes(t testing.TB, reg *Registry, trs []transport.Transport, cfg NodeConfig) []*Node {
	t.Helper()
	nodes := make([]*Node, len(trs))
	for i := range nodes {
		var srv *gaddr.Server
		if i == 0 {
			srv = gaddr.NewServer(0)
		}
		cfg.ID, cfg.ServerNode = gaddr.NodeID(i), 0
		node, err := NewNode(cfg, reg, trs[i], srv)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(node.Close)
		nodes[i] = node
	}
	return nodes
}

// tcpTransports binds n loopback transports that know each other. All
// listeners are bound first, so peers can dial in any order.
func tcpTransports(t testing.TB, n int) []transport.Transport {
	t.Helper()
	tcps := make([]*transport.TCP, n)
	trs := make([]transport.Transport, n)
	for i := range tcps {
		tr, err := transport.NewTCP(transport.TCPConfig{Self: gaddr.NodeID(i), Listen: "127.0.0.1:0"})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tr.Close() })
		tcps[i], trs[i] = tr, tr
	}
	for i, tr := range tcps {
		peers := make(map[gaddr.NodeID]string)
		for j, other := range tcps {
			if j != i {
				peers[gaddr.NodeID(j)] = other.Addr()
			}
		}
		tr.SetPeers(peers)
	}
	return trs
}

func TestTCPClusterEndToEnd(t *testing.T) {
	nodes := newTCPCluster(t, 3)
	ctx := nodes[0].Root()

	ref, err := ctx.New(&Counter{})
	if err != nil {
		t.Fatal(err)
	}
	// Remote invoke over real sockets.
	out, err := nodes[1].Root().Invoke(ref, "Add", 5)
	if err != nil {
		t.Fatal(err)
	}
	if out[0].(int) != 5 {
		t.Fatalf("Add over TCP = %v", out)
	}
	// Migration over real sockets, then invoke chases it.
	if err := ctx.MoveTo(ref, 2); err != nil {
		t.Fatal(err)
	}
	out, err = nodes[1].Root().Invoke(ref, "Where")
	if err != nil {
		t.Fatal(err)
	}
	if out[0].(gaddr.NodeID) != 2 {
		t.Fatalf("executed on %v after TCP move, want 2", out[0])
	}
	// Threads + join across processes' worth of plumbing.
	th, err := nodes[2].Root().StartThread(ref, "Add", 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nodes[2].Root().Join(th); err != nil {
		t.Fatal(err)
	}
	out, _ = ctx.Invoke(ref, "Get")
	if out[0].(int) != 15 {
		t.Fatalf("final = %v, want 15", out)
	}
	// Locate across the TCP mesh.
	loc, err := nodes[1].Root().Locate(ref)
	if err != nil || loc != 2 {
		t.Fatalf("Locate = %v, %v", loc, err)
	}
}

func TestTCPClusterDrainAndMove(t *testing.T) {
	nodes := newTCPCluster(t, 2)
	ctx := nodes[0].Root()
	ref, _ := ctx.New(&Slow{})
	th, _ := ctx.StartThread(ref, "Work", 80)
	time.Sleep(20 * time.Millisecond)
	start := time.Now()
	if err := ctx.MoveTo(ref, 1); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) < 40*time.Millisecond {
		t.Fatal("TCP move did not drain the bound thread")
	}
	if _, err := ctx.Join(th); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkFanInAsync64TCP is the async fan-in batch (64 AsyncInvokes to one
// remote object, then 64 Joins) on two loopback TCP nodes, measured from
// inside the runtime so the callee's transport can be read: besides the time
// per batch it reports the callee's socket writes per reply, from its
// flush_ns count. A callee that answers reply by reply reads 1; one that
// answers each inbound burst in one write reads about 1/64.
func BenchmarkFanInAsync64TCP(b *testing.B) {
	const width = 64
	reg := NewRegistry()
	if err := reg.Register(&Counter{}); err != nil {
		b.Fatal(err)
	}
	trs := tcpTransports(b, 2)
	nodes := startNodes(b, reg, trs, NodeConfig{Procs: 4})
	ctx := nodes[0].Root()
	ref, err := nodes[1].Root().New(&Counter{})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := ctx.Invoke(ref, "Add", 0); err != nil { // warm location cache
		b.Fatal(err)
	}
	writes := trs[1].(*transport.TCP).Stats().Hist("flush_ns")
	futs := make([]*Future, width)
	b.ResetTimer()
	w0 := writes.Count()
	for i := 0; i < b.N; i++ {
		for j := range futs {
			futs[j] = ctx.AsyncInvoke(ref, "Add", 1)
		}
		for _, f := range futs {
			if _, err := f.Join(ctx); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(writes.Count()-w0)/float64(b.N*width), "writes/reply")
}
