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
func startNodes(t *testing.T, reg *Registry, trs []transport.Transport, cfg NodeConfig) []*Node {
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
func tcpTransports(t *testing.T, n int) []transport.Transport {
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
