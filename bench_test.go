// Benchmarks regenerating the paper's evaluation artifacts. One benchmark
// family per table/figure (see DESIGN.md §4 and EXPERIMENTS.md):
//
//   - BenchmarkTable1*      — E1: the five primitive operations. Run here
//     over the no-delay fabric (raw runtime cost); cmd/amber-bench measures
//     the same operations under the 1989 Ethernet profile for the
//     paper-comparable numbers.
//   - BenchmarkFig2/Fig3*   — E3/E4: the SOR speedup studies on the DES
//     model (virtual time; the benchmark measures model execution).
//   - BenchmarkSection4*    — E5–E7: Amber vs Ivy microbenchmarks.
//   - BenchmarkE8/E9*       — ablations (forwarding chains, mobility).
//   - BenchmarkResidencyCheck — E10: what the §3.5 entry protocol costs on
//     the local fast path.
package amber

import (
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"amber/internal/core"
	"amber/internal/gaddr"
	"amber/internal/ivy"
	"amber/internal/perf"
	"amber/internal/sor"
	"amber/internal/transport"
)

type benchCounter struct{ N int }

func (c *benchCounter) Poke() int { c.N++; return c.N }

// Get is the non-mutating read used by the immutable-replica benchmarks
// (invoking Poke on an immutable object would be a programming error).
func (c *benchCounter) Get() int { return c.N }

// Echo is the stateless method the fan-in benchmarks invoke concurrently:
// async executions of one object overlap (each holds its own pin), so the
// method must not touch shared state.
func (c *benchCounter) Echo(x int) int { return x }

// AmberReadOnly declares Get non-mutating, so the lease benchmarks can serve
// it from reader-lease copies of cacheable counters.
func (c *benchCounter) AmberReadOnly() []string { return []string{"Get"} }

func benchCluster(b *testing.B, nodes, procs int, profile NetProfile) *Cluster {
	b.Helper()
	cl, err := NewCluster(ClusterConfig{
		Nodes: nodes, ProcsPerNode: procs, Profile: profile, Registry: NewRegistry(),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(cl.Close)
	if err := cl.Register(&benchCounter{}); err != nil {
		b.Fatal(err)
	}
	return cl
}

// --- Table 1 (E1) ---

func BenchmarkTable1ObjectCreate(b *testing.B) {
	cl := benchCluster(b, 1, 4, Instant)
	ctx := cl.Node(0).Root()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctx.New(&benchCounter{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1LocalInvoke(b *testing.B) {
	cl := benchCluster(b, 1, 4, Instant)
	ctx := cl.Node(0).Root()
	ref, _ := ctx.New(&benchCounter{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctx.Invoke(ref, "Poke"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1RemoteInvoke(b *testing.B) {
	cl := benchCluster(b, 2, 4, Instant)
	ctx := cl.Node(0).Root()
	ref, _ := cl.Node(1).Root().New(&benchCounter{})
	if _, err := ctx.Invoke(ref, "Poke"); err != nil { // warm location cache
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctx.Invoke(ref, "Poke"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChainOneStepRemote is BenchmarkTable1RemoteInvoke through the chain
// door: a one-step InvokeChain is an invoke (one engine, DESIGN.md §13), so
// scripts/bench.sh gates it to the invoke's time and allocations.
func BenchmarkChainOneStepRemote(b *testing.B) {
	cl := benchCluster(b, 2, 4, Instant)
	ctx := cl.Node(0).Root()
	ref, _ := cl.Node(1).Root().New(&benchCounter{})
	chain := []ChainStep{{Obj: ref, Method: "Poke"}}
	if _, err := ctx.InvokeChain(chain); err != nil { // warm location cache
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctx.InvokeChain(chain); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChainTwoStepRemote runs two dependent calls on co-located remote
// counters as one shipped chain: msgs/op stays at the single round trip's 2
// where two Invokes would send 4.
func BenchmarkChainTwoStepRemote(b *testing.B) {
	cl := benchCluster(b, 2, 4, Instant)
	ctx := cl.Node(0).Root()
	first, _ := cl.Node(1).Root().New(&benchCounter{})
	second, _ := cl.Node(1).Root().New(&benchCounter{})
	chain := []ChainStep{
		{Obj: first, Method: "Poke"},
		{Obj: second, Method: "Echo", Args: []any{ChainPrev}},
	}
	if _, err := ctx.InvokeChain(chain); err != nil { // warm location cache
		b.Fatal(err)
	}
	sent := func() int64 { return cl.Fabric().Stats().Value("msgs_sent") }
	before := sent()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctx.InvokeChain(chain); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(sent()-before)/float64(b.N), "msgs/op")
}

// BenchmarkTable1RemoteInvokeTraced is the same operation with thread-journey
// tracing enabled; the delta against BenchmarkTable1RemoteInvoke is the
// tracing tax (a handful of ring-buffer stores per invocation). The untraced
// benchmark doubles as proof that disabled tracing is free — scripts/bench.sh
// gates it against the pre-observability baseline.
func BenchmarkTable1RemoteInvokeTraced(b *testing.B) {
	cl, err := NewCluster(ClusterConfig{
		Nodes: 2, ProcsPerNode: 4, Profile: Instant, Registry: NewRegistry(), Tracing: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(cl.Close)
	if err := cl.Register(&benchCounter{}); err != nil {
		b.Fatal(err)
	}
	ctx := cl.Node(0).Root()
	ref, _ := cl.Node(1).Root().New(&benchCounter{})
	if _, err := ctx.Invoke(ref, "Poke"); err != nil { // warm location cache
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctx.Invoke(ref, "Poke"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1ObjectMove(b *testing.B) {
	cl := benchCluster(b, 2, 4, Instant)
	ctx := cl.Node(0).Root()
	ref, _ := ctx.New(&benchCounter{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ctx.MoveTo(ref, NodeID((i+1)%2)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1ThreadStartJoin(b *testing.B) {
	cl := benchCluster(b, 1, 4, Instant)
	ctx := cl.Node(0).Root()
	ref, _ := ctx.New(&benchCounter{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		th, err := ctx.StartThread(ref, "Poke")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ctx.Join(th); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkImmutableRemoteInvokeCold measures the first invoke on a remote
// immutable object: a full shipped round trip, with the replica snapshot
// riding back on the reply. Each iteration touches a fresh object, so every
// call is a cold miss; the replica install itself is asynchronous and off the
// measured reply path (the gate in scripts/bench.sh holds this within 15% of
// the plain mutable remote invoke). The cache is sized above b.N so installs,
// not evictions, are what ride along.
func BenchmarkImmutableRemoteInvokeCold(b *testing.B) {
	reg := NewRegistry()
	cl, err := NewCluster(ClusterConfig{
		Nodes: 2, ProcsPerNode: 4, Profile: Instant, Registry: reg,
		ReplicaCache: b.N + 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(cl.Close)
	if err := cl.Register(&benchCounter{}); err != nil {
		b.Fatal(err)
	}
	ctx0, ctx1 := cl.Node(0).Root(), cl.Node(1).Root()
	refs := make([]Ref, b.N)
	for i := range refs {
		r, err := ctx1.New(&benchCounter{N: i})
		if err != nil {
			b.Fatal(err)
		}
		if err := ctx1.SetImmutable(r); err != nil {
			b.Fatal(err)
		}
		refs[i] = r
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctx0.Invoke(refs[i], "Get"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRemoteInvokeColdBaseline is the control for the cold replication
// benchmark above: the identical workload — one first-touch invoke per fresh
// immutable object — with replication disabled (ReplicaCache < 0), so no
// snapshot rides the reply and nothing installs. The difference between this
// and BenchmarkImmutableRemoteInvokeCold is the whole cost replication adds
// to a first call; scripts/bench.sh gates that overhead at 15%. (This is
// deliberately NOT BenchmarkTable1RemoteInvoke, which re-invokes one object
// through a warm location hint and so measures a different, cheaper path.)
func BenchmarkRemoteInvokeColdBaseline(b *testing.B) {
	reg := NewRegistry()
	cl, err := NewCluster(ClusterConfig{
		Nodes: 2, ProcsPerNode: 4, Profile: Instant, Registry: reg,
		ReplicaCache: -1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(cl.Close)
	if err := cl.Register(&benchCounter{}); err != nil {
		b.Fatal(err)
	}
	ctx0, ctx1 := cl.Node(0).Root(), cl.Node(1).Root()
	refs := make([]Ref, b.N)
	for i := range refs {
		r, err := ctx1.New(&benchCounter{N: i})
		if err != nil {
			b.Fatal(err)
		}
		if err := ctx1.SetImmutable(r); err != nil {
			b.Fatal(err)
		}
		refs[i] = r
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctx0.Invoke(refs[i], "Get"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkImmutableRemoteInvokeWarm measures invokes on a remote immutable
// object after its replica has installed locally: the 11× local/remote gap is
// what read-path replication exists to close, and scripts/bench.sh gates this
// number against BenchmarkTable1LocalInvoke (≤2×).
func BenchmarkImmutableRemoteInvokeWarm(b *testing.B) {
	cl := benchCluster(b, 2, 4, Instant)
	ctx0, ctx1 := cl.Node(0).Root(), cl.Node(1).Root()
	ref, err := ctx1.New(&benchCounter{N: 7})
	if err != nil {
		b.Fatal(err)
	}
	if err := ctx1.SetImmutable(ref); err != nil {
		b.Fatal(err)
	}
	if _, err := ctx0.Invoke(ref, "Get"); err != nil { // cold call pulls the replica
		b.Fatal(err)
	}
	for i := 0; cl.Node(0).Objects()["replica"] == 0; i++ { // install is async
		if i > 5000 {
			b.Fatal("replica never installed")
		}
		time.Sleep(time.Millisecond)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctx0.Invoke(ref, "Get"); err != nil {
			b.Fatal(err)
		}
	}
}

// benchLeasePair builds a 2-node cluster with leases enabled, a cacheable
// counter on node 1, and node 0 already holding an installed lease copy.
func benchLeasePair(b *testing.B) (*Cluster, *Ctx, *Ctx, Ref) {
	b.Helper()
	cl, err := NewCluster(ClusterConfig{
		Nodes: 2, ProcsPerNode: 4, Profile: Instant, Registry: NewRegistry(),
		LeaseTTL: time.Hour,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(cl.Close)
	if err := cl.Register(&benchCounter{}); err != nil {
		b.Fatal(err)
	}
	ctx0, ctx1 := cl.Node(0).Root(), cl.Node(1).Root()
	ref, err := ctx1.New(&benchCounter{N: 7})
	if err != nil {
		b.Fatal(err)
	}
	if err := ctx1.SetCacheable(ref); err != nil {
		b.Fatal(err)
	}
	if _, err := ctx0.Invoke(ref, "Get"); err != nil { // cold read pulls the lease
		b.Fatal(err)
	}
	for i := 0; cl.Node(0).Objects()["lease"] == 0; i++ { // install is async
		if i > 5000 {
			b.Fatal("lease never installed")
		}
		time.Sleep(time.Millisecond)
	}
	return cl, ctx0, ctx1, ref
}

// BenchmarkMutableLeaseWarm measures reads of a remote MUTABLE object through
// an installed reader-lease copy — the coherence layer's analogue of
// BenchmarkImmutableRemoteInvokeWarm, and the number that justifies it:
// scripts/bench.sh gates this within 2× of the immutable warm path, so caching
// a mutable object costs at most an epoch-check over caching a frozen one.
func BenchmarkMutableLeaseWarm(b *testing.B) {
	_, ctx0, _, ref := benchLeasePair(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctx0.Invoke(ref, "Get"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMutableLeaseWriteFence measures the write half of the coherence
// bargain: each iteration re-arms the reader's lease with a Get from node 0,
// then writes from the owner — a write that must fence (revoke) the
// outstanding lease before it can be acknowledged. ns/op covers the pair; the
// write leg's p99 is reported separately (write-p99-ns) and gated by
// scripts/bench.sh, since tail latency is what an invalidation round can
// plausibly ruin.
func BenchmarkMutableLeaseWriteFence(b *testing.B) {
	_, ctx0, ctx1, ref := benchLeasePair(b)
	lat := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctx0.Invoke(ref, "Get"); err != nil { // re-arm the lease
			b.Fatal(err)
		}
		start := time.Now()
		if _, err := ctx1.Invoke(ref, "Poke"); err != nil { // write + fence
			b.Fatal(err)
		}
		lat = append(lat, time.Since(start))
	}
	b.StopTimer()
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	if n := len(lat); n > 0 {
		b.ReportMetric(float64(lat[n*99/100]), "write-p99-ns")
	}
}

// BenchmarkLocalInvokeParallel measures local-invocation scalability across
// goroutines (run with -cpu 1,8: the ns/op ratio is the scaling factor the
// sharded object space is accountable for). Each goroutine is its own Amber
// thread invoking its own object, so the only shared structures on the path
// are the object-space table and the node's counters — exactly what the
// lock-striped layout is supposed to keep uncontended. The goroutine holds
// its processor slot across the loop (WithSlot) so the scheduler's admission
// queue is paid once, not per op.
func BenchmarkLocalInvokeParallel(b *testing.B) {
	cl := benchCluster(b, 1, 64, Instant)
	root := cl.Node(0).Root()
	const objs = 64
	refs := make([]Ref, objs)
	for i := range refs {
		r, err := root.New(&benchCounter{})
		if err != nil {
			b.Fatal(err)
		}
		refs[i] = r
	}
	var next atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		ctx := root.Spawn()
		ref := refs[int(next.Add(1))%objs]
		ctx.WithSlot(func() {
			for pb.Next() {
				if _, err := ctx.Invoke(ref, "Poke"); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
}

// --- PR8: pipelined fan-in vs serial blocking, over real loopback TCP ---

// benchTCPPair assembles two nodes over loopback sockets. The fan-in pair
// below must run on the TCP transport: the pipeline's win is shared socket
// flushes and overlapped wire round trips, and the in-process fabric has
// neither a socket nor a flush.
func benchTCPPair(b *testing.B) (*Node, *Node) {
	b.Helper()
	reg := NewRegistry()
	if err := reg.Register(&benchCounter{}); err != nil {
		b.Fatal(err)
	}
	trs := make([]*transport.TCP, 2)
	for i := range trs {
		tr, err := transport.NewTCP(transport.TCPConfig{
			Self:   gaddr.NodeID(i),
			Listen: "127.0.0.1:0",
		})
		if err != nil {
			b.Fatal(err)
		}
		trs[i] = tr
		b.Cleanup(func() { tr.Close() })
	}
	trs[0].SetPeers(map[gaddr.NodeID]string{1: trs[1].Addr()})
	trs[1].SetPeers(map[gaddr.NodeID]string{0: trs[0].Addr()})
	nodes := make([]*Node, 2)
	for i := range nodes {
		var srv *gaddr.Server
		if i == 0 {
			srv = gaddr.NewServer(0)
		}
		n, err := core.NewNode(core.NodeConfig{
			ID: gaddr.NodeID(i), Procs: 4, ServerNode: 0,
		}, reg, trs[i], srv)
		if err != nil {
			b.Fatal(err)
		}
		nodes[i] = n
		b.Cleanup(n.Close)
	}
	return nodes[0], nodes[1]
}

const fanInWidth = 64

// BenchmarkFanInSerial64 is the blocking control: 64 independent remote
// invokes issued one at a time, each paying a full socket round trip.
func BenchmarkFanInSerial64(b *testing.B) {
	n0, n1 := benchTCPPair(b)
	ctx := n0.Root()
	ref, err := n1.Root().New(&benchCounter{})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := ctx.Invoke(ref, "Echo", 0); err != nil { // warm location cache
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < fanInWidth; j++ {
			if _, err := ctx.Invoke(ref, "Echo", j); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFanInAsync64 issues the same 64 invokes through AsyncInvoke —
// all outstanding at once in one peer pipeline, sharing flushes — then joins
// them. scripts/bench.sh gates this at >= 3x faster than the serial control.
func BenchmarkFanInAsync64(b *testing.B) {
	n0, n1 := benchTCPPair(b)
	ctx := n0.Root()
	ref, err := n1.Root().New(&benchCounter{})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := ctx.Invoke(ref, "Echo", 0); err != nil { // warm location cache
		b.Fatal(err)
	}
	futs := make([]*Future, fanInWidth)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range futs {
			futs[j] = ctx.AsyncInvoke(ref, "Echo", j)
		}
		for j, f := range futs {
			out, err := f.Join(ctx)
			if err != nil {
				b.Fatal(err)
			}
			if out[0].(int) != j {
				b.Fatalf("future %d returned %v", j, out)
			}
		}
	}
}

// --- E13: heat-driven placement under a skewed (zipf) workload ---

const (
	skewNodes = 4
	skewObjs  = 64
)

// benchSkewed measures a placement-sensitive workload: every object is born
// on node 0, but object i's traffic comes overwhelmingly from node i%4 (a
// zipf-skewed pick over that node's "own" objects, with 1-in-8 invokes
// spread uniformly as background noise). Statically placed, three quarters
// of all invokes are remote; with heat-driven placement the trackers ship
// each object to its dominant caller and the same workload turns mostly
// local. The Static/Heat pair is the ablation scripts/bench.sh gates on.
func benchSkewed(b *testing.B, heat bool) {
	b.Helper()
	cfg := ClusterConfig{
		Nodes: skewNodes, ProcsPerNode: 2, Profile: Instant, Registry: NewRegistry(),
	}
	if heat {
		cfg.HeatInterval = 5 * time.Millisecond
		cfg.HeatMin = 2
	}
	cl, err := NewCluster(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(cl.Close)
	if err := cl.Register(&benchCounter{}); err != nil {
		b.Fatal(err)
	}
	root := cl.Node(0).Root()
	refs := make([]Ref, skewObjs)
	for i := range refs {
		r, err := root.New(&benchCounter{})
		if err != nil {
			b.Fatal(err)
		}
		refs[i] = r
	}
	ctxs := make([]*Ctx, skewNodes)
	for k := range ctxs {
		ctxs[k] = cl.Node(k).Root()
	}
	// runDrivers issues total invokes from all four nodes concurrently; each
	// driver's picks are deterministic for its node (seeded rng).
	runDrivers := func(total int64) {
		var next atomic.Int64
		var wg sync.WaitGroup
		for k := 0; k < skewNodes; k++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				ctx := ctxs[k].Spawn()
				rng := rand.New(rand.NewSource(int64(k) + 1))
				z := rand.NewZipf(rng, 1.5, 1.0, skewObjs/skewNodes-1)
				for next.Add(1) <= total {
					var ref Ref
					if rng.Intn(8) == 0 {
						ref = refs[rng.Intn(skewObjs)] // background noise
					} else {
						ref = refs[int(z.Uint64())*skewNodes+k] // own hot set
					}
					if _, err := ctx.Invoke(ref, "Poke"); err != nil {
						b.Error(err)
						return
					}
				}
			}(k)
		}
		wg.Wait()
	}
	// Warm location hints; under heat, keep driving until the trackers have
	// shipped most of the remotely-owned objects to their dominant callers
	// (48 of the 64 start on the wrong node).
	runDrivers(2000)
	if heat {
		deadline := time.Now().Add(3 * time.Second)
		for time.Now().Before(deadline) {
			migrated := 0
			for i, r := range refs {
				if at, err := root.Locate(r); err == nil && at == NodeID(i%skewNodes) {
					migrated++
				}
			}
			if migrated >= skewObjs*3/4 {
				break
			}
			runDrivers(2000)
		}
	}
	shipped := func() (n int64) {
		for k := 0; k < skewNodes; k++ {
			n += cl.Node(k).Stats().Get("invokes_shipped").Load()
		}
		return n
	}
	before := shipped()
	b.ResetTimer()
	runDrivers(int64(b.N))
	b.StopTimer()
	var moves float64
	for k := 0; k < skewNodes; k++ {
		moves += float64(cl.Node(k).Stats().Get("heat_moves").Load())
	}
	b.ReportMetric(moves, "heat-moves")
	b.ReportMetric(float64(shipped()-before)/float64(b.N), "remote-frac")
}

func BenchmarkSkewedInvokeStatic(b *testing.B) { benchSkewed(b, false) }
func BenchmarkSkewedInvokeHeat(b *testing.B)   { benchSkewed(b, true) }

// --- E10: residency-check overhead on the local fast path ---

func BenchmarkResidencyCheckInvokePath(b *testing.B) {
	// The full local invocation: entry protocol (pin + residency check,
	// §3.5), reflective dispatch, unpin.
	cl := benchCluster(b, 1, 4, Instant)
	ctx := cl.Node(0).Root()
	ref, _ := ctx.New(&benchCounter{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx.Invoke(ref, "Poke")
	}
}

func BenchmarkResidencyCheckBareCall(b *testing.B) {
	// Baseline: the same operation as a direct Go method call — the cost a
	// co-residency-optimized inline call would pay (§3.6).
	c := &benchCounter{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Poke()
	}
}

// --- Figure 2 (E3): SOR speedup model ---

func benchFig2(b *testing.B, nodes, procs, sections int, overlap bool) {
	b.Helper()
	cfg := perf.SORConfig{
		Nodes: nodes, ProcsPerNode: procs, Sections: sections,
		Rows: perf.PaperGridRows, Cols: perf.PaperGridCols,
		Iters: 10, Overlap: overlap, Model: perf.CVAX1989,
	}
	var last perf.SORPoint
	for i := 0; i < b.N; i++ {
		pt, err := perf.SimulateSOR(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = pt
	}
	b.ReportMetric(last.Speedup, "speedup")
	b.ReportMetric(float64(last.Messages), "model-msgs")
}

func BenchmarkFig2SOR1Nx1P(b *testing.B)          { benchFig2(b, 1, 1, 8, true) }
func BenchmarkFig2SOR1Nx4P(b *testing.B)          { benchFig2(b, 1, 4, 8, true) }
func BenchmarkFig2SOR2Nx2P(b *testing.B)          { benchFig2(b, 2, 2, 8, true) }
func BenchmarkFig2SOR4Nx1P(b *testing.B)          { benchFig2(b, 4, 1, 8, true) }
func BenchmarkFig2SOR4Nx4P(b *testing.B)          { benchFig2(b, 4, 4, 8, true) }
func BenchmarkFig2SOR8Nx4P(b *testing.B)          { benchFig2(b, 8, 4, 8, true) }
func BenchmarkFig2SOR8Nx4PNoOverlap(b *testing.B) { benchFig2(b, 8, 4, 8, false) }

// --- Figure 3 (E4): SOR speedup vs problem size at 4Nx4P ---

func benchFig3(b *testing.B, rows, cols int) {
	b.Helper()
	cfg := perf.SORConfig{
		Nodes: 4, ProcsPerNode: 4, Sections: 8,
		Rows: rows, Cols: cols, Iters: 10, Overlap: true, Model: perf.CVAX1989,
	}
	var last perf.SORPoint
	for i := 0; i < b.N; i++ {
		pt, err := perf.SimulateSOR(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = pt
	}
	b.ReportMetric(last.Speedup, "speedup")
}

func BenchmarkFig3SORTiny(b *testing.B)  { benchFig3(b, 31, 211) }  // ≈1/16 of the paper grid
func BenchmarkFig3SORSmall(b *testing.B) { benchFig3(b, 61, 421) }  // ≈1/4
func BenchmarkFig3SORPaper(b *testing.B) { benchFig3(b, 122, 842) } // the "X" point
func BenchmarkFig3SORLarge(b *testing.B) { benchFig3(b, 244, 1684) }

// --- Real-runtime SOR (functional; supplements the model) ---

func BenchmarkSORRealRuntime2Nx2P(b *testing.B) {
	reg := NewRegistry()
	cl, err := NewCluster(ClusterConfig{Nodes: 2, ProcsPerNode: 2, Registry: reg})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	if err := sor.RegisterAll(cl); err != nil {
		b.Fatal(err)
	}
	cfg := sor.Config{
		Problem: sor.DefaultProblem(34, 34), Omega: 1.5, Eps: 1e-3,
		MaxIters: 2000, Sections: 2, Overlap: true, ComputeThreads: 2,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sor.RunDistributed(cl, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSORSequentialBaseline(b *testing.B) {
	p := sor.DefaultProblem(34, 34)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sor.SolveSequential(p, 1.5, 1e-3, 2000); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Section 4 comparisons (E5–E7) ---

func BenchmarkSection4Locks(b *testing.B) {
	var rows []perf.CompareRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = perf.LockContention(10)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rows[0].Msgs), "amber-msgs")
	b.ReportMetric(float64(rows[1].Msgs), "ivy-msgs")
}

func BenchmarkSection4FalseSharing(b *testing.B) {
	var rows []perf.CompareRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = perf.FalseSharing(10)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rows[0].Msgs), "amber-msgs")
	b.ReportMetric(float64(rows[1].Msgs), "ivy-msgs")
}

func BenchmarkSection4BigObject(b *testing.B) {
	var rows []perf.CompareRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = perf.BigObject(64)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rows[0].Msgs), "amber-ship-msgs")
	b.ReportMetric(float64(rows[2].Msgs), "ivy-msgs")
}

// --- E8/E9 ablations ---

func BenchmarkE8ForwardingChains(b *testing.B) {
	var rows []perf.ChainRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = perf.ForwardingChains(3)
		if err != nil {
			b.Fatal(err)
		}
	}
	last := rows[len(rows)-1]
	b.ReportMetric(float64(last.FirstMsgs), "chain-msgs")
	b.ReportMetric(float64(last.SecondMsgs), "cached-msgs")
	b.ReportMetric(float64(last.FirstFwd), "chain-fwd")
	b.ReportMetric(float64(last.SecondFwd), "cached-fwd")
	b.ReportMetric(float64(last.HintHits), "hint-hits")
}

func BenchmarkE9Mobility(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := perf.MobilityAblation(4, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// --- supporting micro-benchmarks ---

func BenchmarkThreadSpawnOnly(b *testing.B) {
	cl := benchCluster(b, 1, 4, Instant)
	ctx := cl.Node(0).Root()
	ref, _ := ctx.New(&benchCounter{})
	threads := make([]Thread, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		th, err := ctx.StartThread(ref, "Poke")
		if err != nil {
			b.Fatal(err)
		}
		threads = append(threads, th)
	}
	b.StopTimer()
	for _, th := range threads {
		ctx.Join(th)
	}
}

func BenchmarkRemoteInvoke1989Profile(b *testing.B) {
	if testing.Short() {
		b.Skip("1989 profile bench sleeps ~8ms per op")
	}
	cl := benchCluster(b, 2, 4, transport.Ethernet1989)
	ctx := cl.Node(0).Root()
	ref, _ := cl.Node(1).Root().New(&benchCounter{})
	ctx.Invoke(ref, "Poke")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctx.Invoke(ref, "Poke"); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ivy DSM micro-benchmarks (the §4 comparator's own costs) ---

func BenchmarkIvyLocalWrite(b *testing.B) {
	s, err := ivy.NewSystem(ivy.Config{Nodes: 2, PageSize: 4096, NumPages: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	n := s.Node(0)
	n.WriteU64(0, 1) // own the page
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := n.WriteU64(0, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIvyPagePingPong(b *testing.B) {
	s, err := ivy.NewSystem(ivy.Config{Nodes: 2, PageSize: 4096, NumPages: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Node(i%2).WriteU64(0, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIvyReadFaultAndCachedRead(b *testing.B) {
	s, err := ivy.NewSystem(ivy.Config{Nodes: 2, PageSize: 4096, NumPages: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	s.Node(0).WriteU64(0, 7)
	s.Node(1).ReadU64(0) // fault once
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Node(1).ReadU64(0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE11IvySOR(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := ivy.SolveSOR(ivy.SORConfig{
			Rows: 18, Cols: 18, Omega: 1.5, Eps: 1e-3,
			MaxIters: 1000, Workers: 2, PageSize: 256,
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(res.Msgs), "dsm-msgs")
		}
	}
}

func BenchmarkE11AmberSOR(b *testing.B) {
	reg := NewRegistry()
	cl, err := NewCluster(ClusterConfig{Nodes: 2, ProcsPerNode: 1, Registry: reg})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	if err := sor.RegisterAll(cl); err != nil {
		b.Fatal(err)
	}
	cfg := sor.Config{
		Problem: sor.DefaultProblem(18, 18), Omega: 1.5, Eps: 1e-3,
		MaxIters: 1000, Sections: 2, Overlap: true, ComputeThreads: 1,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sor.RunDistributed(cl, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
