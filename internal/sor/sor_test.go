package sor

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"amber/internal/core"
	"amber/internal/gaddr"
	"amber/internal/rpc"
	"amber/internal/trace"
	"amber/internal/transport"
)

func TestSequentialConverges(t *testing.T) {
	p := DefaultProblem(20, 20)
	g, iters, err := SolveSequential(p, 1.5, 1e-4, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if iters >= 10_000 {
		t.Fatalf("did not converge in %d iterations", iters)
	}
	// Physical sanity: interior temperatures lie strictly between the
	// boundary extremes and decrease away from the hot edge.
	for i := 1; i < p.Rows-1; i++ {
		for j := 1; j < p.Cols-1; j++ {
			if g[i][j] <= 0 || g[i][j] >= 100 {
				t.Fatalf("g[%d][%d] = %g outside (0,100)", i, j, g[i][j])
			}
		}
	}
	mid := p.Cols / 2
	if !(g[1][mid] > g[p.Rows/2][mid] && g[p.Rows/2][mid] > g[p.Rows-2][mid]) {
		t.Fatal("temperature does not fall away from the hot edge")
	}
}

func TestSequentialValidation(t *testing.T) {
	if _, _, err := SolveSequential(Problem{Rows: 2, Cols: 5}, 1.5, 1e-4, 10); err == nil {
		t.Fatal("tiny grid accepted")
	}
	if _, _, err := SolveSequential(DefaultProblem(10, 10), 2.5, 1e-4, 10); err == nil {
		t.Fatal("omega out of range accepted")
	}
}

func newSORCluster(t testing.TB, nodes, procs int) *core.Cluster {
	t.Helper()
	cl, err := core.NewCluster(core.ClusterConfig{Nodes: nodes, ProcsPerNode: procs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	if err := RegisterAll(cl); err != nil {
		t.Fatal(err)
	}
	return cl
}

// runBoth solves the same problem sequentially and distributed and compares.
func runBoth(t *testing.T, nodes, procs, sections, computeThreads int, overlap bool) {
	t.Helper()
	p := DefaultProblem(18, 26)
	const omega, eps = 1.5, 1e-4
	const maxIters = 5000
	want, wantIters, err := SolveSequential(p, omega, eps, maxIters)
	if err != nil {
		t.Fatal(err)
	}
	cl := newSORCluster(t, nodes, procs)
	res, err := RunDistributed(cl, Config{
		Problem: p, Omega: omega, Eps: eps, MaxIters: maxIters,
		Sections: sections, Overlap: overlap, ComputeThreads: computeThreads,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iters != wantIters {
		t.Fatalf("distributed took %d iterations, sequential %d", res.Iters, wantIters)
	}
	if d := MaxAbsDiff(want, res.Grid); d > 1e-9 {
		t.Fatalf("grids differ by %g", d)
	}
}

func TestDistributedMatchesSequential1N1S(t *testing.T) { runBoth(t, 1, 1, 1, 1, false) }
func TestDistributedMatchesSequential1N2S(t *testing.T) { runBoth(t, 1, 2, 2, 1, false) }
func TestDistributedMatchesSequential2N(t *testing.T)   { runBoth(t, 2, 1, 2, 1, false) }
func TestDistributedMatchesSequential3N(t *testing.T)   { runBoth(t, 3, 2, 3, 2, false) }
func TestDistributedOverlapMatches(t *testing.T)        { runBoth(t, 2, 2, 2, 1, true) }
func TestDistributedOverlapThreadsMatches(t *testing.T) { runBoth(t, 3, 2, 6, 2, true) }
func TestMoreSectionsThanNodes(t *testing.T)            { runBoth(t, 2, 2, 5, 1, true) }

func TestSectionsPlacedRoundRobin(t *testing.T) {
	cl := newSORCluster(t, 4, 1)
	p := DefaultProblem(20, 12)
	_, err := RunDistributed(cl, Config{
		Problem: p, Omega: 1.5, Eps: 1e-3, MaxIters: 500, Sections: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every node should have executed compute work: each holds one section
	// and its controller thread function-shipped to it.
	for i := 1; i < 4; i++ {
		if cl.Node(i).Stats().Value("invokes_executed_for_remote") == 0 {
			t.Fatalf("node %d never executed shipped work", i)
		}
	}
}

func TestTooManySections(t *testing.T) {
	cl := newSORCluster(t, 1, 1)
	p := DefaultProblem(6, 6) // 4 interior rows
	_, err := RunDistributed(cl, Config{Problem: p, Omega: 1.5, Eps: 1e-3, MaxIters: 10, Sections: 5})
	if err == nil {
		t.Fatal("oversubscribed sections accepted")
	}
}

func TestPrintStructure(t *testing.T) {
	s := PrintStructure(3)
	if !strings.Contains(s, "Section[2]") || !strings.Contains(s, "edge exchange") {
		t.Fatalf("structure rendering incomplete:\n%s", s)
	}
}

// Property: for random grid shapes, partition counts and thread counts, the
// distributed solver matches the sequential one bitwise.
func TestQuickRandomConfigsMatchSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized configs in -short mode")
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 6; trial++ {
		rows := 8 + rng.Intn(20)
		cols := 8 + rng.Intn(24)
		nodes := 1 + rng.Intn(3)
		procs := 1 + rng.Intn(2)
		maxSections := rows - 2
		sections := 1 + rng.Intn(min(maxSections, nodes*2))
		overlap := rng.Intn(2) == 0
		threads := 1 + rng.Intn(2)

		p := DefaultProblem(rows, cols)
		const omega, eps = 1.4, 1e-3
		want, wantIters, err := SolveSequential(p, omega, eps, 3000)
		if err != nil {
			t.Fatal(err)
		}
		cl := newSORCluster(t, nodes, procs)
		res, err := RunDistributed(cl, Config{
			Problem: p, Omega: omega, Eps: eps, MaxIters: 3000,
			Sections: sections, Overlap: overlap, ComputeThreads: threads,
		})
		if err != nil {
			t.Fatalf("trial %d (%dx%d, %dN %dP, %d sections, overlap=%v): %v",
				trial, rows, cols, nodes, procs, sections, overlap, err)
		}
		if res.Iters != wantIters || MaxAbsDiff(want, res.Grid) > 1e-9 {
			t.Fatalf("trial %d (%dx%d, %dN %dP, %d sections, overlap=%v): iters %d vs %d, Δ=%g",
				trial, rows, cols, nodes, procs, sections, overlap,
				res.Iters, wantIters, MaxAbsDiff(want, res.Grid))
		}
	}
}

// ledgerSolve runs a traced solve of exactly iters iterations (eps = 0 never
// converges early) with one section per node, and returns the messages the
// cluster sent and how many invocation events each method produced. Health
// probes are left out of the count: setup's forwarders probe their next hop
// only when they have not heard from it lately, so those few messages depend
// on timing, and none of them belongs to the iteration loop.
func ledgerSolve(t *testing.T, nodes, iters int) (int64, map[string]int) {
	t.Helper()
	cl := newSORCluster(t, nodes, 1)
	var msgs atomic.Int64
	cl.Fabric().SetFault(func(m transport.Message) bool {
		if !rpc.IsHealthProbe(m.Kind) {
			msgs.Add(1)
		}
		return false
	})
	cl.SetTracing(true)
	res, err := RunDistributed(cl, Config{
		Problem: DefaultProblem(34, 34), Omega: 1.5, Eps: 0, MaxIters: iters,
		Sections: nodes, Overlap: true, ComputeThreads: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iters != iters {
		t.Fatalf("ran %d iterations, want %d", res.Iters, iters)
	}
	methods := map[string]int{}
	for _, ev := range cl.CollectTrace() {
		if ev.Kind == trace.KInvokeStart {
			methods[ev.Label]++
		}
	}
	return msgs.Load(), methods
}

// The per-iteration message ledger, exactly: each section pushes one edge
// per neighbour per color, a request and a reply each, and the convergence
// residuals ride those pushes. Nothing else crosses the network inside the
// iteration loop — no barrier, no reduction and, fault-free, no abort. With
// Eps 0 a solve never converges and runs MaxIters+L iterations before it
// restores iteration MaxIters (L = lag(S): 1 on three sections, 2 on four),
// so each solve carries a fixed tail of L iterations, 16·L messages on three
// sections and 24·L on four; the difference of two solves cancels it.
func TestSORMessageLedger(t *testing.T) {
	for _, tc := range []struct {
		nodes   int
		perIter int64
	}{
		{3, 16}, // 2 edges × 2 directions × 2 colors × 2 msgs
		{4, 24}, // 3 edges × 8 msgs
	} {
		short, shortMethods := ledgerSolve(t, tc.nodes, 10)
		long, _ := ledgerSolve(t, tc.nodes, 20)
		if got := long - short; got != 10*tc.perIter {
			t.Errorf("%d nodes: 10 more iterations sent %d msgs, want %d (%d per iteration)",
				tc.nodes, got, 10*tc.perIter, tc.perIter)
		}
		for _, m := range []string{"Arrive", "ReduceMax", "Abort"} {
			if n := shortMethods[m]; n != 0 {
				t.Errorf("%d nodes: %d %s invocations executed", tc.nodes, n, m)
			}
		}
		if want := (10 + lag(tc.nodes)) * 2 * 2 * (tc.nodes - 1); shortMethods["SetGhostColor"] != want {
			t.Errorf("%d nodes: %d ghost pushes in 10 iterations, want %d",
				tc.nodes, shortMethods["SetGhostColor"], want)
		}
	}
}

// Ghost pushes that arrive late must not change a single bit: every
// neighbour link delays each message by a random 0–2 ms, so the middle
// section's two neighbours land their pushes at unrelated times and the
// sections drift apart within the half-step the protocol allows.
func TestGhostsUnderJitter(t *testing.T) {
	p := DefaultProblem(14, 18)
	const omega, eps, maxIters = 1.5, 1e-3, 2000
	want, wantIters, err := SolveSequential(p, omega, eps, maxIters)
	if err != nil {
		t.Fatal(err)
	}
	jitter := transport.LinkRule{DelayMin: 0, DelayMax: 2 * time.Millisecond}
	for _, overlap := range []bool{false, true} {
		cl := newSORCluster(t, 3, 1)
		for _, link := range [][2]gaddr.NodeID{{0, 1}, {1, 2}} {
			cl.Faults().SetLink(link[0], link[1], jitter)
			cl.Faults().SetLink(link[1], link[0], jitter)
		}
		res, err := RunDistributed(cl, Config{
			Problem: p, Omega: omega, Eps: eps, MaxIters: maxIters,
			Sections: 3, Overlap: overlap, ComputeThreads: 1,
		})
		if err != nil {
			t.Fatalf("overlap=%v: %v", overlap, err)
		}
		if res.Iters != wantIters {
			t.Fatalf("overlap=%v: %d iterations, sequential %d", overlap, res.Iters, wantIters)
		}
		if d := MaxAbsDiff(want, res.Grid); d != 0 {
			t.Fatalf("overlap=%v: grid differs from sequential by %g", overlap, d)
		}
	}
}

// The speculative stop reports what SolveSequential reports, bit for bit,
// at its edges: every strip count from one section (L = 0) to eight
// (L = 4), a cap just below, at and just above the converging iteration,
// and a tolerance so loose that iteration 1 converges, before any section
// has run L iterations past it.
func TestSpeculativeStopMatchesSequential(t *testing.T) {
	p := DefaultProblem(14, 18) // 12 interior rows: room for 8 sections
	const omega, eps, maxIters = 1.5, 1e-3, 2000
	_, converged, err := SolveSequential(p, omega, eps, maxIters)
	if err != nil {
		t.Fatal(err)
	}
	type solve struct {
		eps      float64
		maxIters int
	}
	cases := []struct {
		name  string
		solve solve
	}{
		{"converges", solve{eps, maxIters}},
		{"cap=iters-1", solve{eps, converged - 1}},
		{"cap=iters", solve{eps, converged}},
		{"cap=iters+1", solve{eps, converged + 1}},
		{"converges-at-1", solve{1e9, maxIters}},
	}
	for _, tc := range cases {
		want, wantIters, err := SolveSequential(p, omega, tc.solve.eps, tc.solve.maxIters)
		if err != nil {
			t.Fatal(err)
		}
		if tc.name == "converges-at-1" && wantIters != 1 {
			t.Fatalf("eps %g converges at iteration %d, not 1", tc.solve.eps, wantIters)
		}
		for sections := 1; sections <= 8; sections++ {
			for _, overlap := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/S=%d/overlap=%v", tc.name, sections, overlap), func(t *testing.T) {
					cl := newSORCluster(t, 3, 1)
					res, err := RunDistributed(cl, Config{
						Problem: p, Omega: omega, Eps: tc.solve.eps, MaxIters: tc.solve.maxIters,
						Sections: sections, Overlap: overlap, ComputeThreads: 1,
					})
					if err != nil {
						t.Fatal(err)
					}
					if res.Iters != wantIters {
						t.Fatalf("%d iterations, sequential %d", res.Iters, wantIters)
					}
					if d := MaxAbsDiff(want, res.Grid); d != 0 {
						t.Fatalf("grid differs from sequential by %g", d)
					}
				})
			}
		}
	}
	// A push of exactly Cols values, the form that predates the trailer,
	// installs its color's cells and counts as one arrival; one with a
	// trailer also merges its residuals, and one whose trailer would leave a
	// gap in the table still counts but merges nothing.
	t.Run("trailer-less push", func(t *testing.T) {
		cl := newSORCluster(t, 2, 1)
		sec := &Section{Sections: 3, GlobalStart: 1, Cols: 6, U: [][]float64{make([]float64, 6), make([]float64, 6), make([]float64, 6)}}
		ref, err := cl.Node(0).Root().New(sec)
		if err != nil {
			t.Fatal(err)
		}
		edge := []float64{1, 2, 3, 4, 5, 6}
		if _, err := cl.Node(1).Root().Invoke(ref, "SetGhostColor", -1, Black, edge); err != nil {
			t.Fatal(err)
		}
		// Row 0 is global row 0: black cells are the even columns.
		if got := sec.U[0]; !slices.Equal(got, []float64{1, 0, 3, 0, 5, 0}) {
			t.Fatalf("upper ghost after a black push = %v", got)
		}
		for _, trailer := range [][]float64{{1, 0.5, 0.25}, {9, 1}} {
			vals := append(slices.Clone(edge), trailer...)
			if _, err := cl.Node(1).Root().Invoke(ref, "SetGhostColor", -1, Red, vals); err != nil {
				t.Fatal(err)
			}
		}
		sec.ghostMu.Lock()
		defer sec.ghostMu.Unlock()
		if sec.arrived != [2]int{1, 2} {
			t.Fatalf("arrivals = %v, want one black and two red", sec.arrived)
		}
		if !slices.Equal(sec.resid, []float64{0, 0.5, 0.25}) {
			t.Fatalf("residual table = %v, want [0 0.5 0.25]", sec.resid)
		}
	})
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
