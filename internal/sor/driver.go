package sor

import (
	"fmt"
	"time"

	"amber/internal/amsync"
	"amber/internal/core"
	"amber/internal/gaddr"
	"amber/internal/wire"
)

// Config parameterizes a distributed SOR run (§6).
type Config struct {
	Problem  Problem
	Omega    float64
	Eps      float64
	MaxIters int
	// Sections is the partition count; the paper used 8 (6 for the 3- and
	// 6-node runs). Zero means one per node.
	Sections int
	// Overlap enables the edge-exchange/compute overlap variant.
	Overlap bool
	// ComputeThreads is the number of compute threads per section (use the
	// node's processor count to exploit a multiprocessor node).
	ComputeThreads int
}

// Result of a distributed run.
type Result struct {
	Grid    [][]float64
	Iters   int
	Elapsed time.Duration
}

// RegisterAll registers the SOR class, and the synchronization classes
// beside it so that one call readies a node for every shipped program.
func RegisterAll(r interface{ Register(v any) error }) error {
	wire.Register([][]float64(nil)) // grids cross the wire in Rows results
	if err := r.Register(&Section{}); err != nil {
		return err
	}
	return amsync.RegisterAll(r)
}

// RunDistributed executes the Amber SOR program on an in-process cluster.
// See RunDistributedCtx for the transport-agnostic driver.
func RunDistributed(cl *core.Cluster, cfg Config) (*Result, error) {
	return RunDistributedCtx(cl.Node(0).Root(), cl.NumNodes(), cfg)
}

// RunDistributedCtx executes the Amber SOR program from any driver thread —
// in-process or a TCP amberd node: partition the grid into sections,
// distribute them round-robin with MoveTo (§2.3's static-placement
// pattern), start one controller thread per section, and gather the
// converged grid. numNodes is the cluster size.
func RunDistributedCtx(ctx *core.Ctx, numNodes int, cfg Config) (*Result, error) {
	p := cfg.Problem
	if err := validate(p, cfg.Omega); err != nil {
		return nil, err
	}
	if numNodes < 1 {
		return nil, fmt.Errorf("sor: cluster of %d nodes", numNodes)
	}
	sections := cfg.Sections
	if sections <= 0 {
		sections = numNodes
	}
	interior := p.Rows - 2
	if sections > interior {
		return nil, fmt.Errorf("sor: %d sections for %d interior rows", sections, interior)
	}

	// Build sections from the initial grid, ghosts included.
	full := p.Grid()
	refs := make([]core.Ref, sections)
	base := interior / sections
	extra := interior % sections
	start := 1 // first interior row
	for i := 0; i < sections; i++ {
		n := base
		if i < extra {
			n++
		}
		u := make([][]float64, n+2)
		for li := 0; li < n+2; li++ {
			u[li] = make([]float64, p.Cols)
			copy(u[li], full[start-1+li])
		}
		sec := &Section{
			Index:       i,
			Sections:    sections,
			GlobalStart: start,
			Cols:        p.Cols,
			Omega:       cfg.Omega,
			U:           u,
		}
		ref, err := ctx.New(sec)
		if err != nil {
			return nil, err
		}
		refs[i] = ref
		start += n
	}
	// Section i goes to node i*N/S, giving contiguous sections to the same
	// node when S > N (adjacent sections share a node and their edge
	// exchange stays local).
	nodeOf := func(i int) gaddr.NodeID { return gaddr.NodeID(i * numNodes / sections) }
	// Wire neighbours.
	for i, ref := range refs {
		up, down := core.NilRef, core.NilRef
		if i > 0 {
			up = refs[i-1]
		}
		if i < sections-1 {
			down = refs[i+1]
		}
		if _, err := ctx.Invoke(ref, "SetNeighbors", up, down, nodeOf(i-1), nodeOf(i+1)); err != nil {
			return nil, err
		}
	}
	// Distribute.
	for i, ref := range refs {
		if err := ctx.MoveTo(ref, nodeOf(i)); err != nil {
			return nil, err
		}
	}

	startT := time.Now()
	threads := make([]core.Thread, sections)
	for i, ref := range refs {
		th, err := ctx.StartThread(ref, "Run",
			cfg.Eps, cfg.MaxIters, cfg.Overlap, cfg.ComputeThreads)
		if err != nil {
			return nil, err
		}
		threads[i] = th
	}
	iters := 0
	for i, th := range threads {
		out, err := ctx.Join(th)
		if err != nil {
			return nil, fmt.Errorf("sor: section %d: %w", i, err)
		}
		it := out[0].(int)
		if i == 0 {
			iters = it
		} else if it != iters {
			return nil, fmt.Errorf("sor: sections disagree on iterations: %d vs %d", iters, it)
		}
	}
	elapsed := time.Since(startT)

	// Gather.
	out := p.Grid()
	row := 1
	for _, ref := range refs {
		res, err := ctx.Invoke(ref, "Rows")
		if err != nil {
			return nil, err
		}
		for _, r := range res[0].([][]float64) {
			copy(out[row], r)
			row++
		}
	}
	return &Result{Grid: out, Iters: iters, Elapsed: elapsed}, nil
}

// PrintStructure renders the Figure 1 program structure for a given section
// count, as an ASCII diagram (the figure is structural, not quantitative).
func PrintStructure(sections int) string {
	s := "Amber Red/Black SOR program structure (paper Figure 1)\n"
	s += "=======================================================\n"
	s += "master thread ── creates sections; joins controllers\n"
	for i := 0; i < sections; i++ {
		s += fmt.Sprintf("node[%d]\n", i)
		s += fmt.Sprintf("  Section[%d] object (strip of grid rows + 2 ghost rows)\n", i)
		s += "    controller thread: iterate m { black; await black ghosts; red; await red ghosts; stop if m-L converged }\n"
		s += "    compute threads:   relax points of current color in parallel\n"
		s += "    edge threads:      push edge rows + residual trailer to neighbours, overlapped\n"
		if i < sections-1 {
			s += "      │ edge exchange (single invocation per edge per color)\n"
			s += "      ▼\n"
		}
	}
	return s
}
