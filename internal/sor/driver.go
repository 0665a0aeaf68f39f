package sor

import (
	"fmt"
	"sync"
	"time"

	"amber/internal/amsync"
	"amber/internal/core"
	"amber/internal/gaddr"
	"amber/internal/wire"
)

// Reducer is the "master" of Figure 1: sections report their per-iteration
// maximum change; every caller blocks until all parties have reported and
// receives the global maximum, so every section stops on the same
// iteration. It is the solve's only cluster-wide synchronization: the color
// phases are ordered by the ghost pushes between neighbours alone.
type Reducer struct {
	Parties int

	mu     sync.Mutex
	count  int
	cur    float64
	result float64
	waitCh chan struct{}
}

// ReduceMax submits v and blocks until all parties of the epoch have
// reported; it returns the epoch's global maximum.
func (r *Reducer) ReduceMax(ctx *core.Ctx, v float64) (float64, error) {
	r.mu.Lock()
	if r.Parties <= 0 {
		r.mu.Unlock()
		return 0, fmt.Errorf("sor: reducer with %d parties", r.Parties)
	}
	if v > r.cur {
		r.cur = v
	}
	r.count++
	if r.count >= r.Parties {
		r.result = r.cur
		r.cur = 0
		r.count = 0
		if r.waitCh != nil {
			close(r.waitCh)
			r.waitCh = nil
		}
		res := r.result
		r.mu.Unlock()
		return res, nil
	}
	if r.waitCh == nil {
		r.waitCh = make(chan struct{})
	}
	ch := r.waitCh
	r.mu.Unlock()
	ctx.Block(func() { <-ch })
	r.mu.Lock()
	res := r.result
	r.mu.Unlock()
	return res, nil
}

// CanMove vetoes migration while sections are blocked in a reduction.
func (r *Reducer) CanMove() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.count > 0 {
		return fmt.Errorf("%w: reduction in progress", amsync.ErrBusy)
	}
	return nil
}

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

// RegisterAll registers the SOR classes.
func RegisterAll(r interface{ Register(v any) error }) error {
	wire.Register([][]float64(nil)) // grids cross the wire in Rows results
	for _, v := range []any{&Section{}, &Reducer{}} {
		if err := r.Register(v); err != nil {
			return err
		}
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
	// Wire neighbours.
	for i, ref := range refs {
		up, down := core.NilRef, core.NilRef
		if i > 0 {
			up = refs[i-1]
		}
		if i < sections-1 {
			down = refs[i+1]
		}
		if _, err := ctx.Invoke(ref, "SetNeighbors", up, down); err != nil {
			return nil, err
		}
	}
	// Distribute: section i to node i*N/S, giving contiguous sections to
	// the same node when S > N (adjacent sections share a node and their
	// edge exchange stays local).
	for i, ref := range refs {
		dest := gaddr.NodeID(i * numNodes / sections)
		if err := ctx.MoveTo(ref, dest); err != nil {
			return nil, err
		}
	}

	reducer, err := ctx.New(&Reducer{Parties: sections})
	if err != nil {
		return nil, err
	}

	startT := time.Now()
	threads := make([]core.Thread, sections)
	for i, ref := range refs {
		th, err := ctx.StartThread(ref, "Run",
			reducer, cfg.Eps, cfg.MaxIters, cfg.Overlap, cfg.ComputeThreads)
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
	s += "master thread ── creates sections, reducer; joins controllers\n"
	for i := 0; i < sections; i++ {
		s += fmt.Sprintf("node[%d]\n", i)
		s += fmt.Sprintf("  Section[%d] object (strip of grid rows + 2 ghost rows)\n", i)
		s += "    controller thread: iterate { await red ghosts; black; await black ghosts; red; reduce }\n"
		s += "    compute threads:   relax points of current color in parallel\n"
		s += "    edge threads:      push edge rows to neighbours, overlapped\n"
		s += "    convergence:       ReduceMax with master each iteration\n"
		if i < sections-1 {
			s += "      │ edge exchange (single invocation per edge per color)\n"
			s += "      ▼\n"
		}
	}
	return s
}
