package sor

import (
	"math"
	"sync"

	"amber/internal/core"
)

// Section is one horizontal strip of the grid — the unit of distribution the
// paper chooses (§6: "one section object per node balances the load and
// allows the values for an entire edge to be transferred in a single
// invocation"). A section owns interior rows GlobalStart..GlobalStart+N-1
// of the full grid and keeps two ghost rows mirroring its neighbours' edge
// rows (or the fixed plate boundary for the first/last sections).
type Section struct {
	Index    int
	Sections int
	// GlobalStart is the full-grid row index of the first owned row; it
	// fixes the red/black parity of every point.
	GlobalStart int
	Cols        int
	Omega       float64
	// U holds N+2 rows × Cols: U[0] and U[N+1] are ghosts.
	U [][]float64
	// Up and Down are the neighbouring sections (NilRef at the plate
	// boundary).
	Up, Down core.Ref

	// ghostMu guards the ghost-arrival ledger: arrived[c] counts the
	// neighbour pushes of color c installed so far, and wake, when non-nil,
	// is closed on the next arrival to release the waiting controller.
	ghostMu sync.Mutex
	arrived [2]int
	wake    chan struct{}
}

// ownedRows reports N, the number of interior rows this section owns.
func (s *Section) ownedRows() int { return len(s.U) - 2 }

// Dispatch implements core.AmberDispatch for the section's hot operations —
// the ghost-row install, edge-row read, and relaxation kernel that dominate
// an SOR iteration — with direct type switches instead of reflection. Cold
// control-plane operations (SetNeighbors, Run, Rows) and any call
// whose arguments need coercion fall back to the runtime's reflective plan
// via ErrNotDispatched, which keeps the lenient argument rules intact. The
// args vector is runtime-owned scratch; nothing here retains it.
func (s *Section) Dispatch(c *core.Ctx, method string, args []any) ([]any, error) {
	switch method {
	case "SetGhostColor":
		if len(args) == 3 {
			which, ok1 := args[0].(int)
			color, ok2 := args[1].(int)
			vals, ok3 := args[2].([]float64)
			if ok1 && ok2 && ok3 {
				s.SetGhostColor(which, color, vals)
				return []any{}, nil
			}
		}
	case "EdgeRow":
		if len(args) == 1 {
			if which, ok := args[0].(int); ok {
				return []any{s.EdgeRow(which)}, nil
			}
		}
	case "ComputeColorRange":
		if len(args) == 3 {
			color, ok1 := args[0].(int)
			from, ok2 := args[1].(int)
			to, ok3 := args[2].(int)
			if ok1 && ok2 && ok3 {
				return []any{s.ComputeColorRange(color, from, to)}, nil
			}
		}
	}
	return nil, core.ErrNotDispatched
}

// SetNeighbors wires the section to its neighbours; called once by the
// master before the computation starts.
func (s *Section) SetNeighbors(up, down core.Ref) {
	s.Up = up
	s.Down = down
}

// SetGhostColor installs the cells of one color from a neighbour's edge row
// into a ghost row. which is -1 for the upper ghost (row 0), +1 for the
// lower ghost. Only cells of the given color are written, so a neighbour's
// push never races with this section reading the *other* color's cells
// during an overlapped phase. Each install counts as one arrival of its
// color, which is what the controller waits on instead of a barrier.
func (s *Section) SetGhostColor(which int, color int, vals []float64) {
	row := 0
	grow := s.GlobalStart - 1 // global index of the upper ghost row
	if which > 0 {
		row = len(s.U) - 1
		grow = s.GlobalStart + s.ownedRows()
	}
	dst := s.U[row]
	for j := range dst {
		if (grow+j)%2 == color {
			dst[j] = vals[j]
		}
	}
	s.ghostMu.Lock()
	s.arrived[color]++
	if s.wake != nil {
		close(s.wake)
		s.wake = nil
	}
	s.ghostMu.Unlock()
}

// awaitGhosts blocks the controller until want pushes of color have arrived
// from the neighbours. The counts run over the whole solve, so the k-th
// half-step of a color waits for k pushes per neighbour.
func (s *Section) awaitGhosts(ctx *core.Ctx, color, want int) {
	s.ghostMu.Lock()
	for s.arrived[color] < want {
		if s.wake == nil {
			s.wake = make(chan struct{})
		}
		ch := s.wake
		s.ghostMu.Unlock()
		ctx.Block(func() { <-ch })
		s.ghostMu.Lock()
	}
	s.ghostMu.Unlock()
}

// EdgeRow returns a copy of an owned edge row: which=-1 for the first owned
// row, +1 for the last. This is the single-invocation edge transfer of §6.
func (s *Section) EdgeRow(which int) []float64 {
	li := 1
	if which > 0 {
		li = s.ownedRows()
	}
	out := make([]float64, s.Cols)
	copy(out, s.U[li])
	return out
}

// Rows returns copies of all owned rows, for final assembly.
func (s *Section) Rows() [][]float64 {
	out := make([][]float64, s.ownedRows())
	for i := range out {
		out[i] = make([]float64, s.Cols)
		copy(out[i], s.U[i+1])
	}
	return out
}

// ComputeColorRange relaxes all points of one color in owned local rows
// [from, to] (1-based, inclusive) and returns the largest change. It is
// invoked both by the section's controller thread and by the extra compute
// threads a multiprocessor node runs in parallel (Figure 1's "compute
// threads").
func (s *Section) ComputeColorRange(color, from, to int) float64 {
	maxDelta := 0.0
	for li := from; li <= to; li++ {
		gi := s.GlobalStart + li - 1
		row := s.U[li]
		up := s.U[li-1]
		down := s.U[li+1]
		// Interior columns only; 0 and Cols-1 are plate boundary.
		for j := 1; j < s.Cols-1; j++ {
			if (gi+j)%2 != color {
				continue
			}
			old := row[j]
			avg := (up[j] + down[j] + row[j-1] + row[j+1]) / 4
			next := old + s.Omega*(avg-old)
			row[j] = next
			if d := math.Abs(next - old); d > maxDelta {
				maxDelta = d
			}
		}
	}
	return maxDelta
}

// pushEdges starts shipping this section's freshly-updated edge cells of one
// color to the neighbouring sections' ghost rows: one invocation per
// neighbour, "a single network exchange per edge per iteration", both in
// flight at once. The futures are Figure 1's edge-exchange threads.
func (s *Section) pushEdges(ctx *core.Ctx, color int) []*core.Future {
	var pushes []*core.Future
	if s.Up != core.NilRef {
		pushes = append(pushes, ctx.AsyncInvoke(s.Up, "SetGhostColor", +1, color, s.EdgeRow(-1)))
	}
	if s.Down != core.NilRef {
		pushes = append(pushes, ctx.AsyncInvoke(s.Down, "SetGhostColor", -1, color, s.EdgeRow(+1)))
	}
	return pushes
}

// joinPushes waits for every push and returns the first error.
func joinPushes(ctx *core.Ctx, pushes []*core.Future) error {
	var first error
	for _, f := range pushes {
		if _, err := f.Join(ctx); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// phase performs one half-iteration (one color) and returns its largest
// change with the edge pushes still in flight. With overlap (§6) the edge
// rows are relaxed first and shipped while the interior relaxes; without it
// the pushes start once the whole strip is done.
func (s *Section) phase(ctx *core.Ctx, color int, overlap bool, computeThreads int) (float64, []*core.Future) {
	n := s.ownedRows()
	if !overlap {
		delta := s.computeParallel(ctx, color, 1, n, computeThreads)
		return delta, s.pushEdges(ctx, color)
	}
	delta := s.ComputeColorRange(color, 1, 1)
	if n > 1 {
		delta = max(delta, s.ComputeColorRange(color, n, n))
	}
	pushes := s.pushEdges(ctx, color)
	if n > 2 {
		delta = max(delta, s.computeParallel(ctx, color, 2, n-1, computeThreads))
	}
	return delta, pushes
}

// computeParallel relaxes rows [from,to] of one color, fanning out over
// extra compute threads when the node has processors to use them.
func (s *Section) computeParallel(ctx *core.Ctx, color, from, to, computeThreads int) float64 {
	n := to - from + 1
	if n <= 0 {
		return 0
	}
	if computeThreads <= 1 || n < 2*computeThreads {
		return s.ComputeColorRange(color, from, to)
	}
	type result struct {
		delta float64
		err   error
	}
	results := make(chan result, computeThreads)
	chunk := (n + computeThreads - 1) / computeThreads
	workers := 0
	for lo := from; lo <= to; lo += chunk {
		hi := lo + chunk - 1
		if hi > to {
			hi = to
		}
		workers++
		lo, hi := lo, hi
		c := ctx.Spawn()
		go func() {
			// Worker threads charge the node's processor slots like any
			// Amber thread.
			var d float64
			c.WithSlot(func() { d = s.ComputeColorRange(color, lo, hi) })
			results <- result{delta: d}
		}()
	}
	maxDelta := 0.0
	ctx.Block(func() {
		for i := 0; i < workers; i++ {
			r := <-results
			if r.delta > maxDelta {
				maxDelta = r.delta
			}
		}
	})
	return maxDelta
}

// Run is the section's controller thread (Figure 1): it drives iterations
// and reports convergence through the reducer. It returns the number of
// iterations executed.
//
// No barrier separates the colors. Red points read only black ghost cells
// and black points only red ones, so before relaxing a color the section
// waits for its own neighbours' latest pushes of the other color: iteration
// k relaxes black once k-1 red pushes per neighbour have arrived, and red
// once k black pushes have. Neighbours drift at most half a step apart, and
// the reduction is the only cluster-wide synchronization.
func (s *Section) Run(ctx *core.Ctx, reducer core.Ref, eps float64, maxIters int, overlap bool, computeThreads int) (int, error) {
	neighbours := 0
	for _, r := range []core.Ref{s.Up, s.Down} {
		if r != core.NilRef {
			neighbours++
		}
	}
	for iter := 1; iter <= maxIters; iter++ {
		s.awaitGhosts(ctx, Red, (iter-1)*neighbours)
		dB, pushes := s.phase(ctx, Black, overlap, computeThreads)
		s.awaitGhosts(ctx, Black, iter*neighbours)
		if err := joinPushes(ctx, pushes); err != nil {
			return iter, err
		}
		dR, pushes := s.phase(ctx, Red, overlap, computeThreads)
		// The convergence thread's exchange with the master (Figure 1): a
		// blocking max-reduction, made while the red pushes are in flight.
		out, err := ctx.Invoke(reducer, "ReduceMax", max(dB, dR))
		if perr := joinPushes(ctx, pushes); err == nil {
			err = perr
		}
		if err != nil {
			return iter, err
		}
		if out[0].(float64) < eps {
			return iter, nil
		}
	}
	return maxIters, nil
}
