package sor

import (
	"fmt"
	"math"
	"sync"

	"amber/internal/core"
	"amber/internal/gaddr"
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
	// boundary), and Near the nodes they run on: a ghost wait names them.
	Up, Down core.Ref
	Near     []gaddr.NodeID

	// ghostMu guards the ghost-arrival ledger and the residual table:
	// arrived[c] counts the neighbour pushes of color c installed so far,
	// each arrival wakes the controller waiting on ghosts, resid[k] is the
	// largest change of iteration k this section has heard of, its own
	// included, and aborted, when set, is why a neighbour stopped.
	ghostMu sync.Mutex
	arrived [2]int
	ghosts  core.WaitQueue
	resid   []float64
	aborted string
}

// ownedRows reports N, the number of interior rows this section owns.
func (s *Section) ownedRows() int { return len(s.U) - 2 }

// Dispatch implements core.AmberDispatch for the section's hot operations —
// the ghost-row install, edge-row read, and relaxation kernel that dominate
// an SOR iteration — with direct type switches instead of reflection. Cold
// control-plane operations (SetNeighbors, Run, Rows, Abort) and any call
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

// SetNeighbors wires the section to its neighbours, which will run on
// nodes upNode and downNode; called once by the master before the
// computation starts.
func (s *Section) SetNeighbors(up, down core.Ref, upNode, downNode gaddr.NodeID) {
	s.Up, s.Down, s.Near = up, down, nil
	if up != core.NilRef {
		s.Near = append(s.Near, upNode)
	}
	if down != core.NilRef {
		s.Near = append(s.Near, downNode)
	}
}

// Abort tells the section that neighbour from stopped for reason, so the
// ghosts it owes will never come: the waiting controller fails.
func (s *Section) Abort(from int, reason string) {
	s.ghostMu.Lock()
	if s.aborted == "" {
		s.aborted = fmt.Sprintf("section %d stopped: %s", from, reason)
	}
	s.ghosts.Broadcast()
	s.ghostMu.Unlock()
}

// SetGhostColor installs the cells of one color from a neighbour's edge row
// into a ghost row. which is -1 for the upper ghost (row 0), +1 for the
// lower ghost. Only cells of the given color are written, so a neighbour's
// push never races with this section reading the *other* color's cells
// during an overlapped phase. Each install counts as one arrival of its
// color, which is what the controller waits on instead of a barrier.
//
// vals is the Cols edge values, optionally followed by a residual trailer
// (see residuals): the first iteration number, then the sender's
// best-known residual of that iteration and of the ones after it. The trailer
// is merged into the residual table before the arrival counts, so a
// controller released by the arrival sees it. A push of exactly Cols values
// carries none.
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
	// A correct sender never starts its trailer past the table's next entry,
	// so one that would leave a gap (or names no iteration) is ignored, and a
	// push grows the table by no more than it carries.
	if t := vals[len(dst):]; len(t) > 1 && t[0] >= 1 && t[0] <= float64(len(s.resid)+1) {
		for i, r := range t[1:] {
			s.noteResidual(int(t[0])+i, r)
		}
	}
	s.arrived[color]++
	s.ghosts.Broadcast()
	s.ghostMu.Unlock()
}

// awaitGhosts blocks the controller until want pushes of color have arrived
// from the neighbours. The counts run over the whole solve, so the k-th
// half-step of a color waits for k pushes per neighbour. It fails when a
// neighbour aborts or its node is marked down.
func (s *Section) awaitGhosts(ctx *core.Ctx, color, want int) error {
	s.ghostMu.Lock()
	defer s.ghostMu.Unlock()
	for s.arrived[color] < want && s.aborted == "" {
		if err := s.ghosts.Wait(ctx, &s.ghostMu, s.Near...); err != nil {
			return err
		}
	}
	if s.aborted != "" {
		return fmt.Errorf("sor: %s", s.aborted)
	}
	return nil
}

// noteResidual maxes r into the table entry of iteration k. ghostMu must be
// held.
func (s *Section) noteResidual(k int, r float64) {
	for len(s.resid) <= k {
		s.resid = append(s.resid, 0)
	}
	s.resid[k] = max(s.resid[k], r)
}

// residual reports the largest change of iteration k heard of so far.
func (s *Section) residual(k int) float64 {
	s.ghostMu.Lock()
	defer s.ghostMu.Unlock()
	return s.resid[k]
}

// residuals returns the trailer of a push made in iteration iter: the first
// iteration number, then this section's best-known residual of each of
// iterations max(1, iter-lag) … iter-1 — the window in which a residual is
// still travelling (see lag). It is empty in the first iteration.
func (s *Section) residuals(iter, lag int) []float64 {
	first := max(1, iter-lag)
	if first >= iter {
		return nil
	}
	t := make([]float64, 0, 1+iter-first)
	t = append(t, float64(first))
	s.ghostMu.Lock()
	t = append(t, s.resid[first:iter]...)
	s.ghostMu.Unlock()
	return t
}

// lag is L, how many iterations past iteration k a section on a strip of
// the given number of sections runs before it knows k's global residual.
//
// A section's residual of iteration k is complete once its red interior is
// relaxed, so it first leaves on the black push of iteration k+1, half-step
// 2k+1 (black of iteration m is half-step 2m-1, red is 2m). Every push
// carries what its sender has heard, and a section relaxes half-step t only
// after its neighbours' pushes of half-step t-1 have been installed, so the
// residual moves one section per half-step: its h-th hop leaves on half-step
// 2k+h and is installed before the receiver relaxes half-step 2k+h+1. The
// farthest section is S-1 hops away, so every section has heard all of
// iteration k before half-step 2k+S. The controller checks iteration m-L
// after the red-ghost wait that ends iteration m, the point before
// half-step 2m+1; 2(m-L)+S <= 2m+1 needs L = ceil((S-1)/2) = floor(S/2).
// The same count bounds the window: a push in iteration m forwards
// iterations m-L … m-1, the ones whose last hop is not yet made.
func lag(sections int) int { return sections / 2 }

// EdgeRow returns a copy of an owned edge row: which=-1 for the first owned
// row, +1 for the last. This is the single-invocation edge transfer of §6.
func (s *Section) EdgeRow(which int) []float64 { return s.edgePush(which, nil) }

// edgePush returns a copy of an owned edge row followed by trailer: the
// vals of one SetGhostColor push.
func (s *Section) edgePush(which int, trailer []float64) []float64 {
	li := 1
	if which > 0 {
		li = s.ownedRows()
	}
	out := make([]float64, s.Cols, s.Cols+len(trailer))
	copy(out, s.U[li])
	return append(out, trailer...)
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
// flight at once, each carrying the residual trailer. The futures are
// Figure 1's edge-exchange threads.
func (s *Section) pushEdges(ctx *core.Ctx, color int, trailer []float64) []*core.Future {
	var pushes []*core.Future
	if s.Up != core.NilRef {
		pushes = append(pushes, ctx.AsyncInvoke(s.Up, "SetGhostColor", +1, color, s.edgePush(-1, trailer)))
	}
	if s.Down != core.NilRef {
		pushes = append(pushes, ctx.AsyncInvoke(s.Down, "SetGhostColor", -1, color, s.edgePush(+1, trailer)))
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
// change with the edge pushes, which carry trailer, still in flight. With
// overlap (§6) the edge rows are relaxed first and shipped while the
// interior relaxes; without it the pushes start once the whole strip is
// done.
func (s *Section) phase(ctx *core.Ctx, color int, trailer []float64, overlap bool, computeThreads int) (float64, []*core.Future) {
	n := s.ownedRows()
	if !overlap {
		delta := s.computeParallel(ctx, color, 1, n, computeThreads)
		return delta, s.pushEdges(ctx, color, trailer)
	}
	delta := s.ComputeColorRange(color, 1, 1)
	if n > 1 {
		delta = max(delta, s.ComputeColorRange(color, n, n))
	}
	pushes := s.pushEdges(ctx, color, trailer)
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
	results := make(chan float64, computeThreads)
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
			results <- d
		}()
	}
	maxDelta := 0.0
	ctx.Block(func() {
		for i := 0; i < workers; i++ {
			maxDelta = max(maxDelta, <-results)
		}
	})
	return maxDelta
}

// Run is the section's controller thread (Figure 1): it drives iterations
// until the global residual of one falls below eps, and returns that
// iteration's number — the count SolveSequential reports for the same
// problem, with the owned rows as they stood after it.
//
// No barrier separates the colors. Red points read only black ghost cells
// and black points only red ones, so before relaxing a color the section
// waits for its own neighbours' latest pushes of the other color: iteration
// m relaxes black once m-1 red pushes per neighbour have arrived, and red
// once m black pushes have. Neighbours drift at most half a step apart.
//
// Nor is there a reduction. Each push carries its sender's residual
// trailer, so at the end of iteration m every section knows the global
// residual of iteration m-L (see lag) and decides on it alike, running L
// iterations past the one it reports. It keeps the owned rows of the last
// L iterations to restore the reported one. Without convergence it runs to
// maxIters+L and restores maxIters.
//
// A section that fails sends each neighbour an abort mark and does not wait
// for it to land, so no neighbour waits for good on ghosts that will never
// come; a neighbour whose node is marked down fails the ghost wait itself.
func (s *Section) Run(ctx *core.Ctx, eps float64, maxIters int, overlap bool, computeThreads int) (iters int, err error) {
	if maxIters < 1 {
		return maxIters, nil
	}
	defer func() {
		for _, r := range []core.Ref{s.Up, s.Down} {
			if err != nil && r != core.NilRef {
				ctx.AsyncInvoke(r, "Abort", s.Index, err.Error())
			}
		}
	}()
	neighbours := len(s.Near)
	lag := lag(s.Sections)
	slabs := make([][][]float64, lag) // owned rows after iteration j, at j%lag
	var red []*core.Future
	for m := 1; ; m++ {
		dB, black := s.phase(ctx, Black, s.residuals(m, lag), overlap, computeThreads)
		if err := s.awaitGhosts(ctx, Black, m*neighbours); err != nil {
			return m, err
		}
		// The previous iteration's red pushes are joined only now, so their
		// replies return while this section relaxes black.
		err := joinPushes(ctx, red)
		if berr := joinPushes(ctx, black); err == nil {
			err = berr
		}
		if err != nil {
			return m, err
		}
		var dR float64
		dR, red = s.phase(ctx, Red, s.residuals(m, lag), overlap, computeThreads)
		s.ghostMu.Lock()
		s.noteResidual(m, max(dB, dR))
		s.ghostMu.Unlock()
		// The wait the next iteration would begin with: the neighbours' red
		// pushes complete what this section hears of iteration m-L.
		if err := s.awaitGhosts(ctx, Red, m*neighbours); err != nil {
			return m, err
		}
		if k := m - lag; k >= 1 && (k == maxIters || s.residual(k) < eps) {
			if k < m {
				s.restoreRows(slabs[k%lag])
			}
			return k, joinPushes(ctx, red)
		}
		if lag > 0 {
			slabs[m%lag] = s.saveRows(slabs[m%lag])
		}
	}
}

// saveRows copies the owned rows into dst, allocating it on first use, and
// returns it.
func (s *Section) saveRows(dst [][]float64) [][]float64 {
	if dst == nil {
		dst = make([][]float64, s.ownedRows())
		for i := range dst {
			dst[i] = make([]float64, s.Cols)
		}
	}
	for i, row := range dst {
		copy(row, s.U[i+1])
	}
	return dst
}

// restoreRows overwrites the owned rows with a copy saveRows made.
func (s *Section) restoreRows(src [][]float64) {
	for i, row := range src {
		copy(s.U[i+1], row)
	}
}
