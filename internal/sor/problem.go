// Package sor implements the paper's application study (§6): computing the
// steady-state temperature over a square plate by Red/Black Successive
// Over-Relaxation. It provides a sequential solver (the paper's speedup
// baseline) and a distributed Amber implementation structured exactly as
// Figure 1: one Section object per partition, compute threads within each
// section, and edge-exchange threads overlapping communication with
// computation. Figure 1's convergence master is gone: each edge push also
// carries its sender's per-iteration residuals, and every section stops on
// the same iteration from what its neighbours have told it.
package sor

import (
	"fmt"
	"math"
)

// Problem describes a plate: a Rows×Cols grid whose border holds fixed
// boundary temperatures and whose interior relaxes toward the solution of
// Laplace's equation.
type Problem struct {
	Rows, Cols int
	// Top, Bottom, Left, Right are the boundary temperatures.
	Top, Bottom, Left, Right float64
}

// DefaultProblem returns the conventional hot-top plate.
func DefaultProblem(rows, cols int) Problem {
	return Problem{Rows: rows, Cols: cols, Top: 100}
}

// Grid allocates the initial grid: boundary set, interior zero.
func (p Problem) Grid() [][]float64 {
	g := make([][]float64, p.Rows)
	for i := range g {
		g[i] = make([]float64, p.Cols)
	}
	for j := 0; j < p.Cols; j++ {
		g[0][j] = p.Top
		g[p.Rows-1][j] = p.Bottom
	}
	for i := 1; i < p.Rows-1; i++ {
		g[i][0] = p.Left
		g[i][p.Cols-1] = p.Right
	}
	return g
}

// Colors of the checkerboard.
const (
	Black = 0
	Red   = 1
)

// relax applies the SOR update to one point and returns the absolute change.
func relax(g [][]float64, i, j int, omega float64) float64 {
	old := g[i][j]
	avg := (g[i-1][j] + g[i+1][j] + g[i][j-1] + g[i][j+1]) / 4
	next := old + omega*(avg-old)
	g[i][j] = next
	return math.Abs(next - old)
}

// SolveSequential runs Red/Black SOR on a single processor until the largest
// per-iteration change falls below eps or maxIters is reached. It returns
// the final grid and the iteration count. The update order (all black, then
// all red) matches the distributed solver point for point, so results are
// bitwise comparable.
func SolveSequential(p Problem, omega, eps float64, maxIters int) ([][]float64, int, error) {
	if err := validate(p, omega); err != nil {
		return nil, 0, err
	}
	g := p.Grid()
	for iter := 1; iter <= maxIters; iter++ {
		maxDelta := 0.0
		for _, color := range []int{Black, Red} {
			for i := 1; i < p.Rows-1; i++ {
				for j := 1; j < p.Cols-1; j++ {
					if (i+j)%2 != color {
						continue
					}
					if d := relax(g, i, j, omega); d > maxDelta {
						maxDelta = d
					}
				}
			}
		}
		if maxDelta < eps {
			return g, iter, nil
		}
	}
	return g, maxIters, nil
}

func validate(p Problem, omega float64) error {
	if p.Rows < 3 || p.Cols < 3 {
		return fmt.Errorf("sor: grid %dx%d too small", p.Rows, p.Cols)
	}
	if omega <= 0 || omega >= 2 {
		return fmt.Errorf("sor: omega %g outside (0,2)", omega)
	}
	return nil
}

// MaxAbsDiff reports the largest absolute elementwise difference between two
// grids, for verification.
func MaxAbsDiff(a, b [][]float64) float64 {
	m := 0.0
	for i := range a {
		for j := range a[i] {
			if d := math.Abs(a[i][j] - b[i][j]); d > m {
				m = d
			}
		}
	}
	return m
}
