// SOR: the paper's application study (§6, Figure 1). Solves the steady-state
// temperature of a plate by Red/Black Successive Over-Relaxation on a
// cluster of multiprocessor nodes: one Section object per partition, and edge
// exchanges overlapped with interior computation that also carry the
// convergence residuals, so no master is consulted.
// The distributed result is verified against the sequential solver.
package main

import (
	"flag"
	"fmt"
	"log"

	"amber"
	"amber/internal/sor"
)

func main() {
	var (
		rows     = flag.Int("rows", 66, "grid rows (including boundary)")
		cols     = flag.Int("cols", 66, "grid columns (including boundary)")
		nodes    = flag.Int("nodes", 4, "cluster nodes")
		procs    = flag.Int("procs", 2, "processors per node")
		sections = flag.Int("sections", 0, "grid sections (0 = one per node)")
		overlap  = flag.Bool("overlap", true, "overlap edge exchange with compute")
		omega    = flag.Float64("omega", 1.5, "over-relaxation factor")
		eps      = flag.Float64("eps", 1e-4, "convergence threshold")
		iters    = flag.Int("max-iters", 20000, "iteration cap")
		verify   = flag.Bool("verify", true, "check against the sequential solver")
		showPlan = flag.Bool("print-structure", false, "print the Figure 1 program structure and exit")
	)
	flag.Parse()

	if *showPlan {
		s := *sections
		if s == 0 {
			s = *nodes
		}
		fmt.Print(sor.PrintStructure(s))
		return
	}

	cl, err := amber.NewCluster(amber.ClusterConfig{Nodes: *nodes, ProcsPerNode: *procs})
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()
	if err := sor.RegisterAll(cl); err != nil {
		log.Fatal(err)
	}

	p := sor.DefaultProblem(*rows, *cols)
	cfg := sor.Config{
		Problem: p, Omega: *omega, Eps: *eps, MaxIters: *iters,
		Sections: *sections, Overlap: *overlap, ComputeThreads: *procs,
	}
	res, err := sor.RunDistributed(cl, cfg)
	if err != nil {
		log.Fatal(err)
	}
	effSections := cfg.Sections
	if effSections == 0 {
		effSections = *nodes
	}
	fmt.Printf("distributed SOR: %dx%d grid on %d nodes × %d procs, %d sections, overlap=%v\n",
		*rows, *cols, *nodes, *procs, effSections, *overlap)
	fmt.Printf("  converged in %d iterations, %v wall time\n", res.Iters, res.Elapsed.Round(1e6))
	fmt.Printf("  centre temperature: %.4f\n", res.Grid[*rows/2][*cols/2])
	fmt.Printf("  network messages: %d\n", cl.NetStats().Value("msgs_sent"))

	if *verify {
		want, wantIters, err := sor.SolveSequential(p, *omega, *eps, *iters)
		if err != nil {
			log.Fatal(err)
		}
		diff := sor.MaxAbsDiff(want, res.Grid)
		fmt.Printf("verification vs sequential solver: iterations %d vs %d, max |Δ| = %.2e\n",
			res.Iters, wantIters, diff)
		if diff > 1e-9 || res.Iters != wantIters {
			log.Fatal("VERIFICATION FAILED")
		}
		fmt.Println("verification passed")
	}
}
