package sor

import (
	"runtime"
	"testing"
	"time"

	"amber/internal/core"
	"amber/internal/transport"
)

// awaitFor polls cond until it holds, failing the test after d.
func awaitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out after %v waiting for %s", d, what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestSORFailsLoudly: a solve that loses a section ends with an error within
// two seconds of the fault instead of leaving its neighbours blocked on
// ghosts that will never come. A crashed node is seen by the ghost wait's
// own probe or a push's timeout; a one-way cut stops the middle section,
// whose abort mark is the only thing that can release section 0, since node
// 1 still answers node 0.
func TestSORFailsLoudly(t *testing.T) {
	rows := []struct {
		name  string
		fault func(fl *transport.Faults)
	}{
		{"neighbour's node crashes mid-solve", func(fl *transport.Faults) { fl.Crash(2) }},
		{"one direction cut for good", func(fl *transport.Faults) { fl.Cut(1, 2) }},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			cl, err := core.NewCluster(core.ClusterConfig{
				Nodes: 3, ProcsPerNode: 1,
				RPCTimeout:   150 * time.Millisecond,
				ProbeTimeout: 60 * time.Millisecond,
				FaultSeed:    1,
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(cl.Close)
			if err := RegisterAll(cl); err != nil {
				t.Fatal(err)
			}
			errc := make(chan error, 1)
			go func() {
				// Eps 0 never converges: the solve runs until the fault ends it.
				_, err := RunDistributed(cl, Config{
					Problem: DefaultProblem(66, 66), Omega: 1.5, Eps: 0, MaxIters: 1 << 30,
					Sections: 3, Overlap: true, ComputeThreads: 1,
				})
				errc <- err
			}()
			awaitFor(t, 5*time.Second, "the solve to run", func() bool {
				return cl.Node(2).Stats().Value("invokes_executed_for_remote") >= 50
			})
			row.fault(cl.Faults())
			select {
			case err := <-errc:
				if err == nil {
					t.Fatal("solve succeeded despite the fault")
				}
				t.Logf("solve failed: %v", err)
			case <-time.After(2 * time.Second):
				t.Fatal("solve still blocked 2s after the fault")
			}
			cl.Close()
			awaitFor(t, 2*time.Second, "the cluster's goroutines to end", func() bool {
				return runtime.NumGoroutine() <= before
			})
		})
	}
}
