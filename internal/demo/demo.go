// Package demo holds the demonstration class the amberd and amber-load
// binaries both register: one definition, so the processes of a cluster
// agree on its wire name ("demo.Counter") and behavior by import rather than
// by keeping two copies in step.
package demo

import (
	"amber/internal/core"
	"amber/internal/gaddr"
)

// Counter is the demonstration class.
type Counter struct{ N int }

// Add increments and returns the counter.
func (c *Counter) Add(n int) int { c.N += n; return c.N }

// Get reads the counter without mutating it.
func (c *Counter) Get() int { return c.N }

// Where reports the executing node.
func (c *Counter) Where(ctx *core.Ctx) gaddr.NodeID { return ctx.NodeID() }

// AmberReadOnly declares the non-mutating methods, which lets the runtime
// serve them from reader-lease copies when a counter is marked cacheable
// (amber-load's readmostly workload).
func (c *Counter) AmberReadOnly() []string { return []string{"Get", "Where"} }
