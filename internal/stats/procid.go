package stats

import (
	_ "unsafe" // for go:linkname
)

// The hot-path recorders (Counter.Add, Histogram.Observe) are striped by the
// calling goroutine's P so that concurrent writers on different CPUs land on
// different cache lines instead of bouncing one atomic word between cores.
// Readers merge the stripes, which is fine for monitoring counters: reads are
// rare and a merge is numStripes atomic loads.
//
// numStripes is a power of two so the P id maps to a stripe with a mask. 16
// stripes give every P its own stripe up to GOMAXPROCS=16 and at worst a
// 4-way fold on a 64-core box — still a 16x reduction in sharing.
const numStripes = 16

// cacheLinePad is the assumed cache-line size used to pad stripes apart.
const cacheLinePad = 64

// runtime_procPin pins the calling goroutine to its P and returns the P's id.
// It is the same mechanism sync.Pool uses for its per-P pools; the pair below
// is pushed by the runtime for package sync, and the empty stub.s in this
// package lets us pull it here.
//
//go:linkname runtime_procPin sync.runtime_procPin
func runtime_procPin() int

//go:linkname runtime_procUnpin sync.runtime_procUnpin
func runtime_procUnpin()

// stripe returns the calling P's stripe index. The pin/unpin pair costs a few
// nanoseconds and does not block; the returned index may be stale by the time
// it is used (the goroutine can migrate after unpin), which only costs a
// little accuracy in the striping, never correctness — every stripe is a
// valid destination.
func stripe() int {
	p := runtime_procPin()
	runtime_procUnpin()
	return p & (numStripes - 1)
}
