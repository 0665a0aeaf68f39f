package main

import (
	"math/bits"
	"sort"
	"time"
)

// hist is a log-linear latency histogram in nanoseconds: 128 sub-buckets per
// power of two, so a bucket is under 0.8 % wide. Recording is one shift and
// one increment, which a 400 ns local invoke can afford; keeping every sample
// instead would cost 16 bytes for each of tens of millions of operations.
// Quantiles interpolate within the bucket, so they vary continuously with the
// counts instead of snapping to the clock's grain.
type hist struct {
	counts []uint32
	n      uint64
	max    uint64
}

const (
	subBits  = 7
	subCount = 1 << subBits
)

func newHist() *hist { return &hist{counts: make([]uint32, (64-subBits+1)*subCount)} }

func bucketOf(v uint64) int {
	if v < subCount {
		return int(v)
	}
	shift := bits.Len64(v) - (subBits + 1)
	return (shift+1)<<subBits + int(v>>shift) - subCount
}

// bucketBounds returns the lowest value of bucket i and the bucket's width.
func bucketBounds(i int) (lo, width uint64) {
	if i < subCount {
		return uint64(i), 1
	}
	shift := i>>subBits - 1
	return uint64(subCount+i&(subCount-1)) << shift, 1 << shift
}

func (h *hist) add(d time.Duration) {
	v := uint64(d)
	if d < 0 {
		v = 0
	}
	h.counts[bucketOf(v)]++
	h.n++
	if v > h.max {
		h.max = v
	}
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	if o.max > h.max {
		h.max = o.max
	}
}

// quantile returns the value below which a share q of the samples lie, in
// nanoseconds, never above the largest sample seen.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	target := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= target {
			lo, width := bucketBounds(i)
			v := float64(lo) + float64(width)*(target-cum)/float64(c)
			if v > float64(h.max) {
				v = float64(h.max)
			}
			return v
		}
		cum += float64(c)
	}
	return float64(h.max)
}

// tailQuantile is the quantile reported for a nominal tail percentile q on a
// window of n samples: q itself where at least ten samples lie beyond it,
// else the highest percentile that still has ten beyond it, else — under
// twenty samples, where no percentile above the median has — the maximum.
func tailQuantile(q float64, n uint64) float64 {
	switch {
	case float64(n)*(1-q) >= 10:
		return q
	case n >= 20:
		return 1 - 10/float64(n)
	default:
		return 1
	}
}

// stat is one reported value: the median of the per-window values, with the
// windows' extremes beside it.
type stat struct{ median, min, max float64 }

func medianOf(vals []float64) stat {
	if len(vals) == 0 {
		return stat{}
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	m := s[len(s)/2]
	if len(s)%2 == 0 {
		m = (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	return stat{median: m, min: s[0], max: s[len(s)-1]}
}

// counters is a flat snapshot of cluster-wide event counts, keyed
// "family.name" (node, sched, rpc, transport, wire).
type counters map[string]int64

// deltaCounters returns after − before − overhead: what the workload between
// two snapshots did, with the snapshots' own traffic taken out.
func deltaCounters(before, after, overhead counters) counters {
	out := make(counters, len(after))
	for k, v := range after {
		if d := v - before[k] - overhead[k]; d != 0 {
			out[k] = d
		}
	}
	return out
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
