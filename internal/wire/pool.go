package wire

import (
	"math/bits"
	"sync"
)

// Pooled message buffers. Every message that crosses a node boundary is
// assembled in, and received into, one buffer from this pool; DESIGN.md §6.2
// states who owns it at each step and who returns it. PutBuf is always
// optional — a buffer that is never returned is simply garbage-collected —
// but a path that forgets it turns every message into garbage.
//
// The pool is size-classed by powers of two, minBufCap … maxPooledCap. A
// request for n bytes is served from the smallest class that holds n, so an
// 8 KiB payload reuses a 16 KiB buffer instead of discarding a 1 KiB one and
// allocating; a returned buffer joins the largest class it can serve. Above
// maxPooledCap (bulk installs) buffers are plain allocations: pooling them
// would pin memory for no benefit.
const (
	minBufShift   = 10 // 1 KiB
	numBufClasses = 9
	minBufCap     = 1 << minBufShift
	maxPooledCap  = minBufCap << (numBufClasses - 1) // 256 KiB
)

var (
	bufPools [numBufClasses]sync.Pool // of *[]byte, each with cap ≥ its class size
	// hdrPool recycles the slice headers the class pools store, so that a
	// Get/Put cycle allocates nothing.
	hdrPool = sync.Pool{New: func() any { return new([]byte) }}
)

// GetBuf returns an empty buffer of the smallest class. Append to it; return
// it with PutBuf when its contents are no longer referenced anywhere.
func GetBuf() []byte { return GetBufCap(0) }

// GetBufCap returns an empty pooled buffer with room for at least n bytes:
// an encoder that knows roughly how much it will append (see SizeHint) asks
// for that much and never regrows.
func GetBufCap(n int) []byte {
	class := 0
	if n > minBufCap {
		class = bits.Len(uint(n-1)) - minBufShift
	}
	if class >= numBufClasses {
		return make([]byte, 0, n)
	}
	if p, _ := bufPools[class].Get().(*[]byte); p != nil {
		b := *p
		*p = nil
		hdrPool.Put(p)
		return b
	}
	return make([]byte, 0, minBufCap<<class)
}

// GetBufN returns a pooled buffer of length n (contents undefined).
func GetBufN(n int) []byte { return GetBufCap(n)[:n] }

// PutBuf returns b's backing array to the pool. The caller must not touch b
// (or anything aliasing it) afterwards. Putting nil, a buffer smaller than
// the smallest class or one larger than the largest is a no-op.
func PutBuf(b []byte) {
	c := cap(b)
	if c < minBufCap || c > maxPooledCap {
		return
	}
	p := hdrPool.Get().(*[]byte)
	*p = b[:0]
	bufPools[bits.Len(uint(c))-1-minBufShift].Put(p)
}

// SizeHint estimates the encoded size of an argument (or result) vector from
// the lengths of its bulk elements, without walking them: enough to presize
// the frame buffer so that appending the vector does not regrow it. Scalars
// and unknown types count a small constant.
func SizeHint(args []any) int {
	n := 8
	for _, a := range args {
		switch x := a.(type) {
		case []byte:
			n += len(x)
		case string:
			n += len(x)
		case []float64:
			n += 8 * len(x)
		case []int:
			n += 9 * len(x)
		case []int64:
			n += 9 * len(x)
		}
		n += 16
	}
	return n
}
