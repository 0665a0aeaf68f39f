package sched

// ring is a growable FIFO circular buffer of tasks — the scheduler's shared
// overflow queue: O(1) push and pop, no O(n) copy on dequeue. Indices are
// free-running uint64s; buf's length is a power of two, so position is
// index & mask. Elements live in [head, tail).
type ring struct {
	buf  []*Task
	head uint64
	tail uint64
}

func (r *ring) len() int { return int(r.tail - r.head) }

func (r *ring) grow() {
	n := len(r.buf) * 2
	if n == 0 {
		n = 16
	}
	nb := make([]*Task, n)
	for i := r.head; i != r.tail; i++ {
		nb[i&uint64(n-1)] = r.buf[i&uint64(len(r.buf)-1)]
	}
	r.buf = nb
}

// pushBack appends at the tail (newest end).
func (r *ring) pushBack(t *Task) {
	if r.len() == len(r.buf) {
		r.grow()
	}
	r.buf[r.tail&uint64(len(r.buf)-1)] = t
	r.tail++
}

// popFront removes the oldest element, or nil.
func (r *ring) popFront() *Task {
	if r.head == r.tail {
		return nil
	}
	i := r.head & uint64(len(r.buf)-1)
	t := r.buf[i]
	r.buf[i] = nil
	r.head++
	return t
}
