package sched

import "container/heap"

// --- deque (default) ---

// dequeCap bounds one slot's deque. 256 tasks of backlog per slot is far
// beyond any sane oversubscription; past it, arrivals spill to the
// scheduler's shared overflow ring, which keeps a slot's working set — and
// the memory a dead-queue scan touches — bounded.
const dequeCap = 256

// deque is the default per-slot discipline: a fixed-size ring used as a
// double-ended queue. Fresh arrivals push and pop at the same end, so the
// slot runs its most recently readied task first — the one whose state is
// warmest in cache. Steals (and yielded re-enqueues) use the opposite end:
// a thief takes the slot's oldest, coldest task, and a yielder goes to the
// back of its own queue so it cannot overtake the threads it yielded to.
type deque struct {
	buf [dequeCap]*Task
	// head/tail are free-running; elements live in [head, tail). Pop takes
	// at tail (newest), Steal at head (oldest).
	head uint32
	tail uint32
}

// NewDeque returns the bounded work-stealing deque (the default policy).
func NewDeque() Policy { return &deque{} }

func (d *deque) Len() int { return int(d.tail - d.head) }

func (d *deque) Push(t *Task) bool {
	if d.tail-d.head == dequeCap {
		return false
	}
	if t.Yielded {
		d.head--
		d.buf[d.head%dequeCap] = t
	} else {
		d.buf[d.tail%dequeCap] = t
		d.tail++
	}
	return true
}

func (d *deque) Pop() *Task {
	if d.head == d.tail {
		return nil
	}
	d.tail--
	i := d.tail % dequeCap
	t := d.buf[i]
	d.buf[i] = nil
	return t
}

func (d *deque) Steal() *Task {
	if d.head == d.tail {
		return nil
	}
	i := d.head % dequeCap
	t := d.buf[i]
	d.buf[i] = nil
	d.head++
	return t
}

// --- priority ---

// priority runs the highest-priority task first; FIFO among equals. It is
// the discipline Ctx.SetPriority speaks to: a thread's priority rides its
// record across every function ship into Task.Priority. The queue is a
// binary heap: O(log n) push and pop.
type priority struct{ h taskHeap }

// NewPriority returns a strict-priority policy.
func NewPriority() Policy { return &priority{} }

func (p *priority) Len() int { return len(p.h) }

func (p *priority) Push(t *Task) bool {
	heap.Push(&p.h, t)
	return true
}

func (p *priority) Pop() *Task {
	if len(p.h) == 0 {
		return nil
	}
	return heap.Pop(&p.h).(*Task)
}

// Steal surrenders the same task Pop would run: the stolen task executes
// immediately on the thieving slot, so strict priority order is exactly
// preserved.
func (p *priority) Steal() *Task { return p.Pop() }

// taskHeap orders descending by priority, ascending by enqueue sequence
// among equals (stable FIFO within a priority band).
type taskHeap []*Task

func (h taskHeap) Len() int { return len(h) }
func (h taskHeap) Less(i, j int) bool {
	if h[i].Priority != h[j].Priority {
		return h[i].Priority > h[j].Priority
	}
	return h[i].Seq < h[j].Seq
}
func (h taskHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *taskHeap) Push(x any) { *h = append(*h, x.(*Task)) }

func (h *taskHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return t
}
