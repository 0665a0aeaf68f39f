// Package sched implements Amber's per-node thread scheduler, derived from
// Presto (§2.1 of the paper). A node on the original Firefly had a small
// number of CPUs; Amber multiplexed many cheap threads over them and let an
// application replace the scheduling discipline at runtime.
//
// Here each node has P *processor slots*. An Amber operation must hold a slot
// while it executes; blocking primitives (lock waits, joins, remote
// invocations) release the slot so another ready thread can run — which is
// exactly how the speedup experiments honour "N nodes × P processors" even
// when the host machine has a different CPU count.
//
// The implementation is a per-slot run-queue scheduler in the style of work-
// stealing runtimes:
//
//   - Slot capacity is an atomic token counter. The uncontended path through
//     Acquire/TryAcquire/Release — no task queued anywhere — is a couple of
//     atomic operations: no mutex, no channel, no allocation.
//   - Each slot owns a small run queue guarded by its own mutex, so enqueues
//     and dispatches on different slots never contend. A task has a stable
//     slot affinity (hashed from its thread ID) and always queues there.
//   - A dispatcher (a releasing slot, or an acquirer that raced a release)
//     pops its own queue first — newest first under the default deque, for
//     cache affinity — then the shared overflow ring, then *steals* from the
//     other slots' queues in randomized order, oldest task first.
//   - Parking is a per-task grant channel, used only when a task truly has to
//     wait. The enqueue/release protocol is a double-check: an enqueuer
//     publishes its task and then re-checks the token counter; a releaser
//     publishes the token and then re-checks the waiter counter. Whichever
//     side ran second sees the other, so a ready task never sleeps while a
//     slot sits idle (no lost wakeups).
//
// The ready discipline within one slot is a replaceable Policy, swapped at
// runtime with SetPolicy as in the paper. Two ship: the bounded deque (the
// default) and a priority heap, which honours Ctx.SetPriority.
package sched

import (
	"sort"
	"sync"
	"sync/atomic"

	"amber/internal/stats"
)

// Task describes a schedulable unit waiting for a processor slot.
type Task struct {
	// ThreadID identifies the Amber thread, for policies and debugging.
	ThreadID uint64
	// Priority orders threads under the priority policy; higher runs first.
	Priority int
	// Seq is a monotone enqueue sequence assigned by the scheduler; the
	// priority heap uses it for arrival order among equals, and SetPolicy
	// to re-queue waiters in their original order.
	Seq uint64
	// Yielded marks that this enqueue came from a timeslice yield rather
	// than a fresh arrival or a block-wakeup; the default deque queues
	// yielded tasks at its steal end so a yielder cannot overtake the
	// threads it yielded to.
	Yielded bool

	// slot is the task's slot affinity plus one (0 = not yet assigned).
	// Only the goroutine animating the task touches it.
	slot uint32

	grant chan struct{}
}

// Policy is a ready-queue discipline for one slot. Implementations need no
// internal locking; the owning slot's lock serializes access.
type Policy interface {
	// Push adds a waiting task. It reports false when the queue is at
	// capacity and cannot admit the task; the scheduler then spills the task
	// to its shared overflow ring. Unbounded policies always return true.
	Push(*Task) bool
	// Pop removes and returns the task this slot should run next, or nil.
	Pop() *Task
	// Steal removes and returns the task the discipline is most willing to
	// hand to another slot, or nil. An ordered policy (priority) gives away
	// the same task Pop would (the stolen task runs immediately, so the
	// best-ranked task is the right one to surrender); an affinity-ordered
	// one (deque) gives away its oldest, coldest task instead.
	Steal() *Task
	// Len reports the number of waiting tasks.
	Len() int
}

// slotq is one processor slot's run queue, padded so neighbouring slots'
// locks never share a cache line.
type slotq struct {
	mu     sync.Mutex
	policy Policy
	_      [40]byte
}

// fairTickPeriod is how often a dispatch inverts its scan order (overflow
// and oldest-first steals before the local queue). Like the Go runtime's
// schedTick check of the global queue, it bounds how long a task parked on
// one slot's queue can be overtaken by another slot's fresher arrivals.
const fairTickPeriod = 61

// Scheduler manages P processor slots for one node.
type Scheduler struct {
	slots []slotq

	// free is the token counter: slots not currently held by a task.
	free atomic.Int64
	// nwait counts tasks queued across all slot queues plus the overflow
	// ring. It gates the acquire fast path (a free token may only be taken
	// directly when nobody is queued) and the yield fast path.
	nwait   atomic.Int64
	running atomic.Int64
	seq     atomic.Uint64
	ticks   atomic.Uint64
	rnd     atomic.Uint64

	// overflow is the shared FIFO ring: tasks a bounded slot queue could not
	// admit.
	omu      sync.Mutex
	overflow ring

	counts *stats.Set
	// Hot-path counters are cached out of counts: Set.Inc is a mutex-guarded
	// map lookup, and the whole point of the token fast path is to touch no
	// lock. The counters themselves are per-P striped (see stats).
	cAcquires *stats.Counter // acquires: every Acquire call
	cFast     *stats.Counter // acquire_fast: lock-free grants
	cYields   *stats.Counter // yields
	cBlocks   *stats.Counter // blocks
	cSteals   *stats.Counter // steals: dispatches served from another slot
	cHandoffs *stats.Counter // handoffs: release passed the slot directly on
	cParks    *stats.Counter // parks: tasks that actually slept on a grant
	cUnparks  *stats.Counter // unparks: queued tasks granted a slot
	cSpills   *stats.Counter // overflow_spills: bounded-queue overflows
	cStealAtt *stats.Counter // steal_attempts: dispatch sweeps into a slot queue
}

// New creates a scheduler with the given number of processor slots (minimum
// 1). policy builds each slot's initial ready discipline (nil selects the
// bounded work-stealing deque); NewDeque and NewPriority are valid
// arguments.
func New(slots int, policy func() Policy) *Scheduler {
	if slots < 1 {
		slots = 1
	}
	if policy == nil {
		policy = NewDeque
	}
	s := &Scheduler{slots: make([]slotq, slots), counts: stats.NewSet()}
	for i := range s.slots {
		s.slots[i].policy = policy()
	}
	s.free.Store(int64(slots))
	s.cAcquires = s.counts.Get("acquires")
	s.cFast = s.counts.Get("acquire_fast")
	s.cYields = s.counts.Get("yields")
	s.cBlocks = s.counts.Get("blocks")
	s.cSteals = s.counts.Get("steals")
	s.cHandoffs = s.counts.Get("handoffs")
	s.cParks = s.counts.Get("parks")
	s.cUnparks = s.counts.Get("unparks")
	s.cSpills = s.counts.Get("overflow_spills")
	s.cStealAtt = s.counts.Get("steal_attempts")
	return s
}

// Slots returns the processor count.
func (s *Scheduler) Slots() int { return len(s.slots) }

// Stats exposes scheduler counters (acquires, acquire_fast, yields, blocks,
// steals, steal_attempts, handoffs, parks, unparks, overflow_spills).
func (s *Scheduler) Stats() *stats.Set { return s.counts }

// QueueDepths reports the instantaneous depth of every slot queue plus the
// shared overflow ring. The read locks each queue in turn, so the result is
// a per-queue-consistent gauge, not a global snapshot — exactly what a
// metrics scrape wants.
func (s *Scheduler) QueueDepths() (slots []int, overflow int) {
	slots = make([]int, len(s.slots))
	for i := range s.slots {
		q := &s.slots[i]
		q.mu.Lock()
		slots[i] = q.policy.Len()
		q.mu.Unlock()
	}
	s.omu.Lock()
	overflow = s.overflow.len()
	s.omu.Unlock()
	return slots, overflow
}

// Running reports how many tasks currently hold slots.
func (s *Scheduler) Running() int { return int(s.running.Load()) }

// Waiting reports how many tasks are queued for a slot.
func (s *Scheduler) Waiting() int { return int(s.nwait.Load()) }

// SetPolicy replaces the ready discipline at runtime (§2.1: "an application
// can install a custom scheduling discipline at runtime"). policy builds one
// instance per slot. Waiting tasks are drained from the old instances and
// re-pushed, in their original enqueue order, into the new ones.
//
// The transfer is not atomic with respect to concurrent dispatchers: for the
// instant a task is held here it is invisible to them, and a release in that
// window parks its token. The trailing wake pass re-checks exactly as an
// enqueuer would, so no transferred task is stranded.
func (s *Scheduler) SetPolicy(policy func() Policy) {
	if policy == nil {
		return
	}
	var moved []*Task
	for i := range s.slots {
		q := &s.slots[i]
		q.mu.Lock()
		for t := q.policy.Pop(); t != nil; t = q.policy.Pop() {
			moved = append(moved, t)
			s.nwait.Add(-1)
		}
		q.policy = policy()
		q.mu.Unlock()
	}
	sort.Slice(moved, func(i, j int) bool { return moved[i].Seq < moved[j].Seq })
	for _, t := range moved {
		s.push(t)
	}
	s.wake()
}

// takeToken claims a free slot token.
func (s *Scheduler) takeToken() bool {
	for {
		f := s.free.Load()
		if f <= 0 {
			return false
		}
		if s.free.CompareAndSwap(f, f-1) {
			return true
		}
	}
}

// slotIndex returns the task's slot affinity, assigning one on first use.
// Thread IDs are sequential per node, so the modulus spreads threads evenly.
func (s *Scheduler) slotIndex(t *Task) int {
	if t == nil {
		return -1
	}
	if t.slot == 0 {
		t.slot = uint32(t.ThreadID%uint64(len(s.slots))) + 1
	}
	return int(t.slot) - 1
}

// push adds t to its slot queue (or the overflow ring when the queue is
// full) and makes it visible to dispatchers. The caller must already have
// stamped Seq/Yielded and ensured the grant channel.
func (s *Scheduler) push(t *Task) {
	q := &s.slots[s.slotIndex(t)]
	q.mu.Lock()
	if q.policy.Push(t) {
		s.nwait.Add(1)
		q.mu.Unlock()
		return
	}
	q.mu.Unlock()
	s.cSpills.Inc()
	s.omu.Lock()
	s.overflow.pushBack(t)
	s.nwait.Add(1)
	s.omu.Unlock()
}

// enqueue prepares t (sequence stamp, grant channel, yield mark) and
// publishes it on its run queue.
func (s *Scheduler) enqueue(t *Task, yielded bool) {
	if t.grant == nil {
		t.grant = make(chan struct{}, 1)
	}
	t.Seq = s.seq.Add(1)
	t.Yielded = yielded
	s.push(t)
}

// popSlot pops slot i's own queue.
func (s *Scheduler) popSlot(i int) *Task {
	q := &s.slots[i]
	q.mu.Lock()
	t := q.policy.Pop()
	if t != nil {
		s.nwait.Add(-1)
	}
	q.mu.Unlock()
	return t
}

// stealSlot steals from slot i's queue.
func (s *Scheduler) stealSlot(i int) *Task {
	s.cStealAtt.Inc()
	q := &s.slots[i]
	q.mu.Lock()
	t := q.policy.Steal()
	if t != nil {
		s.nwait.Add(-1)
	}
	q.mu.Unlock()
	return t
}

// popOverflow pops the oldest spilled task.
func (s *Scheduler) popOverflow() *Task {
	s.omu.Lock()
	t := s.overflow.popFront()
	if t != nil {
		s.nwait.Add(-1)
	}
	s.omu.Unlock()
	return t
}

// nextRand steps a cheap Weyl sequence for steal-scan randomization. The
// values only pick scan starting points, so quality hardly matters; what
// matters is that concurrent thieves fan out over different victims.
func (s *Scheduler) nextRand() int {
	return int(s.rnd.Add(0x9E3779B97F4A7C15) >> 33)
}

// dispatch removes and returns the next task to run, or nil if every queue
// is empty. pref is the dispatching task's slot (-1: none). The normal scan
// order is local queue, overflow ring, randomized steal sweep; every
// fairTickPeriod-th dispatch inverts it (overflow first, then an oldest-
// first sweep of every slot) so no queue is starved by local churn.
func (s *Scheduler) dispatch(pref int) *Task {
	if s.nwait.Load() == 0 {
		return nil
	}
	fair := s.ticks.Add(1)%fairTickPeriod == 0
	if !fair && pref >= 0 {
		if t := s.popSlot(pref); t != nil {
			return t
		}
	}
	if t := s.popOverflow(); t != nil {
		return t
	}
	n := len(s.slots)
	off := s.nextRand()
	for i := 0; i < n; i++ {
		v := (off + i) % n
		if v == pref && !fair {
			continue // already popped above
		}
		var t *Task
		if fair {
			t = s.stealSlot(v)
		} else if t = s.stealSlot(v); t != nil {
			s.cSteals.Inc()
		}
		if t != nil {
			return t
		}
	}
	return nil
}

// grant hands a dispatched task the right to run. The channel is buffered,
// so the granter never blocks.
func (s *Scheduler) grant(t *Task) {
	s.cUnparks.Inc()
	t.grant <- struct{}{}
}

// wake is the releaser's half of the anti-lost-wakeup double-check: after a
// token is published, re-read the waiter count and, if anyone is queued,
// re-take the token and dispatch them. The loop re-verifies the count each
// round because a concurrent dispatcher may drain the queues between our
// count read and our scan; it terminates as soon as the count reads zero or
// the tokens are gone.
func (s *Scheduler) wake() {
	for s.nwait.Load() > 0 {
		if !s.takeToken() {
			return
		}
		if next := s.dispatch(-1); next != nil {
			s.grant(next)
			return
		}
		s.free.Add(1)
	}
}

// Acquire blocks until the task is granted a processor slot.
func (s *Scheduler) Acquire(t *Task) {
	s.cAcquires.Inc()
	// Fast path: a free token and an empty system. Two atomic loads and a
	// CAS; no lock, no channel.
	if s.nwait.Load() == 0 && s.takeToken() {
		s.cFast.Inc()
		s.running.Add(1)
		return
	}
	s.enqueue(t, false)
	// Enqueuer's half of the double-check: a token may have been freed
	// between our fast-path read and the publish above. If we can take one
	// now, dispatch with it — usually drawing ourselves straight back out.
	if s.takeToken() {
		switch next := s.dispatch(s.slotIndex(t)); {
		case next == t:
			s.running.Add(1)
			return
		case next != nil:
			// An older task outranks us under the discipline: it gets the
			// token, we park.
			s.grant(next)
		default:
			// Our task was already claimed by a concurrent dispatcher; its
			// grant is in flight. Return the token.
			s.free.Add(1)
		}
	}
	s.cParks.Inc()
	<-t.grant
	s.running.Add(1)
}

// TryAcquire grants a slot only if one is immediately free and no task is
// queued ahead; it never blocks. A granted slot counts as an acquire on the
// fast path, exactly as Acquire would have counted it; a refusal counts
// nothing, so a caller that follows it with Acquire is counted once.
func (s *Scheduler) TryAcquire() bool {
	if s.nwait.Load() == 0 && s.takeToken() {
		s.cAcquires.Inc()
		s.cFast.Inc()
		s.running.Add(1)
		return true
	}
	return false
}

// Release returns the caller's slot to the pool, waking the next queued task
// per the discipline. t is the task that held the slot (nil is allowed; it
// only loses the slot-affinity preference).
func (s *Scheduler) Release(t *Task) {
	s.running.Add(-1)
	if s.nwait.Load() != 0 {
		if next := s.dispatch(s.slotIndex(t)); next != nil {
			// Direct handoff: the slot never goes free, the token counter is
			// untouched, the next task just inherits the slot.
			s.cHandoffs.Inc()
			s.grant(next)
			return
		}
	}
	s.free.Add(1)
	s.wake()
}

// Yield releases the slot and immediately re-queues the task, implementing
// cooperative timeslicing. It returns once the task holds a slot again.
func (s *Scheduler) Yield(t *Task) {
	s.cYields.Inc()
	if s.nwait.Load() == 0 {
		// No competition: keep the slot.
		return
	}
	s.enqueue(t, true)
	next := s.dispatch(s.slotIndex(t))
	if next == t {
		// Drew ourselves straight back: nobody outranked us.
		return
	}
	if next == nil {
		// A concurrent dispatcher claimed us between the push and our scan;
		// its grant conveys a slot. Absorb it and free the one we held.
		<-t.grant
		s.free.Add(1)
		s.wake()
		return
	}
	s.running.Add(-1)
	s.grant(next)
	s.cParks.Inc()
	<-t.grant
	s.running.Add(1)
}

// Block releases the slot, runs wait (which should block until the task may
// continue, e.g. on a channel), then re-acquires a slot. It is the bridge
// between Amber blocking primitives and the processor model.
func (s *Scheduler) Block(t *Task, wait func()) {
	s.cBlocks.Inc()
	s.Release(t)
	wait()
	s.Acquire(t)
}
