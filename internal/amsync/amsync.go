// Package amsync provides Amber's synchronization classes (§2.2 of the
// paper): relinquishing locks, non-relinquishing (spin) locks, barriers,
// monitors, condition variables, plus semaphore and event classes in the
// same style. They are ordinary Amber objects — mobile, remotely invocable —
// so a lock can be placed on one node and acquired by threads anywhere:
// acquiring a remote lock is one function-shipped invocation, the property
// §4.1 contrasts with page-DSM lock thrashing.
//
// Blocking operations wait on a core.WaitQueue, which releases the calling
// thread's processor slot, so a blocked Amber thread frees its CPU for other
// ready threads, as in Presto. Every such wait has an exit: Acquire, Enter,
// P, Event.Wait, CondVar.Wait, Arrive, AcquireRead and AcquireWrite return
// an error matching core.ErrNodeDown when the node of the thread that would
// wake them — a lock's, monitor's or writer's holder, by its home node — is
// marked down, core.ErrOrphaned when the waiting thread's own home is, and an
// ErrNodeDown-class error when the object's node closes. A holder is known
// by its home node only, so a holder that dies elsewhere is not seen, and one
// still running on another node when its home dies is taken for dead: its
// waiters fail though it will release. A lock whose holder died stays held:
// every later acquirer gets the same error.
//
// The classes guard their own migration (core.MoveGuard): a lock with an
// owner or queued waiters refuses to move, since its blocked threads cannot
// be shipped. Idle synchronization objects move freely; their unexported
// runtime state is empty and the exported configuration travels by gob.
package amsync

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"amber/internal/core"
	"amber/internal/gaddr"
)

// ErrNotOwner is returned by Release/Exit when the calling thread does not
// hold the lock or monitor.
var ErrNotOwner = errors.New("amsync: calling thread is not the owner")

// ErrBusy is wrapped into CanMove vetoes.
var ErrBusy = errors.New("amsync: object is in use")

// Registrar abstracts the class registry (core.Cluster and core.Registry
// both satisfy it).
type Registrar interface{ Register(v any) error }

// RegisterAll registers every amsync class with r. Call it once per process
// before creating synchronization objects.
func RegisterAll(r Registrar) error {
	for _, v := range []any{&Lock{}, &SpinLock{}, &RWLock{}, &Barrier{}, &Monitor{}, &CondVar{}, &Semaphore{}, &Event{}} {
		if err := r.Register(v); err != nil {
			return err
		}
	}
	return nil
}

// --- relinquishing lock ---

// Lock is a relinquishing mutual-exclusion lock: a blocked acquirer gives up
// its processor. Acquire from a remote node function-ships to the lock's
// node and blocks there.
type Lock struct {
	mu      sync.Mutex
	held    bool
	owner   uint64
	home    gaddr.NodeID // the owner's home node, which a waiter names
	waiters core.WaitQueue
}

// Acquire blocks until the lock is held by the calling thread, or fails
// when the holder's home node or the caller's own is marked down.
func (l *Lock) Acquire(ctx *core.Ctx) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.held {
		if err := l.waiters.Wait(ctx, &l.mu, l.home); err != nil {
			return err
		}
	}
	l.held, l.owner, l.home = true, ctx.ThreadID(), ctx.Home()
	return nil
}

// TryAcquire takes the lock if it is free, reporting success.
func (l *Lock) TryAcquire(ctx *core.Ctx) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.held {
		return false
	}
	l.held, l.owner, l.home = true, ctx.ThreadID(), ctx.Home()
	return true
}

// Release unlocks; only the owning thread may call it.
func (l *Lock) Release(ctx *core.Ctx) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.held || l.owner != ctx.ThreadID() {
		return fmt.Errorf("%w: lock owner is thread %d", ErrNotOwner, l.owner)
	}
	l.held = false
	l.owner = 0
	l.waiters.Signal()
	return nil
}

// Held reports whether the lock is currently held (a racy snapshot, for
// monitoring).
func (l *Lock) Held(ctx *core.Ctx) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.held
}

// CanMove vetoes migration while the lock is held or contended.
func (l *Lock) CanMove() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.held || l.waiters.Len() > 0 {
		return fmt.Errorf("%w: lock held or contended", ErrBusy)
	}
	return nil
}

// --- non-relinquishing (spin) lock ---

// SpinLock is a non-relinquishing lock (§2.2): an acquirer keeps its
// processor and spins. The paper argues these reduce latency for very short
// critical sections on multiprocessor nodes. Spinning yields the Go
// scheduler (the stand-in for a hardware test-and-set loop) so other
// goroutines on the node still run.
type SpinLock struct {
	mu   sync.Mutex
	held bool
}

// Acquire spins until the lock is taken. The calling thread keeps its
// processor slot the whole time.
func (s *SpinLock) Acquire(ctx *core.Ctx) {
	for {
		s.mu.Lock()
		if !s.held {
			s.held = true
			s.mu.Unlock()
			return
		}
		s.mu.Unlock()
		runtime.Gosched()
	}
}

// TryAcquire takes the lock if free.
func (s *SpinLock) TryAcquire(ctx *core.Ctx) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.held {
		return false
	}
	s.held = true
	return true
}

// Release unlocks.
func (s *SpinLock) Release(ctx *core.Ctx) {
	s.mu.Lock()
	s.held = false
	s.mu.Unlock()
}

// CanMove vetoes migration while held.
func (s *SpinLock) CanMove() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.held {
		return fmt.Errorf("%w: spinlock held", ErrBusy)
	}
	return nil
}

// --- barrier ---

// Barrier synchronizes a fixed party of threads (§2.2); the SOR application
// uses one per iteration. It is reusable: each full arrival opens a new
// epoch.
type Barrier struct {
	// Parties is the number of threads that must arrive; exported so it
	// migrates with the object.
	Parties int

	mu      sync.Mutex
	epoch   int64
	count   int
	waiters core.WaitQueue
}

// NewBarrier returns a barrier for n parties.
func NewBarrier(n int) *Barrier { return &Barrier{Parties: n} }

// Arrive blocks until Parties threads have arrived in this epoch; it
// returns the epoch index that completed. A party whose wait fails takes its
// arrival back.
func (b *Barrier) Arrive(ctx *core.Ctx) (int64, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.Parties <= 0 {
		return 0, fmt.Errorf("amsync: barrier with %d parties", b.Parties)
	}
	e := b.epoch
	b.count++
	if b.count >= b.Parties {
		b.count = 0
		b.epoch++
		b.waiters.Broadcast()
	}
	for b.epoch == e {
		if err := b.waiters.Wait(ctx, &b.mu); err != nil {
			if b.epoch == e {
				b.count--
			}
			return e, err
		}
	}
	return e, nil
}

// Waiting reports how many threads are blocked at the barrier.
func (b *Barrier) Waiting(ctx *core.Ctx) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.count
}

// CanMove vetoes migration while threads wait at the barrier.
func (b *Barrier) CanMove() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.count > 0 {
		return fmt.Errorf("%w: %d threads at barrier", ErrBusy, b.count)
	}
	return nil
}

// --- monitor ---

// Monitor provides mutual exclusion with an ownership discipline, the entry
// half of the classic monitor construct. Pair it with CondVar objects for
// waiting. Non-reentrant.
type Monitor struct {
	mu      sync.Mutex
	locked  bool
	owner   uint64
	home    gaddr.NodeID // the owner's home node, which a waiter names
	waiters core.WaitQueue
}

// Enter blocks until the calling thread holds the monitor, or fails as
// Lock.Acquire does.
func (m *Monitor) Enter(ctx *core.Ctx) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for m.locked {
		if err := m.waiters.Wait(ctx, &m.mu, m.home); err != nil {
			return err
		}
	}
	m.locked, m.owner, m.home = true, ctx.ThreadID(), ctx.Home()
	return nil
}

// Exit releases the monitor; only the owner may call it.
func (m *Monitor) Exit(ctx *core.Ctx) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.locked || m.owner != ctx.ThreadID() {
		return fmt.Errorf("%w: monitor owner is thread %d", ErrNotOwner, m.owner)
	}
	m.locked = false
	m.owner = 0
	m.waiters.Signal()
	return nil
}

// Owner reports the owning thread (0 when free); for assertions.
func (m *Monitor) Owner(ctx *core.Ctx) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.owner
}

// CanMove vetoes migration while the monitor is occupied.
func (m *Monitor) CanMove() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.locked || m.waiters.Len() > 0 {
		return fmt.Errorf("%w: monitor occupied", ErrBusy)
	}
	return nil
}

// --- condition variable ---

// CondVar is a condition variable bound to a Monitor by reference. Attach
// the CondVar to its monitor (ctx.Attach) so the pair stays co-resident and
// Wait's exit and re-entry are local invocations. Wait queues the waiter
// before releasing the monitor, so signals cannot be lost, and a Signal
// wakes the oldest waiter queued before it.
type CondVar struct {
	// Monitor is the owning monitor's reference; it migrates with the
	// object.
	Monitor core.Ref

	mu      sync.Mutex
	waiters core.WaitQueue
}

// NewCondVar returns a condition variable for the given monitor object.
func NewCondVar(mon core.Ref) *CondVar { return &CondVar{Monitor: mon} }

// Wait atomically releases the monitor and blocks until signalled, then
// re-enters the monitor before returning. The caller must hold the monitor.
func (c *CondVar) Wait(ctx *core.Ctx) error {
	c.mu.Lock()
	err := c.waiters.WaitAfter(ctx, &c.mu, func() error {
		_, err := ctx.Invoke(c.Monitor, "Exit")
		return err
	})
	c.mu.Unlock()
	if err != nil {
		return err
	}
	_, err = ctx.Invoke(c.Monitor, "Enter")
	return err
}

// Signal wakes one waiting thread, if any.
func (c *CondVar) Signal(ctx *core.Ctx) {
	c.mu.Lock()
	c.waiters.Signal()
	c.mu.Unlock()
}

// Broadcast wakes every waiting thread.
func (c *CondVar) Broadcast(ctx *core.Ctx) {
	c.mu.Lock()
	c.waiters.Broadcast()
	c.mu.Unlock()
}

// CanMove vetoes migration while threads wait on the condition.
func (c *CondVar) CanMove() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.waiters.Len() > 0 {
		return fmt.Errorf("%w: condition has waiters", ErrBusy)
	}
	return nil
}

// --- semaphore ---

// Semaphore is a counting semaphore in the same class family (an extension
// beyond the paper's list, in the spirit of its extensible hierarchy).
type Semaphore struct {
	// Permits is the current permit count; exported so an idle semaphore
	// migrates with its value.
	Permits int

	mu      sync.Mutex
	waiters core.WaitQueue
}

// NewSemaphore returns a semaphore with n initial permits.
func NewSemaphore(n int) *Semaphore { return &Semaphore{Permits: n} }

// P acquires one permit, blocking while none are available.
func (s *Semaphore) P(ctx *core.Ctx) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.Permits <= 0 {
		if err := s.waiters.Wait(ctx, &s.mu); err != nil {
			return err
		}
	}
	s.Permits--
	return nil
}

// V releases one permit.
func (s *Semaphore) V(ctx *core.Ctx) {
	s.mu.Lock()
	s.Permits++
	s.waiters.Signal()
	s.mu.Unlock()
}

// Available reports the current permit count.
func (s *Semaphore) Available(ctx *core.Ctx) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.Permits
}

// CanMove vetoes migration while threads wait for permits.
func (s *Semaphore) CanMove() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.waiters.Len() > 0 {
		return fmt.Errorf("%w: semaphore has waiters", ErrBusy)
	}
	return nil
}

// --- event ---

// Event is a one-shot broadcast flag: Wait blocks until Set.
type Event struct {
	// Fired is exported so a set event migrates as set.
	Fired bool

	mu      sync.Mutex
	waiters core.WaitQueue
}

// Set fires the event, waking all waiters; idempotent.
func (e *Event) Set(ctx *core.Ctx) {
	e.mu.Lock()
	e.Fired = true
	e.waiters.Broadcast()
	e.mu.Unlock()
}

// Wait blocks until the event fires.
func (e *Event) Wait(ctx *core.Ctx) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	for !e.Fired {
		if err := e.waiters.Wait(ctx, &e.mu); err != nil {
			return err
		}
	}
	return nil
}

// IsSet reports whether the event has fired.
func (e *Event) IsSet(ctx *core.Ctx) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.Fired
}

// CanMove vetoes migration while threads wait on the event.
func (e *Event) CanMove() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.waiters.Len() > 0 {
		return fmt.Errorf("%w: event has waiters", ErrBusy)
	}
	return nil
}
