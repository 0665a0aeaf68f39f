package amsync

import (
	"fmt"
	"sync"

	"amber/internal/core"
	"amber/internal/gaddr"
)

// RWLock is a writer-preferring readers/writer lock — an example of
// extending the synchronization class hierarchy with a custom concurrency-
// control scheme, as §2.2 invites ("programmers can extend the class
// hierarchy to define custom mechanisms for concurrency control"). Like all
// the classes here it is a mobile, remotely-invocable object.
type RWLock struct {
	mu         sync.Mutex
	readers    int
	writer     bool
	writerID   uint64
	writerHome gaddr.NodeID
	wWaiters   core.WaitQueue
	rWaiters   core.WaitQueue
}

// wakers names the node a waiter waits on: the writer's home while a writer
// holds the lock. Readers are not named.
func (l *RWLock) wakers() []gaddr.NodeID {
	if l.writer {
		return []gaddr.NodeID{l.writerHome}
	}
	return nil
}

// AcquireRead blocks until the lock is readable (no writer active and no
// writer queued — writers are preferred to prevent starvation).
func (l *RWLock) AcquireRead(ctx *core.Ctx) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.writer || l.wWaiters.Len() > 0 {
		if err := l.rWaiters.Wait(ctx, &l.mu, l.wakers()...); err != nil {
			return err
		}
	}
	l.readers++
	return nil
}

// ReleaseRead releases a read hold.
func (l *RWLock) ReleaseRead(ctx *core.Ctx) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.readers <= 0 {
		return fmt.Errorf("%w: no readers hold the lock", ErrNotOwner)
	}
	l.readers--
	if l.readers == 0 {
		l.wWaiters.Signal()
	}
	return nil
}

// AcquireWrite blocks until the calling thread holds the lock exclusively.
func (l *RWLock) AcquireWrite(ctx *core.Ctx) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.writer || l.readers > 0 {
		if err := l.wWaiters.Wait(ctx, &l.mu, l.wakers()...); err != nil {
			l.rWaiters.Broadcast() // readers queued behind this writer re-check
			return err
		}
	}
	l.writer, l.writerID, l.writerHome = true, ctx.ThreadID(), ctx.Home()
	return nil
}

// ReleaseWrite releases exclusive hold; only the owning thread may call it.
// The next queued writer runs first; otherwise all queued readers wake.
func (l *RWLock) ReleaseWrite(ctx *core.Ctx) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.writer || l.writerID != ctx.ThreadID() {
		return fmt.Errorf("%w: write lock held by thread %d", ErrNotOwner, l.writerID)
	}
	l.writer = false
	l.writerID = 0
	if l.wWaiters.Len() > 0 {
		l.wWaiters.Signal()
		return nil
	}
	l.rWaiters.Broadcast()
	return nil
}

// Readers reports the current read-hold count (a racy snapshot).
func (l *RWLock) Readers(ctx *core.Ctx) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.readers
}

// CanMove vetoes migration while the lock is held or contended.
func (l *RWLock) CanMove() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.writer || l.readers > 0 || l.wWaiters.Len()+l.rWaiters.Len() > 0 {
		return fmt.Errorf("%w: rwlock held or contended", ErrBusy)
	}
	return nil
}
