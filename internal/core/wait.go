package core

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"amber/internal/gaddr"
)

// WaitQueue is the one blocking primitive the runtime offers its classes: a
// FIFO of threads waiting for a condition that the caller's own mutex
// guards, in the shape of sync.Cond. The zero value is an empty queue. Its
// methods must be called with that mutex held.
//
// Every wait has an exit. Wait returns nil when woken; an error matching
// ErrNodeDown when a waker node the caller named is marked down; ErrOrphaned
// (wrapping ErrNodeDown) when the waiting thread's home node is marked down,
// since its reply could never be delivered; and an ErrNodeDown-class error
// when this node closes. Down verdicts come from the health plane. A wait
// that outlasts the node's RPCTimeout asks for them as well: it kicks a probe
// of its home and its wakers once per RPCTimeout. With RPCTimeout zero no
// timer is armed and nothing is probed.
type WaitQueue struct{ ws []*waiter }

type waiter struct {
	ch        chan struct{}
	signalled bool
}

// Wait enqueues the calling thread, unlocks mu and blocks, releasing the
// thread's processor slot and this node's link readers as Ctx.Block does; it
// relocks mu before it returns. wakers names the nodes whose threads would
// wake it, such as a lock holder's home. A waiter that leaves with an error
// takes its entry with it, and passes on a Signal it already consumed.
func (q *WaitQueue) Wait(c *Ctx, mu sync.Locker, wakers ...gaddr.NodeID) error {
	return q.WaitAfter(c, mu, func() error { return nil }, wakers...)
}

// WaitAfter is Wait with a step run once the thread is queued and mu is
// unlocked, before it blocks: a condition variable exits its monitor there,
// so a Signal issued after the exit finds the thread already queued. If step
// fails, the thread leaves the queue and WaitAfter returns step's error.
func (q *WaitQueue) WaitAfter(c *Ctx, mu sync.Locker, step func() error, wakers ...gaddr.NodeID) error {
	w := &waiter{ch: make(chan struct{})}
	q.ws = append(q.ws, w)
	mu.Unlock()
	err := step()
	if err == nil {
		c.Block(func() { err = c.node.await(w.ch, c.rec.Home, wakers) })
	}
	mu.Lock()
	if err != nil && w.signalled {
		q.Signal()
	} else if err != nil {
		q.ws = slices.DeleteFunc(q.ws, func(x *waiter) bool { return x == w })
	}
	return err
}

// Signal wakes the oldest waiter, if any.
func (q *WaitQueue) Signal() {
	if len(q.ws) > 0 {
		q.ws[0].signalled = true
		close(q.ws[0].ch)
		q.ws = q.ws[1:]
	}
}

// Broadcast wakes every waiter.
func (q *WaitQueue) Broadcast() {
	for _, w := range q.ws {
		close(w.ch)
	}
	q.ws = nil
}

// Len reports how many threads wait, for CanMove vetoes.
func (q *WaitQueue) Len() int { return len(q.ws) }

// await blocks until ch closes or the wait loses its point (see WaitQueue):
// home is marked down, before or after the wake, or a waker is before it.
// The down signal is loaded before the marks are read, so a verdict that
// lands in between still wakes the loop.
func (n *Node) await(ch <-chan struct{}, home gaddr.NodeID, wakers []gaddr.NodeID) error {
	var tick <-chan time.Time
	if d := n.cfg.RPCTimeout; d > 0 {
		t := time.NewTicker(d)
		defer t.Stop()
		tick = t.C
	}
	for {
		down := n.downc.Load().(chan struct{})
		if n.ep.PeerDown(home) {
			return fmt.Errorf("%w: home node %d is down (%w)", ErrOrphaned, home, ErrNodeDown)
		}
		if ch == nil {
			return nil // woken
		}
		for _, p := range wakers {
			if n.ep.PeerDown(p) {
				return fmt.Errorf("%w: waker node %d", ErrNodeDown, p)
			}
		}
		select {
		case <-ch:
			ch = nil
		case <-n.stopc:
			return fmt.Errorf("%w: node %d closed", ErrNodeDown, n.id)
		case <-down:
		case <-tick:
			for _, p := range append([]gaddr.NodeID{home}, wakers...) {
				n.ep.WatchPeer(p)
			}
		}
	}
}
