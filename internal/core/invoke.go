package core

import (
	"bytes"
	"fmt"
	"reflect"

	"amber/internal/gaddr"
	"amber/internal/trace"
	"amber/internal/wire"
)

// action is the outcome of the entry protocol.
type action uint8

const (
	actExecute action = iota + 1
	actForward
	actError
)

func valueOf(obj any) reflect.Value { return reflect.ValueOf(obj) }

// resolve applies the entry protocol (§3.2–§3.3, §3.5) for msg on this node:
//
//   - resident → execute here. For opInvoke the descriptor is returned
//     *pinned and unlocked*; the pin is taken atomically with the residency
//     check, which closes the multiprocessor check-then-enter race of §3.5.
//     For control operations the descriptor is returned *locked* (ownership
//     of d.mu transfers to the executor).
//   - forwarded → chase the forwarding address (§3.3).
//   - uninitialized (absent) → forward to the home node computed from the
//     address alone (§3.3).
//   - moving → wait for the move to finish; exceptions: a thread already
//     bound to the object may re-enter, and Locate answers immediately
//     (the contents have not left yet).
//
// thread is the thread entering: msg.Thread for an arrival, while a thread of
// this node passes its own record without copying it into a message that may
// never ship.
func (n *Node) resolve(msg *routedMsg, thread *ThreadRec) (*descriptor, action, gaddr.NodeID, error) {
	d := n.desc(msg.Obj)
	if d == nil {
		a, t, e := n.homeFallback(msg.Obj)
		return nil, a, t, e
	}
	// Fast path: for an invocation on a resident object, the residency check
	// and the pin are one CAS on the packed state word — no shard lock, no
	// descriptor mutex (§3.5). Everything else (moving, forwarded, deleted,
	// control ops) takes the locked entry protocol.
	invoke := msg.Op == opInvoke
	if !invoke || !d.TryPin() {
		if act, to, err := n.enterLocked(d, msg, thread); act != actExecute {
			return nil, act, to, err
		}
	}
	// The one serve rule for copies, on a descriptor now pinned (invoke) or
	// locked (control op): a copy of an immutable object serves everything
	// the object would; a lease copy serves what leaseRedirect allows and
	// sends everything else to its source.
	if d.Copy() && !d.Immutable() {
		if to, serve := n.leaseRedirect(d, msg); !serve {
			if invoke {
				n.unpin(d)
			} else {
				d.Unlock()
			}
			return nil, actForward, to, nil
		}
	}
	return d, actExecute, 0, nil
}

// enterLocked is the locked half of the entry protocol. On actExecute an
// invocation's descriptor is pinned and unlocked, a control operation's is
// still locked; on anything else it is neither.
func (n *Node) enterLocked(d *descriptor, msg *routedMsg, thread *ThreadRec) (action, gaddr.NodeID, error) {
	invoke := msg.Op == opInvoke
	d.Lock()
	for {
		switch st := d.State(); st {
		case stateAbsent:
			// Hint entry created but never initialized; treat as absent.
			d.Unlock()
			return n.homeFallback(msg.Obj)
		case stateDeleted:
			d.Unlock()
			return actError, 0, fmt.Errorf("%w: %#x", ErrDeleted, uint64(msg.Obj))
		case stateForwarded:
			to := d.Fwd
			d.Unlock()
			return actForward, to, nil
		case stateResident:
			if invoke {
				d.PinLocked()
				d.Unlock()
			}
			return actExecute, 0, nil // d.mu held for control ops
		case stateMoving:
			switch {
			case invoke && thread.pinned(msg.Obj):
				// A bound thread re-entering the object it already
				// occupies; the move is waiting on it anyway.
				d.PinLocked()
				d.Unlock()
				return actExecute, 0, nil
			case msg.Op == opLocate:
				return actExecute, 0, nil // still here; d.mu held
			default:
				n.counts.Inc("entries_blocked_on_move")
				n.ep.ReleaseReaders()
				d.Wait()
			}
		default:
			d.Unlock()
			return actError, 0, fmt.Errorf("amber: descriptor in impossible state %d", st)
		}
	}
}

// homeFallback routes a reference with no local descriptor: first through the
// location-hint cache (a warm §3.3 forwarding address learnt from replies and
// oneway chain updates), then to the home node computed from the address
// ("the kernel forwards the request to the object's home node").
//
// A hint pointing at a peer currently believed dead is dropped rather than
// followed — hint-cache repair, so stale hints cannot keep routing threads
// into a dead node — and the request falls back to the home path.
func (n *Node) homeFallback(obj gaddr.Addr) (action, gaddr.NodeID, error) {
	if h, ok := n.space.HintGet(obj); ok {
		if n.ep.PeerDown(h.Node) {
			n.space.HintDrop(obj)
			n.counts.Inc("hints_dropped_down")
		} else {
			n.cHintHits.Inc()
			if n.tracer.On() {
				n.tracer.Emit(trace.Event{Kind: trace.KHintHit, Obj: uint64(obj), Arg: int64(h.Node)})
			}
			return actForward, h.Node, nil
		}
	}
	n.cHintMisses.Inc()
	if n.tracer.On() {
		n.tracer.Emit(trace.Event{Kind: trace.KHintMiss, Obj: uint64(obj)})
	}
	home := n.homeOf(obj)
	if home == gaddr.NoNode {
		return actError, 0, fmt.Errorf("%w: %#x (unallocated region)", ErrNoSuchObject, uint64(obj))
	}
	if home == n.id {
		// We are the home node; if the object existed we would have a
		// descriptor (creation initializes it here, and it survives as a
		// forwarding tombstone after a move).
		return actError, 0, fmt.Errorf("%w: %#x", ErrNoSuchObject, uint64(obj))
	}
	return actForward, home, nil
}

// runPinned executes one operation on a resident object whose descriptor we
// hold a pin on. It does the pin bookkeeping on the thread record, the
// processor-slot acquisition, and (optionally) immutable write detection.
//
// readOnly is the caller's classification hint (per-call WithReadOnly or a
// remote envelope's flag); the registry's per-method declaration is OR-ed in
// here. On a cacheable object (leasable bit) the call runs under the object's
// coherence lock — shared for reads, exclusive for writes — and a write, once
// the lock is released, bumps the residency epoch and fences every
// outstanding reader lease before returning (lease.go). The leasable bit is
// captured ONCE: SetCacheable drains pins before flipping it, so it cannot
// change mid-call, but a single capture keeps the lock/unlock pairing
// self-evident.
func (n *Node) runPinned(c *Ctx, d *descriptor, obj gaddr.Addr, method string, args []any, readOnly bool) (res []any, err error) {
	c.rec.Pins = append(c.rec.Pins, obj)
	defer func() {
		c.rec.Pins = c.rec.Pins[:len(c.rec.Pins)-1]
		n.unpin(d)
	}()
	c.acquireSlot(n)
	defer c.releaseSlot(n)

	// The pin we hold licenses a lock-free read of the payload: it was
	// published before the word went resident and cannot be cleared until we
	// unpin (see the objspace.Descriptor synchronization contract). The
	// immutable bit comes off the packed word — one atomic load.
	p := &d.Payload
	ti := p.ti
	checkImmutable := n.cfg.DebugImmutable && d.Immutable()
	if ti == nil {
		return nil, fmt.Errorf("%w: %#x has no type", ErrNoSuchObject, uint64(obj))
	}
	mi, err := ti.method(method)
	if err != nil {
		return nil, err
	}
	var before []byte
	if checkImmutable {
		before, _ = wire.Marshal(p.obj.Elem().Interface())
	}
	coh := d.Leasable() && !d.Immutable()
	ro := readOnly || mi.readOnly
	if coh {
		// A thread that must wait for the coherence lock releases the link
		// its reader may be holding first.
		if ro {
			if !d.Coh.TryRLock() {
				n.ep.ReleaseReaders()
				d.Coh.RLock()
			}
		} else if !d.Coh.TryLock() {
			n.ep.ReleaseReaders()
			d.Coh.Lock()
		}
	}
	res, err = p.call(mi, c, args)
	if coh {
		if ro {
			d.Coh.RUnlock()
		} else {
			d.Coh.Unlock()
			// The fence runs even when the method errored: user code may have
			// mutated state before failing, and a spurious bump only costs a
			// revoke round. The pin we hold keeps the object resident for the
			// fence's duration; the thread parks its processor slot while
			// revokes are in flight.
			n.leaseWriteFence(c, d, obj)
		}
	}
	if checkImmutable && err == nil {
		after, _ := wire.Marshal(p.obj.Elem().Interface())
		if !bytes.Equal(before, after) {
			n.counts.Inc("immutable_violations")
			return nil, fmt.Errorf("%w: %s.%s", ErrImmutableViolated, ti.name, method)
		}
	}
	return res, err
}

// unpin releases one pin; the last pin out of a moving object triggers the
// deferred shipment. The fast path (resident, no waiters) is a single CAS
// inside Unpin; only contended descriptors take the mutex.
func (n *Node) unpin(d *descriptor) {
	if mv := d.Unpin(); mv != nil {
		mv.MemberDrained()
	}
}
