// Package objspace implements a node's view of the global object space: a
// lock-striped table of object descriptors plus a bounded per-shard
// location-hint cache (§3.2–§3.3 of the paper).
//
// The package exists so that each node can use cheap *local* synchronization
// — the paper's whole coherence bet — instead of funnelling every descriptor
// lookup through one node-global mutex. Three mechanisms deliver that:
//
//   - Descriptor lookup is lock-free: each shard stores its descriptors in a
//     sync.Map, so Get is one hash plus one atomic map read.
//   - The residency fast path is a single CAS: a descriptor packs its state,
//     mode flags and pin count into one atomic word, so the hottest
//     operation in the system — "is the object resident here? then pin it" —
//     never takes a lock (TryPin). The descriptor mutex is only for
//     contended transitions (moving, forwarded, deleted, installs).
//   - Topology changes (moves, attaches) serialize per *shard*, not per
//     node: independent moves on different shards proceed concurrently, and
//     multi-shard operations take their shard move-locks in ascending index
//     order so they cannot deadlock.
package objspace

import (
	"sync"
	"sync/atomic"

	"amber/internal/gaddr"
)

// State enumerates the lifecycle of an object descriptor on one node
// (§3.2). There is no explicit "uninitialized" state: an uninitialized
// descriptor is simply absent from the shard's table (or present with the
// zero state, created by a racing Ensure), just as the paper's uninitialized
// descriptors are zero-filled pages — both are interpreted as "consult the
// home node".
type State uint8

const (
	// StateAbsent is the zero state: a descriptor slot that was created but
	// never initialized. Treated exactly like a missing descriptor.
	StateAbsent State = iota
	// StateResident: the object (or a cached copy of it) lives here and
	// may be entered.
	StateResident
	// StateMoving: a move is draining the object's bound threads or
	// shipping its contents. New entries wait; only threads already bound
	// (pinned) may re-enter. This is the window in which the paper's
	// invocation-time and context-switch residency checks bite (§3.5).
	StateMoving
	// StateForwarded: the object left this node; Fwd is its last known
	// location, a Fowler forwarding address (§3.3).
	StateForwarded
	// StateDeleted: the object was destroyed here; a tombstone remains so
	// stale references fail cleanly rather than dangling.
	StateDeleted
)

func (s State) String() string {
	switch s {
	case StateAbsent:
		return "absent"
	case StateResident:
		return "resident"
	case StateMoving:
		return "moving"
	case StateForwarded:
		return "forwarded"
	case StateDeleted:
		return "deleted"
	}
	return "invalid"
}

// The packed descriptor word. One atomic uint64 holds everything the entry
// protocol's fast path needs, so check-and-pin is a single CAS:
//
//	bits 0..2   state (State)
//	bit  3      waiter flag: a thread is cond-waiting on pins/state; any
//	            unpin must take the slow path and broadcast
//	bit  4      immutable mode (§2.3)
//	bit  5      copy: a resident cached copy of an object held elsewhere,
//	            valid until its expiry — which never comes for a copy of an
//	            immutable object (the immutable bit is up with it)
//	bit  6      leasable (the holder grants reader leases on this object)
//	bits 8..63  pin count (bound threads, §3.5)
const (
	wordStateMask = 0x7
	wordWaiter    = 1 << 3
	wordImmutable = 1 << 4
	wordCopy      = 1 << 5
	wordLeasable  = 1 << 6
	wordPinShift  = 8
	wordPinInc    = 1 << wordPinShift
)

func stateOf(w uint64) State { return State(w & wordStateMask) }
func pinsOf(w uint64) int    { return int(w >> wordPinShift) }

// Drainer is notified when a moving descriptor's pin count reaches zero —
// the hook through which the runtime's move operation learns that a member
// has drained its bound threads. Unpin returns the Drainer (rather than
// calling it) so the notification runs without the descriptor mutex held.
type Drainer interface{ MemberDrained() }

// Descriptor is the per-node record for one object. The paper embeds it as
// the first words of the object record at the object's global virtual
// address; here it is an entry in a shard's descriptor table keyed by that
// address.
//
// Synchronization contract:
//
//   - word (state, flags, pins) is always read atomically and is the single
//     source of truth. The lock-free mutators are TryPin and Unpin's fast
//     path; every other word update happens while holding mu (still via CAS,
//     because the fast paths race with it).
//   - Payload, Fwd, Mv and the attachment set are guarded by mu — with one
//     deliberate exception: Payload may be *read* without mu by a thread
//     holding a pin. A pin is only obtainable while resident, payload
//     writes happen strictly before the word transitions to StateResident,
//     and the payload is only cleared after pins have drained (ship,
//     delete), so a pinned reader's view is stable and the atomic word
//     publishes it.
type Descriptor[P any] struct {
	mu      sync.Mutex
	cond    sync.Cond
	word    atomic.Uint64
	waiters int // guarded by mu; mirrored into the word's waiter bit

	// epoch is the object's residency version: 1 at creation, incremented by
	// every successful move — and, for leasable objects, by every mutating
	// invoke (the invalidation signal of the coherence layer) — carried with
	// the object in snapshots and echoed in replies. A forwarding tombstone
	// stores the epoch of the residency it points *to*, which makes forwarding
	// addresses versioned à la Fowler: location gossip (chain updates, reply
	// caching) may only overwrite a tombstone with strictly newer information,
	// so delayed updates can never wind a forwarding chain into a cycle.
	// Written under mu (or bumped atomically under a pin, which holds off
	// moves), read anywhere.
	epoch atomic.Uint64

	// expiry is a copy's expiry (UnixNano; 0 = dead or no copy). Read
	// lock-free on the lease-serving fast path; zeroed atomically by a revoke
	// so a pinned copy stops serving new reads immediately even before its
	// descriptor can be torn down.
	expiry atomic.Int64

	// Coh is the per-object coherence lock for leasable objects: mutating
	// invokes hold it exclusively, read-only invokes and copy-snapshot
	// encodes hold it shared. Objects never marked leasable skip it entirely,
	// so the pre-existing invoke paths pay nothing. Taken while pinned,
	// strictly after mu would be released (never together with mu).
	Coh sync.RWMutex

	// Payload is the runtime's per-object content (live value, type info).
	// See the synchronization contract above.
	Payload P

	// Fwd is the forwarding address while StateForwarded, or the refreshed
	// target of a chain-cache update applied to a real tombstone. mu.
	Fwd gaddr.NodeID

	// Mv is the in-progress move operation while StateMoving. mu.
	Mv Drainer

	// attach holds the object's attachment edges (§2.3). Attached objects
	// form components that move as a unit and are always co-resident. mu.
	attach map[gaddr.Addr]struct{}
}

func newDescriptor[P any]() *Descriptor[P] {
	d := &Descriptor[P]{}
	d.cond.L = &d.mu
	return d
}

// Lock acquires the descriptor mutex.
func (d *Descriptor[P]) Lock() { d.mu.Lock() }

// Unlock releases the descriptor mutex.
func (d *Descriptor[P]) Unlock() { d.mu.Unlock() }

// Wait blocks on the descriptor's condition variable until the next
// Broadcast, setting the packed word's waiter flag for the duration so that
// lock-free unpins know to take the slow path and signal. Caller holds mu.
//
// Wait is sufficient for state-based predicates (state transitions happen
// under mu, so they cannot slip between the caller's check and the sleep).
// Pin-based predicates race with the lock-free Unpin fast path: a pin can
// reach zero *between* the caller's check and the waiter flag being raised,
// and that unpin will not broadcast. Such callers must bracket their whole
// check-and-wait loop with AddWaiter/RemoveWaiter instead.
func (d *Descriptor[P]) Wait() {
	d.AddWaiter()
	d.CondWait()
	d.RemoveWaiter()
}

// AddWaiter registers a waiter: while at least one is registered, the packed
// word's waiter flag is up and every Unpin takes the mutex and broadcasts.
// Caller holds mu.
func (d *Descriptor[P]) AddWaiter() {
	d.waiters++
	if d.waiters == 1 {
		d.updateWord(func(w uint64) uint64 { return w | wordWaiter })
	}
}

// RemoveWaiter undoes AddWaiter, clearing the flag with the last waiter.
// Caller holds mu.
func (d *Descriptor[P]) RemoveWaiter() {
	d.waiters--
	if d.waiters == 0 {
		d.updateWord(func(w uint64) uint64 { return w &^ wordWaiter })
	}
}

// CondWait blocks on the condition variable until the next Broadcast. Caller
// holds mu and has registered via AddWaiter.
func (d *Descriptor[P]) CondWait() { d.cond.Wait() }

// Broadcast wakes all waiters. Caller holds mu.
func (d *Descriptor[P]) Broadcast() { d.cond.Broadcast() }

// State reads the descriptor's lifecycle state (one atomic load; callers
// that need a stable state across several reads must hold mu).
func (d *Descriptor[P]) State() State { return stateOf(d.word.Load()) }

// Pins reads the bound-thread count.
func (d *Descriptor[P]) Pins() int { return pinsOf(d.word.Load()) }

// Immutable reports the §2.3 immutable mode bit.
func (d *Descriptor[P]) Immutable() bool { return d.word.Load()&wordImmutable != 0 }

// Copy reports whether this is a cached copy of an object held elsewhere: of
// an immutable object when the immutable bit is up, otherwise a reader lease.
func (d *Descriptor[P]) Copy() bool { return d.word.Load()&wordCopy != 0 }

// Leasable reports whether the holder grants reader leases on this object.
func (d *Descriptor[P]) Leasable() bool { return d.word.Load()&wordLeasable != 0 }

// updateWord applies f to the packed word via a CAS loop (the lock-free pin
// paths race with locked mutators, so even mu-holders must CAS). Returns the
// new word.
func (d *Descriptor[P]) updateWord(f func(uint64) uint64) uint64 {
	for {
		w := d.word.Load()
		nw := f(w)
		if d.word.CompareAndSwap(w, nw) {
			return nw
		}
	}
}

// TryPin is the residency fast path (§3.5): atomically check that the
// object is resident here and take a pin, with a single CAS and no locks.
// The check and the pin are one atomic step, which is what closes the
// multiprocessor check-then-enter race. Fails (without blocking) in every
// other state; callers fall back to the locked entry protocol.
func (d *Descriptor[P]) TryPin() bool {
	for {
		w := d.word.Load()
		if stateOf(w) != StateResident {
			return false
		}
		if d.word.CompareAndSwap(w, w+wordPinInc) {
			return true
		}
	}
}

// PinLocked takes a pin regardless of state (the bound-thread re-entry case
// during StateMoving). Caller holds mu.
func (d *Descriptor[P]) PinLocked() {
	d.updateWord(func(w uint64) uint64 { return w + wordPinInc })
}

// Unpin releases one pin. The fast path — resident, nobody waiting — is one
// CAS. Otherwise it takes the mutex, signals waiters, and reports whether
// this unpin drained a moving descriptor: a non-nil Drainer means the pin
// count reached zero while StateMoving and the caller must invoke
// MemberDrained (after releasing any locks it holds).
func (d *Descriptor[P]) Unpin() Drainer {
	for {
		w := d.word.Load()
		if w&(wordStateMask|wordWaiter) == uint64(StateResident) {
			if d.word.CompareAndSwap(w, w-wordPinInc) {
				return nil
			}
			continue
		}
		break
	}
	d.mu.Lock()
	w := d.updateWord(func(w uint64) uint64 { return w - wordPinInc })
	var mv Drainer
	if stateOf(w) == StateMoving && pinsOf(w) == 0 {
		mv = d.Mv
	}
	d.cond.Broadcast()
	d.mu.Unlock()
	return mv
}

// Epoch reads the residency version (see the epoch field).
func (d *Descriptor[P]) Epoch() uint64 { return d.epoch.Load() }

// SetEpochLocked stores the residency version. Caller holds mu.
func (d *Descriptor[P]) SetEpochLocked(e uint64) { d.epoch.Store(e) }

// SetStateLocked transitions the lifecycle state, preserving flags and pins,
// and returns the pin count observed atomically with the transition (the
// mark phase of a move needs exactly that: the set of threads bound at the
// instant the object stopped being freely enterable). Caller holds mu.
func (d *Descriptor[P]) SetStateLocked(s State) (pins int) {
	w := d.updateWord(func(w uint64) uint64 {
		return w&^uint64(wordStateMask) | uint64(s)
	})
	return pinsOf(w)
}

// SetImmutableLocked flips the immutable mode bit. Caller holds mu.
func (d *Descriptor[P]) SetImmutableLocked(on bool) {
	d.updateWord(func(w uint64) uint64 {
		if on {
			return w | wordImmutable
		}
		return w &^ wordImmutable
	})
}

// SetCopyLocked flips the copy bit. Caller holds mu.
func (d *Descriptor[P]) SetCopyLocked(on bool) {
	d.updateWord(func(w uint64) uint64 {
		if on {
			return w | wordCopy
		}
		return w &^ wordCopy
	})
}

// SetLeasableLocked flips the leasable bit. Caller holds mu.
func (d *Descriptor[P]) SetLeasableLocked(on bool) {
	d.updateWord(func(w uint64) uint64 {
		if on {
			return w | wordLeasable
		}
		return w &^ wordLeasable
	})
}

// Expiry reads a copy's expiry (UnixNano; 0 = dead or no copy).
func (d *Descriptor[P]) Expiry() int64 { return d.expiry.Load() }

// SetExpiry stores a copy's expiry. Safe without mu: the field is independent
// of the packed word, and a revoke zeroing it races only with installs
// extending it — the revoke's epoch tombstone makes the stale extension
// harmless.
func (d *Descriptor[P]) SetExpiry(ns int64) { d.expiry.Store(ns) }

// BumpEpoch atomically increments the residency version and returns the new
// value — the write-invalidation signal for leasable objects. Safe under a
// pin (no mu): pins hold off moves and deletes, the only other epoch writers.
func (d *Descriptor[P]) BumpEpoch() uint64 { return d.epoch.Add(1) }

// AttachPeers returns a copy of the attachment edge set. Caller holds mu.
func (d *Descriptor[P]) AttachPeers() []gaddr.Addr {
	if len(d.attach) == 0 {
		return nil
	}
	out := make([]gaddr.Addr, 0, len(d.attach))
	for a := range d.attach {
		out = append(out, a)
	}
	return out
}

// AddAttach records an attachment edge. Caller holds mu.
func (d *Descriptor[P]) AddAttach(a gaddr.Addr) {
	if d.attach == nil {
		d.attach = make(map[gaddr.Addr]struct{})
	}
	d.attach[a] = struct{}{}
}

// RemoveAttach deletes an attachment edge. Caller holds mu.
func (d *Descriptor[P]) RemoveAttach(a gaddr.Addr) { delete(d.attach, a) }

// HasAttach reports whether an edge to a exists. Caller holds mu.
func (d *Descriptor[P]) HasAttach(a gaddr.Addr) bool {
	_, ok := d.attach[a]
	return ok
}

// AttachLen reports the number of attachment edges. Caller holds mu.
func (d *Descriptor[P]) AttachLen() int { return len(d.attach) }

// ClearAttachLocked drops every attachment edge. Caller holds mu.
func (d *Descriptor[P]) ClearAttachLocked() { d.attach = nil }
