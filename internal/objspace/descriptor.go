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
	"time"

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
//   - Payload, Fwd, Mv and the attachment set are guarded by mu and written
//     only by the residency transitions (Publish … Delete, below) — with one
//     deliberate exception: Payload may be *read* without mu by a thread
//     holding a pin. A pin is only obtainable while resident, Publish writes
//     the payload strictly before the word transitions to StateResident,
//     and ForwardTo and Delete clear it only after pins have drained, so a
//     pinned reader's view is stable and the atomic word publishes it.
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

// SetStateLocked overwrites the lifecycle state, preserving flags and pins,
// and returns the pin count observed atomically with the write. It checks
// nothing and writes nothing else: the runtime changes residency only through
// the transitions below; this is for tests and probes that need a bare
// descriptor in a given state. Caller holds mu.
func (d *Descriptor[P]) SetStateLocked(s State) (pins int) { return d.enter(s, 0, 0) }

// --- residency transitions ---
//
// Every change of a descriptor's residency goes through one of the methods
// below, called with mu held. Each checks its precondition and, if it fails,
// returns false having written nothing. Otherwise it writes every field it
// owns, moves the state (and, for Publish, the mode bits) in one CAS, and
// broadcasts. DESIGN.md §9.2 tabulates them.

// Mode is the set of mode bits Publish installs with the resident state.
type Mode struct{ Immutable, Leasable, Copy bool }

func (m Mode) word() uint64 {
	return bitIf(m.Immutable, wordImmutable) | bitIf(m.Leasable, wordLeasable) | bitIf(m.Copy, wordCopy)
}

func bitIf(on bool, bit uint64) uint64 {
	if on {
		return bit
	}
	return 0
}

// enter stores state s, replacing the mode bits under clear with set, and
// wakes every waiter. Returns the pin count observed atomically with it.
func (d *Descriptor[P]) enter(s State, clear, set uint64) (pins int) {
	w := d.updateWord(func(w uint64) uint64 {
		return w&^(wordStateMask|clear) | set | uint64(s)
	})
	d.cond.Broadcast()
	return pinsOf(w)
}

// Publish makes a descriptor resident with payload p at residency version
// epoch, with the given mode bits, copy expiry and attachment edges.
// Everything is written before the state word flips, since the flip is what
// licenses lock-free TryPin readers. It publishes over anything but a deleted
// object or a resident one a reader still pins: a resident descriptor is
// first drained (Drain(0)), and publishing over a moving one supersedes
// whatever marked it, so its mover's ForwardTo and Resume then fail.
func (d *Descriptor[P]) Publish(p P, epoch uint64, mode Mode, expiry int64, attach []gaddr.Addr) bool {
	if st := d.State(); st == StateDeleted || st == StateResident && !d.Drain(0) {
		return false
	}
	d.Payload, d.Fwd, d.Mv, d.attach = p, gaddr.NoNode, nil, nil
	for _, a := range attach {
		d.AddAttach(a)
	}
	d.expiry.Store(expiry)
	d.epoch.Store(epoch)
	d.enter(StateResident, wordImmutable|wordLeasable|wordCopy, mode.word())
	return true
}

// BeginMove marks a resident descriptor moving under mover mv (a move's mark
// phase) and returns the pins held at that instant: mv.MemberDrained runs
// when the last of them leaves.
func (d *Descriptor[P]) BeginMove(mv Drainer) (pins int, ok bool) {
	if d.State() != StateResident {
		return 0, false
	}
	d.Mv = mv
	return d.enter(StateMoving, 0, 0), true
}

// Drain marks a resident descriptor moving with no mover, so TryPin refuses
// new pins, and waits up to timeout for the pins already held to leave. It
// reports whether the descriptor is drained and still marked by this call;
// otherwise it is back to resident (unless a Publish superseded the mark).
// A zero timeout only looks.
func (d *Descriptor[P]) Drain(timeout time.Duration) bool {
	pins, ok := d.BeginMove(nil)
	if !ok {
		return false
	}
	if pins == 0 || d.waitPins(timeout) && d.State() == StateMoving && d.Mv == nil {
		return true
	}
	d.Resume(nil)
	return false
}

// waitPins waits on the condition variable until the pin count reaches zero
// or timeout expires, and reports which. The waiter registration brackets
// the first check too: the predicate races with Unpin's lock-free fast path,
// and only once the waiter flag is up is every unpin sure to broadcast.
func (d *Descriptor[P]) waitPins(timeout time.Duration) bool {
	d.AddWaiter()
	defer d.RemoveWaiter()
	expired := timeout <= 0
	if d.Pins() > 0 && !expired {
		timer := time.AfterFunc(timeout, func() {
			d.mu.Lock()
			expired = true
			d.cond.Broadcast()
			d.mu.Unlock()
		})
		defer timer.Stop()
	}
	for d.Pins() > 0 {
		if expired {
			return false
		}
		d.cond.Wait()
	}
	return true
}

// Resume returns a descriptor moving under mv (nil after a Drain) to
// resident: a move that failed, or a drain whose work is done.
func (d *Descriptor[P]) Resume(mv Drainer) bool {
	if d.State() != StateMoving || d.Mv != mv {
		return false
	}
	d.Mv = nil
	d.enter(StateResident, 0, 0)
	return true
}

// ForwardTo turns a descriptor moving under mv (nil after a Drain) into a
// forwarding address: the object, or the copy torn down, lives at at in
// residency version epoch. Pins have drained, so no reader still looks at the
// payload it clears, along with the edges, the copy bit and the expiry.
func (d *Descriptor[P]) ForwardTo(mv Drainer, at gaddr.NodeID, epoch uint64) bool {
	if d.State() != StateMoving || d.Mv != mv {
		return false
	}
	d.Payload, d.Fwd, d.Mv, d.attach = *new(P), at, nil, nil
	d.expiry.Store(0)
	d.epoch.Store(epoch)
	d.enter(StateForwarded, wordCopy, 0)
	return true
}

// LearnAt aims an absent or forwarded descriptor at at, if epoch Supersedes the
// version it holds: the owned half of the one location rule. A resident,
// moving or deleted descriptor knows better than any gossip.
func (d *Descriptor[P]) LearnAt(at gaddr.NodeID, epoch uint64) bool {
	if st := d.State(); st != StateAbsent && st != StateForwarded || !Supersedes(epoch, d.Epoch()) {
		return false
	}
	d.Fwd = at
	d.epoch.Store(epoch)
	d.enter(StateForwarded, 0, 0)
	return true
}

// Delete destroys a drained descriptor (moving with no mover and no pins),
// clearing its payload; the tombstone makes stale references fail cleanly.
func (d *Descriptor[P]) Delete() bool {
	if d.State() != StateMoving || d.Mv != nil || d.Pins() != 0 {
		return false
	}
	d.Payload = *new(P)
	d.enter(StateDeleted, 0, 0)
	return true
}

// SetImmutableLocked flips the immutable mode bit. Caller holds mu.
func (d *Descriptor[P]) SetImmutableLocked(on bool) { d.setMode(wordImmutable, on) }

// SetLeasableLocked flips the leasable bit. Caller holds mu.
func (d *Descriptor[P]) SetLeasableLocked(on bool) { d.setMode(wordLeasable, on) }

func (d *Descriptor[P]) setMode(bit uint64, on bool) {
	d.updateWord(func(w uint64) uint64 { return w&^bit | bitIf(on, bit) })
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
