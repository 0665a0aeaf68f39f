package core

import (
	"reflect"
	"sync/atomic"

	"amber/internal/gaddr"
	"amber/internal/objspace"
)

// payload is the runtime's per-object content stored inside an objspace
// descriptor: the live value (pointer to struct) and its class. Writes are
// guarded by the descriptor mutex; a thread holding a pin may read it
// without the mutex (see the objspace.Descriptor synchronization contract —
// payloads are published strictly before the resident transition and cleared
// only after pins drain).
type payload struct {
	obj reflect.Value
	ti  *typeInfo
	// disp is the per-object self-dispatch tier (see dispatch.go), bound by
	// newPayload at install time: non-nil when the class implements
	// AmberDispatch. Like obj, it is published before the resident transition
	// and read lock-free under a pin. (Trampolines, the next tier, live on
	// methodInfo — compiled once at registration, shared by all objects.)
	disp AmberDispatch
	// snap caches the object's marshalled state once the object is
	// immutable, so copy-bearing invoke replies append pre-encoded bytes
	// instead of re-marshalling per call. nil for mutable objects. The cell
	// itself is published before the immutable bit (or the resident
	// transition, for installed copies); its contents are filled lazily by
	// the first copy-bearing reply and read/written only through the atomic
	// pointer.
	snap *snapCell
	// src, on a copy, names the node the copy came from — where every
	// operation a lease copy may not serve forwards. Zero value (NoNode is -1,
	// but src is only consulted when the copy bit is up) on objects that live
	// here.
	src gaddr.NodeID
}

// snapCell holds a lazily computed marshalled snapshot of an immutable
// object. A pointer cell rather than a plain []byte field because payload is
// copied by value: readers holding only a pin load the cached encoding
// through the atomic, while a racing first encoder stores it — both orders
// are valid since every encoding of an immutable object is equivalent.
type snapCell struct{ v atomic.Pointer[[]byte] }

// descriptor is the per-node record for one object: the objspace coherence
// machinery (packed state word, pins, cond, forwarding address, attachment
// edges) instantiated with the runtime's payload. The paper embeds it as the
// first words of the object record at the object's global virtual address;
// here it is an entry in the node's sharded object-space table keyed by that
// address (§3.2).
type descriptor = objspace.Descriptor[payload]

// Descriptor lifecycle states, re-exported for readability at use sites.
const (
	stateAbsent    = objspace.StateAbsent
	stateResident  = objspace.StateResident
	stateMoving    = objspace.StateMoving
	stateForwarded = objspace.StateForwarded
	stateDeleted   = objspace.StateDeleted
)

// MoveGuard lets an object veto migration. The runtime's thread objects and
// the synchronization classes use it (a lock with queued waiters cannot ship
// its blocked goroutines).
type MoveGuard interface {
	// CanMove returns nil if the object may migrate now.
	CanMove() error
}
