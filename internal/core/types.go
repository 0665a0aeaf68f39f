// Package core implements the Amber runtime: a network-wide shared object
// space with object-grain coherence, function-shipping invocation, explicit
// mobility (MoveTo/Locate/Attach/Unattach/immutable replication), and cheap
// threads scheduled onto per-node processor slots. It is the paper's primary
// contribution (§2–§3).
package core

import (
	"errors"
	"fmt"
	"strings"

	"amber/internal/gaddr"
	"amber/internal/rpc"
	"amber/internal/trace"
	"amber/internal/wire"
)

// Ref is a reference to an Amber object: a global virtual address valid on
// every node (§3.1).
type Ref = gaddr.Addr

// NilRef is the null object reference.
const NilRef = gaddr.Nil

// Errors surfaced by the runtime.
var (
	// ErrNoSuchObject means a reference does not denote a live object: it
	// was never allocated, or tracing it to its home node found nothing.
	ErrNoSuchObject = errors.New("amber: no such object")
	// ErrDeleted means the object was explicitly destroyed.
	ErrDeleted = errors.New("amber: object deleted")
	// ErrUnknownMethod means the object's class has no such operation.
	ErrUnknownMethod = errors.New("amber: unknown method")
	// ErrUnknownType means a type was not registered on this node; all
	// nodes must run the same program image (§3).
	ErrUnknownType = errors.New("amber: unregistered type")
	// ErrNotMovable is returned by MoveTo for objects that refuse to move
	// (threads mid-flight, locks with waiters).
	ErrNotMovable = errors.New("amber: object not movable")
	// ErrMoveTimeout means a move could not drain the object's bound
	// threads within the configured window (e.g. two moves deadlocked on
	// each other's pinned objects).
	ErrMoveTimeout = errors.New("amber: move drain timed out")
	// ErrImmutableDelete rejects deleting an immutable object, whose
	// replicas cannot be tracked down (the paper gives immutables no
	// lifecycle past replication).
	ErrImmutableDelete = errors.New("amber: cannot delete immutable object")
	// ErrRoutingLost means an invocation chased forwarding addresses past
	// the hop budget without finding the object.
	ErrRoutingLost = errors.New("amber: object routing lost")
	// ErrBadArgument covers argument arity/type mismatches at dispatch.
	ErrBadArgument = errors.New("amber: bad argument")
	// ErrImmutableViolated is raised by the optional write-detection debug
	// mode when an operation mutates an object marked immutable.
	ErrImmutableViolated = errors.New("amber: immutable object was mutated")
	// ErrNotAttached is returned by Unattach when no attachment exists.
	ErrNotAttached = errors.New("amber: objects are not attached")
	// ErrOrphaned means a started thread shipped to a node that then died:
	// the thread's fate is unknown (it may have executed) and it will never
	// report back. Join surfaces it at the thread's origin.
	ErrOrphaned = errors.New("amber: thread orphaned by node failure")
)

// Cross-node failure classification, re-exported from the rpc layer so user
// code never imports it:
var (
	// ErrTimeout: the peer answers health probes but the call's reply did
	// not arrive in time — slow execution or a lost message. The operation
	// may or may not have executed.
	ErrTimeout = rpc.ErrTimeout
	// ErrNodeDown: the peer also fails health probes — crashed, partitioned
	// away, or gone.
	ErrNodeDown = rpc.ErrNodeDown
)

// sentinelErrors are runtime errors whose identity must survive a trip
// through the RPC layer (which flattens errors to strings). A flattened
// error rehydrates against every sentinel whose message it embeds — usually
// exactly one, but an ErrOrphaned message embeds its ErrNodeDown cause and
// must keep matching both.
var sentinelErrors = []error{
	ErrNoSuchObject, ErrDeleted, ErrUnknownMethod, ErrUnknownType,
	ErrNotMovable, ErrMoveTimeout, ErrImmutableDelete, ErrRoutingLost,
	ErrBadArgument, ErrImmutableViolated, ErrNotAttached,
	ErrOrphaned, ErrNodeDown, ErrTimeout,
}

// remoteAppError rehydrates a sentinel from a remote error string so that
// errors.Is works across node boundaries. Matches stack: inner may itself be
// a remoteAppError carrying a second sentinel.
type remoteAppError struct {
	sentinel error
	inner    error
}

func (e *remoteAppError) Error() string   { return e.inner.Error() }
func (e *remoteAppError) Unwrap() []error { return []error{e.sentinel, e.inner} }

// rehydrate wraps inner with every sentinel its message embeds.
func rehydrate(msg string, inner error) error {
	for _, s := range sentinelErrors {
		if strings.Contains(msg, s.Error()) {
			inner = &remoteAppError{sentinel: s, inner: inner}
		}
	}
	return inner
}

// mapRemoteError restores sentinel identity on errors propagated from other
// nodes.
func mapRemoteError(err error) error {
	if err == nil {
		return nil
	}
	var re *rpc.RemoteError
	if !errors.As(err, &re) {
		return err
	}
	return rehydrate(re.Msg, err)
}

// rehydrateError restores sentinel identity on an error that crossed the
// wire as a bare string (the thread-outcome path, which flattens errors even
// harder than the RPC layer does).
func rehydrateError(msg string) error {
	return rehydrate(msg, errors.New(msg))
}

// RPC procedure numbers.
const (
	// procRouted carries operations that must execute where the object
	// resides (invoke, locate, move, set-immutable, delete, attach); the
	// receiving node either executes or forwards along the chain (§3.3).
	procRouted rpc.Proc = 1
	// procInstall delivers a migrating object's contents to its new node
	// (§3.4).
	procInstall rpc.Proc = 2
	// procLocUpdate is a oneway that back-patches forwarding caches on the
	// nodes an invocation traversed (§3.3).
	procLocUpdate rpc.Proc = 3
	// procRegion serves the address-space server (grants and ownership
	// queries, §3.1). Handled only by the server node.
	procRegion rpc.Proc = 4
	// procTraceDump returns a node's buffered trace events so a collector
	// can stitch cross-node thread journeys (observability, DESIGN.md §7).
	procTraceDump rpc.Proc = 5
	// procStatsPull returns a node's full metrics state (counter/histogram
	// snapshots, queue depths, heat table, exemplars) so any node can render
	// a fleet-wide view (observability, DESIGN.md §12).
	procStatsPull rpc.Proc = 6
	// procLease revokes an outstanding reader lease: a write (or move, or
	// delete) at the holder bumped the object's residency epoch, and the
	// invalidation round fences every lease granted under an older epoch
	// before the mutation's reply is released (coherence, DESIGN.md §10).
	procLease rpc.Proc = 7
)

// Routed operation codes.
type routedOp uint8

const (
	opInvoke routedOp = iota + 1
	opLocate
	opMove
	opSetImmutable
	opDelete
	opAttach
	opUnattach
	// opSetCacheable marks a mutable object as lease-granting: subsequent
	// read-only invokes from other nodes receive bounded-lifetime cached
	// copies invalidated by epoch bumps (the coherence layer, DESIGN.md §10).
	opSetCacheable
)

func (op routedOp) String() string {
	switch op {
	case opInvoke:
		return "invoke"
	case opLocate:
		return "locate"
	case opMove:
		return "move"
	case opSetImmutable:
		return "setImmutable"
	case opDelete:
		return "delete"
	case opAttach:
		return "attach"
	case opUnattach:
		return "unattach"
	case opSetCacheable:
		return "setCacheable"
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// ThreadRec is the migrating portion of a thread: its identity and the
// objects its call chain is currently bound to. It travels with every
// function-shipped invocation, standing in for the paper's migrated stack:
// the Pins list is exactly the "which objects is this thread executing
// inside" information that the original system recovered by inspecting
// stacks (§3.5).
type ThreadRec struct {
	ID       uint64
	Home     gaddr.NodeID
	Priority int
	Pins     []gaddr.Addr
}

// pinned reports whether the thread's chain currently holds a pin on a.
func (t *ThreadRec) pinned(a gaddr.Addr) bool {
	for _, p := range t.Pins {
		if p == a {
			return true
		}
	}
	return false
}

// routedMsg is the wire form of a routed operation.
type routedMsg struct {
	Op     routedOp
	Obj    gaddr.Addr
	Thread ThreadRec
	// Method applies to opInvoke.
	Method string
	// Args is opInvoke's encoded argument vector and the last thing in the
	// encoding: it runs to the end of the message, so a sender appends it in
	// place behind the fields above instead of marshalling it apart and
	// copying it in.
	Args []byte
	// Cont is opInvoke's continuation: the encoded steps (appendStep) that
	// follow this invocation on the thread's journey, oldest first. Empty for a
	// plain invoke, where it costs its one length byte. The executor pops the
	// next step into Obj/Method/Args when this one has run (engine.go).
	Cont []byte
	// Dest applies to opMove (target node), opAttach (parent object is in
	// Peer), opUnattach (peer in Peer).
	Dest gaddr.NodeID
	Peer gaddr.Addr
	// Chain lists the nodes this message has visited, oldest first; used
	// for forwarding-cache updates and loop escape.
	Chain []gaddr.NodeID
	// Flags carries the read/copy classification bits (rmFlag*).
	Flags byte
}

// routedMsg flag bits.
const (
	// rmFlagReadOnly: the origin declared this invoke mutation-free
	// (WithReadOnly); the executor may run it under the shared side of the
	// coherence lock even when the method is not registry-declared read-only.
	rmFlagReadOnly = 1 << 0
	// rmFlagLeaseOK: the origin accepts a copy piggybacked on this reply — a
	// lease, which for an immutable object never expires (§2.3, DESIGN.md
	// §10). Set by one-step journeys on a node with copies enabled.
	rmFlagLeaseOK = 1 << 1
	// rmFlagChain: the journey left its origin with more than one step. It
	// stays set on the last step, whose continuation is empty, so the executor
	// still accounts it as a chain step.
	rmFlagChain = 1 << 2
)

// invokeReply is the wire form of an invocation result.
type invokeReply struct {
	// Results is the result vector and, like routedMsg.Args, the tail of the
	// encoding, appended in place by the executor.
	Results []byte
	// Node is the node that executed, so the caller can update its cache.
	Node gaddr.NodeID
	// Epoch is the object's residency version at execution time; location
	// caches apply it only if strictly newer than what they hold (§3.3,
	// Fowler-style versioned forwarding).
	Epoch uint64
	// Immutable reports that the executed object is in immutable mode, so
	// the origin knows a local copy would have served this call — and that
	// the copy riding this reply, if any, never expires.
	Immutable bool
	// SnapType/SnapState, when SnapType is non-empty, piggyback the executed
	// object's snapshot (type name + wire.Marshal state) so the origin can
	// install a copy in the same round trip (§2.3, DESIGN.md §10). Sent only
	// when the request's rmFlagLeaseOK asked for one. A copy of a stateless
	// type has a non-empty SnapType and an empty SnapState.
	SnapType  string
	SnapState []byte
	// Lease marks the piggybacked copy as a mutable reader lease; LeaseNs is
	// its lifetime in nanoseconds, measured from receipt (a duration, not an
	// absolute time, so the grant is clock-skew-free — the receiver stamps
	// its own expiry).
	Lease   bool
	LeaseNs uint64
	// Revoked is the executor's write fence handing the origin its own lease
	// revoke: the origin held a grant on the written object, got no revoke
	// message, and must apply the revoke (to Epoch, forwarding to Node)
	// before the results reach the caller. One bit of the flags byte.
	Revoked bool
}

// locateReply answers opLocate.
type locateReply struct {
	Node gaddr.NodeID
	// Immutable reports the object's mode; Locate on a replicated object
	// returns the nearest holder.
	Immutable bool
	// Epoch versions the location (see invokeReply.Epoch).
	Epoch uint64
}

// moveReply answers opMove.
type moveReply struct {
	// Deferred is set when the move was scheduled but not yet performed
	// because the requesting thread itself is bound to the object; the
	// shipment completes when the thread leaves the object.
	Deferred bool
	// Node is where the object now resides (or will reside).
	Node gaddr.NodeID
	// Epoch versions the new residency; zero for deferred moves and replica
	// copies (no cache refresh warranted).
	Epoch uint64
}

// snapshot is one object's migrating state.
type snapshot struct {
	Addr      gaddr.Addr
	TypeName  string
	State     []byte // wire.Marshal of the object value
	Immutable bool
	// Epoch is the residency version the object will have once installed
	// (source epoch + 1 for moves; the source's own epoch for replicas).
	Epoch uint64
	// Attached lists this object's attachment edges (peers are included in
	// the same install batch for mutable moves).
	Attached []gaddr.Addr
	// Leasable carries the lease-granting mode across a move: the new holder
	// resumes granting reader leases (with a fresh, empty grant table — the
	// mover fences old leases instead of shipping the table).
	Leasable bool
}

// installMsg delivers migrating objects to their new node.
type installMsg struct {
	From gaddr.NodeID
	// Copy marks immutable replication rather than migration.
	Copy    bool
	Objects []snapshot
}

// locUpdateMsg back-patches a forwarding cache entry.
type locUpdateMsg struct {
	Obj  gaddr.Addr
	Node gaddr.NodeID
	// Epoch versions the claim; receivers discard it unless strictly newer
	// than their current knowledge.
	Epoch uint64
}

// leaseMsg revokes a reader lease (procLease): the holder (or its successor)
// bumped Obj's residency epoch to Epoch and the receiver must stop serving
// reads from any lease granted under an older epoch before acking. Src names
// where current state lives, so the receiver's tombstone forwards there.
type leaseMsg struct {
	Obj   gaddr.Addr
	Epoch uint64
	Src   gaddr.NodeID
}

// traceDumpMsg requests a node's buffered trace events (Last <= 0 = all).
// Both dump messages deliberately ride the gob fallback: introspection is
// not a hot path, and they are what keeps the fallback exercised now that
// every message on a paper mechanism's path has a codec.
type traceDumpMsg struct {
	Last int
}

// traceDumpReply carries the events back.
type traceDumpReply struct {
	Events []trace.Event
}

// statsPullMsg requests a node's metrics state. TopN bounds the per-node heat
// and exemplar tables (<=0 = a small default). Like the trace-dump pair, it
// rides the gob fallback: introspection is not a hot path.
type statsPullMsg struct {
	TopN int
}

// statsPullReply carries the node's stats back.
type statsPullReply struct {
	Stats NodeStats
}

// regionMsg serves the address-space server protocol.
type regionMsg struct {
	// Grant: number of regions requested (0 means ownership query).
	Grant int
	Node  gaddr.NodeID
	Query gaddr.Region
}

type regionReply struct {
	Regions []gaddr.Region
	Owner   gaddr.NodeID
}

// --- fast-path wire codecs (see internal/wire) ---
//
// The routed-operation protocol is the hot path of the whole system: every
// remote invocation, locate, move and install crosses the wire as one of the
// structs below. They implement wire.Codec so MarshalInto/UnmarshalFrom bypass
// gob and its per-message type descriptors. Only the introspection pairs
// (trace dump, stats pull) stay on the gob fallback.
//
// routedMsg and invokeReply are frame headers (see frame.go): their bulk
// field comes last and runs to the end of the message, so the sender's
// AppendWire is followed by the vector appended in place. sizeHint is the
// header's share of the frame's presizing.

func (m *routedMsg) sizeHint() int {
	return 48 + len(m.Method) + len(m.Args) + len(m.Cont) + 10*len(m.Thread.Pins) + 5*len(m.Chain)
}

func (m *invokeReply) sizeHint() int {
	return 32 + len(m.Results) + len(m.SnapType) + len(m.SnapState)
}

func (t *ThreadRec) appendWire(b []byte) []byte {
	b = wire.AppendUvarint(b, t.ID)
	b = wire.AppendVarint(b, int64(t.Home))
	b = wire.AppendVarint(b, int64(t.Priority))
	b = wire.AppendUvarint(b, uint64(len(t.Pins)))
	for _, p := range t.Pins {
		b = wire.AppendUvarint(b, uint64(p))
	}
	return b
}

func (t *ThreadRec) decodeWire(b []byte) ([]byte, error) {
	var err error
	var v int64
	if t.ID, b, err = wire.ReadUvarint(b); err != nil {
		return nil, err
	}
	if v, b, err = wire.ReadVarint(b); err != nil {
		return nil, err
	}
	t.Home = gaddr.NodeID(v)
	if v, b, err = wire.ReadVarint(b); err != nil {
		return nil, err
	}
	t.Priority = int(v)
	var cnt uint64
	if cnt, b, err = wire.ReadUvarint(b); err != nil {
		return nil, err
	}
	t.Pins = nil
	if cnt > 0 {
		if cnt > uint64(len(b)) { // each pin costs ≥1 byte
			return nil, wire.ErrShortBuffer
		}
		t.Pins = make([]gaddr.Addr, cnt)
		for i := range t.Pins {
			var u uint64
			if u, b, err = wire.ReadUvarint(b); err != nil {
				return nil, err
			}
			t.Pins[i] = gaddr.Addr(u)
		}
	}
	return b, nil
}

// AppendWire implements wire.Codec: the header, the continuation behind its
// byte length, and the argument vector to the end of the message.
func (m *routedMsg) AppendWire(b []byte) []byte {
	return append(wire.AppendBytes(m.appendHeader(b), m.Cont), m.Args...)
}

// appendHeader appends every field ahead of the continuation. The origin's
// request builder calls it directly and encodes the continuation and the
// arguments in place behind it, from values.
func (m *routedMsg) appendHeader(b []byte) []byte {
	b = append(b, byte(m.Op))
	b = wire.AppendUvarint(b, uint64(m.Obj))
	b = m.Thread.appendWire(b)
	b = wire.AppendString(b, m.Method)
	b = wire.AppendVarint(b, int64(m.Dest))
	b = wire.AppendUvarint(b, uint64(m.Peer))
	b = wire.AppendUvarint(b, uint64(len(m.Chain)))
	for _, hop := range m.Chain {
		b = wire.AppendVarint(b, int64(hop))
	}
	return append(b, m.Flags)
}

// DecodeWire implements wire.Codec. Cont and Args alias b (zero copy) and are
// only valid while the enclosing request payload is; UnmarshalArgs copies out
// of them before the handler returns. The continuation is walked once here,
// so a malformed chain is refused before any of its steps has run.
func (m *routedMsg) DecodeWire(b []byte) ([]byte, error) {
	if len(b) < 1 {
		return nil, wire.ErrShortBuffer
	}
	m.Op, b = routedOp(b[0]), b[1:]
	var err error
	var u uint64
	var v int64
	if u, b, err = wire.ReadUvarint(b); err != nil {
		return nil, err
	}
	m.Obj = gaddr.Addr(u)
	if b, err = m.Thread.decodeWire(b); err != nil {
		return nil, err
	}
	if m.Method, b, err = wire.ReadString(b); err != nil {
		return nil, err
	}
	if v, b, err = wire.ReadVarint(b); err != nil {
		return nil, err
	}
	m.Dest = gaddr.NodeID(v)
	if u, b, err = wire.ReadUvarint(b); err != nil {
		return nil, err
	}
	m.Peer = gaddr.Addr(u)
	var cnt uint64
	if cnt, b, err = wire.ReadUvarint(b); err != nil {
		return nil, err
	}
	m.Chain = nil
	if cnt > 0 {
		if cnt > uint64(len(b)) {
			return nil, wire.ErrShortBuffer
		}
		m.Chain = make([]gaddr.NodeID, cnt)
		for i := range m.Chain {
			if v, b, err = wire.ReadVarint(b); err != nil {
				return nil, err
			}
			m.Chain[i] = gaddr.NodeID(v)
		}
	}
	if len(b) < 1 {
		return nil, wire.ErrShortBuffer
	}
	m.Flags = b[0]
	if m.Cont, m.Args, err = wire.ReadBytes(b[1:]); err != nil {
		return nil, err
	}
	for c := m.Cont; len(c) > 0; {
		if _, c, err = popStep(c); err != nil {
			return nil, err
		}
	}
	return nil, nil
}

// invokeReply flag bits (one byte after Epoch on the wire).
const (
	irFlagImmutable = 1 << 0
	irFlagSnapshot  = 1 << 1
	irFlagLease     = 1 << 2
	irFlagRevoked   = 1 << 3
)

// AppendWire implements wire.Codec.
func (m *invokeReply) AppendWire(b []byte) []byte {
	b = wire.AppendVarint(b, int64(m.Node))
	b = wire.AppendUvarint(b, m.Epoch)
	var flags byte
	if m.Immutable {
		flags |= irFlagImmutable
	}
	if m.SnapType != "" {
		flags |= irFlagSnapshot
	}
	if m.Lease {
		flags |= irFlagLease
	}
	if m.Revoked {
		flags |= irFlagRevoked
	}
	b = append(b, flags)
	if m.Lease {
		b = wire.AppendUvarint(b, m.LeaseNs)
	}
	if m.SnapType != "" {
		b = wire.AppendString(b, m.SnapType)
		b = wire.AppendBytes(b, m.SnapState)
	}
	return append(b, m.Results...)
}

// DecodeWire implements wire.Codec. Results (the rest of b) and SnapState
// alias b; the caller recycles the reply payload only after copying the
// values out.
func (m *invokeReply) DecodeWire(b []byte) ([]byte, error) {
	var err error
	var v int64
	if v, b, err = wire.ReadVarint(b); err != nil {
		return nil, err
	}
	m.Node = gaddr.NodeID(v)
	if m.Epoch, b, err = wire.ReadUvarint(b); err != nil {
		return nil, err
	}
	if len(b) < 1 {
		return nil, wire.ErrShortBuffer
	}
	var flags byte
	flags, b = b[0], b[1:]
	m.Immutable = flags&irFlagImmutable != 0
	m.Lease = flags&irFlagLease != 0
	m.Revoked = flags&irFlagRevoked != 0
	m.LeaseNs = 0
	if m.Lease {
		if m.LeaseNs, b, err = wire.ReadUvarint(b); err != nil {
			return nil, err
		}
	}
	m.SnapType, m.SnapState = "", nil
	if flags&irFlagSnapshot != 0 {
		if m.SnapType, b, err = wire.ReadString(b); err != nil {
			return nil, err
		}
		if m.SnapState, b, err = wire.ReadBytes(b); err != nil {
			return nil, err
		}
	}
	m.Results = b
	return nil, nil
}

// snapshot flag bits.
const (
	snapFlagImmutable = 1 << 0
	snapFlagLeasable  = 1 << 1
)

// snapshotMinWire is the shortest possible snapshot encoding (six one-byte
// fields), which bounds the object count a decoder will believe.
const snapshotMinWire = 6

// appendWire appends the snapshot: its fields, then the object's state behind
// a length prefix — s.State when that is set (a cached or received encoding),
// otherwise obj encoded in place (a nil obj is a stateless type).
func (s *snapshot) appendWire(b []byte, obj any) ([]byte, error) {
	b = wire.AppendUvarint(b, uint64(s.Addr))
	b = wire.AppendString(b, s.TypeName)
	var flags byte
	if s.Immutable {
		flags |= snapFlagImmutable
	}
	if s.Leasable {
		flags |= snapFlagLeasable
	}
	b = append(b, flags)
	b = wire.AppendUvarint(b, s.Epoch)
	b = wire.AppendUvarint(b, uint64(len(s.Attached)))
	for _, a := range s.Attached {
		b = wire.AppendUvarint(b, uint64(a))
	}
	if s.State != nil || obj == nil {
		return wire.AppendBytes(b, s.State), nil
	}
	b, mark := wire.BeginSized(b)
	b, err := wire.AppendValue(b, obj)
	if err != nil {
		return nil, err
	}
	return wire.EndSized(b, mark), nil
}

// decodeWire consumes one snapshot. State aliases b.
func (s *snapshot) decodeWire(b []byte) ([]byte, error) {
	var err error
	var u, cnt uint64
	if u, b, err = wire.ReadUvarint(b); err != nil {
		return nil, err
	}
	s.Addr = gaddr.Addr(u)
	if s.TypeName, b, err = wire.ReadString(b); err != nil {
		return nil, err
	}
	if len(b) < 1 {
		return nil, wire.ErrShortBuffer
	}
	s.Immutable, s.Leasable = b[0]&snapFlagImmutable != 0, b[0]&snapFlagLeasable != 0
	if s.Epoch, b, err = wire.ReadUvarint(b[1:]); err != nil {
		return nil, err
	}
	if cnt, b, err = wire.ReadUvarint(b); err != nil {
		return nil, err
	}
	s.Attached = nil
	if cnt > 0 {
		if cnt > uint64(len(b)) {
			return nil, wire.ErrShortBuffer
		}
		s.Attached = make([]gaddr.Addr, cnt)
		for i := range s.Attached {
			if u, b, err = wire.ReadUvarint(b); err != nil {
				return nil, err
			}
			s.Attached[i] = gaddr.Addr(u)
		}
	}
	if s.State, b, err = wire.ReadBytes(b); err != nil {
		return nil, err
	}
	return b, nil
}

// appendInstallHeader opens an install batch of count snapshots; the sender
// appends them one by one behind it (snapshot.appendWire).
func appendInstallHeader(b []byte, from gaddr.NodeID, isCopy bool, count int) []byte {
	b = wire.AppendVarint(b, int64(from))
	if isCopy {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	return wire.AppendUvarint(b, uint64(count))
}

// AppendWire implements wire.Codec for a batch whose snapshots carry their
// State as bytes. The migration path encodes live objects and so builds the
// same encoding piecewise (moveOp.ship).
func (m *installMsg) AppendWire(b []byte) []byte {
	b = appendInstallHeader(b, m.From, m.Copy, len(m.Objects))
	for i := range m.Objects {
		b, _ = m.Objects[i].appendWire(b, nil) // no object to encode: cannot fail
	}
	return b
}

// DecodeWire implements wire.Codec. Each snapshot's State aliases b; the
// install handler decodes the objects out of it before the request payload is
// recycled.
func (m *installMsg) DecodeWire(b []byte) ([]byte, error) {
	var err error
	var v int64
	var cnt uint64
	if v, b, err = wire.ReadVarint(b); err != nil {
		return nil, err
	}
	m.From = gaddr.NodeID(v)
	if len(b) < 1 {
		return nil, wire.ErrShortBuffer
	}
	m.Copy = b[0] != 0
	if cnt, b, err = wire.ReadUvarint(b[1:]); err != nil {
		return nil, err
	}
	m.Objects = nil
	if cnt > uint64(len(b)/snapshotMinWire) {
		return nil, wire.ErrShortBuffer
	}
	// Grown as snapshots actually decode: a hostile count cannot reserve
	// memory the input does not back.
	for ; cnt > 0; cnt-- {
		var s snapshot
		if b, err = s.decodeWire(b); err != nil {
			return nil, err
		}
		m.Objects = append(m.Objects, s)
	}
	return b, nil
}

// AppendWire implements wire.Codec.
func (m *locateReply) AppendWire(b []byte) []byte {
	b = wire.AppendVarint(b, int64(m.Node))
	if m.Immutable {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	return wire.AppendUvarint(b, m.Epoch)
}

// DecodeWire implements wire.Codec.
func (m *locateReply) DecodeWire(b []byte) ([]byte, error) {
	var err error
	var v int64
	if v, b, err = wire.ReadVarint(b); err != nil {
		return nil, err
	}
	m.Node = gaddr.NodeID(v)
	if len(b) < 1 {
		return nil, wire.ErrShortBuffer
	}
	m.Immutable, b = b[0] != 0, b[1:]
	if m.Epoch, b, err = wire.ReadUvarint(b); err != nil {
		return nil, err
	}
	return b, nil
}

// AppendWire implements wire.Codec.
func (m *moveReply) AppendWire(b []byte) []byte {
	if m.Deferred {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = wire.AppendVarint(b, int64(m.Node))
	return wire.AppendUvarint(b, m.Epoch)
}

// DecodeWire implements wire.Codec.
func (m *moveReply) DecodeWire(b []byte) ([]byte, error) {
	if len(b) < 1 {
		return nil, wire.ErrShortBuffer
	}
	m.Deferred, b = b[0] != 0, b[1:]
	var err error
	var v int64
	if v, b, err = wire.ReadVarint(b); err != nil {
		return nil, err
	}
	m.Node = gaddr.NodeID(v)
	if m.Epoch, b, err = wire.ReadUvarint(b); err != nil {
		return nil, err
	}
	return b, nil
}

// AppendWire implements wire.Codec.
func (m *locUpdateMsg) AppendWire(b []byte) []byte {
	b = wire.AppendUvarint(b, uint64(m.Obj))
	b = wire.AppendVarint(b, int64(m.Node))
	return wire.AppendUvarint(b, m.Epoch)
}

// DecodeWire implements wire.Codec.
func (m *locUpdateMsg) DecodeWire(b []byte) ([]byte, error) {
	var err error
	var u uint64
	var v int64
	if u, b, err = wire.ReadUvarint(b); err != nil {
		return nil, err
	}
	m.Obj = gaddr.Addr(u)
	if v, b, err = wire.ReadVarint(b); err != nil {
		return nil, err
	}
	m.Node = gaddr.NodeID(v)
	if m.Epoch, b, err = wire.ReadUvarint(b); err != nil {
		return nil, err
	}
	return b, nil
}

// AppendWire implements wire.Codec.
func (m *leaseMsg) AppendWire(b []byte) []byte {
	b = wire.AppendUvarint(b, uint64(m.Obj))
	b = wire.AppendUvarint(b, m.Epoch)
	return wire.AppendVarint(b, int64(m.Src))
}

// DecodeWire implements wire.Codec.
func (m *leaseMsg) DecodeWire(b []byte) ([]byte, error) {
	var err error
	var u uint64
	var v int64
	if u, b, err = wire.ReadUvarint(b); err != nil {
		return nil, err
	}
	m.Obj = gaddr.Addr(u)
	if m.Epoch, b, err = wire.ReadUvarint(b); err != nil {
		return nil, err
	}
	if v, b, err = wire.ReadVarint(b); err != nil {
		return nil, err
	}
	m.Src = gaddr.NodeID(v)
	return b, nil
}

// AppendWire implements wire.Codec.
func (m *regionMsg) AppendWire(b []byte) []byte {
	b = wire.AppendVarint(b, int64(m.Grant))
	b = wire.AppendVarint(b, int64(m.Node))
	return wire.AppendUvarint(b, uint64(m.Query))
}

// DecodeWire implements wire.Codec.
func (m *regionMsg) DecodeWire(b []byte) ([]byte, error) {
	var err error
	var u uint64
	var v int64
	if v, b, err = wire.ReadVarint(b); err != nil {
		return nil, err
	}
	m.Grant = int(v)
	if v, b, err = wire.ReadVarint(b); err != nil {
		return nil, err
	}
	m.Node = gaddr.NodeID(v)
	if u, b, err = wire.ReadUvarint(b); err != nil {
		return nil, err
	}
	m.Query = gaddr.Region(u)
	return b, nil
}

// AppendWire implements wire.Codec.
func (m *regionReply) AppendWire(b []byte) []byte {
	b = wire.AppendUvarint(b, uint64(len(m.Regions)))
	for _, r := range m.Regions {
		b = wire.AppendUvarint(b, uint64(r))
	}
	return wire.AppendVarint(b, int64(m.Owner))
}

// DecodeWire implements wire.Codec.
func (m *regionReply) DecodeWire(b []byte) ([]byte, error) {
	var err error
	var u, cnt uint64
	var v int64
	if cnt, b, err = wire.ReadUvarint(b); err != nil {
		return nil, err
	}
	m.Regions = nil
	if cnt > 0 {
		if cnt > uint64(len(b)) {
			return nil, wire.ErrShortBuffer
		}
		m.Regions = make([]gaddr.Region, cnt)
		for i := range m.Regions {
			if u, b, err = wire.ReadUvarint(b); err != nil {
				return nil, err
			}
			m.Regions[i] = gaddr.Region(u)
		}
	}
	if v, b, err = wire.ReadVarint(b); err != nil {
		return nil, err
	}
	m.Owner = gaddr.NodeID(v)
	return b, nil
}
