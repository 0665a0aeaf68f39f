package core

import (
	"fmt"
	"reflect"
	"sort"
	"time"

	"amber/internal/gaddr"
	"amber/internal/objspace"
	"amber/internal/rpc"
	"amber/internal/trace"
	"amber/internal/wire"
)

// handleInstall receives migrating objects (or copies of an immutable object)
// and makes them resident here. Their "address ranges are predetermined"
// (§3.4): the descriptor slot is simply the same global address, so no
// allocation happens on the receiving side.
func (n *Node) handleInstall(rc *rpc.Ctx) {
	var msg installMsg
	if _, err := msg.DecodeWire(rc.Body); err != nil {
		rc.Reply(nil, err)
		return
	}
	// Decode and validate every snapshot before touching any descriptor, so
	// the batch applies all-or-nothing. An error reply makes the source
	// revert the WHOLE component to resident; if a prefix of the batch had
	// already been made resident here, both nodes would hold live copies of
	// those objects. Address order is the order the batch's descriptors are
	// locked in below (executeAttach's rule), and it puts a repeated address,
	// which would lock one descriptor twice, next to its twin.
	sort.Slice(msg.Objects, func(i, j int) bool { return msg.Objects[i].Addr < msg.Objects[j].Addr })
	tis := make([]*typeInfo, len(msg.Objects))
	pvs := make([]reflect.Value, len(msg.Objects))
	for i, snap := range msg.Objects {
		ti, err := n.reg.lookupName(snap.TypeName)
		if err == nil && i > 0 && snap.Addr == msg.Objects[i-1].Addr {
			err = fmt.Errorf("amber: install %#x: listed twice", uint64(snap.Addr))
		}
		if err != nil {
			rc.Reply(nil, err)
			return
		}
		pv := reflect.New(ti.elem)
		if len(snap.State) > 0 {
			stateVal, err := wire.Unmarshal(snap.State)
			if err != nil {
				rc.Reply(nil, err)
				return
			}
			sv := reflect.ValueOf(stateVal)
			if sv.Type() != ti.elem {
				rc.Reply(nil, fmt.Errorf("amber: install %#x: state is %T, want %s",
					uint64(snap.Addr), stateVal, ti.elem))
				return
			}
			pv.Elem().Set(sv)
		}
		tis[i], pvs[i] = ti, pv
	}
	// Tear down any resident copy of an arriving object BEFORE installing
	// anything: the real object can move onto a node that holds a lease on
	// it, and overwriting the payload while lease readers hold pins would
	// race their lock-free reads. The teardown runs as a pre-pass so a drain
	// timeout still fails the batch all-or-nothing. Lease pins are
	// method-call-short, so the wait is brief.
	//
	// Then the batch lands at once: every descriptor is locked before the
	// first is published and unlocked after the last. A component walk from a
	// member already published would otherwise find the next one still a
	// tombstone, or absent, and an operation that reran at once would spin on
	// it. A copy the installer worker landed between the two steps is found
	// under the locks, and the teardown runs again.
	//
	// A stale snapshot touches nothing, a copy included: it may be a re-sent
	// install (see resend) reaching a node that has since moved the object on
	// and holds a lease copy of it from its new residency.
	for landed := true; landed; {
		for _, snap := range msg.Objects {
			d := n.desc(snap.Addr)
			if msg.Copy || d == nil {
				continue
			}
			d.Lock()
			if d.State() != stateResident || !d.Copy() || snap.staleAt(d) {
				d.Unlock()
				continue
			}
			d.SetExpiry(0) // stop serving immediately
			if !d.Drain(n.cfg.MoveDrainTimeout) {
				d.Unlock()
				rc.Reply(nil, fmt.Errorf("%w: install %#x over a pinned lease",
					ErrMoveTimeout, uint64(snap.Addr)))
				return
			}
			d.ForwardTo(nil, msg.From, d.Epoch())
			d.Unlock()
			n.space.ReplicaDrop(snap.Addr)
		}
		landed = false
		for _, snap := range msg.Objects {
			d := n.descEnsure(snap.Addr)
			d.Lock()
			landed = landed || !msg.Copy && d.State() == stateResident && d.Copy() && !snap.staleAt(d)
		}
		if landed {
			for _, snap := range msg.Objects {
				n.desc(snap.Addr).Unlock()
			}
		}
	}
	for i, snap := range msg.Objects {
		d := n.desc(snap.Addr)
		if !msg.Copy && snap.staleAt(d) {
			// Stale or duplicate install: this node already has newer
			// information about the object (the residency the snapshot
			// describes has been and gone). Installing it would wind the
			// epoch backward and corrupt routing.
			n.counts.Inc("installs_stale")
			continue
		}
		if msg.Copy && d.State() == stateResident {
			// Already holding a copy (an explicit placement racing a
			// demand-pulled one, or a duplicated install). Copies of an
			// immutable object are byte-identical at the same epoch, so there
			// is nothing to gain — and overwriting a resident payload would
			// race its pinned readers.
			n.counts.Inc("replica_installs_dup")
			continue
		}
		if d.State() == stateMoving {
			// Pre-flip window of an outbound move: the object left here and
			// is already coming back. This inbound residency supersedes the
			// outbound op, whose tombstone flip then fails (see ship).
			n.counts.Inc("installs_superseded_move")
		}
		// Immutable arrivals keep their marshalled form in the snap cell so
		// onward copies (reply piggyback, further moves) never re-encode.
		// snap.State aliases the request payload, which the rpc layer
		// recycles when this handler returns — the cell needs its own copy.
		p := newPayload(pvs[i], tis[i])
		if snap.Immutable {
			p.snap = &snapCell{}
			if len(snap.State) > 0 {
				st := append(make([]byte, 0, len(snap.State)), snap.State...)
				p.snap.v.Store(&st)
			}
		}
		// The leasable mark travels with the object: the new holder grants
		// leases from an empty grant table (the source fenced every
		// outstanding grant when it shipped the object out).
		mode, expiry, attached := objspace.Mode{Immutable: snap.Immutable, Leasable: snap.Leasable}, int64(0), snap.Attached
		if msg.Copy {
			p.src = msg.From
			mode, expiry, attached = objspace.Mode{Immutable: true, Copy: true}, copyForever, nil
		}
		d.Publish(p, snap.Epoch, mode, expiry, attached)
	}
	for _, snap := range msg.Objects {
		n.desc(snap.Addr).Unlock()
		// Any hint for this object is now stale at best; the descriptor is
		// authoritative.
		n.space.HintDrop(snap.Addr)
	}
	if msg.Copy {
		n.counts.Add("replicas_installed", int64(len(msg.Objects)))
	} else {
		n.counts.Add("objects_moved_in", int64(len(msg.Objects)))
	}
	rc.Reply(nil, nil)
}

// staleAt reports whether d already has newer information about a migrating
// snapshot's object than the residency the snapshot describes.
func (s *snapshot) staleAt(d *descriptor) bool {
	return s.Epoch != 0 && s.Epoch <= d.Epoch()
}

// control drives a mobility/control operation initiated locally by thread c:
// run the entry protocol here, execute if the object is local, otherwise
// ship the request and decode the typed reply. An attach that executes here
// and continues at the node its child migrated to ships the same way, as an
// arrival's does in handleRouted. A shipped request that fails
// climbs the same ladder as an invocation (engine.go) for its routing rungs;
// both dead ends it recovers from are replies generated before any execution,
// so resolving again cannot double-apply the operation.
func (n *Node) control(c *Ctx, msg *routedMsg, o callOpts) (any, error) {
	msg.Thread = c.rec
	ro := n.policy(o)
	var lad ladder
	tries := 0
	for {
		d, act, to, err := n.resolve(msg, &msg.Thread)
		switch act {
		case actError:
			return nil, err
		case actExecute:
			var rep any
			rep, to, err = n.executeControl(d, msg)
			if again, err := n.awaitTransition(msg, &tries, err); again {
				continue
			} else if err != nil || to == gaddr.NoNode {
				return rep, err
			}
			// An attach continues at the node its child just migrated to.
		}
		rep, err := n.shipControl(c, msg, to, ro)
		if err == nil {
			return rep, nil
		}
		if !n.climb(&lad, msg.Obj, to, ro, err) {
			return nil, err
		}
		msg.Chain = nil
	}
}

// executeControl runs a control operation whose object resolve found resident
// here, for a thread of this node (control) and an arrival (handleRouted)
// alike. d arrives locked (resolve's control contract); each per-op executor
// releases it. It returns the typed reply (nil for an empty ack), or the node
// at which the operation continues — an attach whose child just migrated to
// its parent's node finishes there — or an error; a retryRoute asks the
// caller to run the entry protocol again, through awaitTransition.
func (n *Node) executeControl(d *descriptor, msg *routedMsg) (rep any, continueAt gaddr.NodeID, err error) {
	continueAt = gaddr.NoNode
	switch msg.Op {
	case opLocate:
		rep = &locateReply{Node: n.id, Immutable: d.Immutable(), Epoch: d.Epoch()}
		d.Unlock()
		n.counts.Inc("locates_answered")
	case opMove:
		var mr moveReply
		if mr, err = n.executeMove(d, msg, false); err == nil {
			rep = &mr
		}
	case opSetImmutable:
		err = n.executeSetImmutable(d, msg)
	case opSetCacheable:
		err = n.executeSetCacheable(d, msg)
	case opDelete:
		err = n.executeDelete(d, msg)
	case opAttach:
		continueAt, err = n.executeAttach(d, msg)
	case opUnattach:
		err = n.executeUnattach(d, msg)
	default:
		d.Unlock()
		err = fmt.Errorf("amber: unknown control op %d", msg.Op)
	}
	return rep, continueAt, err
}

// shipControl sends a control request to another node and decodes the typed
// reply. The thread blocks (releasing its processor slot) while the request
// is away, like any remote operation.
func (n *Node) shipControl(c *Ctx, msg *routedMsg, to gaddr.NodeID, ro rpc.CallOpts) (any, error) {
	msg.Chain = append(msg.Chain, n.id)
	if len(msg.Chain) > n.cfg.MaxHops {
		return nil, ErrRoutingLost
	}
	resp, err := n.callBlocked(c, to, msg.frame(), ro)
	if err != nil {
		return nil, err
	}
	defer wire.PutBuf(resp) // typed replies below copy all fields out
	switch msg.Op {
	case opLocate:
		var lr locateReply
		if err := wire.UnmarshalFrom(resp, &lr); err != nil {
			return nil, err
		}
		n.learnLocation(msg.Obj, lr.Node, lr.Epoch)
		return &lr, nil
	case opMove:
		var mr moveReply
		if err := wire.UnmarshalFrom(resp, &mr); err != nil {
			return nil, err
		}
		n.learnLocation(msg.Obj, mr.Node, mr.Epoch)
		return &mr, nil
	default:
		return nil, nil // empty acks
	}
}

// --- Ctx-facing mobility API (§2.3) ---

// MoveTo migrates an object (with its whole attachment component) to the
// given node. Moving an immutable object copies it instead; the call returns
// once the copy is installed. A self-move (the calling thread is inside the
// object) is deferred: it completes when the thread leaves the object.
// Options (WithDeadline, WithRetry) bound and retry the shipped request;
// move retries are idempotency-protected like invokes.
//
// A move that fails with ErrTimeout or ErrNodeDown may still complete, as an
// Invoke that fails with them may have executed: the install may have landed
// and only its reply been lost. The object then stays moving on the source,
// which re-sends the install until the destination answers, and operations
// that reach the source wait meanwhile. It is never live on both nodes.
func (c *Ctx) MoveTo(obj Ref, node gaddr.NodeID, opts ...CallOption) error {
	start := time.Now()
	msg := routedMsg{Op: opMove, Obj: obj, Dest: node}
	// The new location needs no learning here: a move executed on this node
	// left its own tombstone, and shipControl learnt a remote one's reply.
	_, err := c.node.control(c, &msg, gatherOptions(opts))
	c.node.histMove.Observe(time.Since(start))
	if err != nil {
		return err
	}
	if tr := c.node.tracer; tr.OnFor(c.rec.ID) {
		tr.Emit(trace.Event{Kind: trace.KObjectMove, Trace: c.rec.ID, Parent: c.span,
			Thread: c.rec.ID, Obj: uint64(obj), Arg: int64(node)})
	}
	c.node.counts.Inc("moveto_calls")
	return nil
}

// Locate reports the node where the object currently resides. For an
// immutable object it reports the nearest node known to hold a copy.
// Options (WithDeadline, WithRetry) bound and retry the routed request.
func (c *Ctx) Locate(obj Ref, opts ...CallOption) (gaddr.NodeID, error) {
	// Fast path (§2.3): an immutable copy resident here — a demand-pulled
	// replica or an explicit placement — answers locally. The nearest node
	// holding a copy is this one; no lock, no message. TryPin succeeds only on
	// a resident descriptor, so residency and the immutable bit are both read
	// from the packed state word.
	if d := c.node.desc(obj); d != nil && d.Immutable() && d.TryPin() {
		c.node.unpin(d)
		c.node.counts.Inc("locates_local_replica")
		return c.node.id, nil
	}
	msg := routedMsg{Op: opLocate, Obj: obj}
	rep, err := c.node.control(c, &msg, gatherOptions(opts))
	if err != nil {
		return gaddr.NoNode, err
	}
	return rep.(*locateReply).Node, nil
}

// SetImmutable marks an object as never again modified (§2.3). Subsequent
// MoveTo calls copy the object, allowing replicas on many nodes. Options
// (WithDeadline, WithRetry) bound and retry the routed request.
func (c *Ctx) SetImmutable(obj Ref, opts ...CallOption) error {
	msg := routedMsg{Op: opSetImmutable, Obj: obj}
	_, err := c.node.control(c, &msg, gatherOptions(opts))
	return err
}

// SetCacheable marks a mutable object lease-granting (§2.3 generalized, see
// DESIGN.md §10): remote read-only invokes on it piggyback bounded-lifetime
// reader leases on their replies, making subsequent reads at the caller
// zero-message until the next write. Writes on a cacheable object pay for
// that: each runs under the object's exclusive coherence lock and blocks
// until every outstanding lease is revoked (or its TTL bounds the wait).
// Mark read-mostly objects, not write-hot ones. Methods are classified
// read-only via the class's AmberReadOnly declaration or per-call
// WithReadOnly. Idempotent; immutable objects are rejected (every copy of an
// immutable object is already coherent). Options (WithDeadline, WithRetry)
// bound and retry the routed request.
func (c *Ctx) SetCacheable(obj Ref, opts ...CallOption) error {
	msg := routedMsg{Op: opSetCacheable, Obj: obj}
	_, err := c.node.control(c, &msg, gatherOptions(opts))
	return err
}

// Delete destroys an object. References to it subsequently fail with
// ErrDeleted. Immutable (replicated) objects cannot be deleted. Options
// (WithDeadline, WithRetry) bound and retry the routed request.
func (c *Ctx) Delete(obj Ref, opts ...CallOption) error {
	msg := routedMsg{Op: opDelete, Obj: obj}
	_, err := c.node.control(c, &msg, gatherOptions(opts))
	return err
}

// Attach links obj to peer so they are co-resident and migrate as a unit
// (§2.3). If they are on different nodes, obj's component moves to peer's
// node first. Attachment in this implementation is symmetric: moving either
// object moves the whole component (which is what guarantees the paper's
// "always co-located" property).
// Options (WithDeadline, WithRetry) bound and retry each routed request.
func (c *Ctx) Attach(obj, peer Ref, opts ...CallOption) error {
	msg := routedMsg{Op: opAttach, Obj: obj, Peer: peer}
	_, err := c.node.control(c, &msg, gatherOptions(opts))
	return err
}

// Unattach removes the attachment between obj and peer. Options
// (WithDeadline, WithRetry) bound and retry the routed request.
func (c *Ctx) Unattach(obj, peer Ref, opts ...CallOption) error {
	msg := routedMsg{Op: opUnattach, Obj: obj, Peer: peer}
	_, err := c.node.control(c, &msg, gatherOptions(opts))
	return err
}

// NewAt creates an object and immediately places it on the given node — the
// common create-then-MoveTo idiom in one call. The object's home remains the
// creating node (home is fixed at birth, §3.3); only its residence moves.
// Options (WithDeadline, WithRetry) apply to the placement move.
func (c *Ctx) NewAt(node gaddr.NodeID, obj any, opts ...CallOption) (Ref, error) {
	ref, err := c.New(obj)
	if err != nil {
		return NilRef, err
	}
	if node == c.node.id {
		return ref, nil
	}
	if err := c.MoveTo(ref, node, opts...); err != nil {
		return NilRef, err
	}
	return ref, nil
}

// New creates an object on the node where the calling thread is currently
// executing (the paper's dynamic creation: objects are born on the creating
// node, which becomes their home). Creation is node-local and never ships a
// request; CallOptions are accepted for surface uniformity but have no
// effect here.
func (c *Ctx) New(obj any, opts ...CallOption) (Ref, error) {
	_ = opts
	return c.node.newLocalObject(obj)
}

// Invoke performs a (possibly remote) operation on obj. Arguments and
// results must be wire-registered types when the call crosses nodes; local
// calls pass values directly.
//
// CallOptions may be mixed into the argument list to shape failure behavior
// per call — they are filtered out before dispatch, so they never reach the
// method:
//
//	ctx.Invoke(ref, "Add", 5, amber.WithDeadline(time.Second),
//	    amber.WithRetry(amber.RetryPolicy{MaxAttempts: 3}))
//
// An Invoke is a one-step journey awaited inline (engine.go); the step lives
// on this stack frame.
func (c *Ctx) Invoke(obj Ref, method string, args ...any) ([]any, error) {
	rest, o := splitOptions(args)
	step := [1]ChainStep{{Obj: obj, Method: method, Args: rest}}
	return c.node.travel(c, step[:], o)
}
