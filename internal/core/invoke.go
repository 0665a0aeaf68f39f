package core

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"time"

	"amber/internal/gaddr"
	"amber/internal/rpc"
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
func (n *Node) resolve(msg *routedMsg) (d *descriptor, act action, to gaddr.NodeID, err error) {
	d = n.desc(msg.Obj)
	if d == nil {
		a, t, e := n.homeFallback(msg.Obj)
		return nil, a, t, e
	}
	// Fast path: for an invocation on a resident object, the residency check
	// and the pin are one CAS on the packed state word — no shard lock, no
	// descriptor mutex (§3.5). Everything else (moving, forwarded, deleted,
	// control ops) falls through to the locked entry protocol below.
	if (msg.Op == opInvoke || msg.Op == opChain) && d.TryPin() {
		if d.Lease() {
			// A reader-lease copy serves only local read-only invokes, and
			// only while live; everything else chases back to the grantor.
			if to, serve := n.leaseRedirect(d, msg); !serve {
				n.unpin(d)
				return nil, actForward, to, nil
			}
		}
		return d, actExecute, 0, nil
	}
	d.Lock()
	for {
		switch st := d.State(); st {
		case stateAbsent:
			// Hint entry created but never initialized; treat as absent.
			d.Unlock()
			a, t, e := n.homeFallback(msg.Obj)
			return nil, a, t, e
		case stateDeleted:
			d.Unlock()
			return nil, actError, 0, fmt.Errorf("%w: %#x", ErrDeleted, uint64(msg.Obj))
		case stateForwarded:
			to := d.Fwd
			d.Unlock()
			return nil, actForward, to, nil
		case stateResident:
			if msg.Op == opInvoke || msg.Op == opChain {
				d.PinLocked()
				d.Unlock()
				if d.Lease() {
					if to, serve := n.leaseRedirect(d, msg); !serve {
						n.unpin(d)
						return nil, actForward, to, nil
					}
				}
				return d, actExecute, 0, nil
			}
			if d.Lease() {
				// Control operations (move, delete, locate, attach...) act on
				// the real object, never on a cached lease copy: forward to
				// the grantor, whose tombstones chase onward if it moved.
				to := d.Payload.src
				d.Unlock()
				return nil, actForward, to, nil
			}
			return d, actExecute, 0, nil // d.mu held for control ops
		case stateMoving:
			switch {
			case (msg.Op == opInvoke || msg.Op == opChain) && msg.Thread.pinned(msg.Obj):
				// A bound thread re-entering the object it already
				// occupies; the move is waiting on it anyway.
				d.PinLocked()
				d.Unlock()
				return d, actExecute, 0, nil
			case msg.Op == opLocate:
				return d, actExecute, 0, nil // still here; d.mu held
			default:
				n.counts.Inc("entries_blocked_on_move")
				d.Wait()
			}
		default:
			d.Unlock()
			return nil, actError, 0, fmt.Errorf("amber: descriptor in impossible state %d", st)
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
	if at, ok := n.hintGet(obj); ok && at != n.id {
		if n.ep.PeerDown(at) {
			n.hintDrop(obj)
			n.counts.Inc("hints_dropped_down")
		} else {
			n.cHintHits.Inc()
			if n.tracer.On() {
				n.tracer.Emit(trace.Event{Kind: trace.KHintHit, Obj: uint64(obj), Arg: int64(at)})
			}
			return actForward, at, nil
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

// invoke is the local entry point for an invocation by thread c. Local
// invocations take the fast path — a residency check plus a direct
// reflective call, no marshalling. Remote ones ship the thread (§3.4).
func (n *Node) invoke(c *Ctx, obj gaddr.Addr, method string, args []any, o callOpts) ([]any, error) {
	if obj == gaddr.Nil {
		return nil, fmt.Errorf("%w: nil reference", ErrNoSuchObject)
	}
	if tr := n.tracer; tr.OnFor(c.rec.ID) {
		span := tr.NextSpan()
		tr.Emit(trace.Event{Kind: trace.KInvokeStart, Trace: c.rec.ID, Span: span,
			Parent: c.span, Thread: c.rec.ID, Obj: uint64(obj), Label: method})
		prev := c.span
		c.span = span
		defer func() {
			c.span = prev
			tr.Emit(trace.Event{Kind: trace.KInvokeEnd, Trace: c.rec.ID, Span: span,
				Parent: prev, Thread: c.rec.ID, Obj: uint64(obj), Label: method})
		}()
	}
	for attempt := 0; ; attempt++ {
		msg := routedMsg{Op: opInvoke, Obj: obj, Thread: c.rec, Method: method}
		if o.readOnly {
			msg.Flags |= rmFlagReadOnly
		}
		d, act, to, err := n.resolve(&msg)
		switch act {
		case actError:
			return nil, err
		case actExecute:
			n.cInvokesLocal.Inc()
			if n.heat != nil && !d.Immutable() && !d.Lease() {
				// Local use defends a busy object against migration: the
				// placement rule weighs remote callers against this lane.
				// Lease copies are invisible to placement — migration
				// decisions belong to the object's holder.
				n.heatObserve(obj, n.id)
			}
			switch {
			case d.Replica():
				n.cReplicaHits.Inc()
				if tr := n.tracer; tr.OnFor(c.rec.ID) {
					tr.Emit(trace.Event{Kind: trace.KReplicaHit, Trace: c.rec.ID, Span: c.span,
						Thread: c.rec.ID, Obj: uint64(obj)})
				}
			case d.Lease():
				// PR5's zero-message warm read, generalized to mutable
				// objects: served entirely from the local lease copy.
				n.cLeaseHits.Inc()
				if tr := n.tracer; tr.OnFor(c.rec.ID) {
					tr.Emit(trace.Event{Kind: trace.KReplicaHit, Trace: c.rec.ID, Span: c.span,
						Thread: c.rec.ID, Obj: uint64(obj)})
				}
			}
			start := time.Now()
			res, rerr := n.runPinned(c, d, obj, method, args, o.readOnly)
			n.histLocal.Observe(time.Since(start))
			return res, rerr
		}
		// Ship on a heap copy: shipInvoke leaks its msg into the marshal
		// layer, and sharing one variable would force every local invoke to
		// heap-allocate the routedMsg the fast path never ships.
		smsg := msg
		res, rerr := n.shipInvoke(c, &smsg, to, args, o)
		if rerr != nil && staleRouteError(rerr) {
			// A routed call that dead-ends may have been steered by a stale
			// location hint; forget it and retry once through the home node.
			if attempt == 0 && n.hintDrop(obj) {
				n.counts.Inc("hint_retries")
				if n.tracer.On() {
					n.tracer.Emit(trace.Event{Kind: trace.KHintStaleRetry, Trace: c.rec.ID,
						Span: c.span, Thread: c.rec.ID, Obj: uint64(obj)})
				}
				continue
			}
			// A lost chase ran out of hops replaying the movement history of
			// an object that kept migrating ahead of it. Routing-lost replies
			// are generated before any execution, so restarting with a fresh
			// chain is safe; bounded so a true routing hole still surfaces.
			if errors.Is(rerr, ErrRoutingLost) && attempt < 4 {
				n.counts.Inc("routing_restarts")
				continue
			}
		}
		return res, rerr
	}
}

// staleRouteError reports whether err is consistent with routing through a
// stale location hint (rather than a definite answer like ErrDeleted).
// ErrNodeDown counts: the hint may have steered the call into a dead node
// while the object lives elsewhere, so one retry through the home node is
// warranted before giving up.
func staleRouteError(err error) bool {
	return errors.Is(err, ErrNoSuchObject) || errors.Is(err, ErrRoutingLost) ||
		errors.Is(err, ErrNodeDown)
}

// shipInvoke marshals the invocation and moves the thread to the object's
// (believed) node. The calling goroutine gives up its processor slot while
// the thread is away — on the original system the thread simply was not
// present on this node during that window.
func (n *Node) shipInvoke(c *Ctx, msg *routedMsg, to gaddr.NodeID, args []any, o callOpts) ([]any, error) {
	start := time.Now()
	msg.Thread = c.rec // pins travel with the thread (§3.5)
	msg.Chain = append(msg.Chain, n.id)
	if msg.Op == opInvoke && n.replicaOn {
		// Advertise willingness to receive a piggybacked snapshot: if the
		// executor finds the object immutable (replica) or cacheable and the
		// call read-only (reader lease), the reply carries the bytes and this
		// node installs a local copy.
		msg.SnapMax = n.replicaMax
		msg.Flags |= rmFlagLeaseOK
	}
	body, err := assembleVec(msg, args)
	if err != nil {
		return nil, err
	}
	n.counts.Inc("invokes_shipped")
	// The trace context travels in the rpc envelope: the executor's events
	// parent under this node's invoke span, stitching the hop.
	var ti rpc.TraceInfo
	if tr := n.tracer; tr.OnFor(c.rec.ID) {
		ti = rpc.TraceInfo{TraceID: c.rec.ID, SpanID: c.span}
		tr.Emit(trace.Event{Kind: trace.KMigrateOut, Trace: c.rec.ID, Span: c.span,
			Thread: c.rec.ID, Obj: uint64(msg.Obj), Arg: int64(to)})
	}
	var resp []byte
	var rerr error
	c.Block(func() { resp, rerr = n.callWith(to, procRouted, body, ti, o) })
	elapsed := time.Since(start)
	n.histRemote.Observe(elapsed)
	if ti.TraceID != 0 {
		// A traced journey: remember it as this latency bucket's exemplar so
		// a p99 spike on /metrics links to the journey behind it.
		n.exRemote.Note(elapsed, ti.TraceID)
	}
	if rerr != nil {
		return nil, mapRemoteError(rerr)
	}
	if tr := n.tracer; tr.OnFor(c.rec.ID) {
		tr.Emit(trace.Event{Kind: trace.KMigrateIn, Trace: c.rec.ID, Span: c.span,
			Thread: c.rec.ID, Obj: uint64(msg.Obj), Arg: int64(n.id)})
	}
	return n.acceptReply(msg.Obj, resp)
}

// acceptReply is the return leg every shipped invocation shares — blocking,
// async or chain: decode the invokeReply, learn where the object was found,
// queue any piggybacked replica or lease for installation, decode the
// results, and return the reply buffer to the pool.
func (n *Node) acceptReply(obj gaddr.Addr, resp []byte) ([]any, error) {
	// Results and SnapState alias resp: it is recycled only once the values
	// are copied out, on every path.
	defer wire.PutBuf(resp)
	var ir invokeReply
	if _, err := ir.DecodeWire(resp); err != nil {
		return nil, err
	}
	// Return-time check accounting (§3.5): the thread returns to this node;
	// its enclosing object, if any, is pinned by this same thread and is
	// therefore still resident — under the drain protocol the check cannot
	// fail, which is exactly why the protocol is safe.
	n.counts.Inc("return_checks")
	n.learnLocation(obj, ir.Node, ir.Epoch)
	if ir.Immutable {
		// The call shipped to an immutable object: a miss the replica layer
		// could have absorbed.
		n.cReplicaMiss.Inc()
	}
	if n.replicaOn && ir.SnapType != "" && (ir.Immutable || (ir.Lease && ir.LeaseNs > 0)) {
		// The executor piggybacked the object's snapshot: an immutable replica,
		// or a reader lease on a cacheable mutable object that keeps read-only
		// invokes local until the grantor's next write revokes it (or the TTL
		// runs out). Install asynchronously so the decode is not charged to
		// this (cold) call's latency, from a copy the installer owns.
		n.queueReplicaInstall(replicaInstall{
			obj: obj, from: ir.Node, typ: ir.SnapType, state: append([]byte(nil), ir.SnapState...),
			epoch: ir.Epoch, lease: !ir.Immutable, ttl: int64(ir.LeaseNs),
		})
	}
	return wire.UnmarshalArgs(ir.Results)
}

// learnLocation caches where an object was last seen (the originating node's
// share of chain caching): a real descriptor (move tombstone) is refreshed in
// place; otherwise the location lands in the hint cache.
//
// epoch versions the claim (the residency version at the reporting node when
// it held the object). A tombstone is only overwritten by strictly newer
// information: replies can be processed long after they were generated — the
// object may have moved on, even back through this node — and an unversioned
// refresh could aim this tombstone backward in time, forming a routing cycle
// with another node's newer tombstone. Epoch zero means "unversioned" (e.g. a
// deferred move reply) and never touches a descriptor.
func (n *Node) learnLocation(obj gaddr.Addr, at gaddr.NodeID, epoch uint64) {
	if at == n.id || at == gaddr.NoNode {
		return
	}
	if d := n.desc(obj); d != nil {
		d.Lock()
		if st := d.State(); (st == stateAbsent || st == stateForwarded) && epoch > d.Epoch() {
			d.SetStateLocked(stateForwarded)
			d.Fwd = at
			d.SetEpochLocked(epoch)
		}
		d.Unlock()
		return
	}
	n.hintSet(obj, at)
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
	n.cResidency.Inc()

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
		if ro {
			d.Coh.RLock()
		} else {
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

// handleRouted services routed operations arriving from the network: execute
// here, or forward along the chain with a detached reply (§3.3).
func (n *Node) handleRouted(rc *rpc.Ctx) {
	var msg routedMsg
	if _, err := msg.DecodeWire(rc.Body); err != nil {
		rc.Reply(nil, err)
		return
	}
	if len(msg.Chain) > n.cfg.MaxHops {
		n.counts.Inc("routing_lost")
		tail := msg.Chain
		if len(tail) > 12 {
			tail = tail[len(tail)-12:]
		}
		rc.Reply(nil, fmt.Errorf("%w: %s %#x after %d hops (tail %v)",
			ErrRoutingLost, msg.Op, uint64(msg.Obj), len(msg.Chain), tail))
		return
	}
	for retries := 0; ; retries++ {
		d, act, to, err := n.resolve(&msg)
		switch act {
		case actError:
			rc.Reply(nil, err)
			return
		case actExecute:
			err := n.executeRouted(rc, d, &msg)
			if err == nil {
				return
			}
			if errors.Is(err, errRetryRoute) && retries < 256 {
				time.Sleep(500 * time.Microsecond)
				continue
			}
			rc.Reply(nil, err)
			return
		case actForward:
			// Note: revisiting a node is legitimate — an object can move
			// back to a node a request already passed through, and the
			// node's descriptor will have changed by the second visit.
			// True cycles cannot exist because a destination is made
			// resident *before* the source flips to forwarded, so every
			// forwarding pointer points forward in time; MaxHops is only a
			// backstop. A self-pointer would be a bug: wait it out.
			if to == n.id {
				if retries < 64 {
					time.Sleep(time.Millisecond)
					continue
				}
				n.counts.Inc("routing_lost")
				rc.Reply(nil, fmt.Errorf("%w: %s %#x", ErrRoutingLost, msg.Op, uint64(msg.Obj)))
				return
			}
			// Forwarding-chain repair: refuse to forward into a peer this
			// node believes dead — answer the origin with ErrNodeDown now
			// instead of letting the request vanish into silence. The async
			// watch below is what taught us (and keeps re-checking, so a
			// restarted peer becomes routable again within the recheck
			// window).
			if n.ep.PeerDown(to) {
				n.counts.Inc("forwards_refused_down")
				rc.Reply(nil, fmt.Errorf("%w: next hop %d for %s %#x",
					ErrNodeDown, to, msg.Op, uint64(msg.Obj)))
				return
			}
			n.ep.WatchPeer(to)
			// A long chain means we are chasing an object that migrates
			// about as fast as we follow (possible only on a fabric with no
			// latency; Ethernet latency dwarfed move rates on the original
			// system). Forward immediately: every tombstone points forward
			// in time, so the chase replays the object's movement history
			// and wins as soon as it arrives inside any residency window —
			// sleeping here only lets more moves pile up ahead of us.
			// MaxHops bounds the chase; the origin restarts it with a fresh
			// chain if the history is longer than that.
			msg.Chain = append(msg.Chain, n.id)
			body := encode(&msg, 0)
			n.counts.Inc("forwards")
			if n.tracer.On() {
				n.tracer.Emit(trace.Event{Kind: trace.KForward, Trace: rc.Trace.TraceID,
					Span: rc.Trace.SpanID, Thread: msg.Thread.ID, Obj: uint64(msg.Obj), Arg: int64(to)})
			}
			if ferr := rc.Forward(to, procRouted, body); ferr != nil {
				n.counts.Inc("forward_failed")
			}
			return
		}
	}
}

// executeRouted performs a routed operation that resolve directed at this
// node. Lock contract: for opInvoke, d arrives pinned and unlocked; for all
// other ops, d arrives locked and the per-op executor releases it.
// Returns nil when a reply or forward has been sent; errRetryRoute to re-run
// the entry protocol; any other error for the caller to report.
func (n *Node) executeRouted(rc *rpc.Ctx, d *descriptor, msg *routedMsg) error {
	switch msg.Op {
	case opInvoke:
		// Scratch decode: the argument vector dies with this call (user code
		// receives the values, never the spine), so the []any comes from the
		// wire package's pool and goes back once the operation has run.
		args, err := wire.UnmarshalArgsScratch(msg.Args)
		if err != nil {
			n.unpin(d)
			return err
		}
		// The migrated thread resumes here with its identity and bindings
		// (§3.4): this context *is* the thread, executing on this node now.
		c := &Ctx{node: n, rec: msg.Thread}
		// The arriving thread's journey continues under the shipping span
		// carried by the rpc envelope: this execution span parents under it.
		tr := n.tracer
		tid := rc.Trace.TraceID
		if tid == 0 {
			tid = msg.Thread.ID // origin was not tracing (or sampled out); stitch locally
		}
		// Sampling is by journey: both ends apply the same modulus to the
		// same thread ID, so a sampled journey is whole across nodes.
		traced := tr.OnFor(tid)
		if traced {
			c.span = tr.NextSpan()
			tr.Emit(trace.Event{Kind: trace.KMigrateIn, Trace: tid, Span: c.span,
				Parent: rc.Trace.SpanID, Thread: msg.Thread.ID, Obj: uint64(msg.Obj), Arg: int64(rc.From)})
			tr.Emit(trace.Event{Kind: trace.KExecStart, Trace: tid, Span: c.span,
				Parent: rc.Trace.SpanID, Thread: msg.Thread.ID, Obj: uint64(msg.Obj), Label: msg.Method})
		}
		n.counts.Inc("invokes_executed_for_remote")
		if n.heat != nil && !d.Immutable() {
			// Attribute the invoke to the thread's origin node: the dominant
			// caller is where the object should live (§4).
			n.heatObserve(msg.Obj, rc.Origin)
		}
		// Read the epoch while still pinned: a pin holds off the shipment, so
		// this is the version of the residency that executes the call.
		epoch := d.Epoch()
		// Classify read-vs-write while still pinned (the pin licenses the
		// payload read): the classification picks the coherence-lock side in
		// runPinned and decides whether this reply may carry a reader lease.
		readOnly := msg.Flags&rmFlagReadOnly != 0
		if !readOnly {
			if ti := d.Payload.ti; ti != nil {
				if mi, ok := ti.methods[msg.Method]; ok {
					readOnly = mi.readOnly
				}
			}
		}
		grantable := readOnly && n.leaseTTL > 0 && msg.Flags&rmFlagLeaseOK != 0 &&
			msg.SnapMax > 0 && d.Leasable() && !d.Immutable() && rc.Origin != n.id
		start := time.Now()
		results, err := n.runPinned(c, d, msg.Obj, msg.Method, args, readOnly)
		wire.PutArgs(args)
		elapsed := time.Since(start)
		n.histExec.Observe(elapsed)
		if traced {
			n.exExec.Note(elapsed, tid)
			tr.Emit(trace.Event{Kind: trace.KExecEnd, Trace: tid, Span: c.span,
				Parent: rc.Trace.SpanID, Thread: msg.Thread.ID, Obj: uint64(msg.Obj), Label: msg.Method})
			tr.Emit(trace.Event{Kind: trace.KMigrateOut, Trace: tid, Span: c.span,
				Thread: msg.Thread.ID, Obj: uint64(msg.Obj), Arg: int64(rc.Origin)})
		}
		if !readOnly && d.Leasable() {
			// runPinned's write fence bumped the residency epoch; the reply's
			// location claim (and the chain updates below) must carry the
			// post-write version so stale caches cannot outrank it.
			epoch = d.Epoch()
		}
		if err != nil {
			rc.Reply(nil, err)
			n.sendChainUpdates(msg.Obj, epoch, msg.Chain, rc.Origin)
			return nil
		}
		// Read-path replication (§2.3): if the origin asked for a snapshot and
		// the object is immutable, piggyback its encoding on this reply so the
		// origin installs a local replica in the same round trip. The mutable
		// generalization: a read-only invoke on a cacheable object piggybacks
		// a reader lease instead (state + epoch + lifetime).
		ir := invokeReply{Node: n.id, Epoch: epoch, Immutable: d.Immutable()}
		if msg.SnapMax > 0 && ir.Immutable {
			ir.SnapType, ir.SnapState = n.replicaSnapshot(d, msg.SnapMax)
		} else if grantable {
			n.leaseGrantTo(rc.Origin, d, msg.Obj, msg.SnapMax, &ir)
			if ir.Lease {
				epoch = ir.Epoch // the grant's residency claim (may be newer)
				// The grant's state sits in a pooled buffer until the reply
				// frame below has copied it in.
				defer wire.PutBuf(ir.SnapState)
			}
		}
		rc.Reply(assembleVec(&ir, results))
		n.sendChainUpdates(msg.Obj, epoch, msg.Chain, rc.Origin)
		return nil

	case opChain:
		return n.executeChain(rc, d, msg)

	case opLocate:
		rep := locateReply{Node: n.id, Immutable: d.Immutable(), Epoch: d.Epoch()}
		d.Unlock()
		body, err := wire.MarshalInto(&rep)
		rc.Reply(body, err)
		n.counts.Inc("locates_answered")
		n.sendChainUpdates(msg.Obj, rep.Epoch, msg.Chain, rc.Origin)
		return nil

	case opMove:
		rep, err := n.executeMove(d, msg, false)
		if err != nil {
			return err
		}
		body, err := wire.MarshalInto(&rep)
		rc.Reply(body, err)
		return nil

	case opSetImmutable:
		if err := n.executeSetImmutable(d, msg); err != nil {
			return err
		}
		rc.Reply(nil, nil)
		return nil

	case opSetCacheable:
		if err := n.executeSetCacheable(d, msg); err != nil {
			return err
		}
		rc.Reply(nil, nil)
		return nil

	case opDelete:
		if err := n.executeDelete(d, msg); err != nil {
			return err
		}
		rc.Reply(nil, nil)
		return nil

	case opAttach:
		fwd, err := n.executeAttach(d, msg)
		if err != nil {
			return err
		}
		if fwd != gaddr.NoNode {
			msg.Chain = append(msg.Chain, n.id)
			return rc.Forward(fwd, procRouted, encode(msg, 0))
		}
		rc.Reply(nil, nil)
		return nil

	case opUnattach:
		if err := n.executeUnattach(d, msg); err != nil {
			return err
		}
		rc.Reply(nil, nil)
		return nil

	default:
		d.Unlock()
		return fmt.Errorf("amber: unknown routed op %d", msg.Op)
	}
}
