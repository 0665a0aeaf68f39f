package core

import (
	"errors"
	"fmt"
	"time"

	"amber/internal/gaddr"
	"amber/internal/rpc"
	"amber/internal/stats"
	"amber/internal/trace"
	"amber/internal/wire"
)

// The invocation engine (DESIGN.md §13). Amber has one primitive — ship the
// thread to the object (§3.4) — and this file says it once. A journey is a
// thread's trip through one or more invocations: Invoke is a one-step journey
// and InvokeChain one whose request carries its continuation. The origin
// resolves each step (resolveStep), runs it if its object is resident
// (runHere), and otherwise builds one request for the steps that remain
// (request) and waits for the one reply either inline, blocking the thread
// (travel), or by callback through the per-peer pipeline (journey, future.go).
// Both waits share the return leg (acceptReply) and the failure ladder
// (climb). On the executing side one loop (handleRouted) resolves the
// head step, runs it (executeStep), pops the continuation and resolves again,
// handing the thread on (forward) when the next object lives elsewhere.

// --- origin side ---

// travel is the inline wait: the calling thread itself makes the journey, and
// its goroutine gives up its processor slot while the thread is away — on the
// original system the thread simply was not present on this node during that
// window. A resident one-step journey — a local Invoke — builds nothing on
// the heap: no request exists until resolve says forward.
func (n *Node) travel(c *Ctx, steps []ChainStep, o callOpts) ([]any, error) {
	if tr := n.tracer; tr.OnFor(c.rec.ID) {
		span, parent := tr.NextSpan(), c.span
		n.emitInvoke(trace.KInvokeStart, c.rec.ID, span, parent, &steps[0])
		c.span = span
		head := steps[0]
		defer func() {
			c.span = parent
			n.emitInvoke(trace.KInvokeEnd, c.rec.ID, span, parent, &head)
		}()
	}
	lad := ladder{thread: c.rec.ID, span: c.span}
	var prev []any
	for {
		d, act, to, err := n.resolveStep(&c.rec, &steps[0], o.readOnly)
		switch act {
		case actError:
			return nil, err
		case actExecute:
			if prev, err = n.runHere(c, d, &steps[0], prev, o.readOnly); err != nil || len(steps) == 1 {
				return prev, err
			}
			steps = steps[1:]
			continue
		}
		start := time.Now()
		body, ti, err := n.request(&c.rec, c.span, steps, prev, o.readOnly, to)
		if err != nil {
			return nil, err
		}
		ro := n.policy(o)
		ro.Trace = ti
		resp, err := n.callBlocked(c, to, body, ro)
		n.observeRemote(start, ti.TraceID)
		if err == nil {
			if ti.TraceID != 0 {
				n.tracer.Emit(trace.Event{Kind: trace.KMigrateIn, Trace: c.rec.ID, Span: c.span,
					Thread: c.rec.ID, Obj: uint64(steps[0].Obj), Arg: int64(n.id)})
			}
			return n.acceptReply(steps[len(steps)-1].Obj, resp)
		}
		// rpc.CallWith ran the call's retry policy itself, so the ladder's own
		// re-issue budget is empty: what is left to decide is the routing rungs.
		if v, _ := n.climb(&lad, steps[0].Obj, to, ro, err); v == verdictFinal {
			return nil, err
		}
	}
}

// emitInvoke records one end of a journey's invoke span.
func (n *Node) emitInvoke(kind trace.Kind, thread, span, parent uint64, head *ChainStep) {
	n.tracer.Emit(trace.Event{Kind: kind, Trace: thread, Span: span, Parent: parent,
		Thread: thread, Obj: uint64(head.Obj), Label: head.Method})
}

// resolveStep runs the entry protocol for a journey's head step on behalf of
// a thread on this node. The routedMsg lives and dies on this stack frame.
func (n *Node) resolveStep(rec *ThreadRec, s *ChainStep, readOnly bool) (*descriptor, action, gaddr.NodeID, error) {
	if s.Obj == gaddr.Nil {
		return nil, actError, 0, fmt.Errorf("%w: nil reference", ErrNoSuchObject)
	}
	msg := routedMsg{Op: opInvoke, Obj: s.Obj, Method: s.Method}
	if readOnly {
		msg.Flags |= rmFlagReadOnly
	}
	return n.resolve(&msg, rec)
}

// runHere is the resident prologue: one step executed for a thread already on
// this node, on the pinned descriptor resolve returned. Every entry point
// accounts a resident execution here, so placement and the lease/replica hit
// ratios are blind to which API issued the call.
func (n *Node) runHere(c *Ctx, d *descriptor, s *ChainStep, prev []any, readOnly bool) ([]any, error) {
	n.cInvokesLocal.Inc()
	if n.heat != nil && !d.Immutable() && !d.Lease() {
		// Local use defends a busy object against migration: the placement
		// rule weighs remote callers against this lane. Lease copies are
		// invisible to placement — migration decisions belong to the holder.
		n.heatObserve(s.Obj, n.id)
	}
	if copyHit := n.cReplicaHits; d.Replica() || d.Lease() {
		// PR5's zero-message warm read, and its generalization to mutable
		// objects: served entirely from the local replica or lease copy.
		if d.Lease() {
			copyHit = n.cLeaseHits
		}
		copyHit.Inc()
		if tr := n.tracer; tr.OnFor(c.rec.ID) {
			tr.Emit(trace.Event{Kind: trace.KReplicaHit, Trace: c.rec.ID, Span: c.span,
				Thread: c.rec.ID, Obj: uint64(s.Obj)})
		}
	}
	start := time.Now()
	res, err := n.runPinned(c, d, s.Obj, s.Method, substituteChainPrev(s.Args, prev), readOnly)
	n.histLocal.Observe(time.Since(start))
	return res, err
}

// request assembles the routed invocation that carries a journey's remaining
// steps to node to: the head step's invoke, its ChainPrev arguments bound to
// prev, with the steps after it as the continuation — header, continuation
// and arguments encoded in place in one pooled frame (frame.go). The trace
// context travels in the rpc envelope: the executor's events parent under
// this node's invoke span, stitching the hop.
func (n *Node) request(rec *ThreadRec, span uint64, steps []ChainStep, prev []any, readOnly bool, to gaddr.NodeID) ([]byte, rpc.TraceInfo, error) {
	chain := [1]gaddr.NodeID{n.id}
	// Pins travel with the thread (§3.5).
	msg := routedMsg{Op: opInvoke, Obj: steps[0].Obj, Thread: *rec, Method: steps[0].Method, Chain: chain[:]}
	if readOnly {
		msg.Flags |= rmFlagReadOnly
	}
	shipped := n.cInvokesShipped
	if len(steps) > 1 {
		msg.Flags |= rmFlagChain
		shipped = n.cChainsShipped
	} else if n.replicaOn {
		// Advertise willingness to receive a piggybacked snapshot: if the
		// executor finds the object immutable (replica) or cacheable and the
		// call read-only (reader lease), the reply carries the bytes and this
		// node installs a local copy. One-step journeys only: a chain's reply
		// reports its last object, not a copy this node asked for.
		msg.SnapMax = n.replicaMax
		msg.Flags |= rmFlagLeaseOK
	}
	args := substituteChainPrev(steps[0].Args, prev)
	hint := msg.sizeHint() + wire.SizeHint(args) + rpc.FrameRoom
	for _, s := range steps[1:] {
		hint += 16 + len(s.Method) + wire.SizeHint(s.Args)
	}
	buf := wire.GetBufCap(hint)
	b, mark := wire.BeginSized(msg.appendHeader(buf))
	var err error
	for i := 1; i < len(steps) && err == nil; i++ {
		b, err = appendStep(b, &steps[i])
	}
	if err == nil {
		b, err = wire.AppendArgs(wire.EndSized(b, mark), args)
	}
	if err != nil {
		wire.PutBuf(buf)
		return nil, rpc.TraceInfo{}, err
	}
	shipped.Inc()
	var ti rpc.TraceInfo
	if tr := n.tracer; tr.OnFor(rec.ID) {
		ti = rpc.TraceInfo{TraceID: rec.ID, SpanID: span}
		tr.Emit(trace.Event{Kind: trace.KMigrateOut, Trace: rec.ID, Span: span,
			Thread: rec.ID, Obj: uint64(msg.Obj), Arg: int64(to)})
	}
	return b, ti, nil
}

// policy merges the per-call options into the node's failure policy: the one
// mapping from callOpts to what the rpc layer is asked for, whichever wait
// issues the call.
func (n *Node) policy(o callOpts) rpc.CallOpts {
	ro := rpc.CallOpts{Timeout: n.cfg.RPCTimeout, ProbeTimeout: n.cfg.ProbeTimeout}
	if o.deadline > 0 {
		ro.Timeout = o.deadline
	}
	if o.retry.MaxAttempts > 1 {
		ro.MaxAttempts = o.retry.MaxAttempts
		ro.Backoff = o.retry.Backoff
		ro.MaxBackoff = o.retry.MaxBackoff
		// Retries are only safe because every attempt carries the same
		// idempotency token for the callee's dedup window (at-most-once) —
		// and meaningless without a deadline to trigger them.
		ro.Idempotent = true
		if ro.Timeout <= 0 {
			ro.Timeout = time.Second
		}
	}
	return ro
}

// callBlocked sends a routed request and blocks the thread for the reply,
// releasing its processor slot while it is away.
func (n *Node) callBlocked(c *Ctx, to gaddr.NodeID, body []byte, ro rpc.CallOpts) (resp []byte, err error) {
	c.Block(func() { resp, err = n.ep.CallWith(to, procRouted, body, ro) })
	return resp, mapRemoteError(err)
}

// observeRemote records a shipped journey's round trip. A traced journey is
// remembered as its latency bucket's exemplar, so a p99 spike on /metrics
// links to the journey behind it.
func (n *Node) observeRemote(start time.Time, traceID uint64) {
	elapsed := time.Since(start)
	n.histRemote.Observe(elapsed)
	if traceID != 0 {
		n.exRemote.Note(elapsed, traceID)
	}
}

// acceptReply is the return leg every shipped journey shares: decode the
// invokeReply, learn where the object was found, queue any piggybacked
// replica or lease for installation, decode the results, and return the reply
// buffer to the pool. obj is the journey's last object — the reply reports
// where the LAST step executed, the freshest location fact it produced.
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
	n.cReturnChecks.Inc()
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

// --- the failure ladder ---

// ladder is what a journey (or a control operation) remembers between the
// attempts of one logical call.
type ladder struct {
	thread, span uint64 // trace identity of the journey; zero for a control op
	// budget is how many attempts the ladder may issue itself: the callback
	// wait's whole WithRetry policy. It stays zero for the inline wait and for
	// control operations, whose attempts rpc.CallWith runs.
	budget  int
	backoff rpc.Backoff

	hintRetried bool
	restarts    int
	attempt     int
}

// verdict is the ladder's decision on a failed attempt.
type verdict uint8

const (
	// verdictFinal: the error stands; the anomaly tripwire has seen it.
	verdictFinal verdict = iota
	// verdictResolve: run the entry protocol again now, with a fresh chain.
	verdictResolve
	// verdictRetry: run it again after the returned pause.
	verdictRetry
)

// climb decides what the failure err of an attempt shipped to node to means
// for the call, rung by rung (the table is DESIGN.md §13.3):
//
//   - a dead end consistent with a stale location hint (staleRouteError) on
//     an attempt a hint steered → once per call, resolve again through the
//     home node;
//   - a chase that ran out of hops replaying the movement history of an
//     object that kept migrating ahead of it (ErrRoutingLost) → resolve again,
//     at most four times, so that a true routing hole still surfaces. Both
//     replies are generated before any execution, so neither re-runs anything;
//   - no reply at all (timeout, dead peer, refused send) with budget left →
//     retry after a capped exponential pause; a reply carrying an error, the
//     application's included, is an answer and never retried;
//   - anything else is final and trips the flight recorder (fleet.go).
func (n *Node) climb(l *ladder, obj gaddr.Addr, to gaddr.NodeID, ro rpc.CallOpts, err error) (verdict, time.Duration) {
	if staleRouteError(err) {
		// A hint steered the attempt if there is one to forget — or there was:
		// marking a peer down purges every hint to it (purgePeer), and that can
		// win the race to this line. The tell is then a target that neither a
		// descriptor here nor the home computation would have named.
		if !l.hintRetried && (n.hintDrop(obj) || n.desc(obj) == nil && to != n.homeOf(obj)) {
			l.hintRetried = true
			n.counts.Inc("hint_retries")
			if n.tracer.On() {
				n.tracer.Emit(trace.Event{Kind: trace.KHintStaleRetry, Trace: l.thread,
					Span: l.span, Thread: l.thread, Obj: uint64(obj)})
			}
			return verdictResolve, 0
		}
		if errors.Is(err, ErrRoutingLost) && l.restarts < 4 {
			l.restarts++
			n.counts.Inc("routing_restarts")
			return verdictResolve, 0
		}
	}
	var re *rpc.RemoteError
	if l.attempt+1 < l.budget && !errors.As(err, &re) {
		l.attempt++
		n.counts.Inc("async_retries")
		return verdictRetry, l.backoff.Next()
	}
	n.noteCallAnomaly(to, procRouted, ro, err)
	return verdictFinal, 0
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

// --- executing side ---

// handleRouted services routed operations arriving from the network: the one
// loop that resolves the operation on this node and executes it here or
// forwards it along the chain with a detached reply (§3.3). For an invocation
// carrying a continuation the loop comes round once per step: executeStep
// turns the message into the next step's invoke and the entry protocol runs
// on that.
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
	// prev holds the results of the step this node ran last; ran counts the
	// steps it has run for this arrival.
	var prev []any
	ran := 0
	for retries := 0; ; retries++ {
		d, act, to, err := n.resolve(&msg, &msg.Thread)
		switch act {
		case actError:
			rc.Reply(nil, err)
			return
		case actExecute:
			if msg.Op == opInvoke {
				var more bool
				if prev, more = n.executeStep(rc, d, &msg, prev, ran); !more {
					return
				}
				ran++
				continue
			}
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
			count := n.cForwards
			if ran > 0 {
				// A mid-chain hand-off: the previous step ran here and its
				// results are not on the wire, so bind them into the head's
				// ChainPrev arguments before the thread moves on.
				count = n.cChainsForwarded
				if err := bindPrev(&msg, prev); err != nil {
					rc.Reply(nil, err)
					return
				}
			}
			if !n.forward(rc, &msg, to, retries, count) {
				return
			}
		}
	}
}

// bindPrev substitutes prev into the head step's encoded arguments.
func bindPrev(msg *routedMsg, prev []any) error {
	args, err := wire.UnmarshalArgsScratch(msg.Args)
	if err != nil {
		return err
	}
	msg.Args, err = wire.MarshalArgs(substituteChainPrev(args, prev))
	wire.PutArgs(args)
	return err
}

// executeStep runs the invocation at the head of msg for the thread that
// just arrived (ran == 0) or that ran its previous step here, on the resident
// descriptor resolve returned pinned and unlocked. If the journey ends here —
// the last step, or a failed one — it replies to the origin and reports
// false. Otherwise it pops the continuation: msg becomes the next step's
// invoke, the results come back as that step's ChainPrev input, and the
// caller runs the entry protocol on it.
func (n *Node) executeStep(rc *rpc.Ctx, d *descriptor, msg *routedMsg, prev []any, ran int) (results []any, more bool) {
	// Scratch decode: the argument vector dies with this call (user code
	// receives the values, never the spine), so the []any comes from the
	// wire package's pool and goes back once the operation has run.
	scratch, err := wire.UnmarshalArgsScratch(msg.Args)
	if err != nil {
		n.unpin(d)
		rc.Reply(nil, err)
		return nil, false
	}
	args := scratch
	if ran > 0 {
		args = substituteChainPrev(scratch, prev)
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
		if ran == 0 {
			tr.Emit(trace.Event{Kind: trace.KMigrateIn, Trace: tid, Span: c.span,
				Parent: rc.Trace.SpanID, Thread: msg.Thread.ID, Obj: uint64(msg.Obj), Arg: int64(rc.From)})
		}
		tr.Emit(trace.Event{Kind: trace.KExecStart, Trace: tid, Span: c.span,
			Parent: rc.Trace.SpanID, Thread: msg.Thread.ID, Obj: uint64(msg.Obj), Label: msg.Method})
	}
	n.cExecutedForRemote.Inc()
	if msg.Flags&rmFlagChain != 0 {
		n.cChainSteps.Inc()
	}
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
	results, err = n.runPinned(c, d, msg.Obj, msg.Method, args, readOnly)
	wire.PutArgs(scratch)
	elapsed := time.Since(start)
	n.histExec.Observe(elapsed)
	last := err != nil || len(msg.Cont) == 0
	if traced {
		n.exExec.Note(elapsed, tid)
		tr.Emit(trace.Event{Kind: trace.KExecEnd, Trace: tid, Span: c.span,
			Parent: rc.Trace.SpanID, Thread: msg.Thread.ID, Obj: uint64(msg.Obj), Label: msg.Method})
		if last {
			tr.Emit(trace.Event{Kind: trace.KMigrateOut, Trace: tid, Span: c.span,
				Thread: msg.Thread.ID, Obj: uint64(msg.Obj), Arg: int64(rc.Origin)})
		}
	}
	if !last {
		next, rest, _ := popStep(msg.Cont) // DecodeWire walked it: well-formed
		msg.Obj, msg.Method, msg.Args, msg.Cont = next.Obj, next.Method, next.Args, rest
		return results, true
	}
	if !readOnly && d.Leasable() {
		// runPinned's write fence bumped the residency epoch; the reply's
		// location claim (and the chain updates below) must carry the
		// post-write version so stale caches cannot outrank it.
		epoch = d.Epoch()
	}
	if err != nil {
		// A failed step fails the journey; the sentinel rehydrates at the
		// origin like any routed error.
		rc.Reply(nil, err)
		n.sendChainUpdates(msg.Obj, epoch, msg.Chain, rc.Origin)
		return nil, false
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
	rc.Reply(ir.frame(results))
	n.sendChainUpdates(msg.Obj, epoch, msg.Chain, rc.Origin)
	return nil, false
}

// forward hands a routed operation on to node to, which answers the origin
// directly (a detached reply, §3.3). It reports true when nothing was sent
// and the caller should run the entry protocol again.
//
// Revisiting a node is legitimate — an object can move back to a node a
// request already passed through, and the node's descriptor will have changed
// by the second visit. True cycles cannot exist because a destination is made
// resident *before* the source flips to forwarded, so every forwarding
// pointer points forward in time; MaxHops is only a backstop. A self-pointer
// would be a bug (or a racing transition): wait it out.
func (n *Node) forward(rc *rpc.Ctx, msg *routedMsg, to gaddr.NodeID, retries int, count *stats.Counter) (again bool) {
	if to == n.id {
		if retries < 64 {
			time.Sleep(time.Millisecond)
			return true
		}
		n.counts.Inc("routing_lost")
		rc.Reply(nil, fmt.Errorf("%w: %s %#x", ErrRoutingLost, msg.Op, uint64(msg.Obj)))
		return false
	}
	// Forwarding-chain repair: refuse to forward into a peer this node
	// believes dead — answer the origin with ErrNodeDown now instead of
	// letting the request vanish into silence. The async watch below is what
	// taught us (and keeps re-checking, so a restarted peer becomes routable
	// again within the recheck window).
	if n.ep.PeerDown(to) {
		n.counts.Inc("forwards_refused_down")
		rc.Reply(nil, fmt.Errorf("%w: next hop %d for %s %#x",
			ErrNodeDown, to, msg.Op, uint64(msg.Obj)))
		return false
	}
	n.ep.WatchPeer(to)
	// A long chain means we are chasing an object that migrates about as fast
	// as we follow (possible only on a fabric with no latency; Ethernet
	// latency dwarfed move rates on the original system). Forward
	// immediately: every tombstone points forward in time, so the chase
	// replays the object's movement history and wins as soon as it arrives
	// inside any residency window — sleeping here only lets more moves pile
	// up ahead of us. MaxHops bounds the chase; the origin restarts it with a
	// fresh chain if the history is longer than that.
	msg.Chain = append(msg.Chain, n.id)
	body := msg.frame()
	count.Inc()
	if n.tracer.On() {
		n.tracer.Emit(trace.Event{Kind: trace.KForward, Trace: rc.Trace.TraceID,
			Span: rc.Trace.SpanID, Thread: msg.Thread.ID, Obj: uint64(msg.Obj), Arg: int64(to)})
	}
	if ferr := rc.Forward(to, procRouted, body); ferr != nil {
		n.counts.Inc("forward_failed")
	}
	return false
}
