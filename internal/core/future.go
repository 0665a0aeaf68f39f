package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"amber/internal/gaddr"
	"amber/internal/rpc"
	"amber/internal/wire"
)

// Future is the handle on one asynchronous invocation (AsyncInvoke). The
// paper's function-shipping thread is already a continuation; a Future is
// that continuation left outstanding: the invocation travels to the object,
// executes, and the result comes back to complete the Future while the
// issuing thread keeps running.
//
// A Future completes exactly once, with either results or an error carrying
// the same errors.Is-matchable identity as the blocking path (ErrTimeout,
// ErrNodeDown, ErrNoSuchObject, ...). It is safe to share across goroutines.
type Future struct {
	done      chan struct{}
	completed atomic.Bool
	mu        sync.Mutex
	cbs       []func(*Future)
	results   []any
	err       error
}

func newFuture() *Future { return &Future{done: make(chan struct{})} }

func completedFuture(res []any, err error) *Future {
	f := newFuture()
	f.complete(res, err)
	return f
}

// complete resolves the future. First caller wins; later calls are no-ops
// (a straggler reply racing a deadline, both claimed through the rpc pending
// table, can never get here twice — this is belt and braces).
func (f *Future) complete(res []any, err error) {
	f.mu.Lock()
	if f.completed.Load() {
		f.mu.Unlock()
		return
	}
	f.results, f.err = res, err
	cbs := f.cbs
	f.cbs = nil
	f.completed.Store(true)
	f.mu.Unlock()
	close(f.done)
	for _, cb := range cbs {
		cb(f)
	}
}

// Join blocks the calling thread until the future completes and returns its
// outcome. With a non-nil Ctx the thread gives up its processor slot while
// waiting (like any blocking invoke); nil is allowed for raw goroutines.
// Join may be called any number of times, from any thread.
func (f *Future) Join(c *Ctx) ([]any, error) {
	wait := func() { <-f.done }
	if c != nil {
		c.Block(wait)
	} else {
		wait()
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.results, f.err
}

// Done reports (without blocking) whether the future has completed.
func (f *Future) Done() bool { return f.completed.Load() }

// OnDone registers fn to run when the future completes (immediately, on the
// caller, if it already has). fn runs on whichever goroutine completes the
// future — often a transport delivery goroutine — so it must not block;
// long work belongs on a goroutine fn spawns.
func (f *Future) OnDone(fn func(*Future)) {
	f.mu.Lock()
	if f.completed.Load() {
		f.mu.Unlock()
		fn(f)
		return
	}
	f.cbs = append(f.cbs, fn)
	f.mu.Unlock()
}

// AsyncInvoke starts method(args...) on obj and immediately returns a Future
// for its outcome. The invocation runs as a fresh thread journey (its own
// thread ID, the caller's priority): locally when the object is resident,
// otherwise shipped through the per-peer pipeline, where every async call
// toward one peer shares socket flushes with its window-mates instead of
// paying one flush per request.
//
// The same CallOptions as Invoke apply per call: WithDeadline bounds the
// attempt (expiry probes the peer and completes the future with ErrTimeout
// or ErrNodeDown), WithRetry re-issues transport-level failures under one
// idempotency token. Backpressure: when a peer's pipeline is at capacity
// (PipelineDepth outstanding), AsyncInvoke blocks the caller — releasing its
// processor slot — until a slot frees; the Future itself never blocks.
func (c *Ctx) AsyncInvoke(obj Ref, method string, args ...any) *Future {
	rest, o := splitOptions(args)
	return c.node.asyncInvoke(c, obj, method, rest, o)
}

// futureCall is one pipelined invocation's control block: everything needed
// to (re)issue the request and to finish the journey when the reply lands.
type futureCall struct {
	f   *Future
	rec ThreadRec
	obj gaddr.Addr
	// body is the request — routedMsg and argument vector, encoded when the
	// call was made, since the caller is free to reuse its arguments as soon
	// as AsyncInvoke returns. Every attempt sends a copy; finish returns it
	// to the pool.
	body  []byte
	o     callOpts
	to    gaddr.NodeID
	ti    rpc.TraceInfo
	idem  uint64 // idempotency token shared by every attempt (0 = no retry)
	start time.Time

	// failure-path state, mirroring the blocking invoke() loop
	timeout     time.Duration
	hintRetried bool
	restarts    int
	attempt     int
	backoff     time.Duration
}

func (n *Node) asyncInvoke(c *Ctx, obj gaddr.Addr, method string, args []any, o callOpts) *Future {
	n.counts.Inc("async_invokes")
	if obj == gaddr.Nil {
		return completedFuture(nil, fmt.Errorf("%w: nil reference", ErrNoSuchObject))
	}
	f := newFuture()
	rec := ThreadRec{ID: n.newThreadID(), Home: n.id, Priority: c.rec.Priority}
	msg := routedMsg{Op: opInvoke, Obj: obj, Thread: rec, Method: method}
	if o.readOnly {
		msg.Flags |= rmFlagReadOnly
	}
	d, act, to, err := n.resolve(&msg)
	switch act {
	case actError:
		f.complete(nil, err)
	case actExecute:
		// Resident fast path: the pin is already held; execute on a fresh
		// goroutine (the whole point is not to borrow the caller's).
		n.counts.Inc("async_invokes_local")
		go n.runAsyncLocal(d, rec, obj, method, args, o.readOnly, f)
	case actForward:
		// Encoded from a heap copy, as in invoke(): sharing the variable would
		// make every resident AsyncInvoke pay for a routedMsg it never ships.
		smsg := msg
		smsg.Chain = append(smsg.Chain, n.id)
		if n.replicaOn {
			smsg.SnapMax = n.replicaMax
			smsg.Flags |= rmFlagLeaseOK
		}
		body, merr := assembleVec(&smsg, args)
		if merr != nil {
			f.complete(nil, merr)
			return f
		}
		timeout := o.deadline
		if timeout <= 0 {
			timeout = n.cfg.RPCTimeout
		}
		var idem uint64
		if o.retry.MaxAttempts > 1 {
			// Retries are only safe under one idempotency token per logical
			// call (at-most-once at the callee); and meaningless without a
			// deadline to trigger them.
			idem = n.ep.NewToken()
			if timeout <= 0 {
				timeout = time.Second
			}
		}
		var ti rpc.TraceInfo
		if n.tracer.OnFor(rec.ID) {
			ti = rpc.TraceInfo{TraceID: rec.ID}
		}
		fc := &futureCall{f: f, rec: rec, obj: obj, body: body, o: o,
			to: to, ti: ti, idem: idem, timeout: timeout, backoff: o.retry.Backoff,
			start: time.Now()}
		n.pipeFor(to).enqueue(c, fc)
	}
	return f
}

// runAsyncLocal executes a resident async invocation. d arrives pinned (the
// resolve fast path took the pin); runPinned releases it. Counter and heat
// parity with the synchronous local path keeps placement decisions blind to
// which API issued the call.
func (n *Node) runAsyncLocal(d *descriptor, rec ThreadRec, obj gaddr.Addr, method string, args []any, readOnly bool, f *Future) {
	c := &Ctx{node: n, rec: rec}
	n.cInvokesLocal.Inc()
	if n.heat != nil && !d.Immutable() && !d.Lease() {
		n.heatObserve(obj, n.id)
	}
	switch {
	case d.Replica():
		n.cReplicaHits.Inc()
	case d.Lease():
		n.cLeaseHits.Inc()
	}
	start := time.Now()
	res, err := n.runPinned(c, d, obj, method, args, readOnly)
	n.histLocal.Observe(time.Since(start))
	f.complete(res, err)
}

// asyncDispatch (re)routes a pipelined call after a stale hint, routing
// restart, or retry backoff: resolve afresh and either run here (the object
// came to us between attempts), complete with a definite error, or requeue
// on the now-believed peer's pipe. Always runs on its own goroutine —
// resolve may block on a move in progress, and requeue never blocks.
func (n *Node) asyncDispatch(fc *futureCall) {
	var msg routedMsg
	if _, err := msg.DecodeWire(fc.body); err != nil {
		fc.finish(nil, err)
		return
	}
	msg.Chain = nil // a local origin: resolve may serve it from a lease copy
	d, act, to, err := n.resolve(&msg)
	switch act {
	case actError:
		fc.finish(nil, err)
	case actExecute:
		args, uerr := wire.UnmarshalArgsScratch(msg.Args)
		if uerr != nil {
			n.unpin(d)
			fc.finish(nil, uerr)
			return
		}
		wire.PutBuf(fc.body) // the decoded arguments own their memory
		fc.body = nil
		n.runAsyncLocal(d, fc.rec, fc.obj, msg.Method, args, fc.o.readOnly, fc.f)
		wire.PutArgs(args)
	case actForward:
		fc.to = to
		n.pipeFor(to).requeue(fc)
	}
}

// finish completes the call's future and returns the request body to the
// pool. Attempts are strictly sequential and each resolves exactly once, so
// nothing can still be reading the body here.
func (fc *futureCall) finish(res []any, err error) {
	wire.PutBuf(fc.body)
	fc.body = nil
	fc.f.complete(res, err)
}

// issueAsync puts one pipelined call on the wire. Called from a pipe's drain
// loop with an inflight slot already charged; the completion callback
// releases it. NoFlush batches the burst — the drain loop kicks one flush
// when it finishes issuing.
func (n *Node) issueAsync(fc *futureCall) {
	n.counts.Inc("invokes_shipped")
	ao := rpc.AsyncOpts{
		Timeout:      fc.timeout,
		ProbeTimeout: n.cfg.ProbeTimeout,
		Trace:        fc.ti,
		Idem:         fc.idem,
		NoFlush:      true,
	}
	to := fc.to
	// The attempt's frame is a copy: the stale-hint, routing-restart and
	// retry ladders may all need the body again after this one is sent.
	n.ep.StartCall(to, procRouted, rpc.FrameCopy(fc.body), ao, func(resp []byte, rerr error) {
		n.asyncComplete(fc, to, resp, rerr)
	})
}

// asyncComplete finishes one attempt: release the pipeline slot, then either
// unpack the reply (acceptReply, the return leg shared with shipInvoke) or
// route the failure. It runs on a transport delivery or timer goroutine and
// never blocks.
func (n *Node) asyncComplete(fc *futureCall, to gaddr.NodeID, resp []byte, rerr error) {
	n.pipeFor(to).release()
	if rerr != nil {
		n.asyncFail(fc, to, mapRemoteError(rerr))
		return
	}
	out, err := n.acceptReply(fc.obj, resp)
	elapsed := time.Since(fc.start)
	n.histRemote.Observe(elapsed)
	if fc.ti.TraceID != 0 {
		n.exRemote.Note(elapsed, fc.ti.TraceID)
	}
	fc.finish(out, err)
}

// asyncFail routes a failed attempt through the same recovery ladder as the
// blocking invoke() loop: one stale-hint retry, bounded routing restarts,
// then the per-call retry policy; what survives completes the future and
// trips the anomaly tripwire exactly like a failed blocking call.
func (n *Node) asyncFail(fc *futureCall, to gaddr.NodeID, err error) {
	if staleRouteError(err) {
		if !fc.hintRetried && n.hintDrop(fc.obj) {
			fc.hintRetried = true
			n.counts.Inc("hint_retries")
			go n.asyncDispatch(fc)
			return
		}
		if errors.Is(err, ErrRoutingLost) && fc.restarts < 4 {
			fc.restarts++
			n.counts.Inc("routing_restarts")
			go n.asyncDispatch(fc)
			return
		}
	}
	// Retry policy: only attempts with no reply (timeout, dead peer, refused
	// send) are re-issued; a reply carrying an application error is final.
	var re *rpc.RemoteError
	if fc.o.retry.MaxAttempts > 1 && fc.attempt+1 < fc.o.retry.MaxAttempts && !errors.As(err, &re) {
		fc.attempt++
		n.counts.Inc("async_retries")
		backoff := fc.backoff
		if backoff <= 0 {
			backoff = 10 * time.Millisecond
		}
		maxBackoff := fc.o.retry.MaxBackoff
		if maxBackoff <= 0 {
			maxBackoff = 500 * time.Millisecond
		}
		if fc.backoff = backoff * 2; fc.backoff > maxBackoff {
			fc.backoff = maxBackoff
		}
		time.AfterFunc(backoff, func() { n.asyncDispatch(fc) })
		return
	}
	ro := rpc.CallOpts{Timeout: fc.timeout, MaxAttempts: fc.o.retry.MaxAttempts}
	n.noteCallAnomaly(to, procRouted, ro, err)
	fc.finish(nil, err)
}

// --- per-peer request pipeline ---

// peerPipe serializes this node's async traffic toward one peer into a
// bounded pipeline: up to window requests on the wire at once (sent with
// coalesced flushes), up to depth outstanding in total (inflight + queued).
// Beyond depth, new AsyncInvokes block their caller — the admission control
// that makes overload degrade into queueing delay instead of unbounded
// memory growth.
type peerPipe struct {
	n      *Node
	to     gaddr.NodeID
	window int
	depth  int

	mu       sync.Mutex
	cond     *sync.Cond
	q        []*futureCall
	inflight int
	draining bool
}

// pipeFor returns (creating on first use) the pipe toward peer.
func (n *Node) pipeFor(to gaddr.NodeID) *peerPipe {
	n.pipeMu.Lock()
	defer n.pipeMu.Unlock()
	p := n.pipes[to]
	if p == nil {
		p = &peerPipe{n: n, to: to, window: n.cfg.PipelineWindow, depth: n.cfg.PipelineDepth}
		p.cond = sync.NewCond(&p.mu)
		n.pipes[to] = p
	}
	return p
}

// enqueue admits a fresh call, blocking the caller (slot released via
// c.Block) while the pipe is at depth. c may be nil (raw goroutines).
func (p *peerPipe) enqueue(c *Ctx, fc *futureCall) {
	p.mu.Lock()
	if len(p.q)+p.inflight < p.depth {
		p.push(fc)
		p.mu.Unlock()
		return
	}
	p.mu.Unlock()
	p.n.counts.Inc("async_backpressure_waits")
	wait := func() {
		p.mu.Lock()
		for len(p.q)+p.inflight >= p.depth {
			p.cond.Wait()
		}
		p.push(fc)
		p.mu.Unlock()
	}
	if c != nil {
		c.Block(wait)
	} else {
		wait()
	}
}

// requeue re-admits a retried call. It bypasses the depth gate: the retry's
// original admission is still outstanding from the caller's point of view,
// and the completion paths that call it must never block.
func (p *peerPipe) requeue(fc *futureCall) {
	p.mu.Lock()
	p.push(fc)
	p.mu.Unlock()
}

// push appends and ensures a drainer is running. Caller holds p.mu.
func (p *peerPipe) push(fc *futureCall) {
	p.q = append(p.q, fc)
	if !p.draining && p.inflight < p.window {
		p.draining = true
		go p.drain()
	}
}

// release returns one inflight slot on completion of an attempt, restarting
// the drainer if work is queued and waking admission waiters.
func (p *peerPipe) release() {
	p.mu.Lock()
	p.inflight--
	if len(p.q) > 0 && !p.draining && p.inflight < p.window {
		p.draining = true
		go p.drain()
	}
	p.mu.Unlock()
	p.cond.Broadcast()
}

// drain issues queued calls while the window has room, then kicks one
// transport flush for the whole burst — N outstanding invokes toward this
// peer share flushes instead of scheduling one each.
func (p *peerPipe) drain() {
	n := p.n
	p.mu.Lock()
	for {
		issued := 0
		for len(p.q) > 0 && p.inflight < p.window {
			fc := p.q[0]
			copy(p.q, p.q[1:])
			p.q[len(p.q)-1] = nil
			p.q = p.q[:len(p.q)-1]
			p.inflight++
			p.mu.Unlock()
			n.issueAsync(fc)
			issued++
			p.mu.Lock()
		}
		if issued > 0 {
			p.mu.Unlock()
			n.ep.Kick(p.to)
			p.mu.Lock()
			// Completions may have freed window room while we were flushing.
			if len(p.q) > 0 && p.inflight < p.window {
				continue
			}
		}
		p.draining = false
		p.mu.Unlock()
		return
	}
}
