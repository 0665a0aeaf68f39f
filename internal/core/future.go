package core

import (
	"sync"
	"sync/atomic"
	"time"

	"amber/internal/gaddr"
	"amber/internal/rpc"
	"amber/internal/trace"
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
	c.Block(func() { <-f.done })
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
// or ErrNodeDown), WithRetry re-sends a call that got no reply to the node it
// first reached, under one idempotency token. Backpressure: when a peer's pipeline is at capacity
// (PipelineDepth outstanding), AsyncInvoke blocks the caller — releasing its
// processor slot — until a slot frees; the Future itself never blocks.
func (c *Ctx) AsyncInvoke(obj Ref, method string, args ...any) *Future {
	rest, o := splitOptions(args)
	return c.node.travelAsync(c, []ChainStep{{Obj: obj, Method: method, Args: rest}}, o)
}

// journey is a journey awaited by callback (engine.go has the inline wait):
// everything needed to (re)issue the request through the per-peer pipeline
// and to finish when the reply lands.
type journey struct {
	n     *Node
	f     *Future
	rec   ThreadRec
	span  uint64    // the journey's invoke span (0 = untraced)
	first ChainStep // the first step's object and method: the span's label
	ro    rpc.CallOpts
	// readOnly is the call's WithReadOnly declaration, applied to every step.
	readOnly bool
	lad      ladder

	// body is the request for the steps still to run, encoded when the call
	// was made, since the caller is free to reuse its arguments as soon as
	// AsyncInvoke returns. Every attempt sends a copy; a journey that must
	// resolve again decodes its steps back out of it.
	body  []byte
	to    gaddr.NodeID
	head  gaddr.Addr // the shipped head step's object: a dead end discredits its hint
	last  gaddr.Addr // the final step's object: what the reply reports on
	start time.Time
}

// travelAsync starts a journey awaited by callback: a fresh thread that runs
// its resident steps on a goroutine of its own (the whole point is not to
// borrow the caller's) and ships the rest through the pipeline.
func (n *Node) travelAsync(c *Ctx, steps []ChainStep, o callOpts) *Future {
	n.cAsyncInvokes.Inc()
	j := &journey{n: n, f: newFuture(), ro: n.policy(o), readOnly: o.readOnly,
		rec:   ThreadRec{ID: n.newThreadID(), Home: n.id, Priority: c.rec.Priority},
		first: ChainStep{Obj: steps[0].Obj, Method: steps[0].Method}}
	if tr := n.tracer; tr.OnFor(j.rec.ID) {
		// The new journey's birth is linked to the issuing thread's current
		// span, like StartThread's.
		j.span = tr.NextSpan()
		n.emitInvoke(trace.KInvokeStart, j.rec.ID, j.span, c.span, &j.first)
	}
	j.lad = ladder{thread: j.rec.ID, span: j.span}
	// The pipe's drain loop kicks one flush for its whole burst.
	j.ro.NoFlush = true
	d, act, to, err := n.resolveStep(&j.rec, &steps[0], o.readOnly)
	switch act {
	case actError:
		j.finish(nil, err)
	case actExecute:
		n.counts.Inc("async_invokes_local")
		go j.resume(d, steps)
	case actForward:
		j.ship(c, steps, nil, to)
	}
	return j.f
}

// resume advances the journey on this node, on a goroutine of its own —
// resolve may block on a move in progress: run the steps whose objects are
// resident, ship the rest. d, when non-nil, is the head step's descriptor,
// resolved and pinned by the caller.
func (j *journey) resume(d *descriptor, steps []ChainStep) {
	n := j.n
	c := &Ctx{node: n, rec: j.rec, span: j.span}
	var prev []any
	for {
		if d == nil {
			var act action
			var to gaddr.NodeID
			var err error
			switch d, act, to, err = n.resolveStep(&j.rec, &steps[0], j.readOnly); act {
			case actError:
				j.finish(nil, err)
				return
			case actForward:
				j.ship(nil, steps, prev, to)
				return
			}
		}
		var err error
		if prev, err = n.runHere(c, d, &steps[0], prev, j.readOnly); err != nil || len(steps) == 1 {
			j.finish(prev, err)
			return
		}
		steps, d = steps[1:], nil
	}
}

// ship builds the request for the remaining steps and admits it to the pipe
// toward node to. c is the issuing thread, blocked under backpressure; nil
// on the journey's own goroutine.
func (j *journey) ship(c *Ctx, steps []ChainStep, prev []any, to gaddr.NodeID) {
	body, ti, err := j.n.request(&j.rec, j.span, steps, prev, j.readOnly, to)
	if err != nil {
		j.finish(nil, err)
		return
	}
	if j.start.IsZero() {
		j.start = time.Now()
	}
	j.ro.Trace = ti
	j.body, j.to, j.head, j.last = body, to, steps[0].Obj, steps[len(steps)-1].Obj
	j.n.pipeFor(to).enqueue(c, j)
}

// issue starts the call that carries the journey to its node; rpc runs its
// retry policy. Called from a pipe's drain loop with an inflight slot already
// charged; the completion callback releases it. The call's frame is a copy:
// the ladder may need the body again to re-route the journey.
func (j *journey) issue() {
	j.n.ep.StartCall(j.to, procRouted, rpc.FrameCopy(j.body), j.ro, j.arrived)
}

// arrived finishes the call: release the pipeline slot, then either unpack
// the reply (acceptReply, the return leg shared with the inline wait) or ask
// the ladder whether to re-route. It runs on a transport delivery or timer
// goroutine and never blocks.
func (j *journey) arrived(resp []byte, err error) {
	n := j.n
	n.pipeFor(j.to).release()
	if err == nil {
		out, err := n.acceptReply(j.last, resp)
		n.observeRemote(j.start, j.ro.Trace.TraceID)
		j.finish(out, err)
		return
	}
	err = mapRemoteError(err)
	if n.climb(&j.lad, j.head, j.to, j.ro, err) {
		go j.again()
		return
	}
	j.finish(nil, err)
}

// again re-routes the journey after a stale hint or a routing restart: the
// steps come back out of the request as values and the journey resumes like
// a fresh one — the object may have come to this node meanwhile.
func (j *journey) again() {
	steps, err := decodeSteps(j.body)
	if err != nil {
		j.finish(nil, err)
		return
	}
	wire.PutBuf(j.body) // the decoded values own their memory
	j.body = nil
	j.resume(nil, steps)
}

// decodeSteps turns a request back into the steps it carries.
func decodeSteps(body []byte) ([]ChainStep, error) {
	var msg routedMsg
	if _, err := msg.DecodeWire(body); err != nil {
		return nil, err
	}
	var steps []ChainStep
	head, cont := wireStep{Obj: msg.Obj, Method: msg.Method, Args: msg.Args}, msg.Cont
	for {
		args, err := wire.UnmarshalArgs(head.Args)
		if err != nil {
			return nil, err
		}
		steps = append(steps, ChainStep{Obj: head.Obj, Method: head.Method, Args: args})
		if len(cont) == 0 {
			return steps, nil
		}
		head, cont, _ = popStep(cont) // DecodeWire walked it: well-formed
	}
}

// finish completes the journey's future and returns the request body to the
// pool. Attempts are strictly sequential and each resolves exactly once, so
// nothing can still be reading the body here.
func (j *journey) finish(res []any, err error) {
	wire.PutBuf(j.body)
	j.body = nil
	if j.span != 0 {
		j.n.emitInvoke(trace.KInvokeEnd, j.rec.ID, j.span, 0, &j.first)
	}
	j.f.complete(res, err)
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
	q        []*journey
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
func (p *peerPipe) enqueue(c *Ctx, j *journey) {
	p.mu.Lock()
	if len(p.q)+p.inflight < p.depth {
		p.push(j)
		p.mu.Unlock()
		return
	}
	p.mu.Unlock()
	p.n.counts.Inc("async_backpressure_waits")
	c.Block(func() {
		p.mu.Lock()
		for len(p.q)+p.inflight >= p.depth {
			p.cond.Wait()
		}
		p.push(j)
		p.mu.Unlock()
	})
}

// push appends and ensures a drainer is running. Caller holds p.mu.
func (p *peerPipe) push(j *journey) {
	p.q = append(p.q, j)
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
			j := p.q[0]
			copy(p.q, p.q[1:])
			p.q[len(p.q)-1] = nil
			p.q = p.q[:len(p.q)-1]
			p.inflight++
			p.mu.Unlock()
			j.issue()
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
