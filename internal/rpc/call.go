package rpc

import (
	"fmt"
	"sync"
	"time"

	"amber/internal/gaddr"
	"amber/internal/trace"
	"amber/internal/wire"
)

// CallOpts shapes one logical call's failure behavior. The zero value is a
// plain call: wait forever, one attempt, no idempotency token.
type CallOpts struct {
	// Timeout bounds each attempt; <=0 waits forever (and disables retry
	// classification, since nothing ever times out).
	Timeout time.Duration
	// MaxAttempts is the total number of attempts (<=1 means exactly one).
	// Retries reuse the call ID, so whichever attempt's reply arrives first
	// completes the call.
	MaxAttempts int
	// Backoff is the pause before the second attempt (<=0: 10ms); it doubles
	// per retry, capped at MaxBackoff (<=0: 500ms).
	Backoff    time.Duration
	MaxBackoff time.Duration
	// Idempotent stamps every attempt with the call ID as its idempotency
	// token so the callee's dedup window guarantees at-most-once execution.
	// Retrying a non-idempotent call can execute it more than once; callers
	// opt in.
	Idempotent bool
	// ProbeTimeout bounds the health probe used to classify a timeout
	// (ErrTimeout vs ErrNodeDown); <=0 uses DefaultProbeTimeout.
	ProbeTimeout time.Duration
	// Trace is the trace context to carry in the request envelope.
	Trace TraceInfo
	// NoFlush leaves the first attempt in the transport's write buffer; the
	// caller batches several StartCalls to one peer and ends with Kick.
	// Re-sent attempts always flush. On transports without buffering it is
	// identical to a plain send.
	NoFlush bool
}

// attempts is the number of attempts opts allows: a call that never times
// out has exactly one.
func (o *CallOpts) attempts() int {
	if o.Timeout <= 0 || o.MaxAttempts < 1 {
		return 1
	}
	return o.MaxAttempts
}

// backoff is the capped exponential pause schedule between the attempts of
// one logical call.
type backoff struct {
	pause, max time.Duration
}

// next returns the pause before the next attempt and advances the schedule.
func (b *backoff) next() time.Duration {
	if b.pause <= 0 {
		b.pause = 10 * time.Millisecond
	}
	if b.max <= 0 {
		b.max = 500 * time.Millisecond
	}
	d := b.pause
	if b.pause *= 2; b.pause > b.max {
		b.pause = b.max
	}
	return d
}

// CallWith sends a request governed by opts and blocks until a reply, a
// classified failure, or attempt exhaustion: StartCall plus a wait.
func (ep *Endpoint) CallWith(to gaddr.NodeID, p Proc, body []byte, opts CallOpts) ([]byte, error) {
	w := waiters.Get().(*waiter)
	ep.StartCall(to, p, body, opts, w.done)
	// The caller may be a handler running on a link's reader, and the reply
	// may need that link: hand it on before waiting.
	ep.ReleaseReaders()
	out := <-w.ch
	waiters.Put(w)
	return out.body, out.err
}

// waiter is a blocking call's completion: a one-slot channel and the done
// callback that fills it, made together once and reused. StartCall runs done
// exactly once and CallWith receives exactly once before it returns the
// waiter, so a pooled waiter is always empty and no stale done can reach it.
type waiter struct {
	ch   chan replyOutcome
	done func([]byte, error)
}

var waiters = sync.Pool{New: func() any {
	w := &waiter{ch: make(chan replyOutcome, 1)}
	w.done = func(b []byte, err error) { w.ch <- replyOutcome{b, err} }
	return w
}}

// Kick flushes the transport's write buffer toward peer, ending a NoFlush
// batch. A no-op when the transport does not buffer.
func (ep *Endpoint) Kick(to gaddr.NodeID) {
	if ep.coal != nil {
		ep.coal.Kick(to)
	}
}

// StartCall issues a request governed by opts and returns immediately, taking
// ownership of body like every sending entry point. It is the one place a
// call is re-issued: an attempt that times out or that the transport refuses
// is re-sent to the same node after a capped exponential pause while attempts
// remain, under the same call ID — so a straggling reply to an earlier
// attempt still completes the call — and, with Idempotent, the same token.
//
// done is invoked exactly once with the outcome — the reply body (ownership
// included; recycle with wire.PutBuf when finished) or a classified error.
// A failed last attempt probes the peer: the error is wrapped ErrNodeDown
// when the probe fails too, and otherwise ErrTimeout (or, for a refused
// send, the transport's error). A call whose only attempt was refused also
// matches ErrRefused: nothing reached the callee. A reply carrying an error is
// an answer and is never retried.
//
// done runs on whichever goroutine resolves the call — the reader goroutine
// of the link the reply arrived on, a timer goroutine for deadlines. It must
// not block: until it returns, that link reads nothing more unless a release
// or the transport's watchdog hands it to a fresh reader (up to two
// watchdog periods later). Long work belongs on a goroutine done spawns.
func (ep *Endpoint) StartCall(to gaddr.NodeID, p Proc, body []byte, opts CallOpts, done func([]byte, error)) {
	id := ep.nextID.Add(1)
	hdr := requestHdr{CallID: id, Origin: ep.Self(), Proc: p, Trace: opts.Trace}
	if opts.Idempotent {
		hdr.Idem = id
	}
	pc := pendingCall{done: done}
	if opts.Timeout > 0 {
		// Only a call with a deadline has an attempt chain to keep state for.
		pc.c = &call{ep: ep, to: to, hdr: hdr, opts: opts, backoff: backoff{pause: opts.Backoff, max: opts.MaxBackoff}}
		if opts.attempts() > 1 {
			// Every attempt sends a pooled copy, since an accepted frame
			// belongs to the transport; the chain keeps body until it ends.
			pc.c.body, body = body, FrameCopy(body)
		}
	}
	ep.mu.Lock()
	ep.pending[id] = pc
	ep.mu.Unlock()
	err := ep.sendRequest(to, kindRequest, &hdr, body, opts.NoFlush)
	c := pc.c
	if c == nil {
		if err == nil {
			return
		}
		// A call without a deadline has one attempt: its refused send ends it.
		c = &call{ep: ep, to: to, hdr: hdr, opts: opts}
	}
	c.sent(err)
}

// pendingCall is one entry of the reply-matching table: the callback that
// receives the outcome and, for a call with a deadline, its attempt chain.
type pendingCall struct {
	done func([]byte, error)
	c    *call
}

// call is one logical call's attempt chain: the request it re-sends and where
// it is in the policy. Its steps — sent, expire, failed, resend — run one at a
// time, each started by the one before (directly, on a goroutine, or by a
// timer), so the fields below timer need no lock. The chain owns body and
// returns it to the pool when it ends; completeCall ends it early only by
// stopping a timer that has not fired.
type call struct {
	ep   *Endpoint
	to   gaddr.NodeID
	hdr  requestHdr
	opts CallOpts
	// timer ends the current attempt or pause; guarded by ep.mu.
	timer *time.Timer

	body    []byte // the request every re-sent attempt copies (nil: one attempt)
	attempt int
	backoff backoff
}

// sent follows an attempt's hand-off to the transport: a refused send fails
// the attempt at once, an accepted one runs against the deadline.
func (c *call) sent(err error) {
	switch {
	case err != nil:
		// The probe that classifies the failure blocks, and StartCall
		// promises not to.
		go c.failed(err)
	case c.opts.Timeout > 0:
		c.arm(c.opts.Timeout, c.expire)
	}
}

// live reports whether the call still awaits its outcome. Once it does not,
// the chain ends at its next step, which returns body to the pool.
func (c *call) live() bool {
	c.ep.mu.Lock()
	_, ok := c.ep.pending[c.hdr.CallID]
	c.ep.mu.Unlock()
	return ok
}

// arm schedules the chain's next step after d while the call is live.
func (c *call) arm(d time.Duration, step func()) {
	ep := c.ep
	ep.mu.Lock()
	_, ok := ep.pending[c.hdr.CallID]
	if ok {
		c.timer = time.AfterFunc(d, step)
	}
	ep.mu.Unlock()
	if !ok {
		wire.PutBuf(c.body)
	}
}

// expire ends an attempt whose deadline passed without a reply.
func (c *call) expire() { c.failed(nil) }

// failed handles an attempt that timed out (sendErr nil) or that the
// transport refused: a timed-out attempt probes the peer, then the chain
// pauses before the next attempt, or — the last attempt spent — delivers the
// classified error. A reply arriving meanwhile still completes the call.
func (c *call) failed(sendErr error) {
	ep := c.ep
	if !c.live() {
		wire.PutBuf(c.body)
		return
	}
	if sendErr == nil {
		ep.counts.Inc("rpc_async_timeouts") // the name benchmark/amber-benchmark reads
	}
	last := c.attempt+1 >= c.opts.attempts()
	down := false
	if sendErr == nil || last {
		down = ep.checkDown(c.to, c.opts.ProbeTimeout)
	}
	if !last {
		c.arm(c.backoff.next(), c.resend)
		return
	}
	wire.PutBuf(c.body)
	pc, ok := ep.claim(c.hdr.CallID)
	if !ok {
		return
	}
	p, to := c.hdr.Proc, c.to
	if sendErr != nil && c.attempt == 0 {
		sendErr = fmt.Errorf("%w: %w", ErrRefused, sendErr)
	}
	switch {
	case down && sendErr != nil:
		pc.done(nil, fmt.Errorf("%w: proc %d to node %d: %w", ErrNodeDown, p, to, sendErr))
	case down:
		pc.done(nil, fmt.Errorf("%w: proc %d to node %d", ErrNodeDown, p, to))
	case sendErr != nil:
		pc.done(nil, sendErr)
	default:
		pc.done(nil, fmt.Errorf("%w: proc %d to node %d", ErrTimeout, p, to))
	}
}

// resend issues the next attempt once its pause is over, flushing: only the
// first attempt rides a NoFlush batch.
func (c *call) resend() {
	ep := c.ep
	if !c.live() {
		wire.PutBuf(c.body)
		return
	}
	c.attempt++
	ep.counts.Inc("rpc_retries")
	if trace.GlobalOn() {
		trace.GlobalEmit(trace.Event{Kind: trace.KRetry,
			Node: int32(ep.Self()), Trace: c.hdr.Trace.TraceID, Arg: int64(c.attempt)})
	}
	c.sent(ep.sendRequest(c.to, kindRequest, &c.hdr, FrameCopy(c.body), false))
}

// claim removes call id from the pending table, reporting whether it was
// still there: whoever claims a call delivers its outcome.
func (ep *Endpoint) claim(id uint64) (pendingCall, bool) {
	ep.mu.Lock()
	pc, ok := ep.pending[id]
	delete(ep.pending, id)
	ep.mu.Unlock()
	return pc, ok
}
