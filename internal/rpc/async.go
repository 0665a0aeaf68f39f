package rpc

import (
	"fmt"
	"time"

	"amber/internal/gaddr"
)

// DefaultPipelineWindow is the default per-peer cap on outstanding async
// calls (see SetPipelineWindow). 64 requests in flight keeps a loopback pipe
// full without letting one caller monopolize a peer's dispatch queue.
const DefaultPipelineWindow = 64

// AsyncOpts shapes one StartCall. Unlike CallOpts there is no retry policy:
// an async attempt is exactly one request, and the caller re-issues (with a
// fresh call ID and the same Idem token) if it wants at-most-once retries.
type AsyncOpts struct {
	// Timeout bounds the attempt; <=0 means no deadline (the call completes
	// only when a reply arrives — or never, if the peer dies silently, so
	// real callers always set one).
	Timeout time.Duration
	// ProbeTimeout bounds the health probe used to classify an expired or
	// failed attempt (ErrTimeout vs ErrNodeDown); <=0 uses the default.
	ProbeTimeout time.Duration
	// Trace is the trace context to carry in the request envelope.
	Trace TraceInfo
	// Idem is the idempotency token stamped on the request (0 = none).
	// Re-issued attempts of one logical call should carry the same token so
	// the callee's dedup window suppresses double execution. Allocate with
	// NewToken.
	Idem uint64
	// NoFlush leaves the request in the transport's write buffer; the caller
	// batches several StartCalls to one peer and ends with Kick. On
	// transports without buffering it is identical to a plain send.
	NoFlush bool
}

// NewToken allocates an idempotency token for a logical call whose attempts
// are issued via StartCall. Tokens share the call-ID sequence, which already
// guarantees per-origin uniqueness.
func (ep *Endpoint) NewToken() uint64 { return ep.nextID.Add(1) }

// SetPipelineWindow sets the advertised per-peer pipeline window: how many
// async calls a well-behaved caller keeps outstanding toward one peer. The
// endpoint itself does not enforce it — enforcement (queueing, backpressure)
// lives in the caller, which can see its own queue — it only records the
// value so every layer agrees on one number. w<=0 resets to the default.
func (ep *Endpoint) SetPipelineWindow(w int) {
	if w <= 0 {
		w = DefaultPipelineWindow
	}
	ep.mu.Lock()
	ep.window = w
	ep.mu.Unlock()
}

// PipelineWindow returns the advertised per-peer pipeline window.
func (ep *Endpoint) PipelineWindow() int {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return ep.window
}

// Inflight returns the number of outstanding async calls toward peer.
func (ep *Endpoint) Inflight(to gaddr.NodeID) int {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return ep.inflight[to]
}

// Kick flushes the transport's write buffer toward peer, ending a NoFlush
// batch. A no-op when the transport does not buffer.
func (ep *Endpoint) Kick(to gaddr.NodeID) {
	if ep.coal != nil {
		ep.coal.Kick(to)
	}
}

// StartCall issues one async request attempt and returns immediately, taking
// ownership of body like every sending entry point. done is invoked exactly
// once with the outcome — the reply body (ownership included;
// recycle with wire.PutBuf when finished) or a classified error. Failure
// classification matches CallWith: an expired or undeliverable attempt probes
// the peer, yielding wrapped ErrNodeDown when the probe fails and ErrTimeout
// (or the raw send error) when the peer is alive.
//
// done runs on whichever goroutine resolves the call — the transport delivery
// goroutine for replies, a timer goroutine for deadlines — so it must not
// block; long work belongs on a goroutine done spawns.
func (ep *Endpoint) StartCall(to gaddr.NodeID, p Proc, body []byte, opts AsyncOpts, done func([]byte, error)) {
	id := ep.nextID.Add(1)
	hdr := requestHdr{CallID: id, Origin: ep.Self(), Proc: p, Trace: opts.Trace, Idem: opts.Idem}

	pc := pendingCall{peer: to, fn: func(out replyOutcome) { done(out.body, out.err) }}
	ep.mu.Lock()
	if opts.Timeout > 0 {
		// Armed under ep.mu: if the deadline fires before the insert below is
		// visible, asyncExpire blocks on the same lock and finds the entry.
		pc.timer = time.AfterFunc(opts.Timeout, func() {
			ep.asyncExpire(id, to, p, opts.ProbeTimeout)
		})
	}
	ep.pending[id] = pc
	ep.inflight[to]++
	ep.mu.Unlock()
	ep.counts.Inc("rpc_async_started")

	err := ep.sendRequest(to, kindRequest, &hdr, body, opts.NoFlush)
	if err == nil {
		return
	}
	// The transport refused the send. Claim the entry back (the deadline timer
	// may race us; exactly one side wins under ep.mu) and classify off-thread,
	// since the probe blocks and StartCall promises not to.
	ep.mu.Lock()
	prev, ok := ep.pending[id]
	if ok {
		delete(ep.pending, id)
		ep.inflight[to]--
		if prev.timer != nil {
			prev.timer.Stop()
		}
	}
	ep.mu.Unlock()
	if !ok {
		return
	}
	sendErr := err
	go func() {
		if ep.checkDown(to, opts.ProbeTimeout) {
			done(nil, fmt.Errorf("%w: proc %d to node %d: %v", ErrNodeDown, p, to, sendErr))
		} else {
			done(nil, sendErr)
		}
	}()
}

// asyncExpire resolves a deadline-expired async call: claim the pending entry
// (losing gracefully if the reply beat us), probe the peer, and deliver the
// classified error. Runs on the deadline timer's goroutine, where blocking on
// the probe is fine.
func (ep *Endpoint) asyncExpire(id uint64, to gaddr.NodeID, p Proc, probeTimeout time.Duration) {
	ep.mu.Lock()
	pc, ok := ep.pending[id]
	if ok {
		delete(ep.pending, id)
		ep.inflight[to]--
	}
	ep.mu.Unlock()
	if !ok {
		return
	}
	ep.counts.Inc("rpc_async_timeouts")
	if ep.checkDown(to, probeTimeout) {
		pc.fn(replyOutcome{err: fmt.Errorf("%w: proc %d to node %d", ErrNodeDown, p, to)})
	} else {
		pc.fn(replyOutcome{err: fmt.Errorf("%w: proc %d to node %d", ErrTimeout, p, to)})
	}
}
