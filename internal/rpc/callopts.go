package rpc

import (
	"fmt"
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
	// Backoff is the pause before the second attempt; it doubles per retry,
	// capped at MaxBackoff (see the Backoff type for the defaults).
	Backoff    time.Duration
	MaxBackoff time.Duration
	// Idempotent stamps every attempt with the same idempotency token so the
	// callee's dedup window guarantees at-most-once execution. Retrying a
	// non-idempotent call can execute it more than once; callers opt in.
	Idempotent bool
	// ProbeTimeout bounds the health probe used to classify a timeout
	// (ErrTimeout vs ErrNodeDown); <=0 uses DefaultProbeTimeout.
	ProbeTimeout time.Duration
	// Trace is the trace context to carry in the request envelope.
	Trace TraceInfo
}

// Backoff is the capped exponential pause schedule between the attempts of
// one logical call: CallWith's own retry loop, and the re-issue schedule of
// callers that run attempts themselves over StartCall. Pause is the next
// pause (<=0: 10ms), doubling per retry up to Max (<=0: 500ms).
type Backoff struct {
	Pause time.Duration
	Max   time.Duration
}

// Next returns the pause before the next attempt and advances the schedule.
func (b *Backoff) Next() time.Duration {
	if b.Pause <= 0 {
		b.Pause = 10 * time.Millisecond
	}
	if b.Max <= 0 {
		b.Max = 500 * time.Millisecond
	}
	d := b.Pause
	if b.Pause *= 2; b.Pause > b.Max {
		b.Pause = b.Max
	}
	return d
}

// CallWith sends a request governed by opts and blocks until a reply, a
// classified failure, or attempt exhaustion. Failure classification: after a
// timed-out attempt the peer is probed — if the probe round-trips the error
// is ErrTimeout (alive but slow/lossy), otherwise ErrNodeDown. Both surface
// wrapped, errors.Is-matchable.
func (ep *Endpoint) CallWith(to gaddr.NodeID, p Proc, body []byte, opts CallOpts) ([]byte, error) {
	id := ep.nextID.Add(1)
	ch := make(chan replyOutcome, 1)
	ep.mu.Lock()
	ep.pending[id] = pendingCall{ch: ch}
	ep.mu.Unlock()
	defer func() {
		ep.mu.Lock()
		delete(ep.pending, id)
		ep.mu.Unlock()
	}()

	hdr := requestHdr{CallID: id, Origin: ep.Self(), Proc: p, Trace: opts.Trace}
	if opts.Idempotent {
		hdr.Idem = id
	}
	attempts := opts.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	// A single-attempt call sends body itself. A call that may retry keeps
	// body until it returns and sends a pooled copy per attempt, since an
	// accepted frame belongs to the transport.
	retrying := attempts > 1
	if retrying {
		defer wire.PutBuf(body)
	}
	backoff := Backoff{Pause: opts.Backoff, Max: opts.MaxBackoff}

	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			ep.counts.Inc("rpc_retries")
			if trace.GlobalOn() {
				trace.GlobalEmit(trace.Event{Kind: trace.KRetry,
					Node: int32(ep.Self()), Trace: opts.Trace.TraceID, Arg: int64(attempt)})
			}
			// Capped exponential backoff — but a straggling reply from an
			// earlier attempt still wins the race.
			select {
			case out := <-ch:
				return out.body, out.err
			case <-time.After(backoff.Next()):
			}
		}
		frame := body
		if retrying {
			frame = FrameCopy(body)
		}
		if err := ep.sendRequest(to, kindRequest, &hdr, frame, false); err != nil {
			// The transport refused the send (dead socket, failed dial). Worth
			// retrying — the peer may be rebooting — but classify on the way
			// out so exhaustion surfaces as ErrNodeDown, not a dial error.
			lastErr = err
			if attempt == attempts-1 || opts.Timeout <= 0 {
				if ep.checkDown(to, opts.ProbeTimeout) {
					return nil, fmt.Errorf("%w: proc %d to node %d: %v", ErrNodeDown, p, to, err)
				}
				return nil, err
			}
			continue
		}
		if opts.Timeout <= 0 {
			out := <-ch
			return out.body, out.err
		}
		select {
		case out := <-ch:
			return out.body, out.err
		case <-time.After(opts.Timeout):
		}
		// The attempt timed out: probe to tell a slow peer from a dead one.
		if ep.checkDown(to, opts.ProbeTimeout) {
			lastErr = fmt.Errorf("%w: proc %d to node %d", ErrNodeDown, p, to)
		} else {
			lastErr = fmt.Errorf("%w: proc %d to node %d", ErrTimeout, p, to)
		}
	}
	return nil, lastErr
}
