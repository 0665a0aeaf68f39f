package core

import "time"

// CallOption shapes the failure behavior of one Invoke/MoveTo/Locate call.
// Options ride the existing variadic argument list of Invoke —
//
//	ctx.Invoke(ref, "Add", 5, amber.WithDeadline(time.Second))
//
// — so zero-option call sites compile unchanged. The zero-option behavior is
// the cluster-wide RPCTimeout with no retry, exactly as before.
//
// It is deliberately plain data (no closure): constructing one allocates
// nothing, and splitOptions' no-option fast path stays allocation-free
// because nothing ever forces the merged policy onto the heap.
type CallOption struct {
	deadline time.Duration
	retry    RetryPolicy
	hasRetry bool
	readOnly bool
}

// merge folds this option into the resolved policy.
func (opt CallOption) merge(o *callOpts) {
	if opt.deadline > 0 {
		o.deadline = opt.deadline
	}
	if opt.hasRetry {
		o.retry = opt.retry
	}
	if opt.readOnly {
		o.readOnly = true
	}
}

// RetryPolicy configures WithRetry. Retried attempts reuse one idempotency
// token, so the callee executes the operation at most once no matter how many
// attempts the network lets through — retrying is always safe.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts (<=1 disables retry).
	MaxAttempts int
	// Backoff is the pause before the second attempt, doubling per retry
	// (0 = 10ms).
	Backoff time.Duration
	// MaxBackoff caps the doubling (0 = 500ms).
	MaxBackoff time.Duration
}

// WithDeadline bounds each attempt of the call to d, overriding the
// cluster-wide RPCTimeout. On expiry the peer is probed and the call fails
// with ErrTimeout (peer alive) or ErrNodeDown (peer dead).
func WithDeadline(d time.Duration) CallOption {
	return CallOption{deadline: d}
}

// WithRetry retries a failed call under p, with capped exponential backoff.
// If no deadline is set (neither WithDeadline nor cluster RPCTimeout), each
// attempt defaults to a 1s deadline — retry is meaningless without one.
func WithRetry(p RetryPolicy) CallOption {
	return CallOption{retry: p, hasRetry: true}
}

// WithReadOnly declares that this invoke never mutates the object, without
// requiring the class to list the method in AmberReadOnly. A read-only invoke
// on a cacheable object may be served from a local reader lease (zero
// messages while the lease stands) and runs under the shared side of the
// coherence lock at the holder. The declaration is a promise: marking a
// mutating call read-only yields stale reads elsewhere, never corruption.
func WithReadOnly() CallOption {
	return CallOption{readOnly: true}
}

// callOpts is the resolved per-call policy.
type callOpts struct {
	deadline time.Duration
	retry    RetryPolicy
	readOnly bool
}

// splitOptions separates CallOptions from real arguments. The common no-
// option case returns args untouched (no allocation, one type-test per arg —
// the slow path lives in its own function so the policy value here never
// escapes).
func splitOptions(args []any) ([]any, callOpts) {
	n := 0
	for _, a := range args {
		if _, ok := a.(CallOption); ok {
			n++
		}
	}
	if n == 0 {
		return args, callOpts{}
	}
	return splitOptionsSlow(args, n)
}

func splitOptionsSlow(args []any, n int) ([]any, callOpts) {
	var o callOpts
	rest := make([]any, 0, len(args)-n)
	for _, a := range args {
		if opt, ok := a.(CallOption); ok {
			opt.merge(&o)
		} else {
			rest = append(rest, a)
		}
	}
	return rest, o
}

// gather applies a variadic option list (MoveTo/Locate, which have no
// argument list to share).
func gatherOptions(opts []CallOption) callOpts {
	var o callOpts
	for _, opt := range opts {
		opt.merge(&o)
	}
	return o
}
