package core

import (
	"fmt"

	"amber/internal/gaddr"
	"amber/internal/wire"
)

// Continuation shipping: a chain of invocations on (presumed) co-located
// remote objects travels as ONE message and executes at the destination,
// returning to the origin once — instead of one full round trip per call.
// The shipped thread was already a continuation (§3.4 of the paper; compare
// Tarau's mobile first-order continuations): a chain is an invoke whose
// routedMsg carries the steps still to come (engine.go). If the chain's
// objects turn out not to be co-located, the remainder of the chain forwards
// onward with a detached reply, so the origin still pays exactly one round
// trip.

// ChainStep is one invocation in a shipped chain: call Method on Obj with
// Args. An argument equal to ChainPrev is substituted, at execution time,
// with the first result of the previous step — the dataflow that makes a
// chain more than a batch.
type ChainStep struct {
	Obj    Ref
	Method string
	Args   []any
}

// chainPrevArg is the marker type behind ChainPrev. Registered with the wire
// codec so it survives marshalling while its step waits in a continuation.
type chainPrevArg struct{}

// ChainPrev, used as an argument in a ChainStep, is replaced with the first
// result of the preceding step when that step executes.
var ChainPrev chainPrevArg

func init() { wire.Register(chainPrevArg{}) }

// substituteChainPrev replaces ChainPrev markers with the previous step's
// first result. Marker-free argument lists pass through untouched.
func substituteChainPrev(args, prev []any) []any {
	out := args
	copied := false
	for i, a := range args {
		if _, ok := a.(chainPrevArg); ok {
			if !copied {
				out = append([]any(nil), args...)
				copied = true
			}
			if len(prev) > 0 {
				out[i] = prev[0]
			} else {
				out[i] = nil
			}
		}
	}
	return out
}

// wireStep is a continuation step as it sits in a message: the argument
// vector still encoded, aliasing the message.
type wireStep struct {
	Obj    gaddr.Addr
	Method string
	Args   []byte
}

// appendStep appends one step of a continuation (routedMsg.Cont), its
// argument vector encoded in place behind a length prefix.
func appendStep(b []byte, s *ChainStep) ([]byte, error) {
	b = wire.AppendUvarint(b, uint64(s.Obj))
	b = wire.AppendString(b, s.Method)
	b, mark := wire.BeginSized(b)
	b, err := wire.AppendArgs(b, s.Args)
	if err != nil {
		return nil, err
	}
	return wire.EndSized(b, mark), nil
}

// popStep consumes the first step of a continuation and returns the rest.
func popStep(cont []byte) (s wireStep, rest []byte, err error) {
	var u uint64
	if u, cont, err = wire.ReadUvarint(cont); err != nil {
		return s, nil, err
	}
	s.Obj = gaddr.Addr(u)
	if s.Method, cont, err = wire.ReadString(cont); err != nil {
		return s, nil, err
	}
	s.Args, rest, err = wire.ReadBytes(cont)
	return s, rest, err
}

// InvokeChain executes steps in order, feeding each step's results to the
// next via ChainPrev, and returns the last step's results. Steps on locally
// resident objects run inline; at the first remote step the remaining chain
// ships as one message and the reply carries the final results — co-located
// remote objects cost one round trip for the whole chain. CallOptions apply
// to the shipped leg like any routed call; WithReadOnly declares every step
// read-only.
func (c *Ctx) InvokeChain(steps []ChainStep, opts ...CallOption) ([]any, error) {
	if len(steps) == 0 {
		return nil, fmt.Errorf("%w: empty chain", ErrBadArgument)
	}
	return c.node.travel(c, steps, gatherOptions(opts))
}

// AsyncInvokeChain is InvokeChain as a Future: the chain runs as a fresh
// thread journey (its own thread ID), and its shipped leg rides the per-peer
// pipeline like any AsyncInvoke.
func (c *Ctx) AsyncInvokeChain(steps []ChainStep, opts ...CallOption) *Future {
	if len(steps) == 0 {
		return completedFuture(nil, fmt.Errorf("%w: empty chain", ErrBadArgument))
	}
	return c.node.travelAsync(c, steps, gatherOptions(opts))
}
