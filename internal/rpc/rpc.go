// Package rpc provides the remote-procedure-call layer Amber builds on,
// modelled on Topaz/Firefly RPC (Birrell & Nelson; Schroeder & Burrows). It
// matches requests to replies by call ID and supports two patterns beyond
// plain request/response:
//
//   - Oneway: fire-and-forget messages (location-cache updates, thread
//     completion notices).
//   - Detached reply: a handler may decline to reply and instead forward the
//     request (carrying its origin and call ID) to another node; whichever
//     node finally executes it replies *directly* to the origin. This is how
//     invocations chase forwarding-address chains with a single reply hop,
//     as in §3.3 of the paper.
package rpc

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"amber/internal/gaddr"
	"amber/internal/stats"
	"amber/internal/trace"
	"amber/internal/transport"
	"amber/internal/wire"
)

// Proc identifies a registered procedure.
type Proc uint8

// Message kinds at the transport level.
const (
	kindRequest transport.Kind = 1
	kindReply   transport.Kind = 2
	kindOneway  transport.Kind = 3
	// kindPing/kindPong carry health probes. They are answered directly in
	// onMessage — never dispatched through the scheduler — so a node whose
	// processors are saturated still answers probes (busy ≠ down): a link
	// whose reader is held by a slow handler is handed to a fresh reader
	// within two transport watchdog periods.
	kindPing transport.Kind = 4
	kindPong transport.Kind = 5
)

// IsHealthProbe reports whether a transport kind carries a health probe
// (ping/pong). Fault hooks that model a lossy-but-alive link should let
// these through so failure classification stays ErrTimeout rather than
// escalating to ErrNodeDown.
func IsHealthProbe(k transport.Kind) bool { return k == kindPing || k == kindPong }

// TraceInfo is the trace context that rides every request envelope: the
// logical thread's journey ID and the span the request was issued under.
// Zero values mean "untraced" and cost one wire byte each, so the envelope
// carries observability identity at no measurable expense when tracing is
// off.
type TraceInfo struct {
	TraceID uint64
	SpanID  uint64
}

// Envelope layout. A frame is the caller's body followed by the envelope as a
// trailer, and the frame's last byte is the trailer's length:
//
//	body … | envelope fields | len(envelope fields)
//
// Putting the envelope behind the body is what lets a message be one buffer:
// the layer above encodes its body at the front of a pooled buffer, this
// layer appends a dozen bytes to the same buffer, and the transport writes
// it. On receipt the body is the payload's prefix — it starts where the
// pooled buffer starts, so handing it on (Ctx.Body, a reply's result) and
// later returning it with wire.PutBuf recycles the whole buffer.

// FrameRoom is the most an envelope can add to a body. A body buffer obtained
// with wire.GetBufCap(bodySize + FrameRoom) becomes the frame without
// reallocation.
const FrameRoom = 48

// requestHdr is the envelope of a request or oneway.
type requestHdr struct {
	CallID uint64
	Origin gaddr.NodeID
	Proc   Proc
	Trace  TraceInfo
	// Idem is the request's idempotency token (0 = none). Retried attempts of
	// one logical call carry the same token, so the callee's dedup window can
	// suppress re-execution and replay the original reply. See CallOpts.
	Idem uint64
}

// appendTo appends the request trailer to body.
func (m *requestHdr) appendTo(b []byte) []byte {
	mark := len(b)
	b = append(b, byte(m.Proc))
	b = wire.AppendUvarint(b, m.CallID)
	b = wire.AppendVarint(b, int64(m.Origin))
	b = wire.AppendUvarint(b, m.Trace.TraceID)
	b = wire.AppendUvarint(b, m.Trace.SpanID)
	b = wire.AppendUvarint(b, m.Idem)
	return append(b, byte(len(b)-mark))
}

// splitTrailer separates a frame into its body (the prefix, sharing the
// frame's backing array from its start) and its envelope fields.
func splitTrailer(frame []byte) (body, env []byte, err error) {
	if len(frame) == 0 {
		return nil, nil, wire.ErrShortBuffer
	}
	n := int(frame[len(frame)-1])
	if n+1 > len(frame) {
		return nil, nil, wire.ErrShortBuffer
	}
	cut := len(frame) - 1 - n
	return frame[:cut], frame[cut : len(frame)-1], nil
}

// decode splits a request frame, filling m and returning the body.
func (m *requestHdr) decode(frame []byte) ([]byte, error) {
	body, b, err := splitTrailer(frame)
	if err != nil {
		return nil, err
	}
	if len(b) < 1 {
		return nil, wire.ErrShortBuffer
	}
	m.Proc, b = Proc(b[0]), b[1:]
	var origin int64
	if m.CallID, b, err = wire.ReadUvarint(b); err != nil {
		return nil, err
	}
	if origin, b, err = wire.ReadVarint(b); err != nil {
		return nil, err
	}
	m.Origin = gaddr.NodeID(origin)
	if m.Trace.TraceID, b, err = wire.ReadUvarint(b); err != nil {
		return nil, err
	}
	if m.Trace.SpanID, b, err = wire.ReadUvarint(b); err != nil {
		return nil, err
	}
	if m.Idem, _, err = wire.ReadUvarint(b); err != nil {
		return nil, err
	}
	return body, nil
}

// A reply's envelope is the call ID and one flag byte; with replyErr set the
// body is the error text instead of a result.
const replyErr = 1

func appendReplyTrailer(b []byte, callID uint64, flags byte) []byte {
	mark := len(b)
	b = wire.AppendUvarint(b, callID)
	b = append(b, flags)
	return append(b, byte(len(b)-mark))
}

func decodeReply(frame []byte) (body []byte, callID uint64, flags byte, err error) {
	body, b, err := splitTrailer(frame)
	if err != nil {
		return nil, 0, 0, err
	}
	if callID, b, err = wire.ReadUvarint(b); err != nil {
		return nil, 0, 0, err
	}
	if len(b) < 1 {
		return nil, 0, 0, wire.ErrShortBuffer
	}
	return body, callID, b[0], nil
}

// ErrTimeout is returned when a reply does not arrive but the callee still
// answers health probes: the node is alive, the call was slow or the message
// was lost. The operation may or may not have executed.
var ErrTimeout = errors.New("rpc: call timed out")

// ErrNodeDown is returned when a reply does not arrive and the callee fails
// its health probe too: the node is crashed, partitioned away, or gone. It is
// deliberately distinct from ErrTimeout so callers can treat "dead peer"
// (reroute, unwind, give up) differently from "slow peer" (wait, retry).
var ErrNodeDown = errors.New("rpc: node down")

// RemoteError wraps an error string propagated from another node.
type RemoteError struct {
	Node gaddr.NodeID
	Msg  string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("rpc: remote error from node %d: %s", e.Node, e.Msg)
}

// Ctx is passed to procedure handlers.
type Ctx struct {
	ep *Endpoint
	// From is the node that sent this message (the previous hop).
	From gaddr.NodeID
	// Origin is the node whose Call awaits the reply (equals From unless the
	// request has been forwarded).
	Origin gaddr.NodeID
	// CallID matches the reply to the origin's pending call. Zero for
	// oneways.
	CallID uint64
	// Trace is the trace context the request carried (zero when the sender
	// was not tracing). Forward propagates it unchanged, so a journey's
	// events on every node share one trace ID and parent correctly.
	Trace TraceInfo
	// Idem is the request's idempotency token (0 = none). Reply records the
	// outcome in the dedup window under this token; Forward propagates it.
	Idem uint64
	// Body is the request payload, lent to the handler: it is recycled when
	// the handler returns and must not be retained past that.
	Body []byte

	replied atomic.Bool
}

// IsCall reports whether the sender awaits a reply.
func (c *Ctx) IsCall() bool { return c.CallID != 0 }

// Reply sends the response to the origin node, taking ownership of body (it
// becomes the reply frame). It is a no-op for oneways and panics if called
// twice.
func (c *Ctx) Reply(body []byte, err error) {
	if !c.IsCall() {
		wire.PutBuf(body)
		return
	}
	if !c.replied.CompareAndSwap(false, true) {
		panic("rpc: double reply")
	}
	body = c.own(body)
	errStr := ""
	if err != nil {
		errStr = err.Error()
		wire.PutBuf(body)
		body = nil
	}
	if c.Idem != 0 {
		// Record the outcome before sending: if the reply is lost, a retry
		// carrying the same token replays this outcome instead of re-running
		// the handler. The window keeps its own copy of body.
		c.ep.dedup.complete(c.Origin, c.Idem, body, errStr)
	}
	c.ep.sendReply(c.Origin, c.CallID, body, errStr)
}

// own returns body as a buffer Reply or Forward may hand to the transport. A
// handler may pass (a slice of) the request body it was lent; that memory is
// recycled when the handler returns, so such a body is copied. Two slices
// share an array exactly when their capacities end on the same byte.
func (c *Ctx) own(body []byte) []byte {
	if n, m := cap(body), cap(c.Body); n > 0 && m > 0 && &body[:n][n-1] == &c.Body[:m][m-1] {
		return FrameCopy(body)
	}
	return body
}

// Forward re-sends this request to another node, preserving origin and call
// ID so the eventual executor replies directly to the origin. It takes
// ownership of body. The handler must not also Reply.
func (c *Ctx) Forward(to gaddr.NodeID, proc Proc, body []byte) error {
	if !c.replied.CompareAndSwap(false, true) {
		panic("rpc: forward after reply")
	}
	if c.Idem != 0 {
		// This node is a forwarder, not the executor: abandon its in-flight
		// dedup entry so a retry arriving here is forwarded again rather than
		// dropped waiting for a completion that will never happen locally.
		c.ep.dedup.abandon(c.Origin, c.Idem)
	}
	hdr := requestHdr{CallID: c.CallID, Origin: c.Origin, Proc: proc, Trace: c.Trace, Idem: c.Idem}
	kind := kindOneway
	if c.IsCall() {
		kind = kindRequest
	}
	return c.ep.sendRequest(to, kind, &hdr, c.own(body), false)
}

// Handler processes one inbound request or oneway. It runs on the reader
// goroutine of the link the request arrived on; a handler that waits should
// call Endpoint.ReleaseReaders first (CallWith does), or its link reads
// nothing more until the transport's watchdog hands it to a fresh reader.
type Handler func(*Ctx)

// Endpoint is one node's RPC engine.
type Endpoint struct {
	tr transport.Transport
	// coal is tr's pipelining extension, nil when the transport has none;
	// cached once so the async send path never repeats the type assertion.
	coal    transport.Coalescer
	mu      sync.Mutex // guards pending
	pending map[uint64]pendingCall
	// handlers is read once per inbound request, without a lock.
	handlers [256]atomic.Pointer[Handler]
	nextID   atomic.Uint64
	counts   *stats.Set
	// Per-message counters, cached out of counts (whose lookup takes a lock).
	cSent, cRepliesSent, cHandled *stats.Counter
	health                        healthState
	dedup                         dedupTable
}

type replyOutcome struct {
	body []byte
	err  error
}

// NewEndpoint wraps a transport. The endpoint installs itself as the
// transport's handler, so every inbound message — request, reply or probe —
// is processed on the reader goroutine of the link it arrived on. A request
// handler that waits releases its link first (ReleaseReaders, which CallWith
// and the node's own waits call), and the transport's watchdog releases one
// that waits or computes without doing so; either way the link reads on
// under a fresh reader, so replies and health probes are never stuck behind
// a slow handler for more than two watchdog periods.
func NewEndpoint(tr transport.Transport) *Endpoint {
	ep := NewIdleEndpoint(tr)
	ep.Listen()
	return ep
}

// NewIdleEndpoint builds an endpoint over tr that takes no inbound message
// until Listen. A node registers its procs and builds its own state first,
// so no request meets a half-built node and gets "no handler".
func NewIdleEndpoint(tr transport.Transport) *Endpoint {
	ep := &Endpoint{
		tr:      tr,
		pending: make(map[uint64]pendingCall),
		counts:  stats.NewSet(),
	}
	ep.coal, _ = tr.(transport.Coalescer)
	ep.cSent = ep.counts.Get("rpc_sent")
	ep.cRepliesSent = ep.counts.Get("rpc_replies_sent")
	ep.cHandled = ep.counts.Get("rpc_handled")
	ep.health.init()
	ep.dedup.init()
	return ep
}

// Listen installs the endpoint as the transport's handler (NewEndpoint does
// so at once). Call it once, after every HandleProc.
func (ep *Endpoint) Listen() { ep.tr.SetHandler(ep.onMessage) }

// Self returns the owning node's ID.
func (ep *Endpoint) Self() gaddr.NodeID { return ep.tr.Self() }

// ReleaseReaders hands every inbound link whose reader is running a handler
// to a fresh reader (transport.Transport.ReleaseReaders). Any goroutine of
// the node calls it before it waits.
func (ep *Endpoint) ReleaseReaders() { ep.tr.ReleaseReaders() }

// Stats exposes endpoint counters.
func (ep *Endpoint) Stats() *stats.Set { return ep.counts }

// HandleProc registers the handler for proc. It must be called before
// Listen (or, on a NewEndpoint, before traffic arrives); re-registration
// replaces the handler.
func (ep *Endpoint) HandleProc(p Proc, h Handler) { ep.handlers[p].Store(&h) }

// Call sends a request and blocks until the reply arrives (from whichever
// node finally handles it).
//
// Every sending entry point — Call and its variants, Oneway, StartCall,
// Ctx.Reply, Ctx.Forward — takes ownership of body: the envelope is appended
// to it and the result is the frame the transport writes and recycles. Size
// body's buffer with FrameRoom to spare and the append never regrows it. A
// reply body handed back belongs to the caller, who returns it with
// wire.PutBuf when done.
func (ep *Endpoint) Call(to gaddr.NodeID, p Proc, body []byte) ([]byte, error) {
	return ep.CallTimeout(to, p, body, 0)
}

// CallTimeout is Call with a deadline; timeout<=0 waits forever. Like every
// timed call it classifies failure: a timeout probes the peer, so the error
// is ErrNodeDown when the peer is dead and ErrTimeout when it is merely slow
// (see StartCall for the full policy).
func (ep *Endpoint) CallTimeout(to gaddr.NodeID, p Proc, body []byte, timeout time.Duration) ([]byte, error) {
	return ep.CallWith(to, p, body, CallOpts{Timeout: timeout})
}

// Oneway sends a request with no reply expected.
func (ep *Endpoint) Oneway(to gaddr.NodeID, p Proc, body []byte) error {
	hdr := requestHdr{Origin: ep.Self(), Proc: p}
	return ep.sendRequest(to, kindOneway, &hdr, body, false)
}

// sendRequest appends the envelope to body and hands the frame to the
// transport — buffered without a flush when noFlush is set and the transport
// coalesces. The transport owns the frame once it accepts it; a refused frame
// is recycled here, so either way the caller's body is gone.
func (ep *Endpoint) sendRequest(to gaddr.NodeID, kind transport.Kind, hdr *requestHdr, body []byte, noFlush bool) error {
	if body == nil {
		body = wire.GetBuf()
	}
	frame := hdr.appendTo(body)
	ep.cSent.Inc()
	var err error
	if noFlush && ep.coal != nil {
		err = ep.coal.SendNoFlush(to, kind, frame)
	} else {
		err = ep.tr.Send(to, kind, frame)
	}
	if err != nil {
		wire.PutBuf(frame)
	}
	return err
}

// sendReply turns body (or, for a failure, errStr) into the reply frame and
// sends it; it owns body.
func (ep *Endpoint) sendReply(to gaddr.NodeID, callID uint64, body []byte, errStr string) {
	ep.cRepliesSent.Inc()
	if to == ep.Self() {
		// Forwarding brought the request back to its origin; complete the
		// pending call locally (the transport refuses self-sends).
		out := replyOutcome{body: body}
		if errStr != "" {
			out.err = &RemoteError{Node: to, Msg: errStr}
		}
		ep.completeCall(callID, out)
		return
	}
	if body == nil {
		body = wire.GetBuf()
	}
	var flags byte
	if errStr != "" {
		flags = replyErr
		body = append(body[:0], errStr...)
	}
	frame := appendReplyTrailer(body, callID, flags)
	if err := ep.tr.Send(to, kindReply, frame); err != nil {
		wire.PutBuf(frame)
		ep.counts.Inc("rpc_reply_send_failed")
	}
}

// onMessage receives inbound payloads from the transport, which hands over
// ownership. A request's body is the payload's prefix: the payload is
// recycled once the handler returns, so handlers must not retain Body past
// their return. A reply's body — again the payload's prefix — travels onward
// to the pending caller, who recycles the payload by returning the body.
func (ep *Endpoint) onMessage(m transport.Message) {
	// Any inbound traffic proves the sender is alive; only pay the map lookup
	// while at least one peer is marked down.
	if ep.health.downCount.Load() != 0 {
		ep.noteAlive(m.From)
	}
	switch m.Kind {
	case kindReply:
		body, callID, flags, err := decodeReply(m.Payload)
		if err != nil {
			ep.counts.Inc("rpc_bad_reply")
			wire.PutBuf(m.Payload)
			return
		}
		out := replyOutcome{body: body}
		if flags&replyErr != 0 {
			out = replyOutcome{err: &RemoteError{Node: m.From, Msg: string(body)}}
			wire.PutBuf(m.Payload)
		}
		ep.completeCall(callID, out)
	case kindRequest, kindOneway:
		var rq requestHdr
		body, err := rq.decode(m.Payload)
		if err != nil {
			ep.counts.Inc("rpc_bad_request")
			wire.PutBuf(m.Payload)
			return
		}
		ctx := &Ctx{ep: ep, From: m.From, Origin: rq.Origin, CallID: rq.CallID, Trace: rq.Trace, Idem: rq.Idem, Body: body}
		h := ep.handlers[rq.Proc].Load()
		if h == nil {
			ep.counts.Inc("rpc_unknown_proc")
			ctx.Reply(nil, fmt.Errorf("rpc: node %d has no handler for proc %d", ep.Self(), rq.Proc))
			wire.PutBuf(m.Payload)
			return
		}
		if rq.Idem != 0 {
			switch verdict, body, errStr := ep.dedup.admit(rq.Origin, rq.Idem); verdict {
			case dedupReplay:
				// A retry of a call that already executed here: replay the
				// recorded outcome without re-running the handler. The window
				// keeps its copy; the frame gets one of its own.
				ep.counts.Inc("rpc_dedup_hits")
				if trace.GlobalOn() {
					trace.GlobalEmit(trace.Event{Kind: trace.KDedupHit,
						Node: int32(ep.Self()), Arg: int64(rq.Origin)})
				}
				ep.sendReply(rq.Origin, rq.CallID, FrameCopy(body), errStr)
				wire.PutBuf(m.Payload)
				return
			case dedupInflight:
				// A retry racing the original execution: drop it. The origin
				// keeps the same token, so a later retry replays the outcome
				// once the first execution completes.
				ep.counts.Inc("rpc_dedup_inflight_drops")
				wire.PutBuf(m.Payload)
				return
			}
		}
		ep.cHandled.Inc()
		(*h)(ctx)
		wire.PutBuf(m.Payload)
	case kindPing:
		ep.handlePing(m)
	case kindPong:
		ep.handlePong(m)
	default:
		ep.counts.Inc("rpc_bad_kind")
		wire.PutBuf(m.Payload)
	}
}

// FrameCopy copies body into a pooled buffer with room for the envelope: the
// frame for a sender that must keep body (a retrying call, the dedup window).
func FrameCopy(body []byte) []byte {
	return append(wire.GetBufCap(len(body)+FrameRoom), body...)
}

func (ep *Endpoint) completeCall(callID uint64, out replyOutcome) {
	ep.mu.Lock()
	pc, ok := ep.pending[callID]
	delete(ep.pending, callID)
	// Stopping a timer that has not fired ends the attempt chain here, so its
	// kept request is ours to recycle. Otherwise a chain step is running — a
	// send in flight, or a timer that fired — and it finds the call gone and
	// recycles the request itself.
	ended := ok && pc.c != nil && pc.c.timer != nil && pc.c.timer.Stop()
	ep.mu.Unlock()
	if !ok {
		ep.counts.Inc("rpc_orphan_reply")
		wire.PutBuf(out.body)
		return
	}
	if ended {
		wire.PutBuf(pc.c.body)
	}
	pc.done(out.body, out.err)
}
