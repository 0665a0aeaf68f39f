// Package transport carries Amber protocol messages between nodes. It plays
// the role of the Ethernet + Topaz network service in the original system.
//
// Two implementations are provided:
//
//   - Fabric: an in-process network connecting nodes that live in one OS
//     process. Links apply a configurable latency + bandwidth delay model, so
//     a single-machine run can reproduce the communication economics of the
//     paper's 10 Mbit/s Ethernet (remote references three to four orders of
//     magnitude more expensive than local ones).
//   - TCP: a real socket transport for multi-process deployments (cmd/amberd).
//
// Delivery is FIFO per (sender, receiver) link. Handlers are invoked on the
// link's delivery goroutine and must not block indefinitely; the RPC layer
// above dispatches long-running work onto fresh goroutines.
package transport

import (
	"errors"
	"strconv"
	"time"

	"amber/internal/gaddr"
)

// Kind tags the protocol family of a message (request, reply, oneway...);
// values are defined by the RPC layer.
type Kind uint8

// Message is one unit of delivery.
type Message struct {
	From    gaddr.NodeID
	To      gaddr.NodeID
	Kind    Kind
	Payload []byte
}

// Handler receives inbound messages. It is called on the delivery goroutine
// of the (from → self) link, in per-link FIFO order.
type Handler func(Message)

// Transport is one node's attachment to the network.
//
// Buffer ownership (DESIGN.md §6.2): a successful Send takes ownership of
// payload — the caller must not touch it afterwards (it may be delivered
// zero-copy, or recycled into the wire buffer pool once copied toward a
// socket). When Send returns an error, ownership stays with the caller.
// Symmetrically, a Handler receives ownership of Message.Payload; the RPC
// layer recycles inbound payloads when it is done with them. Recycling is
// always optional — an orphaned buffer is just garbage-collected.
type Transport interface {
	// Self returns the node this transport belongs to.
	Self() gaddr.NodeID
	// Send transmits a message. It returns once the message is accepted for
	// (delayed) delivery, not once it is delivered.
	Send(to gaddr.NodeID, kind Kind, payload []byte) error
	// SetHandler installs the inbound message handler. It must be called
	// before any peer sends to this node.
	SetHandler(Handler)
	// Close detaches the node; subsequent Sends fail.
	Close() error
}

// Per-kind byte-counter names, precomputed so the send/receive hot paths
// never format strings. Indexed by Kind.
var (
	kindSentBytes [256]string
	kindRecvBytes [256]string
)

func init() {
	for i := range kindSentBytes {
		kindSentBytes[i] = "bytes_sent_k" + strconv.Itoa(i)
		kindRecvBytes[i] = "bytes_recv_k" + strconv.Itoa(i)
	}
}

// Coalescer is an optional Transport extension for request pipelining. A
// sender issuing a burst of messages to one peer calls SendNoFlush for each
// and Kick once at the end, so the whole burst shares one socket write
// instead of paying one per message. Semantics:
//
//   - SendNoFlush is Send minus the flush: the frame is buffered toward the
//     peer (taking payload ownership exactly like Send) and left there. It
//     still reaches the wire eventually — a later Send or Kick to the same
//     peer writes out everything buffered, and a full buffer drains inline —
//     so forgetting to Kick degrades latency, never correctness... on the TCP
//     transport. On transports that deliver per-message (the in-process
//     fabric), SendNoFlush is identical to Send.
//   - Kick writes out, on the caller's goroutine, whatever is buffered toward
//     the peer; a no-op when nothing is buffered or the transport has no
//     buffer.
//
// Transports that never buffer (the fabric) implement the interface as
// Send/no-op so callers need not type-switch per message.
type Coalescer interface {
	SendNoFlush(to gaddr.NodeID, kind Kind, payload []byte) error
	Kick(to gaddr.NodeID)
}

// Errors returned by transports.
var (
	ErrClosed      = errors.New("transport: closed")
	ErrUnknownNode = errors.New("transport: unknown destination node")
	ErrSelfSend    = errors.New("transport: send to self")
)

// headerBytes approximates per-message framing overhead (Ethernet + IP/UDP
// era headers) charged to the bandwidth model.
const headerBytes = 64

// NetProfile models link performance. The zero value is an "infinitely fast"
// network (still asynchronous, but with no injected delay).
type NetProfile struct {
	// Latency is the one-way message latency independent of size: media
	// propagation plus protocol/interrupt handling. Half of a null-RPC's
	// round-trip time.
	Latency time.Duration
	// BandwidthBps is the link bandwidth in bytes per second; 0 means
	// unlimited. Transmissions on one link serialize against each other.
	BandwidthBps int64
}

// TransmitTime returns the time the wire is occupied sending size payload
// bytes (plus framing) at the profile's bandwidth.
func (p NetProfile) TransmitTime(size int) time.Duration {
	if p.BandwidthBps <= 0 {
		return 0
	}
	bits := time.Duration(size + headerBytes)
	return bits * time.Second / time.Duration(p.BandwidthBps)
}

// OneWay returns the full one-way delay for a message of the given payload
// size, ignoring queueing.
func (p NetProfile) OneWay(size int) time.Duration {
	return p.Latency + p.TransmitTime(size)
}

// Instant is a profile with no injected delay, used by functional tests.
var Instant = NetProfile{}

// Ethernet1989 approximates the paper's testbed: 10 Mbit/s Ethernet with
// Topaz RPC software costs. The paper measures a remote invoke/return (one
// request + one reply, both small) at 8.32 ms; we attribute ~4 ms of latency
// to each direction with 1.25 MB/s of bandwidth on top.
var Ethernet1989 = NetProfile{
	Latency:      4 * time.Millisecond,
	BandwidthBps: 10_000_000 / 8,
}

// FastLAN approximates a modern 10 GbE datacenter link, used to show how the
// latency/compute balance shifts (the paper's §5 prediction that CPU overhead
// shrinks while network latency endures).
var FastLAN = NetProfile{
	Latency:      20 * time.Microsecond,
	BandwidthBps: 10_000_000_000 / 8,
}
