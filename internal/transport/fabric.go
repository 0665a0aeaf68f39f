package transport

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"amber/internal/gaddr"
	"amber/internal/stats"
	"amber/internal/wire"
)

// Fabric is an in-process network. Every pair of attached nodes is connected
// by a dedicated link whose delivery applies the fabric's NetProfile and
// preserves FIFO order.
type Fabric struct {
	profile NetProfile
	mu      sync.RWMutex
	ports   map[gaddr.NodeID]*port
	links   map[linkKey]*link
	fault   func(Message) bool
	faults  atomic.Pointer[Faults]
	closed  bool
	done    chan struct{}
	counts  *stats.Set
}

type linkKey struct{ from, to gaddr.NodeID }

// NewFabric creates a fabric with the given delay profile.
func NewFabric(profile NetProfile) *Fabric {
	return &Fabric{
		profile: profile,
		ports:   make(map[gaddr.NodeID]*port),
		links:   make(map[linkKey]*link),
		done:    make(chan struct{}),
		counts:  stats.NewSet(),
	}
}

// Profile returns the fabric's delay model.
func (f *Fabric) Profile() NetProfile { return f.profile }

// Stats exposes fabric-wide counters: msgs, bytes.
func (f *Fabric) Stats() *stats.Set { return f.counts }

// SetFault installs a fault hook; messages for which it returns true are
// silently dropped. Used by tests to exercise error paths. Pass nil to clear.
func (f *Fabric) SetFault(fn func(Message) bool) {
	f.mu.Lock()
	f.fault = fn
	f.mu.Unlock()
}

// SetFaults attaches a scriptable fault injector. Pass nil to detach. Unlike
// the SetFault hook (an all-or-nothing drop predicate for tests), a Faults
// controller models crashes, partitions and lossy links with seeded
// randomness — see Faults for the full model.
func (f *Fabric) SetFaults(fl *Faults) { f.faults.Store(fl) }

// Faults returns the attached fault injector (nil if none).
func (f *Fabric) Faults() *Faults { return f.faults.Load() }

// Attach connects node id to the fabric and returns its transport.
func (f *Fabric) Attach(id gaddr.NodeID) (Transport, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil, ErrClosed
	}
	if _, dup := f.ports[id]; dup {
		return nil, fmt.Errorf("transport: node %d already attached", id)
	}
	p := &port{fabric: f, id: id}
	p.readers.init(f.counts)
	f.ports[id] = p
	return p, nil
}

// Close shuts down the fabric and all links.
func (f *Fabric) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil
	}
	f.closed = true
	close(f.done)
	return nil
}

// link carries messages from one node to another in FIFO order, honouring
// the delay model. busyUntil tracks when the wire frees up (bandwidth
// serialization).
type link struct {
	reader
	ch        chan timedMessage
	mu        sync.Mutex
	busyUntil time.Time
}

type timedMessage struct {
	msg       Message
	deliverAt time.Time
}

func (f *Fabric) getLink(from, to gaddr.NodeID, dst *port) *link {
	key := linkKey{from, to}
	f.mu.RLock()
	l := f.links[key]
	f.mu.RUnlock()
	if l != nil {
		return l
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if l = f.links[key]; l != nil {
		return l
	}
	if f.closed {
		return nil
	}
	l = &link{ch: make(chan timedMessage, 1024)}
	l.spawn = func() { go f.deliver(l, dst) }
	f.links[key] = l
	dst.readers.add(&l.reader)
	go f.deliver(l, dst)
	return l
}

// deliver sleeps until each message's delivery time, then runs the
// destination handler on it. One reader goroutine per link keeps per-link
// FIFO order; it returns when the link is handed to a fresh deliver while a
// handler runs.
func (f *Fabric) deliver(l *link, dst *port) {
	for {
		select {
		case <-f.done:
			return
		case tm := <-l.ch:
			if d := time.Until(tm.deliverAt); d > 0 {
				select {
				case <-f.done:
					return
				case <-time.After(d):
				}
			}
			// Delivery-time recheck: a crash or cut that lands while the
			// message is in flight still loses it (the wire had it, the
			// destination never will).
			if !f.faults.Load().DeliverOK(tm.msg.From, tm.msg.To) {
				f.counts.Inc("msgs_dropped")
				wire.PutBuf(tm.msg.Payload)
				continue
			}
			h := dst.handler()
			if h != nil && !dst.isClosed() {
				// Zero-copy: the handler now owns Payload.
				if !dst.readers.handle(&l.reader, h, tm.msg) {
					return
				}
			} else {
				wire.PutBuf(tm.msg.Payload) // undeliverable; reclaim
			}
		}
	}
}

type port struct {
	fabric  *Fabric
	id      gaddr.NodeID
	readers readers // the delivery goroutines of the links into this node
	mu      sync.RWMutex
	h       Handler
	closed  bool
}

func (p *port) Self() gaddr.NodeID { return p.id }

// ReleaseReaders implements Transport.
func (p *port) ReleaseReaders() { p.readers.release() }

func (p *port) SetHandler(h Handler) {
	p.mu.Lock()
	p.h = h
	p.mu.Unlock()
}

func (p *port) handler() Handler {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.h
}

func (p *port) isClosed() bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.closed
}

func (p *port) Close() error {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	return nil
}

// SendNoFlush implements Coalescer. The fabric delivers per message — there
// is no socket buffer to coalesce — so it is exactly Send; Kick is a no-op.
// Providing the interface keeps the RPC layer's pipelined path free of
// per-transport type switches.
func (p *port) SendNoFlush(to gaddr.NodeID, kind Kind, payload []byte) error {
	return p.Send(to, kind, payload)
}

// Kick implements Coalescer (no-op: nothing is ever buffered).
func (p *port) Kick(gaddr.NodeID) {}

func (p *port) Send(to gaddr.NodeID, kind Kind, payload []byte) error {
	if p.isClosed() {
		return ErrClosed
	}
	if to == p.id {
		return ErrSelfSend
	}
	f := p.fabric
	f.mu.RLock()
	dst, ok := f.ports[to]
	fault := f.fault
	closed := f.closed
	f.mu.RUnlock()
	faults := f.faults.Load()
	if closed {
		return ErrClosed
	}
	if !ok || dst.isClosed() {
		return fmt.Errorf("%w: %d", ErrUnknownNode, to)
	}
	msg := Message{From: p.id, To: to, Kind: kind, Payload: payload}
	if fault != nil && fault(msg) {
		f.counts.Inc("msgs_dropped")
		wire.PutBuf(payload) // accepted (nil return) means we own it
		return nil           // dropped silently, like a lossy wire
	}
	verdict := faults.Judge(p.id, to)
	if verdict.Drop {
		f.counts.Inc("msgs_dropped")
		wire.PutBuf(payload)
		return nil // fail-stop silence: the sender cannot tell
	}
	l := f.getLink(p.id, to, dst)
	if l == nil {
		return ErrClosed
	}

	// Compute delivery time: the wire serializes transmissions, then the
	// message propagates with the profile latency, plus any injected delay.
	now := time.Now()
	tx := f.profile.TransmitTime(len(payload))
	l.mu.Lock()
	start := l.busyUntil
	if start.Before(now) {
		start = now
	}
	l.busyUntil = start.Add(tx)
	deliverAt := l.busyUntil.Add(f.profile.Latency + verdict.Delay)
	l.mu.Unlock()

	f.counts.Inc("msgs_sent")
	f.counts.Add("bytes_sent", int64(len(payload)+headerBytes))
	f.counts.Add(kindSentBytes[kind], int64(len(payload)))
	if verdict.Duplicate {
		// The transport owns each sent buffer exactly once, so the duplicate
		// needs its own pooled copy of the payload.
		dup := wire.GetBufN(len(payload))
		copy(dup, payload)
		dmsg := msg
		dmsg.Payload = dup
		select {
		case l.ch <- timedMessage{msg: dmsg, deliverAt: deliverAt}:
		case <-f.done:
			wire.PutBuf(dup)
			return ErrClosed
		}
	}
	select {
	case l.ch <- timedMessage{msg: msg, deliverAt: deliverAt}:
		return nil
	case <-f.done:
		return ErrClosed
	}
}
