package rpc

import (
	"sync"
	"sync/atomic"
	"time"

	"amber/internal/gaddr"
	"amber/internal/trace"
	"amber/internal/transport"
	"amber/internal/wire"
)

// Per-peer health detection. The design goal is a hot path that costs one
// atomic load when every peer is healthy: probes are sent only on suspicion
// (a call timed out, or a forwarder is about to route into a peer), never
// periodically, and all bookkeeping hides behind the downCount guard.
//
// A probe is a ping answered directly from the transport handler with a pong
// carrying the responder's *generation* — a number chosen at process start.
// A pong with a changed generation means the peer restarted since we last
// spoke: its memory (objects, hint caches, dedup window) is gone, and the
// OnPeerRestart callback lets upper layers discard state that pointed into
// the old incarnation.

// DefaultProbeTimeout bounds a health probe round-trip when the caller does
// not supply one. Probes bypass scheduling on both ends, so even a loaded
// peer answers within network latency.
const DefaultProbeTimeout = 250 * time.Millisecond

// DefaultRecheck is how long a down-mark is trusted before PeerDown kicks a
// fresh asynchronous probe to notice recovery.
const DefaultRecheck = time.Second

type peerHealth struct {
	down      bool
	downSince time.Time
	lastProbe time.Time
	probing   bool
	gen       uint64 // last generation seen in a pong (0 = never probed)

	// Clock-offset estimate for this peer, measured at the ping/pong
	// midpoint (see probe). offsetNs is "add to a peer timestamp to get the
	// local-clock equivalent"; offsetRTT is the round-trip the estimate was
	// taken under (tighter round-trips bound the estimate's error, so a
	// sample only replaces a previous one when its RTT is no worse or the
	// previous one has gone stale).
	offsetNs  int64
	offsetRTT int64
	offsetAt  time.Time
	offsetOK  bool
}

// offsetStale is how long a clock-offset estimate is preferred over a
// fresh, looser-RTT sample. Commodity clocks drift on the order of tens of
// ppm, so half a minute keeps the estimate well inside a trace's span
// widths.
const offsetStale = 30 * time.Second

// pongInfo is what a completed probe hands back to its waiter.
type pongInfo struct {
	gen      uint64
	remoteNs int64 // responder's wall clock when it answered (0 = absent)
}

type healthState struct {
	mu        sync.Mutex
	peers     map[gaddr.NodeID]*peerHealth
	downCount atomic.Int64 // fast-path guard: number of peers marked down
	probes    map[uint64]chan pongInfo
	probeID   atomic.Uint64
	gen       atomic.Uint64
	onRestart atomic.Pointer[func(gaddr.NodeID)]
	onDown    atomic.Pointer[func(gaddr.NodeID)]
	recheck   time.Duration
}

func (h *healthState) init() {
	h.peers = make(map[gaddr.NodeID]*peerHealth)
	h.probes = make(map[uint64]chan pongInfo)
	h.gen.Store(1)
	h.recheck = DefaultRecheck
}

func (h *healthState) peer(id gaddr.NodeID) *peerHealth {
	p := h.peers[id]
	if p == nil {
		p = &peerHealth{}
		h.peers[id] = p
	}
	return p
}

// SetGeneration sets the incarnation number this endpoint reports in pongs.
// Real deployments derive it from the process start time; in-process tests
// bump it to simulate a restart that lost memory.
func (ep *Endpoint) SetGeneration(gen uint64) {
	if gen == 0 {
		gen = 1
	}
	ep.health.gen.Store(gen)
}

// Generation returns this endpoint's incarnation number.
func (ep *Endpoint) Generation() uint64 { return ep.health.gen.Load() }

// OnPeerRestart registers a callback invoked (on a fresh goroutine) when a
// pong reveals that a peer is running a different incarnation than the one
// we last spoke to — i.e. it crashed and came back without its memory.
func (ep *Endpoint) OnPeerRestart(fn func(peer gaddr.NodeID)) {
	ep.health.onRestart.Store(&fn)
}

// OnPeerDown registers a callback invoked (on a fresh goroutine) each time a
// peer transitions from up to down — a probe failed while the peer was not
// already marked. Unlike OnPeerRestart it does not wait for the peer to come
// back: upper layers use it to drop soft state that is useless while the peer
// is unreachable (leases it granted, replicas sourced from it).
func (ep *Endpoint) OnPeerDown(fn func(peer gaddr.NodeID)) {
	ep.health.onDown.Store(&fn)
}

// PeerDown reports whether peer is currently believed dead. While any peer
// is marked down, a stale mark (older than the recheck window) triggers an
// asynchronous re-probe so recovery is noticed without blocking the caller.
// The healthy-cluster cost is one atomic load.
func (ep *Endpoint) PeerDown(peer gaddr.NodeID) bool {
	h := &ep.health
	if h.downCount.Load() == 0 {
		return false
	}
	h.mu.Lock()
	p := h.peers[peer]
	down := p != nil && p.down
	stale := down && time.Since(p.lastProbe) > h.recheck
	h.mu.Unlock()
	if stale {
		ep.WatchPeer(peer)
	}
	return down
}

// WatchPeer kicks an asynchronous health probe of peer, if one is not
// already in flight (singleflight) and the last probe is older than the
// recheck window (rate limit — forwarders call this on every hop). The
// result lands in the health table, not in the caller's lap.
func (ep *Endpoint) WatchPeer(peer gaddr.NodeID) {
	if peer == ep.Self() {
		return
	}
	h := &ep.health
	h.mu.Lock()
	p := h.peer(peer)
	if p.probing || (!p.lastProbe.IsZero() && time.Since(p.lastProbe) < h.recheck) {
		h.mu.Unlock()
		return
	}
	p.probing = true
	p.lastProbe = time.Now()
	h.mu.Unlock()
	go func() {
		err := ep.probe(peer, DefaultProbeTimeout)
		h.mu.Lock()
		h.peer(peer).probing = false
		h.mu.Unlock()
		if err != nil {
			ep.markDown(peer)
		}
		// Success already marked the peer up via the pong's noteAlive.
	}()
}

// checkDown classifies a call timeout: it synchronously probes the peer and
// reports true (dead) when the probe also fails. probeTimeout<=0 uses the
// default.
func (ep *Endpoint) checkDown(peer gaddr.NodeID, probeTimeout time.Duration) bool {
	if probeTimeout <= 0 {
		probeTimeout = DefaultProbeTimeout
	}
	ep.health.mu.Lock()
	ep.health.peer(peer).lastProbe = time.Now()
	ep.health.mu.Unlock()
	if err := ep.probe(peer, probeTimeout); err != nil {
		ep.markDown(peer)
		return true
	}
	return false
}

// probe sends one ping and waits for its pong (or the timeout). A pong from
// any probe of the same peer does not satisfy it — pings are matched by ID —
// which keeps the accounting trivial and probes cheap enough not to share.
//
// The pong carries the responder's wall clock, so every successful probe is
// also a clock-offset sample: assuming the network is roughly symmetric, the
// responder read its clock at the midpoint of our round-trip, and
// (t0+t1)/2 − remote is the per-peer offset used to align trace timestamps.
func (ep *Endpoint) probe(peer gaddr.NodeID, timeout time.Duration) error {
	h := &ep.health
	id := h.probeID.Add(1)
	ch := make(chan pongInfo, 1)
	h.mu.Lock()
	h.probes[id] = ch
	h.mu.Unlock()
	defer func() {
		h.mu.Lock()
		delete(h.probes, id)
		h.mu.Unlock()
	}()

	buf := wire.AppendUvarint(wire.GetBuf(), id)
	ep.counts.Inc("rpc_probes_sent")
	t0 := time.Now().UnixNano()
	if err := ep.tr.Send(peer, kindPing, buf); err != nil {
		ep.counts.Inc("rpc_probe_failures")
		return err
	}
	ep.ReleaseReaders() // the pong may need the caller's own link
	select {
	case pi := <-ch:
		t1 := time.Now().UnixNano()
		ep.noteGeneration(peer, pi.gen)
		if pi.remoteNs != 0 {
			rtt := t1 - t0
			ep.noteOffset(peer, t0+rtt/2-pi.remoteNs, rtt)
		}
		return nil
	case <-time.After(timeout):
		ep.counts.Inc("rpc_probe_failures")
		return ErrTimeout
	}
}

// handlePing answers a probe inline with this endpoint's generation and wall
// clock. The clock is read here — as close to the send as possible — because
// the prober treats it as the midpoint of its round-trip.
func (ep *Endpoint) handlePing(m transport.Message) {
	id, _, err := wire.ReadUvarint(m.Payload)
	wire.PutBuf(m.Payload)
	if err != nil {
		ep.counts.Inc("rpc_bad_request")
		return
	}
	buf := wire.AppendUvarint(wire.GetBuf(), id)
	buf = wire.AppendUvarint(buf, ep.health.gen.Load())
	buf = wire.AppendUvarint(buf, uint64(time.Now().UnixNano()))
	ep.tr.Send(m.From, kindPong, buf)
}

// handlePong completes the matching probe. The wall-clock field is optional
// (a pong without it still proves liveness, it just carries no offset
// sample).
func (ep *Endpoint) handlePong(m transport.Message) {
	id, rest, err := wire.ReadUvarint(m.Payload)
	if err != nil {
		wire.PutBuf(m.Payload)
		ep.counts.Inc("rpc_bad_reply")
		return
	}
	gen, rest, err := wire.ReadUvarint(rest)
	if err != nil {
		wire.PutBuf(m.Payload)
		ep.counts.Inc("rpc_bad_reply")
		return
	}
	var remoteNs int64
	if now, _, err := wire.ReadUvarint(rest); err == nil {
		remoteNs = int64(now)
	}
	wire.PutBuf(m.Payload)
	h := &ep.health
	h.mu.Lock()
	ch := h.probes[id]
	delete(h.probes, id)
	h.mu.Unlock()
	if ch != nil {
		ch <- pongInfo{gen: gen, remoteNs: remoteNs}
	}
}

// noteOffset records a clock-offset sample for peer. A new sample wins when
// there is none yet, when its round-trip is at least as tight as the stored
// one (tighter RTT → smaller asymmetry error), or when the stored estimate
// has aged past offsetStale.
func (ep *Endpoint) noteOffset(peer gaddr.NodeID, offsetNs, rttNs int64) {
	h := &ep.health
	h.mu.Lock()
	p := h.peer(peer)
	if !p.offsetOK || rttNs <= p.offsetRTT || time.Since(p.offsetAt) > offsetStale {
		p.offsetNs = offsetNs
		p.offsetRTT = rttNs
		p.offsetAt = time.Now()
		p.offsetOK = true
	}
	h.mu.Unlock()
}

// PeerClockOffset returns the estimated offset of peer's clock relative to
// ours: add the returned value to a timestamp taken on peer to get its
// local-clock equivalent. ok is false when no probe has sampled the peer yet
// (callers should then stitch timestamps unshifted rather than guess).
func (ep *Endpoint) PeerClockOffset(peer gaddr.NodeID) (offsetNs int64, ok bool) {
	if peer == ep.Self() {
		return 0, true
	}
	h := &ep.health
	h.mu.Lock()
	p := h.peers[peer]
	if p != nil && p.offsetOK {
		offsetNs, ok = p.offsetNs, true
	}
	h.mu.Unlock()
	return offsetNs, ok
}

// MeasureClockOffset probes peer synchronously and returns the resulting
// offset estimate. Use it to force a fresh sample before stitching a trace;
// steady-state callers read PeerClockOffset, which is fed for free by every
// health probe. timeout<=0 uses the probe default.
func (ep *Endpoint) MeasureClockOffset(peer gaddr.NodeID, timeout time.Duration) (int64, error) {
	if peer == ep.Self() {
		return 0, nil
	}
	if timeout <= 0 {
		timeout = DefaultProbeTimeout
	}
	if err := ep.probe(peer, timeout); err != nil {
		return 0, err
	}
	off, ok := ep.PeerClockOffset(peer)
	if !ok {
		// Peer answered but without a clock (foreign build); treat as aligned.
		return 0, nil
	}
	return off, nil
}

// markDown records that peer failed a probe.
func (ep *Endpoint) markDown(peer gaddr.NodeID) {
	h := &ep.health
	h.mu.Lock()
	p := h.peer(peer)
	was := p.down
	if !was {
		p.down = true
		p.downSince = time.Now()
		h.downCount.Add(1)
	}
	p.lastProbe = time.Now()
	h.mu.Unlock()
	if !was {
		ep.counts.Inc("rpc_peer_down_marks")
		if fn := h.onDown.Load(); fn != nil {
			go (*fn)(peer)
		}
		if trace.GlobalOn() {
			trace.GlobalEmit(trace.Event{Kind: trace.KPeerDown,
				Node: int32(ep.Self()), Arg: int64(peer)})
		}
	}
}

// noteAlive clears a down-mark when any traffic arrives from the peer. Called
// from onMessage only while downCount != 0.
func (ep *Endpoint) noteAlive(peer gaddr.NodeID) {
	h := &ep.health
	h.mu.Lock()
	p := h.peers[peer]
	was := p != nil && p.down
	if was {
		p.down = false
		h.downCount.Add(-1)
	}
	h.mu.Unlock()
	if was {
		if trace.GlobalOn() {
			trace.GlobalEmit(trace.Event{Kind: trace.KPeerUp,
				Node: int32(ep.Self()), Arg: int64(peer)})
		}
	}
}

// noteGeneration records the incarnation a pong reported and fires the
// restart callback when it changed. The pong itself also cleared any
// down-mark via noteAlive.
func (ep *Endpoint) noteGeneration(peer gaddr.NodeID, gen uint64) {
	h := &ep.health
	h.mu.Lock()
	p := h.peer(peer)
	prev := p.gen
	p.gen = gen
	h.mu.Unlock()
	if prev != 0 && prev != gen {
		ep.counts.Inc("rpc_peer_restarts_seen")
		if fn := h.onRestart.Load(); fn != nil {
			go (*fn)(peer)
		}
	}
}
