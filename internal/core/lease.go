package core

import (
	"sync"
	"time"

	"amber/internal/gaddr"
	"amber/internal/rpc"
	"amber/internal/wire"
)

// The coherence layer for mutable objects (DESIGN.md §14). Immutable
// replication (§2.3, replica.go) is the degenerate case of coherence where
// invalidation never happens; this file supplies the general case: bounded-
// lifetime cached read copies — reader leases — invalidated by an epoch bump
// on every mutating invoke.
//
// Protocol shape:
//
//   - Opt-in: Ctx.SetCacheable marks a mutable object lease-granting (the
//     leasable bit in the packed word).
//   - Grant: a remote read-only invoke on a leasable object piggybacks the
//     object's snapshot on the reply, exactly like the immutable replica
//     path, plus a lease lifetime. The origin installs a resident copy with
//     the lease bit, an expiry, and the grant's residency epoch. While the
//     lease stands, local read-only invokes are served with zero messages.
//   - Invalidate: a mutating invoke at the holder runs under the object's
//     exclusive coherence lock, bumps the residency epoch, and then *fences*:
//     it sends a revoke to every peer whose recorded grant is older than the
//     new epoch and blocks until each acks (or a TTL-bounded timeout, by
//     which time the remote lease has self-expired). Only then is the write's
//     reply released — so no read anywhere can observe a value older than
//     the last acknowledged write.
//   - Degenerate: a revoked or expired lease becomes a forwarding tombstone
//     aimed at the grantor, with the revoke's (strictly newer) epoch — the
//     already-tested Fowler forwarding path takes over, and the stale-install
//     rule (`epoch < tombstone epoch → drop`) kills any grant still queued in
//     the installer when the revoke lands.
//
// Clock independence: the wire carries lease *durations*, never absolute
// times; each side stamps expiry with its own clock. Correctness never rests
// on the TTL — the fence round does the real invalidation — so clock skew
// only stretches the liveness bound on fence timeouts.

// leaseClockSlack pads the grantor's bookkeeping expiry and the fence
// timeout, covering scheduling delay between the grant decision and the
// receiver stamping its own expiry.
const leaseClockSlack = 500 * time.Millisecond

// leaseGrant is one bookkeeping entry at the grantor: a peer was sent a
// lease no older than epoch, unusable remotely past expiry (grantor clock).
// The entry's epoch is the MINIMUM over grants in the current expiry window:
// a re-grant must not hide an older copy that may still be live at the peer.
type leaseGrant struct {
	epoch  uint64
	expiry int64 // UnixNano, grantor clock; liveness bound only
}

// leaseRecord registers an outgoing grant to peer BEFORE its snapshot is
// encoded, and returns the epoch the grant carries. The ordering is what
// makes the grant/write race safe: a writer bumps the epoch first and
// collects the table second, so any grant recorded before the bump is seen
// by the collect (and fenced), while a grant recorded after the bump carries
// the post-write epoch and encodes post-write state (its encode takes the
// shared coherence lock, excluded during the method body).
func (n *Node) leaseRecord(obj gaddr.Addr, peer gaddr.NodeID, d *descriptor) uint64 {
	exp := time.Now().Add(n.leaseTTL + leaseClockSlack).UnixNano()
	n.leaseMu.Lock()
	cur := d.Epoch()
	m := n.leaseGrants[obj]
	if m == nil {
		m = make(map[gaddr.NodeID]leaseGrant, 2)
		n.leaseGrants[obj] = m
	}
	rec := cur
	if g, ok := m[peer]; ok {
		if g.epoch < rec {
			rec = g.epoch // an older copy may still be live there
		}
		if g.expiry > exp {
			exp = g.expiry
		}
	}
	m[peer] = leaseGrant{epoch: rec, expiry: exp}
	n.leaseMu.Unlock()
	return cur
}

// leaseGrantTo attaches a reader lease to the reply of a successful remote
// read-only invoke: record the grant, then encode the object's state under
// the shared coherence lock. Called after runPinned has released its pin, so
// it re-pins; a failed re-pin means the object's state flipped underneath
// (move, eviction) and the grant is silently abandoned — the origin just
// stays cold.
//
// On a grant ir.SnapState is a pooled buffer the caller owns.
//
// A grant recorded here is NEVER unrecorded on a later failure: the entry
// may also cover an earlier, still-live lease at the same peer, and erasing
// it would let the next write skip that peer's revoke. A spurious entry only
// costs one redundant revoke round; it is pruned at expiry.
func (n *Node) leaseGrantTo(peer gaddr.NodeID, d *descriptor, obj gaddr.Addr, max uint64, ir *invokeReply) {
	if !d.TryPin() {
		return
	}
	defer n.unpin(d)
	p := d.Payload
	if p.ti == nil || !p.ti.serializable {
		return
	}
	epoch := n.leaseRecord(obj, peer, d)
	var state []byte
	if p.ti.hasState {
		d.Coh.RLock()
		b, err := wire.Marshal(p.obj.Elem().Interface())
		d.Coh.RUnlock()
		if err != nil {
			n.counts.Inc("lease_snap_errors")
			return
		}
		if uint64(len(b)) > max {
			wire.PutBuf(b)
			n.counts.Inc("lease_snaps_oversize")
			return
		}
		// The pooled encode buffer itself rides in ir until the reply frame
		// has copied it; the caller returns it to the pool then.
		state = b
	}
	ir.Lease = true
	ir.LeaseNs = uint64(n.leaseTTL)
	ir.Epoch = epoch
	ir.SnapType = p.ti.name
	ir.SnapState = state
	n.cLeaseGrants.Inc()
}

// leaseCollect snapshots the grants for obj older than epoch — the fence
// targets — pruning entries whose expiry has passed (dead everywhere, no
// revoke owed). Entries are NOT removed here: removal happens only after the
// peer acks its revoke (compare-and-delete in leaseRevokeRound), so a lost
// revoke keeps the peer on the hook for the next write's fence.
func (n *Node) leaseCollect(obj gaddr.Addr, epoch uint64) map[gaddr.NodeID]leaseGrant {
	now := time.Now().UnixNano()
	n.leaseMu.Lock()
	m := n.leaseGrants[obj]
	var out map[gaddr.NodeID]leaseGrant
	for peer, g := range m {
		if g.expiry <= now {
			delete(m, peer)
			continue
		}
		if g.epoch < epoch {
			if out == nil {
				out = make(map[gaddr.NodeID]leaseGrant, len(m))
			}
			out[peer] = g
		}
	}
	if len(m) == 0 {
		delete(n.leaseGrants, obj)
	}
	n.leaseMu.Unlock()
	return out
}

// leaseWriteFence is the write path's coherence step, run by runPinned after
// a mutating invoke on a leasable object has released the exclusive
// coherence lock: bump the residency epoch (the invalidation signal) and
// fence every older grant. The calling thread blocks — relinquishing its
// processor slot — until the fence completes, so the write's reply cannot
// outrun the invalidations.
func (n *Node) leaseWriteFence(c *Ctx, d *descriptor, obj gaddr.Addr) {
	n.leaseFence(c, obj, d.BumpEpoch(), n.id)
}

// leaseFence revokes every grant on obj older than epoch, directing the
// revoked holders' tombstones at src, and blocks until each peer acks or the
// TTL-bounded timeout passes (by which point the remote lease has
// self-expired: its expiry is its receipt time plus TTL, and receipt
// preceded this fence). c, when non-nil, is the thread to park while
// waiting; nil callers (move shipment goroutines) block directly.
func (n *Node) leaseFence(c *Ctx, obj gaddr.Addr, epoch uint64, src gaddr.NodeID) {
	targets := n.leaseCollect(obj, epoch)
	if len(targets) == 0 {
		return
	}
	n.counts.Inc("lease_fences")
	round := func() { n.leaseRevokeRound(obj, epoch, src, targets) }
	if c != nil {
		c.Block(round)
	} else {
		round()
	}
}

// leaseRevokeRound sends the revokes in parallel and awaits them all. A peer
// believed down is skipped: it cannot ack, its copy dies with it (or at
// expiry, if it is merely partitioned — the documented staleness bound), and
// purgePeer has already dropped its grants.
func (n *Node) leaseRevokeRound(obj gaddr.Addr, epoch uint64, src gaddr.NodeID, targets map[gaddr.NodeID]leaseGrant) {
	timeout := n.leaseTTL + leaseClockSlack
	if n.cfg.RPCTimeout > 0 && n.cfg.RPCTimeout < timeout {
		timeout = n.cfg.RPCTimeout
	}
	var wg sync.WaitGroup
	for peer, g := range targets {
		if peer == n.id {
			continue
		}
		if n.ep.PeerDown(peer) {
			continue
		}
		body, err := wire.MarshalInto(&leaseMsg{Obj: obj, Epoch: epoch, Src: src})
		if err != nil {
			continue
		}
		wg.Add(1)
		go func(peer gaddr.NodeID, g leaseGrant, body []byte) {
			defer wg.Done()
			n.counts.Inc("lease_invalidations_sent")
			resp, err := n.ep.CallTimeout(peer, procLease, body, timeout)
			if err != nil {
				n.counts.Inc("lease_fence_timeouts")
				return
			}
			wire.PutBuf(resp)
			// Acked: the peer's copy is dead. Drop the bookkeeping entry —
			// but only if it still describes the grant we fenced; a re-grant
			// issued during this round must stay on the hook.
			n.leaseMu.Lock()
			if m := n.leaseGrants[obj]; m != nil {
				if cur, ok := m[peer]; ok && cur == g {
					delete(m, peer)
					if len(m) == 0 {
						delete(n.leaseGrants, obj)
					}
				}
			}
			n.leaseMu.Unlock()
		}(peer, g, body)
	}
	wg.Wait()
}

// leaseDropGrants forgets all grant bookkeeping for obj (the object became
// immutable, or was deleted after its fence). Caller has already fenced or
// made fencing moot.
func (n *Node) leaseDropGrants(obj gaddr.Addr) {
	n.leaseMu.Lock()
	delete(n.leaseGrants, obj)
	n.leaseMu.Unlock()
}

// handleLease services procLease: a revoke from a grantor (or its move
// successor). The descriptor is ALWAYS ensured, even when this node has no
// resident lease: the grant that prompted this revoke may still be queued in
// the installer, and only a strictly-newer forwarding tombstone left here
// makes the stale-install rule drop it. The ack is the fence's
// synchronization point — after it, no read on this node can return state
// older than msg.Epoch.
func (n *Node) handleLease(rc *rpc.Ctx) {
	var msg leaseMsg
	if err := wire.UnmarshalFrom(rc.Body, &msg); err != nil {
		rc.Reply(nil, err)
		return
	}
	n.counts.Inc("lease_revokes")
	dropTracked := false
	d := n.descEnsure(msg.Obj)
	d.Lock()
	switch d.State() {
	case stateResident:
		if d.Lease() {
			// Stop serving immediately — even a pinned copy refuses new
			// reads once the expiry is zeroed — and advance the epoch so a
			// queued stale install cannot resurrect the old value. The zero
			// expiry also marks the copy dead for installLease: the next
			// grant carries this same epoch with post-write state, and must
			// replace the copy rather than renew it.
			d.SetLeaseExpiry(0)
			if msg.Epoch > d.Epoch() {
				d.SetEpochLocked(msg.Epoch)
			}
			// Mark-then-check teardown, as for replica eviction: flipping to
			// moving makes lock-free TryPin refuse new pins, so the count
			// read below cannot race upward. A pinned copy (an invoke racing
			// the revoke) stays resident-but-dead and is torn down later by
			// the eviction path.
			if pins := d.SetStateLocked(stateMoving); pins > 0 {
				d.SetStateLocked(stateResident)
				d.Broadcast()
			} else {
				d.SetStateLocked(stateForwarded)
				d.Fwd = msg.Src
				d.SetLeaseLocked(false)
				d.Payload = payload{}
				d.Broadcast()
				dropTracked = true
			}
		}
		// Resident without the lease bit: the real object lives here now
		// (it moved in after the grant); local truth wins over the revoke.
	case stateAbsent, stateForwarded:
		// No resident copy — land/refresh the tombstone that kills any
		// queued install carrying a pre-revoke snapshot.
		if msg.Epoch > d.Epoch() {
			d.SetStateLocked(stateForwarded)
			d.Fwd = msg.Src
			d.SetEpochLocked(msg.Epoch)
		}
	default:
		// Moving or deleted: newer local truth wins.
	}
	d.Unlock()
	if dropTracked {
		n.space.ReplicaDrop(msg.Obj)
	}
	rc.Reply(nil, nil)
}

// leaseRedirect classifies an invocation that pinned a resident lease copy:
// serve it locally, or forward to the copy's source. Serveable means all of
//
//   - a plain invoke originating on this node (an empty chain — every
//     shipped message has appended at least its origin). A remote arrival
//     must forward: serving it would teach the origin a wrong location and
//     bypass the grantor's bookkeeping.
//   - the lease is live (expiry stamped from our own clock, zeroed by
//     revokes),
//   - the operation is read-only (registry bit or per-call declaration).
//
// Called with the pin held; the caller releases it when forwarding.
func (n *Node) leaseRedirect(d *descriptor, msg *routedMsg) (to gaddr.NodeID, serve bool) {
	src := d.Payload.src // stable under the pin
	if msg.Op != opInvoke || len(msg.Chain) != 0 {
		return src, false
	}
	if exp := d.LeaseExpiry(); exp == 0 || time.Now().UnixNano() >= exp {
		n.counts.Inc("lease_stale")
		return src, false
	}
	readOnly := msg.Flags&rmFlagReadOnly != 0
	if !readOnly {
		if ti := d.Payload.ti; ti != nil {
			if mi, ok := ti.methods[msg.Method]; ok {
				readOnly = mi.readOnly
			}
		}
	}
	if !readOnly {
		n.counts.Inc("lease_write_forwards")
		return src, false
	}
	return 0, true
}

// purgePeer drops every piece of soft state sourced from peer: location
// hints, and the replicas/leases pulled from it. Fired by the health plane
// both when the peer is marked down and when it is seen restarted — a lease
// granted by a dead incarnation must not serve pre-crash reads, and a
// replica's forward target is gone either way. Grants TO the peer are
// dropped too, so writes stop burning fence timeouts on it.
func (n *Node) purgePeer(peer gaddr.NodeID) {
	n.dropHintsTo(peer)
	for _, v := range n.space.DropReplicasFrom(peer) {
		if !n.evictReplica(v.Addr, v.Source) {
			// Pinned by an executing invoke: a lease must stop serving new
			// reads NOW (zeroed expiry), then stays tracked for the normal
			// eviction path to finish tearing down.
			if v.Lease {
				if d := n.desc(v.Addr); d != nil {
					d.SetLeaseExpiry(0)
				}
			}
			n.space.ReplicaRetrack(v.Addr, v.Source, v.Lease)
			n.counts.Inc("replica_evictions_busy")
			continue
		}
		if v.Lease {
			n.counts.Inc("lease_purged_down")
		} else {
			n.counts.Inc("replicas_purged_down")
		}
	}
	dropped := 0
	n.leaseMu.Lock()
	for obj, m := range n.leaseGrants {
		if _, ok := m[peer]; ok {
			delete(m, peer)
			dropped++
			if len(m) == 0 {
				delete(n.leaseGrants, obj)
			}
		}
	}
	n.leaseMu.Unlock()
	if dropped > 0 {
		n.counts.Add("lease_grants_dropped_down", int64(dropped))
	}
}
