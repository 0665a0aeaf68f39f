package core

import (
	"reflect"
	"time"

	"amber/internal/gaddr"
	"amber/internal/trace"
	"amber/internal/wire"
)

// Read-path replication (§2.3). An immutable object never changes, so any
// node may hold a byte-identical copy and serve invocations locally with no
// coherence traffic — the degenerate case where invalidation is unnecessary.
// The runtime exploits this on the invoke path: a routed invocation that
// executes on an immutable object piggybacks the object's snapshot on the
// reply (bounded by the origin's SnapMax), and the origin installs a local
// replica so every subsequent invoke takes the resident fast path.
//
// Replicas share the source's residency epoch: a copy is not a move, so the
// version of the residency does not advance (executeMove's immutable branch
// makes the same choice). That is what lets a replica install land on top of
// a forwarding tombstone with an *equal* epoch — the tombstone describes the
// same residency version the replica carries.
//
// Demand-pulled replicas are tracked in the objspace replica cache and
// evicted FIFO under capacity pressure; eviction tears the local copy down to
// a forwarding tombstone aimed at the replica's source. Explicitly placed
// copies (MoveTo on an immutable object) are NOT tracked: the user asked for
// that placement, so the cache never reclaims it.

// replicaSnapshot returns the pre-encoded snapshot of a resident immutable
// object for piggybacking on an invoke reply, or ("", nil) when none should
// be sent (object not pinnable, not serializable, or over max). The encoding
// is computed once per object and cached in the payload's snap cell.
func (n *Node) replicaSnapshot(d *descriptor, max uint64) (string, []byte) {
	if !d.TryPin() {
		return "", nil
	}
	defer n.unpin(d)
	p := d.Payload
	if p.ti == nil || !p.ti.serializable || p.snap == nil {
		return "", nil
	}
	if !p.ti.hasState {
		return p.ti.name, nil // stateless type: the name is the whole snapshot
	}
	enc := p.snap.v.Load()
	if enc == nil {
		// First snapshot-bearing reply for this object: encode under the pin
		// (safe — the object is immutable, so this read cannot race a write)
		// and publish through the atomic. A racing second encoder stores an
		// equivalent encoding; either winning is fine.
		b, err := wire.Marshal(p.obj.Elem().Interface())
		if err != nil {
			n.counts.Inc("replica_snap_errors")
			return "", nil
		}
		// Cache an exact-size copy and recycle the pooled encode buffer: the
		// cell holds its bytes for the object's lifetime, and keeping pooled
		// buffers captive would drain the wire pool one object at a time.
		owned := append(make([]byte, 0, len(b)), b...)
		wire.PutBuf(b)
		p.snap.v.Store(&owned)
		enc = &owned
		n.counts.Inc("replica_snaps_encoded")
	}
	if uint64(len(*enc)) > max {
		n.counts.Inc("replica_snaps_oversize")
		return "", nil
	}
	return p.ti.name, *enc
}

// replicaInstall is one queued unit of installer work: a snapshot pulled off
// an invoke reply, waiting for the node's installer worker. With lease set it
// carries a reader lease on a mutable object (ttl is the grant's lifetime in
// nanoseconds); otherwise an immutable replica.
type replicaInstall struct {
	obj   gaddr.Addr
	from  gaddr.NodeID
	typ   string
	state []byte // owned by the queue entry, not aliasing a pooled buffer
	epoch uint64
	lease bool
	ttl   int64
}

// queueReplicaInstall hands a snapshot to the installer worker without ever
// blocking the invoke path. A full queue sheds the install: the snapshot
// rides every cold reply, so a later miss re-offers it.
func (n *Node) queueReplicaInstall(r replicaInstall) {
	select {
	case n.installq <- r:
	default:
		n.counts.Inc("replica_installs_shed")
	}
}

// replicaWorker drains installq until the node closes. One worker per node:
// installs are quick (a decode plus a descriptor publish), and serializing
// them removes install/install races from the common path without taking the
// per-install goroutine spawn on every cold miss.
func (n *Node) replicaWorker() {
	for {
		select {
		case r := <-n.installq:
			if r.lease {
				n.installLease(r)
			} else {
				n.installReplica(r.obj, r.from, r.typ, r.state, r.epoch)
			}
		case <-n.stopc:
			return
		}
	}
}

// installReplica installs a piggybacked snapshot as a local read replica.
// state must be owned by the caller (not aliasing a pooled reply buffer).
// Runs on the installer worker, off the invoke reply path: the install costs
// a decode, which would otherwise be charged to the first (cold) call's
// latency.
func (n *Node) installReplica(obj gaddr.Addr, from gaddr.NodeID, typeName string, state []byte, epoch uint64) {
	if from == n.id || epoch == 0 {
		return
	}
	// Cheap pre-check before paying for the decode: racing installs of a hot
	// object are common (every reply before the first install completes
	// carries a snapshot), and all but one should drop here.
	if d := n.desc(obj); d != nil {
		switch d.State() {
		case stateResident, stateMoving, stateDeleted:
			n.counts.Inc("replica_installs_dropped")
			return
		}
		if d.Epoch() > epoch {
			n.counts.Inc("replica_installs_stale")
			return
		}
	}
	ti, err := n.reg.lookupName(typeName)
	if err != nil {
		n.counts.Inc("replica_install_errors")
		return
	}
	var pv reflect.Value
	cell := &snapCell{}
	if len(state) > 0 {
		sv, err := wire.UnmarshalStruct(state)
		if err != nil {
			n.counts.Inc("replica_install_errors")
			return
		}
		if sv.Type() != ti.elem {
			n.counts.Inc("replica_install_errors")
			return
		}
		if sv.CanAddr() {
			pv = sv.Addr() // fast-codec decode: adopt the struct in place
		} else {
			pv = reflect.New(ti.elem)
			pv.Elem().Set(sv)
		}
		cell.v.Store(&state) // decoded from these exact bytes: reuse as the cached encoding
	} else {
		pv = reflect.New(ti.elem)
	}
	d := n.descEnsure(obj)
	d.Lock()
	switch d.State() {
	case stateResident, stateMoving, stateDeleted:
		// Resident: we already hold the object (racing install, or the real
		// object migrated here while the reply was in flight). Moving/deleted:
		// newer local truth wins.
		d.Unlock()
		n.counts.Inc("replica_installs_dropped")
		return
	}
	if d.Epoch() > epoch {
		// A tombstone strictly newer than the snapshot's residency version:
		// the snapshot predates a move we already know about. Equality is the
		// normal case (the tombstone and the replica describe the same
		// immutable residency) and installs.
		d.Unlock()
		n.counts.Inc("replica_installs_stale")
		return
	}
	// Publication order as for any install: payload and mode bits before the
	// resident transition that licenses lock-free TryPin readers.
	d.Payload = newPayload(pv, ti)
	d.Payload.snap = cell
	d.Fwd = gaddr.NoNode
	d.ClearAttachLocked()
	d.SetImmutableLocked(true)
	d.SetReplicaLocked(true)
	d.SetEpochLocked(epoch)
	d.SetStateLocked(stateResident)
	d.Broadcast()
	d.Unlock()
	n.hintDrop(obj)
	n.cReplicaInst.Inc()
	if tr := n.tracer; tr.On() {
		tr.Emit(trace.Event{Kind: trace.KReplicaInstall, Obj: uint64(obj), Arg: int64(from)})
	}
	// Track in the bounded cache; tearing down whatever the insert displaced.
	n.replicaTrackEvicting(obj, from, false)
}

// replicaTrackEvicting records a freshly installed copy in the bounded shared
// copy table and tears down whatever the insert displaced — replica or lease,
// the eviction path is the same tombstone teardown.
func (n *Node) replicaTrackEvicting(obj gaddr.Addr, from gaddr.NodeID, lease bool) {
	for _, v := range n.space.ReplicaTrack(obj, from, lease) {
		if !n.evictReplica(v.Addr, v.Source) {
			// The victim is pinned by an executing invoke; put it back
			// (uncapped) and let a later insert retry the eviction.
			n.space.ReplicaRetrack(v.Addr, v.Source, v.Lease)
			n.counts.Inc("replica_evictions_busy")
		}
	}
}

// installLease installs a piggybacked snapshot of a mutable cacheable object
// as a local reader lease, or — when a lease at the same residency epoch is
// already resident — just extends its expiry (a renewal: the same epoch means
// the same state, since every write bumps the epoch). The one exception is a
// copy that was revoked while a reader had it pinned: handleLease could not
// tear it down, so it stands at the revoke's epoch with pre-write state and a
// zeroed expiry. A zero expiry marks a copy dead — it is never renewed, only
// replaced by the grant's state. state must be owned by the caller. Runs on
// the installer worker, like installReplica.
func (n *Node) installLease(r replicaInstall) {
	if r.from == n.id || r.epoch == 0 || r.ttl <= 0 {
		return
	}
	// The receiver stamps expiry with its OWN clock from the grant's duration;
	// absolute times never cross the wire, so clock skew between grantor and
	// holder cannot stretch a lease's effective lifetime.
	expiry := time.Now().UnixNano() + r.ttl
	// Renewal fast path, and a cheap pre-check before paying for the decode.
	if d := n.desc(r.obj); d != nil {
		if d.State() == stateResident && d.Lease() && d.Epoch() == r.epoch && d.LeaseExpiry() != 0 {
			d.Lock()
			if d.State() == stateResident && d.Lease() && d.Epoch() == r.epoch && d.LeaseExpiry() != 0 {
				if expiry > d.LeaseExpiry() {
					d.SetLeaseExpiry(expiry)
				}
				d.Unlock()
				n.counts.Inc("lease_renewals")
				return
			}
			d.Unlock()
		}
		switch d.State() {
		case stateMoving, stateDeleted:
			n.counts.Inc("lease_installs_dropped")
			return
		}
		if d.Epoch() > r.epoch {
			// A strictly newer tombstone: a revoke or move already outran this
			// grant (the queued-install race the revoke handler closes).
			n.counts.Inc("lease_installs_stale")
			return
		}
	}
	ti, err := n.reg.lookupName(r.typ)
	if err != nil {
		n.counts.Inc("lease_install_errors")
		return
	}
	var pv reflect.Value
	if len(r.state) > 0 {
		sv, err := wire.UnmarshalStruct(r.state)
		if err != nil || sv.Type() != ti.elem {
			n.counts.Inc("lease_install_errors")
			return
		}
		if sv.CanAddr() {
			pv = sv.Addr() // fast-codec decode: adopt the struct in place
		} else {
			pv = reflect.New(ti.elem)
			pv.Elem().Set(sv)
		}
	} else {
		pv = reflect.New(ti.elem)
	}
	d := n.descEnsure(r.obj)
	d.Lock()
	switch d.State() {
	case stateResident:
		switch {
		case d.Lease() && d.Epoch() == r.epoch && d.LeaseExpiry() != 0:
			// Renewal that raced the pre-check.
			if expiry > d.LeaseExpiry() {
				d.SetLeaseExpiry(expiry)
			}
			d.Unlock()
			n.counts.Inc("lease_renewals")
			return
		case d.Lease() && r.epoch >= d.Epoch():
			// A fresher grant — or one at the epoch a revoke left on a dead
			// copy — replaces the stale state, but only once no pinned reader
			// is still executing against the old value. Mark-then-check as
			// everywhere: moving refuses new pins.
			if pins := d.SetStateLocked(stateMoving); pins > 0 {
				d.SetStateLocked(stateResident)
				d.Broadcast()
				d.Unlock()
				n.counts.Inc("lease_installs_dropped")
				return
			}
		default:
			// The real object lives here now, or a racing install won.
			d.Unlock()
			n.counts.Inc("lease_installs_dropped")
			return
		}
	case stateMoving, stateDeleted:
		d.Unlock()
		n.counts.Inc("lease_installs_dropped")
		return
	}
	if d.Epoch() > r.epoch {
		d.Unlock()
		n.counts.Inc("lease_installs_stale")
		return
	}
	// Publication order as for any install: payload and mode bits before the
	// resident transition that licenses lock-free TryPin readers. No snap
	// cell (the cached-encoding optimization is immutable-only) and the
	// leasable bit stays clear: a lease copy never grants leases of its own.
	d.Payload = newPayload(pv, ti)
	d.Payload.src = r.from
	d.Fwd = gaddr.NoNode
	d.ClearAttachLocked()
	d.SetImmutableLocked(false)
	d.SetReplicaLocked(false)
	d.SetLeasableLocked(false)
	d.SetLeaseLocked(true)
	d.SetLeaseExpiry(expiry)
	d.SetEpochLocked(r.epoch)
	d.SetStateLocked(stateResident)
	d.Broadcast()
	d.Unlock()
	n.hintDrop(r.obj)
	n.cLeaseInst.Inc()
	if tr := n.tracer; tr.On() {
		tr.Emit(trace.Event{Kind: trace.KReplicaInstall, Obj: uint64(r.obj), Arg: int64(r.from)})
	}
	n.replicaTrackEvicting(r.obj, r.from, true)
}

// evictReplica tears a demand-pulled shared copy — immutable replica or
// reader lease — down to a forwarding tombstone aimed at its source, so later
// references chase back and re-pull on demand. Returns false when the copy is
// currently pinned (the caller re-tracks it). The epoch is left unchanged:
// the tombstone points at the same residency version the copy carried (for a
// revoked lease the revoke handler already advanced it).
func (n *Node) evictReplica(obj gaddr.Addr, src gaddr.NodeID) bool {
	d := n.desc(obj)
	if d == nil {
		return true
	}
	d.Lock()
	if d.State() != stateResident || !(d.Replica() || d.Lease()) {
		// Already gone or superseded by something newer; nothing to tear down.
		d.Unlock()
		return true
	}
	// Mark-then-check, like the move/delete drain protocol: flipping to
	// stateMoving first makes the lock-free TryPin fast path refuse new pins,
	// so the pin count read below cannot be raced upward.
	if pins := d.SetStateLocked(stateMoving); pins > 0 {
		d.SetStateLocked(stateResident)
		d.Broadcast()
		d.Unlock()
		return false
	}
	d.SetStateLocked(stateForwarded)
	d.Fwd = src
	d.SetReplicaLocked(false)
	d.SetLeaseLocked(false)
	d.SetLeaseExpiry(0)
	d.Payload = payload{}
	d.Broadcast()
	d.Unlock()
	n.counts.Inc("replica_evicted")
	return true
}
