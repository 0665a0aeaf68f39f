package core

import (
	"math"
	"reflect"
	"time"

	"amber/internal/gaddr"
	"amber/internal/objspace"
	"amber/internal/trace"
	"amber/internal/wire"
)

// Cached copies (DESIGN.md §10). A node may hold a resident copy of an object
// that lives elsewhere and serve invocations on it with no messages. There is
// one mechanism — a descriptor with the copy bit, a source, an epoch and an
// expiry — in two modes:
//
//   - A copy of an immutable object (§2.3: it "replicates on move instead of
//     migrating") is a reader lease that never expires and is never fenced.
//     Every encoding of the object is equivalent, so its grantor records
//     nothing and encodes it once, into the payload's snap cell. It serves
//     every invoke, and control operations act on it as on the object.
//   - A copy of a cacheable mutable object is a reader lease (lease.go): the
//     grantor records the grant, and the copy serves local read-only invokes
//     until its expiry or until a write's fence revokes it.
//
// A one-step journey's reply carries a copy when the origin accepts one
// (offerCopy); the origin's installer worker installs it off the reply path
// (installCopy), publishing it with the descriptor's Publish transition; a
// copy is torn down to a forwarding tombstone by Drain then ForwardTo, whether
// it is evicted, revoked or purged.
//
// A copy shares its source's residency epoch: a copy is not a move, so the
// version of the residency does not advance (executeMove's immutable branch
// makes the same choice). That is what lets a copy land on top of a
// forwarding tombstone with an *equal* epoch — the tombstone describes the
// same residency version the copy carries.
//
// Demand-pulled copies are tracked in the objspace replica cache and evicted
// FIFO under capacity pressure; eviction tears the local copy down to a
// forwarding tombstone aimed at its source. Explicitly placed copies (MoveTo
// on an immutable object) are NOT tracked: the user asked for that placement,
// so the cache never reclaims it.

// copyMaxBytes caps the encoded state a reply may carry as a copy. A larger
// object is served remotely; an immutable one still copies on MoveTo.
const copyMaxBytes = 64 << 10

// copyForever is the expiry, and the lifetime on the wire, of a copy of an
// immutable object: it never lapses.
const copyForever = math.MaxInt64

// copyCounter picks a copy-layer counter's name by mode: the replica_ name for
// a copy of an immutable object, the lease_ name for a reader lease. Both are
// passed whole so that counting builds no string.
func copyCounter(imm bool, replica, lease string) string {
	if imm {
		return replica
	}
	return lease
}

// offerCopy decides whether the reply to a finished invoke on d carries a
// copy for the origin, which accepts one, and fills ir's snapshot fields. An
// immutable object is offered on every invoke, from the encoding cached in its
// snap cell; a cacheable mutable object only to a remote read, as a lease: the
// grant is recorded, then the state is encoded under the shared coherence
// lock. It returns the pooled buffer holding a lease's state, which the caller
// recycles once the reply frame has copied it.
//
// Called after runPinned has released its pin, so it re-pins; a failed re-pin
// means the object's state flipped underneath (move, eviction) and the offer
// is abandoned — the origin just stays cold.
//
// A grant recorded here is NEVER unrecorded on a later failure: the entry may
// also cover an earlier, still-live lease at the same peer, and erasing it
// would let the next write skip that peer's revoke. A spurious entry only
// costs one redundant revoke round; it is pruned at expiry.
func (n *Node) offerCopy(d *descriptor, obj gaddr.Addr, origin gaddr.NodeID, readOnly bool, ir *invokeReply) (pooled []byte) {
	imm := ir.Immutable
	if !imm && !(readOnly && n.leaseTTL > 0 && d.Leasable() && origin != n.id) {
		return nil
	}
	if !d.TryPin() {
		return nil
	}
	defer n.unpin(d)
	p := d.Payload
	if p.ti == nil || !p.ti.serializable || imm && p.snap == nil {
		return nil
	}
	var epoch uint64
	if !imm {
		epoch = n.leaseRecord(obj, origin, d)
	}
	var state []byte
	if p.ti.hasState {
		if imm {
			if enc := p.snap.v.Load(); enc != nil {
				state = *enc
			}
		}
		if state == nil {
			d.Coh.RLock()
			b, err := wire.Marshal(p.obj.Elem().Interface())
			d.Coh.RUnlock()
			if err != nil {
				n.counts.Inc(copyCounter(imm, "replica_snap_errors", "lease_snap_errors"))
				return nil
			}
			if imm {
				// First copy-bearing reply for this object: publish the encoding
				// through the atomic (a racing second encoder stores an equivalent
				// one). Cache an exact-size copy and recycle the pooled buffer: the
				// cell holds its bytes for the object's lifetime, and keeping pooled
				// buffers captive would drain the wire pool one object at a time.
				owned := append(make([]byte, 0, len(b)), b...)
				wire.PutBuf(b)
				p.snap.v.Store(&owned)
				state = owned
				n.counts.Inc("replica_snaps_encoded")
			} else {
				state, pooled = b, b
			}
		}
		if len(state) > copyMaxBytes {
			wire.PutBuf(pooled)
			n.counts.Inc(copyCounter(imm, "replica_snaps_oversize", "lease_snaps_oversize"))
			return nil
		}
	}
	ir.SnapType, ir.SnapState = p.ti.name, state
	if !imm {
		ir.Lease, ir.LeaseNs, ir.Epoch = true, uint64(n.leaseTTL), epoch
		n.cLeaseGrants.Inc()
	}
	return pooled
}

// copyInstall is one queued unit of installer work: a copy pulled off an
// invoke reply. ttl is its lifetime in nanoseconds from receipt, copyForever
// for a copy of an immutable object. An entry with done set carries no copy:
// it is a barrier, and the worker closes done once it has handled everything
// queued ahead of it.
type copyInstall struct {
	obj   gaddr.Addr
	from  gaddr.NodeID
	typ   string
	state []byte // owned by the queue entry, not aliasing a pooled buffer
	epoch uint64
	ttl   int64
	done  chan struct{}
}

// queueCopyInstall hands a copy to the installer worker without ever blocking
// the invoke path. A full queue sheds the install: the copy rides every cold
// reply, so a later miss re-offers it.
func (n *Node) queueCopyInstall(r copyInstall) {
	select {
	case n.installq <- r:
	default:
		n.counts.Inc("replica_installs_shed")
	}
}

// copyWorker drains installq until the node closes. One worker per node:
// installs are quick (a decode plus a descriptor publish), and serializing
// them removes install/install races from the common path without taking the
// per-install goroutine spawn on every cold miss.
func (n *Node) copyWorker() {
	for {
		select {
		case r := <-n.installq:
			if r.done != nil {
				close(r.done)
				continue
			}
			n.installCopy(r)
		case <-n.stopc:
			return
		}
	}
}

// installCopy installs a copy pulled off a reply as installVerdictLocked
// decides: renewed in place, dropped, or published — over an older or dead
// copy only once no pinned reader is still executing against it. Runs on the
// installer worker, off the invoke reply path: the install costs a decode,
// which would otherwise be charged to the first (cold) call's latency.
func (n *Node) installCopy(r copyInstall) {
	if r.from == n.id || r.epoch == 0 || r.ttl <= 0 {
		return
	}
	imm := r.ttl == copyForever
	// The receiver stamps expiry with its OWN clock from the grant's duration;
	// absolute times never cross the wire, so clock skew between grantor and
	// holder cannot stretch a lease's effective lifetime.
	expiry := int64(copyForever)
	if !imm {
		expiry = time.Now().UnixNano() + r.ttl
	}
	// Renewal, and a cheap look before paying for the decode: racing installs
	// of a hot object are common (every reply before the first install lands
	// carries a copy), and all but one stop here.
	if d := n.desc(r.obj); d != nil {
		d.Lock()
		verdict := installVerdictLocked(d, r.epoch, imm, expiry)
		d.Unlock()
		if verdict != "" {
			n.counts.Inc(verdict)
			return
		}
	}
	ti, err := n.reg.lookupName(r.typ)
	if err != nil {
		n.counts.Inc(copyCounter(imm, "replica_install_errors", "lease_install_errors"))
		return
	}
	var pv reflect.Value
	if len(r.state) > 0 {
		sv, err := wire.UnmarshalStruct(r.state)
		if err != nil || sv.Type() != ti.elem {
			n.counts.Inc(copyCounter(imm, "replica_install_errors", "lease_install_errors"))
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
	p := newPayload(pv, ti)
	p.src = r.from
	if imm {
		p.snap = &snapCell{}
		if st := r.state; len(st) > 0 {
			p.snap.v.Store(&st) // decoded from these exact bytes: reuse as the cached encoding
		}
	}
	d := n.descEnsure(r.obj)
	d.Lock()
	verdict := installVerdictLocked(d, r.epoch, imm, expiry)
	// Publish replaces an older or dead copy only once no pinned reader is
	// still executing against it. The leasable bit stays clear: a copy never
	// grants leases of its own.
	if verdict == "" && !d.Publish(p, r.epoch, objspace.Mode{Immutable: imm, Copy: true}, expiry, nil) {
		verdict = copyCounter(imm, "replica_installs_dropped", "lease_installs_dropped")
	}
	d.Unlock()
	if verdict != "" {
		n.counts.Inc(verdict)
		return
	}
	n.space.HintDrop(r.obj)
	if imm {
		n.cReplicaInst.Inc()
	} else {
		n.cLeaseInst.Inc()
	}
	if tr := n.tracer; tr.On() {
		tr.Emit(trace.Event{Kind: trace.KReplicaInstall, Obj: uint64(r.obj), Arg: int64(r.from)})
	}
	// Track in the bounded cache, tearing down whatever the insert displaced —
	// the eviction path is the same tombstone teardown for either mode. A
	// victim pinned by an executing invoke goes back (uncapped) for a later
	// insert to retry.
	for _, v := range n.space.ReplicaTrack(r.obj, r.from, !imm) {
		if !n.evictCopy(v.Addr, v.Source) {
			n.space.ReplicaRetrack(v.Addr, v.Source, v.Lease)
			n.counts.Inc("replica_evictions_busy")
		}
	}
}

// installVerdictLocked decides what a copy at epoch, of the given mode and
// expiry, does to d: "" to install it — over nothing, a tombstone, or an older
// or dead resident copy — or the name of the counter that ends the install. A
// live copy of the same mode at the same epoch is renewed in place (the same
// epoch means the same state, since every write bumps the epoch; an immutable
// copy has nothing to renew and drops). A copy revoked while a reader had it
// pinned is dead, not live: handleLease could not tear it down, so it stands
// at the revoke's epoch with pre-write state and a zeroed expiry, and is only
// ever replaced by the grant's state. Newer local truth drops the install: a
// move or delete in progress, or the real object living here now. So does a
// strictly newer tombstone (stale): the copy predates a move, or a revoke
// outran the grant — the queued-install race the revoke handler closes. d.mu
// held.
func installVerdictLocked(d *descriptor, epoch uint64, imm bool, expiry int64) string {
	switch st := d.State(); {
	case st == stateResident && d.Copy() && d.Immutable() == imm && d.Epoch() == epoch && d.Expiry() != 0:
		if imm {
			return "replica_installs_dropped"
		}
		if expiry > d.Expiry() {
			d.SetExpiry(expiry)
		}
		return "lease_renewals"
	case st == stateMoving || st == stateDeleted || st == stateResident && !d.Copy():
		return copyCounter(imm, "replica_installs_dropped", "lease_installs_dropped")
	case d.Epoch() > epoch:
		return copyCounter(imm, "replica_installs_stale", "lease_installs_stale")
	}
	return ""
}

// evictCopy tears a demand-pulled copy down to a forwarding tombstone aimed
// at its source. Returns false when the copy is currently pinned (the caller
// re-tracks it). The epoch is left unchanged: the tombstone points at the same
// residency version the copy carried (for a revoked lease the revoke handler
// already advanced it).
func (n *Node) evictCopy(obj gaddr.Addr, src gaddr.NodeID) bool {
	d := n.desc(obj)
	if d == nil {
		return true
	}
	d.Lock()
	defer d.Unlock()
	if d.State() != stateResident || !d.Copy() {
		return true // already gone or superseded by something newer
	}
	if !d.Drain(0) {
		return false
	}
	d.ForwardTo(nil, src, d.Epoch())
	n.counts.Inc("replica_evicted")
	return true
}
