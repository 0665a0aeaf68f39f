package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"amber/internal/gaddr"
	"amber/internal/objspace"
	"amber/internal/rpc"
	"amber/internal/wire"
)

// retryRoute is what an executor returns when a descriptor it needed resident
// was in another state: the state changed between routing and execution. It
// names that descriptor — the operation's own object, a component member or
// an attach peer — so awaitTransition can wait out a move in progress before
// the caller runs the entry protocol again. It never leaves this node.
type retryRoute struct{ d *descriptor }

func (*retryRoute) Error() string { return "amber: state changed under the operation" }

// awaitTransition is the one answer to an executor's retryRoute, for control
// (a thread of this node) and handleRouted (an arrival) alike. If the named
// descriptor is mid-move, it waits on the descriptor's condition variable —
// the wait enterLocked makes — until the move ends; otherwise its state has
// already changed, which is progress, and the rerun is immediate. It reports
// whether the caller should run the entry protocol again; otherwise the
// returned error stands: err itself when it asks for no rerun, or a counted
// ErrRoutingLost once tries passes 64. Every wait ends with a transition —
// each exit from stateMoving broadcasts, and a move that never drains is
// rolled back by its drain timeout — and every immediate rerun follows a
// state change (an install batch lands at once, see handleInstall), so an
// operation that runs past the bound is looking at a condition that does not
// clear by itself, such as an attach edge to a member that left.
func (n *Node) awaitTransition(msg *routedMsg, tries *int, err error) (again bool, _ error) {
	var rr *retryRoute
	if !errors.As(err, &rr) {
		return false, err
	}
	if *tries++; *tries > 64 {
		return false, n.routingLost(msg, "kept changing state under the operation")
	}
	d := rr.d
	d.Lock()
	for d.State() == stateMoving {
		n.counts.Inc("entries_blocked_on_move")
		n.ep.ReleaseReaders()
		d.Wait()
	}
	d.Unlock()
	return true, nil
}

// errWouldDefer is an internal sentinel: the move would have to defer until
// the requesting thread unpins, and the caller asked for no deferral
// (executeMove with noDefer). Returned before any member is marked, so the
// operation has no side effects.
var errWouldDefer = errors.New("amber: internal: move would defer")

// moveOp coordinates one migration of an attachment component (§3.4–§3.5).
// Lifecycle: mark every member stateMoving → drain bound threads (pins) →
// ship snapshots to the destination → mark members forwarded.
type moveOp struct {
	node  *Node
	dest  gaddr.NodeID
	addrs []gaddr.Addr
	mems  []*descriptor

	mu        sync.Mutex
	epoch     uint64 // root's post-move residency epoch, set by ship
	remaining int    // members still pinned
	deferred  bool   // requesting thread is bound: ship on last unpin
	aborted   bool
	drained   chan struct{}
}

// MemberDrained is called (via objspace.Drainer, from unpin) when a member's
// pin count reaches zero during stateMoving.
func (op *moveOp) MemberDrained() {
	op.mu.Lock()
	if op.aborted {
		op.mu.Unlock()
		return
	}
	op.remaining--
	done := op.remaining == 0
	deferred := op.deferred
	op.mu.Unlock()
	if !done {
		return
	}
	close(op.drained)
	if deferred {
		// Nobody is waiting; complete the shipment ourselves. A failure is
		// counted where the move settles (see settle).
		go op.ship()
	}
}

// shippedEpoch reads the root's post-move epoch recorded by ship.
func (op *moveOp) shippedEpoch() uint64 {
	op.mu.Lock()
	defer op.mu.Unlock()
	return op.epoch
}

// ship serializes the component and installs it on the destination,
// then leaves forwarding addresses behind (§3.3, §3.4). Only an answer ends
// the move: a reply carrying an error (the batch applies all-or-nothing), or
// a send the transport refused before the frame left, reverts the objects to
// resident. Silence proves nothing — the install may have landed and only its
// reply been lost — so after a timeout the members stay moving, in doubt,
// and resend repeats the frame until some attempt is answered. ship returns
// the first attempt's verdict either way.
func (op *moveOp) ship() error {
	n := op.node
	// The install frame is assembled in place, member by member: each object's
	// state is encoded straight into it under that member's lock.
	epochs := make([]uint64, len(op.mems))
	leasable := make([]bool, len(op.mems))
	hint := 0
	for _, m := range op.mems {
		m.Lock()
		hint += snapHint(m)
		m.Unlock()
	}
	frame := n.installFrame(false, len(op.mems), hint)
	// Coherence hand-off for leasable members: the grant table does not
	// travel with the object, so every lease this node granted is fenced
	// before the install leaves, at the move's (strictly newer) epoch. The
	// members are moving, so no write or grant can follow, and no holder
	// serves the pre-move value while the move is in doubt. The revokes aim
	// holders here, which stays right either way the move settles: at its
	// tombstone, or at the object itself if the move reverts. The
	// destination is left out of the round, as a write's reply-holder is: the
	// install itself tears its copy down, and a revoke landing first would
	// leave a tombstone at the install's own epoch, which it cannot replace.
	for i, m := range op.mems {
		m.Lock()
		epochs[i] = m.Epoch() + 1 // the residency version after this move
		next, err := n.appendSnapshot(frame, op.addrs[i], m, epochs[i])
		leasable[i] = err == nil && m.Leasable()
		m.Unlock()
		if err != nil {
			wire.PutBuf(frame)
			return op.settle(err, epochs, leasable)
		}
		frame = next
		if leasable[i] {
			n.leaseFence(nil, op.addrs[i], epochs[i], n.id, op.dest)
		}
	}
	op.mu.Lock()
	op.epoch = epochs[0] // addrs[0] is the component root
	op.mu.Unlock()
	// The bulk-transfer path of §4.2: one network transaction regardless of
	// the objects' size or layout. The kept copy is what a re-send repeats.
	keep := rpc.FrameCopy(frame)
	resp, err := n.ep.CallWith(op.dest, procInstall, frame, n.policy(callOpts{}))
	wire.PutBuf(resp)
	if !answered(err) && !errors.Is(err, rpc.ErrRefused) {
		n.counts.Inc("moves_in_doubt")
		go op.resend(keep, epochs, leasable)
		return err
	}
	wire.PutBuf(keep)
	return op.settle(err, epochs, leasable)
}

// answered reports whether an install's outcome came from the destination:
// a reply, whether it carries success or an error.
func answered(err error) bool {
	var re *rpc.RemoteError
	return err == nil || errors.As(err, &re)
}

// resend repeats an in-doubt install until some attempt is answered, then
// settles the move on that answer. A repeat cannot land twice: handleInstall
// drops a snapshot whose epoch is not newer than the descriptor's and still
// answers success — true, since only this move's own install can have raised
// the destination to these epochs. The only other exit is Close, which leaves
// the members moving.
func (op *moveOp) resend(frame []byte, epochs []uint64, leasable []bool) {
	n := op.node
	defer wire.PutBuf(frame)
	for pause := 10 * time.Millisecond; ; pause = min(2*pause, 500*time.Millisecond) {
		select {
		case <-n.stopc:
			return
		case <-time.After(pause):
		}
		resp, err := n.ep.CallWith(op.dest, procInstall, rpc.FrameCopy(frame), n.policy(callOpts{}))
		wire.PutBuf(resp)
		if answered(err) {
			op.settle(err, epochs, leasable)
			return
		}
	}
}

// settle ends the move on an answer: a failure reverts the members to
// resident, a success leaves forwarding addresses and hands the leases off.
func (op *moveOp) settle(err error, epochs []uint64, leasable []bool) error {
	n := op.node
	if err != nil {
		op.revert(epochs, leasable)
		if op.deferred {
			n.counts.Inc("deferred_move_failed")
		}
		return err
	}
	for i, m := range op.mems {
		// ForwardTo flips only if our mark is still in effect. Between
		// the install landing and this loop running, the destination can
		// complete a whole move *back* to this node: handleInstall's Publish
		// supersedes our mark, and writing the tombstone anyway would destroy
		// that residency — aiming routing backward in time and clearing a
		// payload new readers may already have pinned. The tombstone takes the
		// destination's epoch: it points at residency version Epoch, and only
		// gossip newer than that may retarget it.
		m.Lock()
		if !m.ForwardTo(op, op.dest, epochs[i]) {
			n.counts.Inc("move_flips_superseded")
		}
		m.Unlock()
		// ship fenced the grants before the install left; what is left of
		// them belongs to an object that no longer lives here.
		if leasable[i] {
			n.leaseDropGrants(op.addrs[i])
		}
	}
	n.counts.Add("objects_moved_out", int64(len(op.mems)))
	return nil
}

// revert returns all members to stateResident after a move that is known
// not to have landed: an answered failure, a refused send, or a drain that
// timed out before anything shipped. A member whose leases ship fenced
// resumes at the move's epoch: each revoked holder keeps a tombstone there,
// so the member's next move must carry a newer epoch, or a holder it ships
// to would drop the install as stale while this node forwards to it.
func (op *moveOp) revert(epochs []uint64, fenced []bool) {
	for i, m := range op.mems {
		m.Lock()
		if i < len(fenced) && fenced[i] {
			m.SetEpochLocked(epochs[i])
		}
		m.Resume(op)
		m.Unlock()
	}
}

// installFrame opens an install batch of count snapshots in a pooled buffer
// presized for hint bytes of them (see snapHint).
func (n *Node) installFrame(isCopy bool, count, hint int) []byte {
	return appendInstallHeader(wire.GetBufCap(16+hint+rpc.FrameRoom), n.id, isCopy, count)
}

// snapHint estimates d's snapshot size from what its class encoded to last
// time; d.mu held.
func snapHint(d *descriptor) int {
	if ti := d.Payload.ti; ti != nil {
		return 64 + int(ti.snapSize.Load())
	}
	return 64
}

// appendSnapshot appends one object's migrating state to an install frame,
// to arrive with residency version epoch; d.mu held. The state is encoded in
// place — or copied from the payload's snap cell when an immutable object
// already carries its encoding (filled by the read-replication path; the
// state cannot have changed since).
func (n *Node) appendSnapshot(b []byte, a gaddr.Addr, d *descriptor, epoch uint64) ([]byte, error) {
	ti := d.Payload.ti
	if ti == nil || !ti.serializable {
		return nil, fmt.Errorf("%w: %#x is not serializable", ErrNotMovable, uint64(a))
	}
	s := snapshot{
		Addr:      a,
		TypeName:  ti.name,
		Immutable: d.Immutable(),
		Leasable:  d.Leasable(),
		Epoch:     epoch,
		Attached:  d.AttachPeers(),
	}
	var obj any
	if ti.hasState {
		if cell := d.Payload.snap; cell != nil {
			if enc := cell.v.Load(); enc != nil {
				s.State = *enc
			}
		}
		if s.State == nil {
			obj = d.Payload.obj.Elem().Interface()
		}
	}
	mark := len(b)
	b, err := s.appendWire(b, obj)
	if err != nil {
		return nil, fmt.Errorf("amber: snapshot %#x: %w", uint64(a), err)
	}
	ti.snapSize.Store(int64(len(b) - mark))
	return b, nil
}

// executeMove performs opMove at the node where the object is resident.
// Contract: d.mu is held on entry and released by this function. Returns
// a retryRoute if the state changed under us. With noDefer set, a move
// that would defer (the requesting thread is bound to a component member)
// fails with errWouldDefer *before* any member is marked stateMoving, so
// the caller can surface an error without the component migrating anyway.
func (n *Node) executeMove(d *descriptor, msg *routedMsg, noDefer bool) (moveReply, error) {
	dest := msg.Dest
	if d.State() != stateResident {
		d.Unlock()
		return moveReply{}, &retryRoute{d}
	}

	// Immutable objects copy instead of moving (§2.3); the original stays.
	if d.Immutable() {
		if dest == n.id {
			d.Unlock()
			return moveReply{Node: n.id}, nil
		}
		frame := n.installFrame(true, 1, snapHint(d))
		// A copy, not a move: the residency version stands.
		next, err := n.appendSnapshot(frame, msg.Obj, d, d.Epoch())
		d.Unlock()
		if err != nil {
			wire.PutBuf(frame)
			return moveReply{}, err
		}
		resp, err := n.ep.CallWith(dest, procInstall, next, n.policy(callOpts{}))
		wire.PutBuf(resp)
		if err != nil {
			return moveReply{}, err
		}
		n.counts.Inc("replicas_sent")
		return moveReply{Node: dest}, nil
	}

	if dest == n.id {
		d.Unlock()
		return moveReply{Node: n.id}, nil // already here
	}
	d.Unlock()

	// Topology work (component discovery, state marking) serializes per
	// *shard*, not per node: lockComponent holds the move locks of exactly
	// the shards the component spans, so moves on disjoint shards proceed
	// concurrently.
	addrs, mems, shards, err := n.lockComponent(msg.Obj)
	if err != nil {
		return moveReply{}, err
	}
	// Requester-bound detection (the self-move of §3.5). The thread's pin
	// set is stable here — the requester is parked in this very call — and
	// component membership is frozen by the shard move locks, so the answer
	// cannot change between this check and the mark phase below.
	requesterBound := false
	for _, a := range addrs {
		if msg.Thread.pinned(a) {
			requesterBound = true
			break
		}
	}
	if requesterBound && noDefer {
		n.space.UnlockMove(shards)
		return moveReply{}, errWouldDefer
	}
	op := &moveOp{node: n, dest: dest, addrs: addrs, mems: mems, drained: make(chan struct{})}

	// Veto phase: every member must agree to move.
	for _, m := range mems {
		m.Lock()
		if m.State() != stateResident {
			m.Unlock()
			n.space.UnlockMove(shards)
			return moveReply{}, &retryRoute{m}
		}
		ti := m.Payload.ti
		if ti == nil || !ti.serializable {
			m.Unlock()
			n.space.UnlockMove(shards)
			return moveReply{}, fmt.Errorf("%w: component member is not serializable", ErrNotMovable)
		}
		if g, ok := m.Payload.obj.Interface().(MoveGuard); ok {
			if gerr := g.CanMove(); gerr != nil {
				m.Unlock()
				n.space.UnlockMove(shards)
				return moveReply{}, gerr
			}
		}
		m.Unlock()
	}

	// Mark phase: flip every member to stateMoving. From here on, new
	// invocations wait (the paper's post-preemption residency check) and
	// only already-bound threads re-enter. op.mu is held across the whole
	// phase so a member whose last pin leaves mid-loop cannot run
	// MemberDrained before op.remaining is final (it blocks on op.mu; the
	// pin count it reacted to was captured atomically with the state flip).
	// A member a delete or a cacheable mark began draining since the veto
	// (neither takes the move locks) aborts the move before anything ships.
	op.mu.Lock()
	for _, m := range mems {
		m.Lock()
		pins, ok := m.BeginMove(op)
		m.Unlock()
		if !ok {
			op.aborted = true
			op.mu.Unlock()
			op.revert(nil, nil)
			n.space.UnlockMove(shards)
			return moveReply{}, &retryRoute{m}
		}
		if pins > 0 {
			op.remaining++
		}
	}
	pending := op.remaining
	op.deferred = requesterBound && pending > 0
	op.mu.Unlock()
	n.space.UnlockMove(shards)
	n.counts.Inc("moves_started")

	if pending == 0 {
		if err := op.ship(); err != nil {
			return moveReply{}, err
		}
		return moveReply{Node: dest, Epoch: op.shippedEpoch()}, nil
	}
	if requesterBound {
		// The moving thread is inside the object (a self-move, §3.5): the
		// paper would migrate the thread along with the object; Go stacks
		// cannot move, so the shipment completes when the thread leaves.
		// See DESIGN.md "bound-thread migration".
		n.counts.Inc("moves_deferred")
		return moveReply{Deferred: true, Node: dest}, nil
	}

	// Drain phase: wait for bound threads to exit (they were "preempted
	// and rescheduled" in the original; here they simply finish).
	n.ep.ReleaseReaders()
	select {
	case <-op.drained:
		if err := op.ship(); err != nil {
			return moveReply{}, err
		}
		return moveReply{Node: dest, Epoch: op.shippedEpoch()}, nil
	case <-time.After(n.cfg.MoveDrainTimeout):
		op.mu.Lock()
		if op.remaining == 0 && !op.aborted {
			// Lost the race with the final unpin: the ship is ours to do.
			op.mu.Unlock()
			if err := op.ship(); err != nil {
				return moveReply{}, err
			}
			return moveReply{Node: dest, Epoch: op.shippedEpoch()}, nil
		}
		op.aborted = true
		op.mu.Unlock()
		op.revert(nil, nil)
		n.counts.Inc("moves_timed_out")
		return moveReply{}, fmt.Errorf("%w: %#x to node %d", ErrMoveTimeout, uint64(msg.Obj), dest)
	}
}

// lockComponent discovers root's attachment component and acquires the move
// locks of every shard holding a member (ascending shard order, the global
// ordering rule). Discovery is optimistic: walk without locks, lock the
// shards the walk found, re-walk, and verify the fresh membership stayed
// inside the locked shard set. A concurrent attach can only have grown the
// component — and growth into an unlocked shard means unlock and retry with
// the larger footprint. Once verified, membership is stable for as long as
// the move locks are held, because any attach or unattach touching a member
// must itself take that member's shard move lock.
//
// On success the caller owns the returned shards' move locks and must
// release them with n.space.UnlockMove(shards).
func (n *Node) lockComponent(root gaddr.Addr) (addrs []gaddr.Addr, mems []*descriptor, shards []int, err error) {
	for attempt := 0; ; attempt++ {
		addrs, mems, err = n.component(root)
		if err != nil {
			return nil, nil, nil, err
		}
		shards = n.space.ShardsOf(addrs)
		n.space.LockMove(shards)
		addrs, mems, err = n.component(root)
		if err != nil {
			n.space.UnlockMove(shards)
			return nil, nil, nil, err
		}
		if objspace.ContainsAll(shards, n.space.ShardsOf(addrs)) {
			return addrs, mems, shards, nil
		}
		n.space.UnlockMove(shards)
		if attempt >= 64 {
			return nil, nil, nil, fmt.Errorf("amber: attachment component of %#x would not settle", uint64(root))
		}
		n.counts.Inc("component_lock_retries")
	}
}

// component gathers the attachment component of root (all objects that must
// move together, §2.3) by walking attachment edges. The walk takes only the
// descriptor mutexes, one at a time; it is a consistent snapshot only if the
// caller holds the move locks of every shard the component touches (see
// lockComponent, which calls it both before and after locking).
func (n *Node) component(root gaddr.Addr) ([]gaddr.Addr, []*descriptor, error) {
	var addrs []gaddr.Addr
	var mems []*descriptor
	seen := map[gaddr.Addr]bool{}
	queue := []gaddr.Addr{root}
	for len(queue) > 0 {
		a := queue[0]
		queue = queue[1:]
		if seen[a] {
			continue
		}
		seen[a] = true
		d := n.desc(a)
		if d == nil {
			return nil, nil, fmt.Errorf("amber: attachment component member %#x missing locally", uint64(a))
		}
		d.Lock()
		if d.State() != stateResident {
			d.Unlock()
			return nil, nil, &retryRoute{d}
		}
		peers := d.AttachPeers()
		d.Unlock()
		addrs = append(addrs, a)
		mems = append(mems, d)
		queue = append(queue, peers...)
	}
	return addrs, mems, nil
}

// executeSetImmutable implements the runtime immutability mark (§2.3).
// Contract: d.mu held on entry, released here.
func (n *Node) executeSetImmutable(d *descriptor, msg *routedMsg) error {
	defer d.Unlock()
	if d.State() != stateResident {
		return &retryRoute{d}
	}
	if d.Immutable() {
		return nil // idempotent
	}
	if d.AttachLen() > 0 {
		return fmt.Errorf("%w: detach before marking immutable", ErrNotMovable)
	}
	if d.Payload.ti == nil || !d.Payload.ti.serializable {
		return fmt.Errorf("%w: runtime objects cannot be immutable", ErrNotMovable)
	}
	// The snap cell must exist before the immutable bit is raised: the bit is
	// what licenses pinned readers (offerCopy) to touch the cell, so
	// cell-before-bit gives them a happens-before edge through the packed
	// word. The encoding itself is computed lazily by the first
	// snapshot-bearing reply — encoding here would race methods still
	// mutating the object in the window before the mark lands.
	d.Payload.snap = &snapCell{}
	d.SetImmutableLocked(true)
	if d.Leasable() {
		// Coherence unification: immutability is the degenerate lease that
		// never expires. The leasable machinery stands down — no fence is
		// needed, since outstanding lease copies hold the final value and are
		// therefore coherent forever (each is replaced by a copy that never
		// expires once it lapses and the next read re-pulls).
		d.SetLeasableLocked(false)
		n.leaseDropGrants(msg.Obj)
	}
	n.counts.Inc("set_immutable")
	return nil
}

// executeSetCacheable marks a mutable object lease-granting (the leasable bit
// in the packed word). Contract: d.mu held on entry, released here.
//
// The bit cannot simply be flipped on a live object: an invoke already in
// flight took no coherence lock (it classified before the bit was up), so a
// racing write could mutate state while a just-granted lease encodes it. The
// transition therefore drains pins first — mark moving (refusing new pins),
// wait, flip the bit, return to resident — after which every invoke observes
// the bit and funnels through the coherence lock.
func (n *Node) executeSetCacheable(d *descriptor, msg *routedMsg) error {
	if d.State() != stateResident {
		d.Unlock()
		return &retryRoute{d}
	}
	if d.Leasable() {
		d.Unlock()
		return nil // idempotent
	}
	if d.Immutable() {
		d.Unlock()
		return fmt.Errorf("%w: immutable objects need no leases (every copy is already coherent)", ErrBadArgument)
	}
	if d.Payload.ti == nil || !d.Payload.ti.serializable {
		d.Unlock()
		return fmt.Errorf("%w: runtime objects cannot be cacheable", ErrNotMovable)
	}
	if msg.Thread.pinned(msg.Obj) {
		d.Unlock()
		return fmt.Errorf("%w: cannot mark an object cacheable from inside its own operation", ErrNotMovable)
	}
	if !d.Drain(n.cfg.MoveDrainTimeout) {
		d.Unlock()
		return fmt.Errorf("%w: set-cacheable %#x", ErrMoveTimeout, uint64(msg.Obj))
	}
	d.SetLeasableLocked(true)
	d.Resume(nil)
	d.Unlock()
	n.counts.Inc("set_cacheable")
	return nil
}

// executeDelete destroys an object, leaving a tombstone so stale references
// fail cleanly. Contract: d.mu held on entry, released here.
func (n *Node) executeDelete(d *descriptor, msg *routedMsg) error {
	if d.State() != stateResident {
		d.Unlock()
		return &retryRoute{d}
	}
	if d.Immutable() {
		d.Unlock()
		return ErrImmutableDelete
	}
	if d.AttachLen() > 0 {
		d.Unlock()
		return fmt.Errorf("%w: unattach before delete", ErrNotAttached)
	}
	if msg.Thread.pinned(msg.Obj) {
		d.Unlock()
		return fmt.Errorf("%w: cannot delete an object from inside its own operation", ErrNotMovable)
	}
	// Drain, mirroring the move's mark phase: the descriptor is moving
	// *before* the wait, so the lock-free TryPin fast path refuses new pins
	// and fresh entries wait on the descriptor, and no pinned reader can
	// still be looking at the payload Delete clears.
	if !d.Drain(n.cfg.MoveDrainTimeout) {
		d.Unlock()
		return fmt.Errorf("%w: delete %#x", ErrMoveTimeout, uint64(msg.Obj))
	}
	leasable := d.Leasable()
	var fenceEpoch uint64
	if leasable {
		// Advance the epoch past every grant so the revokes below (and the
		// stale-install rule at the holders) outrank any lease in flight.
		fenceEpoch = d.BumpEpoch()
	}
	d.Delete()
	d.Unlock()
	if leasable {
		// Revoke outstanding reader leases so holders stop serving the dead
		// object's last value; their tombstones aim here, where the deleted
		// state answers ErrDeleted. Blocks like a write fence — deletion is
		// the final write.
		n.leaseFence(nil, msg.Obj, fenceEpoch, n.id, gaddr.NoNode)
		n.leaseDropGrants(msg.Obj)
	}
	n.counts.Inc("objects_deleted")
	return nil
}

// executeAttach runs at the node where the child (msg.Obj) resides; the
// parent is msg.Peer. If the two are not co-resident the child's component
// first migrates to the parent's node and the request is re-routed there
// (forwardTo). Contract: d.mu held on entry, released here.
func (n *Node) executeAttach(d *descriptor, msg *routedMsg) (forwardTo gaddr.NodeID, err error) {
	if d.State() != stateResident {
		d.Unlock()
		return gaddr.NoNode, &retryRoute{d}
	}
	if msg.Obj == msg.Peer {
		d.Unlock()
		return gaddr.NoNode, fmt.Errorf("%w: cannot attach an object to itself", ErrBadArgument)
	}
	if d.Immutable() {
		d.Unlock()
		return gaddr.NoNode, fmt.Errorf("%w: immutable objects cannot be attached", ErrNotMovable)
	}
	d.Unlock()

	loc, imm, lerr := n.locateInternal(msg.Peer)
	if lerr != nil {
		return gaddr.NoNode, lerr
	}
	if imm {
		return gaddr.NoNode, fmt.Errorf("%w: cannot attach to an immutable object", ErrNotMovable)
	}

	if loc != n.id {
		// Co-locate: move the child's component to the parent, then let the
		// parent's node complete the attachment. noDefer: a deferred move
		// would ship the component after this attach has already failed —
		// a failed Attach must not migrate the object as a side effect.
		mv := routedMsg{Op: opMove, Obj: msg.Obj, Dest: loc, Thread: msg.Thread}
		d.Lock()
		_, merr := n.executeMove(d, &mv, true) // releases d.mu
		if errors.Is(merr, errWouldDefer) {
			return gaddr.NoNode, fmt.Errorf("%w: attach from inside the attached object", ErrNotMovable)
		}
		if merr != nil {
			return gaddr.NoNode, merr
		}
		return loc, nil
	}

	// Both here: take the move locks of the two shards involved (ascending,
	// the global ordering rule) so no move can mark either object while the
	// edge is recorded, then lock the two descriptors ordered by address to
	// avoid lock cycles.
	shards := n.space.ShardsOf([]gaddr.Addr{msg.Obj, msg.Peer})
	n.space.LockMove(shards)
	defer n.space.UnlockMove(shards)
	pd := n.desc(msg.Peer)
	if pd == nil {
		// Locate found the parent here, and descriptors are never removed.
		return gaddr.NoNode, fmt.Errorf("amber: attach parent %#x missing locally", uint64(msg.Peer))
	}
	first, second := d, pd
	if msg.Peer < msg.Obj {
		first, second = pd, d
	}
	first.Lock()
	second.Lock()
	defer first.Unlock()
	defer second.Unlock()
	if d.State() != stateResident || pd.State() != stateResident {
		// Naming the parent is enough: if the child is the one that changed,
		// the rerun's entry protocol waits on it.
		return gaddr.NoNode, &retryRoute{pd}
	}
	if pd.Immutable() {
		return gaddr.NoNode, fmt.Errorf("%w: cannot attach to an immutable object", ErrNotMovable)
	}
	d.AddAttach(msg.Peer)
	pd.AddAttach(msg.Obj)
	n.counts.Inc("attaches")
	return gaddr.NoNode, nil
}

// executeUnattach removes an attachment edge; both objects are co-resident
// by the attachment invariant. Contract: d.mu held on entry, released here.
func (n *Node) executeUnattach(d *descriptor, msg *routedMsg) error {
	if d.State() != stateResident {
		d.Unlock()
		return &retryRoute{d}
	}
	if !d.HasAttach(msg.Peer) {
		d.Unlock()
		return fmt.Errorf("%w: %#x and %#x", ErrNotAttached, uint64(msg.Obj), uint64(msg.Peer))
	}
	d.Unlock()

	shards := n.space.ShardsOf([]gaddr.Addr{msg.Obj, msg.Peer})
	n.space.LockMove(shards)
	defer n.space.UnlockMove(shards)
	pd := n.desc(msg.Peer)
	if pd == nil {
		// Every edge is written on both sides, and descriptors are never
		// removed.
		return fmt.Errorf("amber: unattach peer %#x missing locally", uint64(msg.Peer))
	}
	first, second := d, pd
	if msg.Peer < msg.Obj {
		first, second = pd, d
	}
	first.Lock()
	second.Lock()
	defer first.Unlock()
	defer second.Unlock()
	if d.State() != stateResident {
		// The descriptor was unlocked while the move locks were taken: if the
		// component shipped out in that window its edges went with it, and
		// the answer is to chase it, not to report the pair unattached.
		return &retryRoute{d}
	}
	if !d.HasAttach(msg.Peer) {
		return fmt.Errorf("%w: %#x and %#x", ErrNotAttached, uint64(msg.Obj), uint64(msg.Peer))
	}
	d.RemoveAttach(msg.Peer)
	pd.RemoveAttach(msg.Obj)
	n.counts.Inc("unattaches")
	return nil
}

// locateInternal resolves an object's current residence (kernel-level, no
// thread context).
func (n *Node) locateInternal(obj gaddr.Addr) (gaddr.NodeID, bool, error) {
	msg := routedMsg{Op: opLocate, Obj: obj, Chain: []gaddr.NodeID{n.id}}
	d, act, to, err := n.resolve(&msg, &msg.Thread)
	switch act {
	case actError:
		return gaddr.NoNode, false, err
	case actExecute:
		node, imm := n.id, d.Immutable()
		d.Unlock()
		return node, imm, nil
	}
	resp, err := n.ep.CallWith(to, procRouted, msg.frame(), n.policy(callOpts{}))
	if err != nil {
		return gaddr.NoNode, false, mapRemoteError(err)
	}
	var lr locateReply
	err = wire.UnmarshalFrom(resp, &lr)
	wire.PutBuf(resp)
	if err != nil {
		return gaddr.NoNode, false, err
	}
	n.learnLocation(obj, lr.Node, lr.Epoch)
	return lr.Node, lr.Immutable, nil
}
