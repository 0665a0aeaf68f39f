package ivy

import (
	"fmt"

	"amber/internal/gaddr"
	"amber/internal/rpc"
	"amber/internal/wire"
)

// busyKind records what kind of fault is in flight on a page (it decides
// whether an incoming invalidation must wait, see handleInvalidate).
type busyKind uint8

const (
	busyNone busyKind = iota
	busyReadFault
	busyWriteFault
)

// ensureLocked upgrades the node's access to page p to at least want.
// Called with pg.mu held; may release it around the network protocol.
func (n *Node) ensureLocked(pg *page, p int, want pageState) error {
	for pg.busy != busyNone {
		pg.cond.Wait()
	}
	switch want {
	case pageRead:
		if pg.state >= pageRead {
			return nil
		}
		return n.faultLocked(pg, p, busyReadFault)
	case pageWrite:
		if pg.state == pageWrite {
			return nil
		}
		if pg.owned && pg.state == pageRead {
			// Owner downgraded by a past read service: upgrade in place by
			// invalidating the read copies; no data transfer needed.
			return n.upgradeLocked(pg, p)
		}
		return n.faultLocked(pg, p, busyWriteFault)
	}
	return fmt.Errorf("ivy: bad access %d", want)
}

// upgradeLocked restores exclusive access for the owner.
func (n *Node) upgradeLocked(pg *page, p int) error {
	pg.busy = busyWriteFault
	members := copysetSlice(pg.copyset)
	pg.mu.Unlock()
	err := n.invalidateAll(p, members)
	pg.mu.Lock()
	pg.busy = busyNone
	pg.cond.Broadcast()
	if err != nil {
		return err
	}
	pg.copyset = make(map[gaddr.NodeID]struct{})
	pg.state = pageWrite
	n.counts.Inc("upgrades")
	return nil
}

// faultLocked performs a read or write fault. pg.mu held on entry and exit;
// released during the protocol with pg.busy set.
func (n *Node) faultLocked(pg *page, p int, kind busyKind) error {
	pg.busy = kind
	target := n.faultTarget(pg, p, kind == busyWriteFault)
	haveCopy := kind == busyWriteFault && pg.state == pageRead
	pg.mu.Unlock()

	proc := procReadFault
	name := "read_faults"
	if kind == busyWriteFault {
		proc = procWriteFault
		name = "write_faults"
	}
	n.counts.Inc(name)
	body, err := wire.MarshalInto(&faultMsg{Page: p, Requester: n.id, HaveCopy: haveCopy})
	var resp []byte
	if err == nil {
		resp, err = n.ep.Call(target, proc, body)
	}
	var fr faultReply
	if err == nil {
		err = wire.UnmarshalFrom(resp, &fr)
	}
	// For write faults, invalidate the transferred copyset before taking
	// write access (SWMR: write access only after all read copies die).
	if err == nil && kind == busyWriteFault {
		var members []gaddr.NodeID
		for _, m := range fr.Copyset {
			if m != n.id {
				members = append(members, m)
			}
		}
		err = n.invalidateAll(p, members)
	}

	pg.mu.Lock()
	pg.busy = busyNone
	pg.cond.Broadcast()
	if err != nil {
		return err
	}
	if fr.Data != nil || !haveCopy {
		pg.data = fr.Data
	}
	if kind == busyWriteFault {
		pg.state = pageWrite
		pg.owned = true
		pg.copyset = make(map[gaddr.NodeID]struct{})
		pg.owner = n.id
	} else {
		pg.state = pageRead
		pg.owner = fr.Owner // learn the true owner (hint)
	}
	return nil
}

// faultTarget picks where to send a fault: the page's manager, or the
// probable owner in dynamic mode. When the faulting node is itself the
// manager, it consults its own owner table directly (no message to self)
// and, for write faults, records itself as the new owner — exactly what the
// manager would have done on its behalf. Caller holds pg.mu.
func (n *Node) faultTarget(pg *page, p int, write bool) gaddr.NodeID {
	if n.cfg.Manager == DynamicDistributed {
		if pg.owner == n.id || pg.owner == gaddr.NoNode {
			// Self-hints can linger after losing ownership; fall back to
			// the initial owner, node 0, which is always on some chain.
			return 0
		}
		return pg.owner
	}
	mgr := n.managerOf(p)
	if mgr != n.id {
		return mgr
	}
	owner := pg.owner
	if write {
		pg.owner = n.id
	}
	return owner
}

// invalidateAll sends invalidations and waits for every acknowledgement.
func (n *Node) invalidateAll(p int, members []gaddr.NodeID) error {
	for _, m := range members {
		if m == n.id {
			continue
		}
		// One body per peer: a call takes ownership of the body it sends.
		body, err := wire.MarshalInto(&invalMsg{Page: p})
		if err != nil {
			return err
		}
		if _, err := n.ep.Call(m, procInvalidate, body); err != nil {
			return fmt.Errorf("ivy: invalidate page %d at node %d: %w", p, m, err)
		}
		n.counts.Inc("invalidations_sent")
	}
	return nil
}

func copysetSlice(m map[gaddr.NodeID]struct{}) []gaddr.NodeID {
	out := make([]gaddr.NodeID, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	return out
}

// --- handlers ---

// handleReadFault runs at a manager (fixed modes) or along the hint chain
// (dynamic): forward until the owner is reached, then serve a copy.
func (n *Node) handleReadFault(rc *rpc.Ctx) {
	var msg faultMsg
	if err := wire.UnmarshalFrom(rc.Body, &msg); err != nil {
		rc.Reply(nil, err)
		return
	}
	n.servePage(rc, &msg, false)
}

// handleWriteFault transfers ownership to the requester.
func (n *Node) handleWriteFault(rc *rpc.Ctx) {
	var msg faultMsg
	if err := wire.UnmarshalFrom(rc.Body, &msg); err != nil {
		rc.Reply(nil, err)
		return
	}
	n.servePage(rc, &msg, true)
}

// servePage either serves the fault from local ownership or forwards it
// toward the owner.
func (n *Node) servePage(rc *rpc.Ctx, msg *faultMsg, write bool) {
	if msg.Page < 0 || msg.Page >= n.cfg.NumPages {
		rc.Reply(nil, fmt.Errorf("ivy: no such page %d", msg.Page))
		return
	}
	if msg.Hops > 4*n.cfg.Nodes+8 {
		rc.Reply(nil, fmt.Errorf("ivy: fault for page %d lost after %d hops", msg.Page, msg.Hops))
		return
	}
	pg := n.pages[msg.Page]
	pg.mu.Lock()

	// Wait while a local fault is in flight (we may be about to become the
	// owner this request needs).
	for pg.busy != busyNone {
		pg.cond.Wait()
	}

	if !pg.owned {
		// Not the owner: forward along what we know.
		var next gaddr.NodeID
		switch n.cfg.Manager {
		case DynamicDistributed:
			next = pg.owner
			if write {
				// Li's dynamic algorithm: nodes on a write-fault path
				// point their hint at the requester, the owner-to-be.
				pg.owner = msg.Requester
			}
		default:
			// Manager node consults its owner table; a non-manager,
			// non-owner node can only bounce to the manager.
			if n.id == n.managerOf(msg.Page) {
				next = pg.owner
				if write {
					pg.owner = msg.Requester
				}
			} else {
				next = n.managerOf(msg.Page)
			}
		}
		pg.mu.Unlock()
		if next == n.id || next == msg.Requester && !write {
			rc.Reply(nil, fmt.Errorf("ivy: page %d ownership hint loops at node %d", msg.Page, n.id))
			return
		}
		msg.Hops++
		body, err := wire.MarshalInto(msg)
		if err != nil {
			rc.Reply(nil, err)
			return
		}
		proc := procReadFault
		if write {
			proc = procWriteFault
		}
		n.counts.Inc("faults_forwarded")
		if err := rc.Forward(next, proc, body); err != nil {
			n.counts.Inc("forward_failed")
		}
		return
	}

	// We own the page: serve.
	if write {
		// Transfer ownership: hand over data + copyset, drop our copy. If
		// the requester holds a valid read copy (it is in our copyset), the
		// data need not travel — Li's upgrade optimization.
		reply := faultReply{
			Copyset: copysetSlice(pg.copyset),
			Owner:   msg.Requester,
		}
		_, inCopyset := pg.copyset[msg.Requester]
		if !msg.HaveCopy || !inCopyset {
			reply.Data = pg.data
		} else {
			n.counts.Inc("upgrade_transfers_avoided")
		}
		pg.data = nil
		pg.state = pageInvalid
		pg.owned = false
		pg.copyset = nil
		pg.owner = msg.Requester
		pg.mu.Unlock()
		n.counts.Inc("ownership_transfers")
		body, err := wire.MarshalInto(&reply)
		rc.Reply(body, err)
		return
	}

	// Read service: downgrade to read (SWMR), remember the new reader.
	if pg.state == pageWrite {
		pg.state = pageRead
	}
	pg.copyset[msg.Requester] = struct{}{}
	reply := faultReply{Data: append([]byte(nil), pg.data...), Owner: n.id}
	pg.mu.Unlock()
	n.counts.Inc("read_services")
	body, err := wire.MarshalInto(&reply)
	rc.Reply(body, err)
}

// handleInvalidate drops a read copy. An invalidation that races a local
// *read* fault waits for it (otherwise the late page reply would resurrect
// stale data); one racing a local *write* fault applies immediately — the
// write fault is about to replace the data anyway, and waiting would
// deadlock the ownership transfer that triggered the invalidation.
func (n *Node) handleInvalidate(rc *rpc.Ctx) {
	var msg invalMsg
	if err := wire.UnmarshalFrom(rc.Body, &msg); err != nil {
		rc.Reply(nil, err)
		return
	}
	pg := n.pages[msg.Page]
	pg.mu.Lock()
	for pg.busy == busyReadFault {
		pg.cond.Wait()
	}
	if !pg.owned && pg.state != pageInvalid {
		pg.state = pageInvalid
		pg.data = nil
		n.counts.Inc("invalidations_applied")
	}
	pg.mu.Unlock()
	rc.Reply(nil, nil)
}
