// Package ivy implements a page-based distributed shared memory in the
// style of Li's Ivy (Li & Hudak 1986), the system §4 of the Amber paper
// compares against. Processes on every node share a flat paged memory;
// coherence is single-writer/multiple-reader with write-invalidate,
// maintained by page managers.
//
// Two manager schemes from Li's thesis are provided:
//
//   - FixedDistributed: page p is managed by node p mod N; the manager
//     tracks the owner and forwards faults to it.
//   - DynamicDistributed: no managers; every node keeps a probable-owner
//     hint per page and faults chase the hint chain — the same
//     forwarding-address idea Amber uses for objects (§3.3), which makes
//     the comparison between the two systems particularly direct.
//
// Real Ivy fields hardware page faults; here the faults are explicit Read/
// Write/CAS accessors, which preserves the protocol and its message
// economics (the objects of comparison in §4) without kernel support.
package ivy

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"amber/internal/gaddr"
	"amber/internal/rpc"
	"amber/internal/stats"
	"amber/internal/transport"
)

// ManagerKind selects the coherence-management scheme.
type ManagerKind int

const (
	// FixedDistributed assigns page p to manager node p mod N.
	FixedDistributed ManagerKind = iota
	// Centralized puts every page's manager on node 0.
	Centralized
	// DynamicDistributed uses probable-owner chains instead of managers.
	DynamicDistributed
)

func (k ManagerKind) String() string {
	switch k {
	case FixedDistributed:
		return "fixed-distributed"
	case Centralized:
		return "centralized"
	case DynamicDistributed:
		return "dynamic-distributed"
	}
	return "unknown"
}

// Config describes a DSM instance.
type Config struct {
	Nodes    int
	PageSize int // bytes per page
	NumPages int
	Manager  ManagerKind
	Profile  transport.NetProfile
}

// Errors.
var (
	ErrOutOfRange = errors.New("ivy: address out of range")
	ErrCrossPage  = errors.New("ivy: access crosses a page boundary")
)

// page access states.
type pageState uint8

const (
	pageInvalid pageState = iota
	pageRead
	pageWrite // implies ownership
)

// page is one node's view of a shared page.
type page struct {
	mu   sync.Mutex
	cond *sync.Cond

	state pageState
	data  []byte

	// owned marks ownership, which is independent of access level: an
	// owner that has served readers holds a read copy but still owns the
	// page (and its copyset).
	owned bool

	// busy marks a fault in progress on this node for this page;
	// concurrent accesses wait.
	busy busyKind

	// owner bookkeeping:
	// - fixed/centralized: valid at the page's manager node.
	// - dynamic: probable-owner hint, valid everywhere.
	owner gaddr.NodeID

	// copyset lists nodes holding read copies; valid at the owner.
	copyset map[gaddr.NodeID]struct{}
}

// System is an in-process DSM deployment.
type System struct {
	cfg    Config
	fabric *transport.Fabric // nil when built over caller-supplied transports
	trs    []transport.Transport
	nodes  []*Node
}

// NewSystem builds a DSM with cfg.Nodes nodes on an in-process fabric.
// Initially node 0 owns every page (zero-filled), as after a fresh mmap.
func NewSystem(cfg Config) (*System, error) {
	if cfg.Nodes < 1 {
		return nil, fmt.Errorf("ivy: bad config %+v", cfg)
	}
	fabric := transport.NewFabric(cfg.Profile)
	trs := make([]transport.Transport, cfg.Nodes)
	for i := range trs {
		tr, err := fabric.Attach(gaddr.NodeID(i))
		if err != nil {
			return nil, err
		}
		trs[i] = tr
	}
	s, err := NewSystemOn(cfg, trs)
	if err != nil {
		return nil, err
	}
	s.fabric = fabric
	return s, nil
}

// NewSystemOn builds a DSM whose node i is attached through trs[i] (whose
// Self must be i) — loopback sockets, for instance. Close closes them.
func NewSystemOn(cfg Config, trs []transport.Transport) (*System, error) {
	if cfg.Nodes != len(trs) || cfg.Nodes < 1 || cfg.PageSize < 8 || cfg.NumPages < 1 {
		return nil, fmt.Errorf("ivy: bad config %+v for %d transports", cfg, len(trs))
	}
	s := &System{cfg: cfg, trs: trs}
	for i, tr := range trs {
		s.nodes = append(s.nodes, newNode(cfg, gaddr.NodeID(i), tr))
	}
	return s, nil
}

// Node returns node i's memory interface.
func (s *System) Node(i int) *Node { return s.nodes[i] }

// NumNodes reports the node count.
func (s *System) NumNodes() int { return len(s.nodes) }

// Fabric exposes the network for stats (nil for a system built with
// NewSystemOn).
func (s *System) Fabric() *transport.Fabric { return s.fabric }

// Close shuts the system down.
func (s *System) Close() {
	if s.fabric != nil {
		s.fabric.Close()
	}
	for _, tr := range s.trs {
		tr.Close()
	}
}

// Node is one process's attachment to the shared memory.
type Node struct {
	cfg    Config
	id     gaddr.NodeID
	ep     *rpc.Endpoint
	pages  []*page
	counts *stats.Set
	// locksrv is the RPC lock server role, held by node 0 (see rpclock.go).
	locksrv *lockServer
}

// protocol procs.
const (
	procReadFault  rpc.Proc = 20
	procWriteFault rpc.Proc = 21
	procInvalidate rpc.Proc = 22
)

// faultMsg requests a page copy or ownership.
type faultMsg struct {
	Page      int
	Requester gaddr.NodeID
	Hops      int
	// HaveCopy marks a write fault from a node holding a valid read copy:
	// only ownership (and the copyset) need transfer, not the data — Li's
	// read-to-write upgrade optimization.
	HaveCopy bool
}

// faultReply carries the page to the requester.
type faultReply struct {
	Data []byte
	// Copyset transfers with ownership on write faults.
	Copyset []gaddr.NodeID
	// Owner is the responding owner (updates hints).
	Owner gaddr.NodeID
}

// invalMsg invalidates a read copy.
type invalMsg struct {
	Page int
}

func newNode(cfg Config, id gaddr.NodeID, tr transport.Transport) *Node {
	n := &Node{cfg: cfg, id: id, ep: rpc.NewIdleEndpoint(tr), counts: stats.NewSet()}
	n.pages = make([]*page, cfg.NumPages)
	for p := range n.pages {
		pg := &page{owner: 0}
		pg.cond = sync.NewCond(&pg.mu)
		if id == 0 {
			pg.state = pageWrite
			pg.owned = true
			pg.data = make([]byte, cfg.PageSize)
			pg.copyset = make(map[gaddr.NodeID]struct{})
		}
		n.pages[p] = pg
	}
	n.ep.HandleProc(procReadFault, n.handleReadFault)
	n.ep.HandleProc(procWriteFault, n.handleWriteFault)
	n.ep.HandleProc(procInvalidate, n.handleInvalidate)
	n.installLockServer()
	n.ep.Listen()
	return n
}

// Stats exposes the node's fault/message counters.
func (n *Node) Stats() *stats.Set { return n.counts }

// PageOf returns the page number containing addr.
func (n *Node) PageOf(addr int) int { return addr / n.cfg.PageSize }

// managerOf returns the manager node for a page (fixed/centralized modes).
func (n *Node) managerOf(p int) gaddr.NodeID {
	if n.cfg.Manager == Centralized {
		return 0
	}
	return gaddr.NodeID(p % n.cfg.Nodes)
}

func (n *Node) checkRange(addr, size int) (int, error) {
	if addr < 0 || size < 0 || addr+size > n.cfg.PageSize*n.cfg.NumPages {
		return 0, fmt.Errorf("%w: [%d,+%d)", ErrOutOfRange, addr, size)
	}
	p := n.PageOf(addr)
	if size > 0 && n.PageOf(addr+size-1) != p {
		return 0, fmt.Errorf("%w: [%d,+%d)", ErrCrossPage, addr, size)
	}
	return p, nil
}

// Read copies size bytes at addr into a fresh slice, faulting each touched
// page to read access as needed. An access spanning pages faults the pages
// one at a time, exactly as a memcpy over mapped-but-invalid pages would.
// Spanning reads are not atomic across pages (neither are they on real SVM).
func (n *Node) Read(addr, size int) ([]byte, error) {
	if addr < 0 || size < 0 || addr+size > n.cfg.PageSize*n.cfg.NumPages {
		return nil, fmt.Errorf("%w: [%d,+%d)", ErrOutOfRange, addr, size)
	}
	out := make([]byte, size)
	for done := 0; done < size; {
		p := n.PageOf(addr + done)
		off := addr + done - p*n.cfg.PageSize
		chunk := n.cfg.PageSize - off
		if chunk > size-done {
			chunk = size - done
		}
		pg := n.pages[p]
		pg.mu.Lock()
		if err := n.ensureLocked(pg, p, pageRead); err != nil {
			pg.mu.Unlock()
			return nil, err
		}
		copy(out[done:done+chunk], pg.data[off:off+chunk])
		pg.mu.Unlock()
		done += chunk
	}
	return out, nil
}

// Write stores data at addr, faulting each touched page to write access as
// needed (spanning accesses fault page by page, non-atomically).
func (n *Node) Write(addr int, data []byte) error {
	size := len(data)
	if addr < 0 || addr+size > n.cfg.PageSize*n.cfg.NumPages {
		return fmt.Errorf("%w: [%d,+%d)", ErrOutOfRange, addr, size)
	}
	for done := 0; done < size; {
		p := n.PageOf(addr + done)
		off := addr + done - p*n.cfg.PageSize
		chunk := n.cfg.PageSize - off
		if chunk > size-done {
			chunk = size - done
		}
		pg := n.pages[p]
		pg.mu.Lock()
		if err := n.ensureLocked(pg, p, pageWrite); err != nil {
			pg.mu.Unlock()
			return err
		}
		copy(pg.data[off:off+chunk], data[done:done+chunk])
		pg.mu.Unlock()
		done += chunk
	}
	return nil
}

// ReadU64 and WriteU64 are convenience word accessors.
func (n *Node) ReadU64(addr int) (uint64, error) {
	b, err := n.Read(addr, 8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

func (n *Node) WriteU64(addr int, v uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return n.Write(addr, b[:])
}

// CAS performs an atomic compare-and-swap on a shared 64-bit word: it
// acquires write ownership of the page (invalidating all copies — this is
// what makes shared-memory spinlocks thrash, §4.1) and performs the swap
// locally.
func (n *Node) CAS(addr int, old, new uint64) (bool, error) {
	p, err := n.checkRange(addr, 8)
	if err != nil {
		return false, err
	}
	pg := n.pages[p]
	pg.mu.Lock()
	defer pg.mu.Unlock()
	if err := n.ensureLocked(pg, p, pageWrite); err != nil {
		return false, err
	}
	off := addr - p*n.cfg.PageSize
	cur := binary.LittleEndian.Uint64(pg.data[off : off+8])
	if cur != old {
		return false, nil
	}
	binary.LittleEndian.PutUint64(pg.data[off:off+8], new)
	return true, nil
}

// Access reports the node's current access to a page (for tests): 0 none,
// 1 read, 2 write.
func (n *Node) Access(p int) int {
	pg := n.pages[p]
	pg.mu.Lock()
	defer pg.mu.Unlock()
	return int(pg.state)
}
