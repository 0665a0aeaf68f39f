package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"amber/internal/gaddr"
	"amber/internal/objspace"
	"amber/internal/rpc"
	"amber/internal/sched"
	"amber/internal/stats"
	"amber/internal/trace"
	"amber/internal/transport"
	"amber/internal/wire"
)

// NodeConfig parameterizes one node.
type NodeConfig struct {
	// ID is this node's identity.
	ID gaddr.NodeID
	// Procs is the number of processor slots (CPUs usable by Amber
	// threads); the Fireflies of the paper contributed up to four each.
	Procs int
	// ServerNode hosts the address-space server (normally node 0).
	ServerNode gaddr.NodeID
	// Policy builds the initial per-slot scheduling discipline (nil = the
	// scheduler's bounded work-stealing deque). The constructor is invoked
	// once per processor slot.
	Policy func() sched.Policy
	// Quantum enables cooperative timeslicing: Checkpoint yields after a
	// thread has held a processor this long. Zero disables.
	Quantum time.Duration
	// MoveDrainTimeout bounds how long a move waits for bound threads to
	// leave the object (0 = 10s). Prevents cross-move deadlocks from
	// hanging forever.
	MoveDrainTimeout time.Duration
	// MaxHops bounds forwarding-chain traversal (0 = 64).
	MaxHops int
	// RegionsPerGrant is how many address-space regions to request per
	// server round trip (0 = 4).
	RegionsPerGrant int
	// RPCTimeout bounds every internode request (invocation shipping,
	// moves, installs, server calls). Zero waits forever — appropriate on
	// a reliable fabric; set it when messages can be lost (the system has
	// no retransmission layer, faithfully to the original, which ran over
	// a LAN it trusted).
	RPCTimeout time.Duration
	// ProbeTimeout bounds the health probe used to classify a timed-out call
	// as ErrTimeout (peer alive) vs ErrNodeDown (peer dead). Zero uses the
	// rpc default (250ms).
	ProbeTimeout time.Duration
	// Generation is this node's incarnation number, reported in health-probe
	// answers; a peer that sees it change knows this node restarted and lost
	// its memory. Zero keeps the rpc default (1). Real deployments derive it
	// from the process start time.
	Generation uint64
	// DebugImmutable enables write detection on immutable objects: state
	// is snapshotted around each invocation and compared.
	DebugImmutable bool
	// Tracing enables thread-journey event recording from startup. The
	// tracer always exists (so it can be enabled at runtime through the
	// introspection endpoint); when disabled every instrumentation site
	// costs a single atomic load.
	Tracing bool
	// TraceBuffer is the per-node event ring capacity (0 = trace default).
	TraceBuffer int
	// TraceSample records only thread journeys whose ID ≡ 0 (mod TraceSample)
	// (0 or 1 = every journey). Sampling is by journey, not by event, so a
	// sampled thread's whole cross-node story is kept; both ends of a shipped
	// invocation apply the same modulus to the same thread ID, so they agree
	// without coordination.
	TraceSample uint64
	// Tracer, when non-nil, is used instead of a freshly created one — the
	// amberd process shares one tracer between the node and the process-wide
	// emitters (wire codec, TCP dialer).
	Tracer *trace.Tracer
	// SpaceShards is the lock-stripe count of the node's object-space table
	// (rounded up to a power of two; 0 = objspace.DefaultShards). More
	// shards means more concurrency between independent lookups, hints and
	// moves, at a small fixed memory cost per shard.
	SpaceShards int
	// HintCache caps the location-hint cache (total entries, split across
	// shards; 0 = objspace.DefaultHintCap). Hints beyond the cap evict the
	// oldest entry in the shard (FIFO), so churny workloads cannot grow the
	// cache without bound.
	HintCache int
	// ReplicaCache caps the demand-pulled immutable replicas this node keeps
	// (total entries, split across shards; 0 = objspace.DefaultReplicaCap,
	// negative disables read-path replication). A full shard evicts its
	// oldest replica (FIFO), tearing the local copy down to a forwarding
	// tombstone aimed back at the replica's source.
	ReplicaCache int
	// ReplicaMaxBytes caps the marshalled snapshot size an invoke reply may
	// piggyback for replica installation (0 = 64KiB, negative disables
	// piggybacking). Larger immutable objects still replicate on explicit
	// MoveTo; they just will not ride invoke replies.
	ReplicaMaxBytes int
	// HeatInterval enables heat-driven placement: every interval the node
	// folds its per-object invoke counters and migrates objects whose
	// dominant remote caller decisively outweighs all other use (see
	// heat.go). Zero disables the tracker entirely (no per-invoke cost).
	HeatInterval time.Duration
	// HeatRatio is the dominance ratio: the top remote caller's EWMA must
	// be at least this multiple of the sum of every other caller's (local
	// use included) before the object moves (0 = 2.0).
	HeatRatio float64
	// HeatMin is the minimum EWMA rate, in invokes per interval, below
	// which an object is never moved (0 = 16).
	HeatMin float64
	// HeatEntries caps the tracker table (total objects under accounting,
	// split across shards; 0 = 4096). A full shard sheds new observations.
	HeatEntries int
	// PipelineWindow caps how many async invocations this node keeps on the
	// wire toward one peer at once; requests inside a window share socket
	// flushes (0 = rpc.DefaultPipelineWindow, 64).
	PipelineWindow int
	// PipelineDepth caps the total outstanding async invocations per peer —
	// on the wire plus queued behind the window. Beyond it, AsyncInvoke
	// blocks its caller (admission control). 0 = 4 × PipelineWindow.
	PipelineDepth int
	// LeaseTTL is the lifetime of reader leases this node grants on its
	// cacheable mutable objects (0 = 2s, negative disables lease granting).
	// Correctness never depends on the value — a write fences outstanding
	// leases with an invalidation round regardless — so the TTL only bounds
	// how long a lease can pin write latency when its holder is unreachable,
	// and how long a partitioned reader can serve a stale value.
	LeaseTTL time.Duration
}

func (c *NodeConfig) fill() {
	if c.Procs < 1 {
		c.Procs = 1
	}
	if c.MoveDrainTimeout == 0 {
		c.MoveDrainTimeout = 10 * time.Second
	}
	if c.MaxHops == 0 {
		c.MaxHops = 128
	}
	if c.RegionsPerGrant == 0 {
		c.RegionsPerGrant = 4
	}
	switch {
	case c.ReplicaMaxBytes == 0:
		c.ReplicaMaxBytes = 64 << 10
	case c.ReplicaMaxBytes < 0:
		c.ReplicaMaxBytes = 0 // piggybacking disabled
	}
	if c.PipelineWindow <= 0 {
		c.PipelineWindow = rpc.DefaultPipelineWindow
	}
	if c.PipelineDepth <= 0 {
		c.PipelineDepth = 4 * c.PipelineWindow
	}
	switch {
	case c.LeaseTTL == 0:
		c.LeaseTTL = 2 * time.Second
	case c.LeaseTTL < 0:
		c.LeaseTTL = 0 // lease granting disabled
	}
}

// Node is one participant in an Amber computation: a descriptor table over
// the global object space, a thread scheduler with Procs slots, and a
// protocol engine for invocation routing and migration. It corresponds to
// one Topaz task on one Firefly in the original system.
type Node struct {
	cfg     NodeConfig
	id      gaddr.NodeID
	reg     *Registry
	alloc   *gaddr.Allocator
	regions *gaddr.Table
	ep      *rpc.Endpoint
	sch     *sched.Scheduler
	counts  *stats.Set
	tracer  *trace.Tracer

	// Latency histograms on the runtime's hot paths, cached out of counts so
	// recording is one atomic bucket increment, never a map lookup.
	histLocal  *stats.Histogram // invoke_local_ns: resident fast path
	histRemote *stats.Histogram // invoke_remote_ns: full function-ship round trip
	histExec   *stats.Histogram // invoke_exec_ns: remote execution leg
	histMove   *stats.Histogram // move_ns: MoveTo round trip

	// Hot-path counters, cached out of counts for the same reason: Set.Inc
	// is a mutex-guarded map lookup, which would serialize parallel local
	// invokes on one node.
	cInvokesLocal *stats.Counter // invokes_local
	cResidency    *stats.Counter // residency_checks
	cHintHits     *stats.Counter // hint_hits
	cHintMisses   *stats.Counter // hint_misses
	cReplicaHits  *stats.Counter // replica_hits
	cReplicaMiss  *stats.Counter // replica_misses
	cReplicaInst  *stats.Counter // replica_installs
	cLeaseHits    *stats.Counter // lease_hits
	cLeaseGrants  *stats.Counter // lease_grants
	cLeaseInst    *stats.Counter // lease_installs

	// The engine's per-message counters (engine.go), each incremented in
	// exactly one place.
	cInvokesShipped    *stats.Counter // invokes_shipped
	cChainsShipped     *stats.Counter // chains_shipped
	cReturnChecks      *stats.Counter // return_checks
	cExecutedForRemote *stats.Counter // invokes_executed_for_remote
	cChainSteps        *stats.Counter // chain_steps_executed
	cForwards          *stats.Counter // forwards
	cChainsForwarded   *stats.Counter // chains_forwarded
	cAsyncInvokes      *stats.Counter // async_invokes

	// replicaMax is the filled ReplicaMaxBytes; replicaOn gates the whole
	// read-path replication machinery (snapshot requests and installs).
	replicaMax uint64
	replicaOn  bool

	// The coherence layer's grant table: for each local leasable object, the
	// peers holding live reader leases and the epoch/expiry each was granted
	// under (see lease.go). leaseTTL is the filled LeaseTTL; zero disables
	// granting (held leases from other nodes still work).
	leaseMu     sync.Mutex
	leaseGrants map[gaddr.Addr]map[gaddr.NodeID]leaseGrant
	leaseTTL    time.Duration

	// heat is the per-object invoke-rate tracker driving load-aware
	// placement; nil when NodeConfig.HeatInterval is zero, which is also
	// the fast paths' only added cost then (one nil check).
	heat     *heatTracker
	cHeatObs *stats.Counter // heat_observed

	// capture is the anomaly-triggered flight-recorder controller (nil until
	// SetCapture); every failed internode call and every heat-migration storm
	// offers it a trigger. Held behind an atomic pointer so wiring it up after
	// startup needs no lock on the call paths.
	capture atomic.Pointer[trace.Capture]

	// Latency exemplars: alongside each hot-path histogram, the most recent
	// traced journey per bucket, so a p99 spike on /metrics links to the
	// journey that produced it.
	exRemote stats.Exemplars // invoke_remote_ns
	exExec   stats.Exemplars // invoke_exec_ns

	// installq feeds the replica installer: one long-lived worker applying
	// snapshot installs off the invoke reply path. The queue is bounded and
	// sheds on overflow — installs are opportunistic (the next cold miss
	// carries the snapshot again), and spawning a goroutine per install costs
	// more than the install itself. stopc parks the worker on Close.
	installq chan replicaInstall
	stopc    chan struct{}

	// space is the node's sharded object-space table: descriptors and
	// location hints for the global addresses this node has touched, lock-
	// striped by address hash (§3.2–§3.3; see internal/objspace). Hints are
	// advisory — descriptor state always wins — and are dropped when a
	// routed call through them fails.
	space *objspace.Space[payload]

	// pipes are the per-peer async-invocation pipelines (see peerPipe),
	// created lazily on first AsyncInvoke toward a peer.
	pipeMu sync.Mutex
	pipes  map[gaddr.NodeID]*peerPipe

	// server is non-nil on the node hosting the address-space server.
	server *gaddr.Server

	threadSeq atomic.Uint64
	closed    atomic.Bool
}

// NewNode assembles a node over a transport. server must be non-nil exactly
// when cfg.ID == cfg.ServerNode. The node immediately requests its initial
// region pool from the server (§3.1 startup assignment).
func NewNode(cfg NodeConfig, reg *Registry, tr transport.Transport, server *gaddr.Server) (*Node, error) {
	cfg.fill()
	if (cfg.ID == cfg.ServerNode) != (server != nil) {
		return nil, fmt.Errorf("amber: node %d: server presence mismatch", cfg.ID)
	}
	n := &Node{
		cfg:    cfg,
		id:     cfg.ID,
		reg:    reg,
		ep:     rpc.NewEndpoint(tr),
		sch:    sched.New(cfg.Procs, cfg.Policy),
		counts: stats.NewSet(),
		tracer: cfg.Tracer,
		space:  objspace.New[payload](cfg.SpaceShards, cfg.HintCache, cfg.ReplicaCache),
		server: server,
		pipes:  make(map[gaddr.NodeID]*peerPipe),
	}
	n.ep.SetPipelineWindow(cfg.PipelineWindow)
	n.replicaMax = uint64(cfg.ReplicaMaxBytes)
	n.replicaOn = cfg.ReplicaCache >= 0 && cfg.ReplicaMaxBytes > 0
	n.stopc = make(chan struct{})
	if n.replicaOn {
		n.installq = make(chan replicaInstall, 128)
		go n.replicaWorker()
	}
	if cfg.HeatInterval > 0 {
		n.heat = newHeatTracker(cfg.HeatInterval, cfg.HeatRatio, cfg.HeatMin, cfg.HeatEntries)
		n.cHeatObs = n.counts.Get("heat_observed")
		go n.heatWorker()
	}
	if n.tracer == nil {
		n.tracer = trace.New(int32(cfg.ID), cfg.TraceBuffer)
	}
	if cfg.Tracing {
		n.tracer.SetEnabled(true)
	}
	if cfg.TraceSample > 1 {
		n.tracer.SetSample(cfg.TraceSample)
	}
	n.histLocal = n.counts.Hist("invoke_local_ns")
	n.histRemote = n.counts.Hist("invoke_remote_ns")
	n.histExec = n.counts.Hist("invoke_exec_ns")
	n.histMove = n.counts.Hist("move_ns")
	n.cInvokesLocal = n.counts.Get("invokes_local")
	n.cResidency = n.counts.Get("residency_checks")
	n.cHintHits = n.counts.Get("hint_hits")
	n.cHintMisses = n.counts.Get("hint_misses")
	n.cReplicaHits = n.counts.Get("replica_hits")
	n.cReplicaMiss = n.counts.Get("replica_misses")
	n.cReplicaInst = n.counts.Get("replica_installs")
	n.cLeaseHits = n.counts.Get("lease_hits")
	n.cLeaseGrants = n.counts.Get("lease_grants")
	n.cLeaseInst = n.counts.Get("lease_installs")
	n.cInvokesShipped = n.counts.Get("invokes_shipped")
	n.cChainsShipped = n.counts.Get("chains_shipped")
	n.cReturnChecks = n.counts.Get("return_checks")
	n.cExecutedForRemote = n.counts.Get("invokes_executed_for_remote")
	n.cChainSteps = n.counts.Get("chain_steps_executed")
	n.cForwards = n.counts.Get("forwards")
	n.cChainsForwarded = n.counts.Get("chains_forwarded")
	n.cAsyncInvokes = n.counts.Get("async_invokes")
	n.leaseTTL = cfg.LeaseTTL
	n.leaseGrants = make(map[gaddr.Addr]map[gaddr.NodeID]leaseGrant)
	n.regions = gaddr.NewTable(nil, n.resolveRegion)
	n.alloc = gaddr.NewAllocator(cfg.ID, nil, n.extendRegions)
	if cfg.Generation != 0 {
		n.ep.SetGeneration(cfg.Generation)
	}
	// When a peer restarts it lost its memory: every hint steering threads
	// toward its old incarnation is garbage, and so is every cached copy
	// pulled from it — a lease granted by the dead incarnation must not keep
	// serving pre-crash reads. Forwarding tombstones stay — the objects they
	// point at died with the peer, and routing through them now surfaces
	// ErrNodeDown/ErrNoSuchObject honestly instead of silently.
	n.ep.OnPeerRestart(func(peer gaddr.NodeID) {
		n.counts.Inc("peer_restarts_observed")
		n.purgePeer(peer)
	})
	// A peer marked down gets the same purge immediately rather than at
	// restart detection: its leases can no longer be revoked (the fence would
	// time out) and its replicas' forward target is unreachable anyway.
	n.ep.OnPeerDown(func(peer gaddr.NodeID) {
		n.purgePeer(peer)
	})
	n.ep.HandleProc(procRouted, n.handleRouted)
	n.ep.HandleProc(procInstall, n.handleInstall)
	n.ep.HandleProc(procLocUpdate, n.handleLocUpdate)
	n.ep.HandleProc(procTraceDump, n.handleTraceDump)
	n.ep.HandleProc(procStatsPull, n.handleStatsPull)
	n.ep.HandleProc(procLease, n.handleLease)
	if server != nil {
		n.ep.HandleProc(procRegion, n.handleRegion)
	}
	// Startup pool.
	regs, err := n.requestRegions(cfg.RegionsPerGrant)
	if err != nil {
		return nil, fmt.Errorf("amber: node %d: initial region grant: %w", cfg.ID, err)
	}
	for _, r := range regs {
		n.regions.Learn(r, cfg.ID)
	}
	n.alloc = gaddr.NewAllocator(cfg.ID, regs, n.extendRegions)
	return n, nil
}

// ID returns the node's identity.
func (n *Node) ID() gaddr.NodeID { return n.id }

// Stats exposes the node's runtime counters and latency histograms.
func (n *Node) Stats() *stats.Set { return n.counts }

// RPCStats exposes the RPC endpoint's counters (for metrics rendering).
func (n *Node) RPCStats() *stats.Set { return n.ep.Stats() }

// Endpoint exposes the node's RPC engine (health inspection: PeerDown,
// WatchPeer, generations).
func (n *Node) Endpoint() *rpc.Endpoint { return n.ep }

// Tracer exposes the node's thread-journey event ring.
func (n *Node) Tracer() *trace.Tracer { return n.tracer }

// --- trace collection (merging per-node rings, §observability) ---

// handleTraceDump serves procTraceDump: it returns this node's buffered
// trace events so a collector elsewhere in the cluster can stitch journeys.
// The dump rides the gob fallback — it is an introspection path, not a hot
// one.
func (n *Node) handleTraceDump(rc *rpc.Ctx) {
	var req traceDumpMsg
	if err := wire.UnmarshalFrom(rc.Body, &req); err != nil {
		rc.Reply(nil, err)
		return
	}
	body, err := wire.MarshalInto(&traceDumpReply{Events: n.tracer.Last(req.Last)})
	rc.Reply(body, err)
}

// collectPeerTrace fetches one peer's buffered events over RPC and shifts
// their timestamps by the estimated clock offset for that peer, so the merged
// timeline reads in this node's clock. The fetch is bounded even when the
// node's RPCTimeout is "wait forever" — a collector must not hang on a dead
// peer.
func (n *Node) collectPeerTrace(p gaddr.NodeID, last int) ([]trace.Event, error) {
	body, err := wire.MarshalInto(&traceDumpMsg{Last: last})
	if err != nil {
		return nil, err
	}
	timeout := n.cfg.RPCTimeout
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	resp, err := n.ep.CallTimeout(p, procTraceDump, body, timeout)
	if err != nil {
		return nil, fmt.Errorf("amber: trace dump from node %d: %w", p, err)
	}
	var rep traceDumpReply
	derr := wire.UnmarshalFrom(resp, &rep)
	wire.PutBuf(resp)
	if derr != nil {
		return nil, derr
	}
	// Clock alignment (see internal/rpc/health.go): the offset estimate comes
	// for free from health probes; when none has been sampled yet the events
	// stay unshifted rather than guessed.
	if off, ok := n.ep.PeerClockOffset(p); ok {
		trace.Shift(rep.Events, off)
	}
	return rep.Events, nil
}

// CollectTrace merges this node's trace events with those fetched from the
// given peers into one timestamp-ordered, clock-aligned timeline. last bounds
// the events requested per node (<=0 = everything buffered). Any unreachable
// peer fails the collection; use CollectTraceBestEffort when a partial
// timeline beats none.
func (n *Node) CollectTrace(peers []gaddr.NodeID, last int) ([]trace.Event, error) {
	sets := [][]trace.Event{n.tracer.Last(last)}
	for _, p := range peers {
		if p == n.id {
			continue
		}
		evs, err := n.collectPeerTrace(p, last)
		if err != nil {
			return nil, err
		}
		sets = append(sets, evs)
	}
	return trace.Collect(sets...), nil
}

// CollectTraceBestEffort is CollectTrace for the flight recorder: a peer that
// cannot be reached (usually the very node whose death triggered the capture)
// contributes an error string instead of failing the dump.
func (n *Node) CollectTraceBestEffort(peers []gaddr.NodeID, last int) ([]trace.Event, []string) {
	sets := [][]trace.Event{n.tracer.Last(last)}
	var errs []string
	for _, p := range peers {
		if p == n.id {
			continue
		}
		evs, err := n.collectPeerTrace(p, last)
		if err != nil {
			errs = append(errs, err.Error())
			continue
		}
		sets = append(sets, evs)
	}
	return trace.Collect(sets...), errs
}

// SetCapture installs the anomaly-triggered capture controller; the node
// offers it a trigger on every failed internode call and every heat storm.
// nil disables.
func (n *Node) SetCapture(c *trace.Capture) { n.capture.Store(c) }

// Capture returns the installed capture controller (nil if none).
func (n *Node) Capture() *trace.Capture { return n.capture.Load() }

// Exemplars returns the node's latency exemplars — the latest traced journey
// per histogram bucket — keyed by histogram metric name.
func (n *Node) Exemplars() map[string][]stats.Exemplar {
	return map[string][]stats.Exemplar{
		"node_invoke_remote_ns": n.exRemote.Snapshot(),
		"node_invoke_exec_ns":   n.exExec.Snapshot(),
	}
}

// Scheduler exposes the node's thread scheduler (for policy replacement and
// introspection, §2.1).
func (n *Node) Scheduler() *sched.Scheduler { return n.sch }

// Registry returns the class registry this node dispatches against.
func (n *Node) Registry() *Registry { return n.reg }

// Objects reports how many descriptors this node holds in each state;
// useful for tests and the harness. The census is lock-free: each
// descriptor's state and mode ride in one atomic word.
func (n *Node) Objects() map[string]int {
	out := map[string]int{}
	n.space.Range(func(_ gaddr.Addr, d *descriptor) bool {
		switch d.State() {
		case stateResident:
			switch {
			case d.Replica():
				out["replica"]++
			case d.Lease():
				out["lease"]++
			default:
				out["resident"]++
			}
		case stateMoving:
			out["moving"]++
		case stateForwarded:
			out["forwarded"]++
		case stateDeleted:
			out["deleted"]++
		}
		return true
	})
	return out
}

// Space exposes the node's sharded object-space table (shard layout,
// contention counters, hint occupancy) for introspection and tests.
func (n *Node) Space() *objspace.Space[payload] { return n.space }

// SpaceStats snapshots the object-space table's aggregate counters.
func (n *Node) SpaceStats() map[string]int64 { return n.space.Snapshot() }

// Close marks the node shut down. In-flight operations may still complete;
// transports are owned by the cluster.
func (n *Node) Close() {
	if n.closed.CompareAndSwap(false, true) {
		close(n.stopc)
	}
}

// --- address-space server protocol (§3.1) ---

func (n *Node) requestRegions(count int) ([]gaddr.Region, error) {
	if n.server != nil {
		return n.server.Grant(n.id, count)
	}
	body, err := wire.MarshalInto(&regionMsg{Grant: count, Node: n.id})
	if err != nil {
		return nil, err
	}
	resp, err := n.call(n.cfg.ServerNode, procRegion, body)
	if err != nil {
		return nil, err
	}
	var rr regionReply
	derr := wire.UnmarshalFrom(resp, &rr)
	wire.PutBuf(resp)
	if derr != nil {
		return nil, derr
	}
	return rr.Regions, nil
}

func (n *Node) extendRegions(count int) ([]gaddr.Region, error) {
	regs, err := n.requestRegions(count)
	if err != nil {
		return nil, err
	}
	for _, r := range regs {
		n.regions.Learn(r, n.id)
	}
	n.counts.Inc("region_extensions")
	return regs, nil
}

// resolveRegion asks the server who owns a region (lazy mapping, §3.1).
func (n *Node) resolveRegion(r gaddr.Region) gaddr.NodeID {
	if n.server != nil {
		return n.server.OwnerOf(r)
	}
	body, err := wire.MarshalInto(&regionMsg{Query: r, Node: n.id})
	if err != nil {
		return gaddr.NoNode
	}
	resp, err := n.call(n.cfg.ServerNode, procRegion, body)
	if err != nil {
		return gaddr.NoNode
	}
	var rr regionReply
	derr := wire.UnmarshalFrom(resp, &rr)
	wire.PutBuf(resp)
	if derr != nil {
		return gaddr.NoNode
	}
	return rr.Owner
}

func (n *Node) handleRegion(c *rpc.Ctx) {
	var msg regionMsg
	if err := wire.UnmarshalFrom(c.Body, &msg); err != nil {
		c.Reply(nil, err)
		return
	}
	var rr regionReply
	if msg.Grant > 0 {
		regs, err := n.server.Grant(msg.Node, msg.Grant)
		if err != nil {
			c.Reply(nil, err)
			return
		}
		rr.Regions = regs
	} else {
		rr.Owner = n.server.OwnerOf(msg.Query)
	}
	body, err := wire.MarshalInto(&rr)
	c.Reply(body, err)
}

// call performs an internode request honouring the node's RPC timeout.
func (n *Node) call(to gaddr.NodeID, p rpc.Proc, body []byte) ([]byte, error) {
	return n.ep.CallTimeout(to, p, body, n.cfg.RPCTimeout)
}

// callTraced is call with an explicit trace context in the envelope.
func (n *Node) callTraced(to gaddr.NodeID, p rpc.Proc, body []byte, ti rpc.TraceInfo) ([]byte, error) {
	return n.ep.CallTraced(to, p, body, n.cfg.RPCTimeout, ti)
}

// --- descriptor table ---

// desc returns the descriptor for a, or nil if uninitialized here. Lock-free
// (one sharded sync.Map read).
func (n *Node) desc(a gaddr.Addr) *descriptor {
	return n.space.Get(a)
}

// descEnsure returns the descriptor for a, creating an empty one (caller
// initializes under its lock).
func (n *Node) descEnsure(a gaddr.Addr) *descriptor {
	return n.space.Ensure(a)
}

// newLocalObject allocates an address and installs obj as resident on this
// node. It is the implementation of object creation (§3.2): "when a new
// object is created it is allocated from the heap on a particular node; the
// descriptor is initialized on that node".
func (n *Node) newLocalObject(obj any) (gaddr.Addr, error) {
	ti, err := n.reg.lookupValue(obj)
	if err != nil {
		return gaddr.Nil, err
	}
	// The size charged against the address space approximates the paper's
	// heap blocks; exact sizing is irrelevant since addresses are opaque.
	a, err := n.alloc.Alloc(256)
	if err != nil {
		return gaddr.Nil, err
	}
	d := n.descEnsure(a)
	d.Lock()
	// Payload before the resident transition: the atomic state word is what
	// publishes it to lock-free TryPin readers.
	d.Payload = newPayload(valueOf(obj), ti)
	d.SetEpochLocked(1)
	d.SetStateLocked(stateResident)
	d.Unlock()
	n.counts.Inc("objects_created")
	return a, nil
}

// --- location update (chain caching, §3.3) ---

// hintGet consults the location-hint cache.
func (n *Node) hintGet(obj gaddr.Addr) (gaddr.NodeID, bool) {
	return n.space.HintGet(obj)
}

// hintSet records where obj was last seen. Self- and unknown-node hints are
// useless and dropped; a full shard evicts its oldest hint (FIFO).
func (n *Node) hintSet(obj gaddr.Addr, at gaddr.NodeID) {
	if at == n.id || at == gaddr.NoNode {
		return
	}
	if n.space.HintSet(obj, at) {
		n.counts.Inc("hint_evictions")
	}
}

// hintDrop forgets a (presumed stale) hint, reporting whether one existed.
func (n *Node) hintDrop(obj gaddr.Addr) bool {
	return n.space.HintDrop(obj)
}

// dropHintsTo forgets every hint pointing at a peer (used when the peer is
// discovered to have restarted without its memory). The sweep walks the
// sharded hint cache stripe by stripe — bounded maps under per-shard locks,
// never one giant map under a single lock.
func (n *Node) dropHintsTo(peer gaddr.NodeID) {
	if dropped := n.space.DropHintsTo(peer); dropped > 0 {
		n.counts.Add("hints_dropped_restart", int64(dropped))
	}
}

func (n *Node) handleLocUpdate(c *rpc.Ctx) {
	var msg locUpdateMsg
	if err := wire.UnmarshalFrom(c.Body, &msg); err != nil {
		return
	}
	if d := n.desc(msg.Obj); d != nil {
		d.Lock()
		switch d.State() {
		case stateResident, stateMoving, stateDeleted:
			// We know better than the hint.
		default:
			// Refresh the forwarding tombstone a real move left behind —
			// but only with strictly newer information. Oneway updates can
			// arrive arbitrarily late; an unversioned refresh here could
			// point this tombstone *backward* and close a forwarding cycle
			// with some other node's newer tombstone.
			if msg.Epoch > d.Epoch() {
				d.SetStateLocked(stateForwarded)
				d.Fwd = msg.Node
				d.SetEpochLocked(msg.Epoch)
				n.counts.Inc("chain_updates_applied")
			} else {
				n.counts.Inc("chain_updates_stale")
			}
		}
		d.Unlock()
		return
	}
	// Never hosted the object here: remember the location as a cache hint
	// instead of fabricating a descriptor for it.
	n.hintSet(msg.Obj, msg.Node)
	n.counts.Inc("chain_updates_applied")
}

// sendChainUpdates back-patches the nodes an operation traversed so their
// next reference finds the object in one hop (§3.3: "the object's last known
// location is cached on all nodes along the chain"). The origin is excluded:
// it learns the location from the reply itself.
func (n *Node) sendChainUpdates(obj gaddr.Addr, epoch uint64, chain []gaddr.NodeID, origin gaddr.NodeID) {
	if len(chain) == 0 {
		return
	}
	for _, hop := range chain {
		if hop == n.id || hop == origin {
			continue
		}
		// A fresh buffer per hop: the transport takes ownership of each
		// payload it sends, so one buffer cannot fan out to several peers.
		body, err := wire.MarshalInto(&locUpdateMsg{Obj: obj, Node: n.id, Epoch: epoch})
		if err != nil {
			return
		}
		if n.ep.Oneway(hop, procLocUpdate, body) == nil {
			n.counts.Inc("chain_updates_sent")
		}
	}
}

// homeOf computes an object's home node from its address alone (§3.3).
func (n *Node) homeOf(a gaddr.Addr) gaddr.NodeID {
	return n.regions.HomeOf(a)
}
