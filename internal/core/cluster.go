package core

import (
	"fmt"
	"time"

	"amber/internal/gaddr"
	"amber/internal/stats"
	"amber/internal/trace"
	"amber/internal/transport"
)

// ClusterConfig describes an in-process cluster: N nodes, each with P
// processor slots, connected by a fabric with the given delay profile.
type ClusterConfig struct {
	// Nodes is the number of nodes (Fireflies); minimum 1.
	Nodes int
	// ProcsPerNode is each node's processor count; minimum 1.
	ProcsPerNode int
	// Profile is the network delay model (zero value = no injected delay;
	// transport.Ethernet1989 reproduces the paper's testbed).
	Profile transport.NetProfile
	// Quantum enables cooperative timeslicing (see NodeConfig.Quantum).
	Quantum time.Duration
	// MoveDrainTimeout bounds move drains (see NodeConfig).
	MoveDrainTimeout time.Duration
	// RPCTimeout bounds internode requests (see NodeConfig.RPCTimeout);
	// set it when using fault injection so lost messages surface as errors.
	RPCTimeout time.Duration
	// ProbeTimeout bounds health probes (see NodeConfig.ProbeTimeout).
	ProbeTimeout time.Duration
	// FaultSeed, when non-zero, attaches a seeded fault injector to the
	// fabric (reachable via Faults()): crash/restart/partition/loss rules
	// replay identically for a given seed.
	FaultSeed int64
	// SpaceShards sets each node's object-space stripe count (see
	// NodeConfig.SpaceShards; 0 = default).
	SpaceShards int
	// ReplicaCache caps each node's demand-pulled copy cache (see
	// NodeConfig.ReplicaCache; 0 = default, negative disables copies).
	ReplicaCache int
	// LeaseTTL is the reader-lease lifetime for cacheable mutable objects
	// (see NodeConfig.LeaseTTL; 0 = default 2s, negative disables leases).
	LeaseTTL time.Duration
	// DebugImmutable enables immutable write detection (see NodeConfig).
	DebugImmutable bool
	// HeatInterval enables heat-driven placement on every node (see
	// NodeConfig.HeatInterval; 0 disables).
	HeatInterval time.Duration
	// HeatRatio is the heat dominance ratio (see NodeConfig.HeatRatio).
	HeatRatio float64
	// HeatMin is the minimum heat rate to move (see NodeConfig.HeatMin).
	HeatMin float64
	// HeatEntries caps each node's heat table (see NodeConfig.HeatEntries).
	HeatEntries int
	// PipelineWindow caps on-the-wire async invokes per peer (see
	// NodeConfig.PipelineWindow; 0 = default 64).
	PipelineWindow int
	// PipelineDepth caps total outstanding async invokes per peer (see
	// NodeConfig.PipelineDepth; 0 = 4 × window).
	PipelineDepth int
	// Registry shares class registrations; nil creates a fresh one.
	Registry *Registry
	// Tracing enables thread-journey event recording on every node (see
	// internal/trace); SetTracing can toggle it later.
	Tracing bool
	// TraceBuffer is each node's event ring capacity (0 = trace default).
	TraceBuffer int
	// TraceSample records only journeys whose thread ID ≡ 0 (mod sample);
	// see NodeConfig.TraceSample.
	TraceSample uint64
}

// Cluster is an in-process Amber deployment: the moral equivalent of the
// paper's group of Fireflies running one program image, with the Ethernet
// replaced by a delay-modelled fabric.
type Cluster struct {
	fabric *transport.Fabric
	server *gaddr.Server
	reg    *Registry
	nodes  []*Node
}

// NewCluster builds and starts a cluster. Node 0 hosts the address-space
// server; every node receives its initial region pool during construction
// (§3.1).
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.Nodes < 1 {
		cfg.Nodes = 1
	}
	if cfg.ProcsPerNode < 1 {
		cfg.ProcsPerNode = 1
	}
	reg := cfg.Registry
	if reg == nil {
		reg = NewRegistry()
	}
	cl := &Cluster{
		fabric: transport.NewFabric(cfg.Profile),
		server: gaddr.NewServer(0),
		reg:    reg,
	}
	if cfg.FaultSeed != 0 {
		cl.fabric.SetFaults(transport.NewFaults(cfg.FaultSeed))
	}
	for i := 0; i < cfg.Nodes; i++ {
		id := gaddr.NodeID(i)
		tr, err := cl.fabric.Attach(id)
		if err != nil {
			cl.Close()
			return nil, err
		}
		var srv *gaddr.Server
		if id == 0 {
			srv = cl.server
		}
		ncfg := NodeConfig{
			ID:               id,
			Procs:            cfg.ProcsPerNode,
			ServerNode:       0,
			Quantum:          cfg.Quantum,
			MoveDrainTimeout: cfg.MoveDrainTimeout,
			RPCTimeout:       cfg.RPCTimeout,
			ProbeTimeout:     cfg.ProbeTimeout,
			DebugImmutable:   cfg.DebugImmutable,
			Tracing:          cfg.Tracing,
			TraceBuffer:      cfg.TraceBuffer,
			TraceSample:      cfg.TraceSample,
			SpaceShards:      cfg.SpaceShards,
			ReplicaCache:     cfg.ReplicaCache,
			LeaseTTL:         cfg.LeaseTTL,
			HeatInterval:     cfg.HeatInterval,
			HeatRatio:        cfg.HeatRatio,
			HeatMin:          cfg.HeatMin,
			HeatEntries:      cfg.HeatEntries,
			PipelineWindow:   cfg.PipelineWindow,
			PipelineDepth:    cfg.PipelineDepth,
		}
		n, err := NewNode(ncfg, reg, tr, srv)
		if err != nil {
			cl.Close()
			return nil, fmt.Errorf("amber: starting node %d: %w", i, err)
		}
		cl.nodes = append(cl.nodes, n)
	}
	return cl, nil
}

// Register adds a class to the cluster's shared registry. Must be called
// before objects of the type are created.
func (c *Cluster) Register(v any) error { return c.reg.Register(v) }

// Node returns node i.
func (c *Cluster) Node(i int) *Node { return c.nodes[i] }

// NumNodes reports the cluster size.
func (c *Cluster) NumNodes() int { return len(c.nodes) }

// Registry returns the shared class registry.
func (c *Cluster) Registry() *Registry { return c.reg }

// Fabric exposes the underlying network (stats and fault injection in
// tests).
func (c *Cluster) Fabric() *transport.Fabric { return c.fabric }

// Faults returns the cluster's fault injector, attaching a fresh one (seed
// 1) if ClusterConfig.FaultSeed did not already. See transport.Faults for
// the crash/partition/loss model and the scripting grammar.
func (c *Cluster) Faults() *transport.Faults {
	if f := c.fabric.Faults(); f != nil {
		return f
	}
	f := transport.NewFaults(1)
	c.fabric.SetFaults(f)
	return f
}

// NetStats returns fabric-wide message counters.
func (c *Cluster) NetStats() *stats.Set { return c.fabric.Stats() }

// SetTracing toggles thread-journey recording on every node.
func (c *Cluster) SetTracing(on bool) {
	for _, n := range c.nodes {
		n.tracer.SetEnabled(on)
	}
}

// CollectTrace merges every node's buffered trace events into one
// timestamp-ordered timeline. In-process clusters read the rings directly —
// the RPC dump path (Node.CollectTrace) is for multi-process deployments.
func (c *Cluster) CollectTrace() []trace.Event {
	sets := make([][]trace.Event, len(c.nodes))
	for i, n := range c.nodes {
		sets[i] = n.tracer.Snapshot()
	}
	return trace.Collect(sets...)
}

// Close shuts the cluster down.
func (c *Cluster) Close() {
	for _, n := range c.nodes {
		n.Close()
	}
	c.fabric.Close()
}
