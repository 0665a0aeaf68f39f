package core

// Fleet metrics aggregation (DESIGN.md §12): any node can pull every peer's
// full metrics state over procStatsPull and merge it into one cluster-wide
// view — summed counters, merged log2 histograms (the fixed bucket ladder
// makes the merge an element-wise add, no rebinning), the hottest objects
// and busiest internode links from the heat tables, and the per-bucket
// latency exemplars. The merged view renders as Prometheus text under the
// amber_cluster_* namespace (the /cluster debug endpoint) or as JSON (the
// amber-top terminal viewer).
//
// The pull is deliberately lenient: a dead node contributes an error entry,
// not a failed aggregation — a fleet view that vanishes exactly when a node
// dies would be useless for diagnosing that death.
//
// This file also houses the anomaly tripwire (noteCallAnomaly): the one
// funnel every failed internode call passes through, where failures are
// classified into flight-recorder triggers.

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"time"

	"amber/internal/gaddr"
	"amber/internal/rpc"
	"amber/internal/stats"
	"amber/internal/trace"
	"amber/internal/wire"
)

// NodeStats is one node's full metrics state, as served by procStatsPull.
type NodeStats struct {
	Node gaddr.NodeID
	// Err is set (and everything else empty) when the pull from this node
	// failed; the node still appears in the fleet view so its absence is
	// visible.
	Err string
	// Sets holds the node's counter/histogram snapshots by family ("node",
	// "sched", "rpc").
	Sets map[string]stats.SetSnapshot
	// Extras are standalone gauges: object-space occupancy, trace-ring and
	// flight-recorder state, heat-table size.
	Extras map[string]int64
	// Queues is the instantaneous per-slot run-queue depth; Overflow the
	// shared overflow ring's.
	Queues   []int
	Overflow int
	// Heat is the node's placement-tracker dump (Enabled=false when off).
	Heat *HeatDump
	// Exemplars maps histogram names to their per-bucket traced journeys.
	Exemplars map[string][]stats.Exemplar
}

// localStats assembles this node's own NodeStats (the self entry of a fleet
// pull, and the payload handleStatsPull serves).
func (n *Node) localStats(topN int) NodeStats {
	ns := NodeStats{
		Node: n.id,
		Sets: map[string]stats.SetSnapshot{
			"node":  n.counts.SnapshotAll(),
			"sched": n.sch.Stats().SnapshotAll(),
			"rpc":   n.ep.Stats().SnapshotAll(),
		},
		Extras:    make(map[string]int64),
		Heat:      n.HeatDump(topN),
		Exemplars: n.Exemplars(),
	}
	ns.Queues, ns.Overflow = n.sch.QueueDepths()
	for k, v := range n.SpaceStats() {
		ns.Extras["objspace_"+k] = v
	}
	ns.Extras["heat_tracked"] = int64(n.HeatTracked())
	ns.Extras["trace_buffered"] = int64(n.tracer.Len())
	ns.Extras["trace_dropped"] = n.tracer.Dropped()
	for k, v := range n.capture.Load().Stats() {
		ns.Extras[k] = v
	}
	return ns
}

// handleStatsPull serves procStatsPull. Like the trace dump, it rides the
// gob fallback: introspection, not a hot path.
func (n *Node) handleStatsPull(rc *rpc.Ctx) {
	var req statsPullMsg
	if err := wire.UnmarshalFrom(rc.Body, &req); err != nil {
		rc.Reply(nil, err)
		return
	}
	body, err := wire.MarshalInto(&statsPullReply{Stats: n.localStats(req.TopN)})
	rc.Reply(body, err)
}

// pullPeerStats fetches one peer's NodeStats with a bounded timeout (a fleet
// view must not hang on a dead node even when RPCTimeout is "wait forever").
func (n *Node) pullPeerStats(p gaddr.NodeID, topN int) (NodeStats, error) {
	body, err := wire.MarshalInto(&statsPullMsg{TopN: topN})
	if err != nil {
		return NodeStats{}, err
	}
	timeout := n.cfg.RPCTimeout
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	resp, err := n.ep.CallTimeout(p, procStatsPull, body, timeout)
	if err != nil {
		return NodeStats{}, err
	}
	var rep statsPullReply
	derr := wire.UnmarshalFrom(resp, &rep)
	wire.PutBuf(resp)
	if derr != nil {
		return NodeStats{}, derr
	}
	return rep.Stats, nil
}

// ObjHeat is one hot object in the fleet view: where it lives and who wants
// it.
type ObjHeat struct {
	Obj  gaddr.Addr   `json:"obj"`
	Node gaddr.NodeID `json:"node"` // current holder
	Rate float64      `json:"rate"` // total EWMA across all lanes
	// Top is the hottest remote caller (NoNode when use is all local) —
	// where heat-driven placement would send the object.
	Top     gaddr.NodeID `json:"top"`
	TopRate float64      `json:"top_rate"`
}

// LinkHeat is one directed internode invoke lane: traffic From → To, summed
// over every object held by To.
type LinkHeat struct {
	From gaddr.NodeID `json:"from"`
	To   gaddr.NodeID `json:"to"`
	Rate float64      `json:"rate"`
}

// FleetStats is the aggregated cluster view.
type FleetStats struct {
	// CollectedNs is the collector's wall clock at merge time.
	CollectedNs int64 `json:"collected_ns"`
	// Nodes holds every node's raw state, node ID order (error entries
	// included).
	Nodes []NodeStats `json:"nodes"`
	// Merged is the element-wise sum of every reporting node's families.
	Merged map[string]stats.SetSnapshot `json:"merged"`
	// MergedExtras sums the standalone gauges the same way.
	MergedExtras map[string]int64 `json:"merged_extras"`
	// TopObjects are the cluster's hottest objects; Links its busiest
	// internode invoke lanes. Both come from the per-node heat tables, so
	// they are empty when placement is disabled.
	TopObjects []ObjHeat  `json:"top_objects"`
	Links      []LinkHeat `json:"links"`
}

// merge builds the aggregate fields from Nodes.
func (f *FleetStats) merge(topN int) {
	if topN <= 0 {
		topN = 10
	}
	f.Merged = make(map[string]stats.SetSnapshot)
	f.MergedExtras = make(map[string]int64)
	linkSum := make(map[[2]gaddr.NodeID]float64)
	for _, ns := range f.Nodes {
		if ns.Err != "" {
			continue
		}
		for fam, snap := range ns.Sets {
			dst := f.Merged[fam]
			stats.MergeSnapshot(&dst, snap)
			f.Merged[fam] = dst
		}
		for k, v := range ns.Extras {
			f.MergedExtras[k] += v
		}
		if ns.Heat == nil {
			continue
		}
		for _, o := range ns.Heat.Objects {
			f.TopObjects = append(f.TopObjects, ObjHeat{
				Obj: o.Obj, Node: ns.Node, Rate: o.Total,
				Top: o.Top, TopRate: o.TopRate,
			})
			for _, lane := range o.Lanes {
				if lane.Node != ns.Node {
					linkSum[[2]gaddr.NodeID{lane.Node, ns.Node}] += lane.Rate
				}
			}
		}
	}
	sort.Slice(f.TopObjects, func(i, j int) bool { return f.TopObjects[i].Rate > f.TopObjects[j].Rate })
	if len(f.TopObjects) > topN {
		f.TopObjects = f.TopObjects[:topN]
	}
	for k, r := range linkSum {
		f.Links = append(f.Links, LinkHeat{From: k[0], To: k[1], Rate: r})
	}
	sort.Slice(f.Links, func(i, j int) bool {
		if f.Links[i].Rate != f.Links[j].Rate {
			return f.Links[i].Rate > f.Links[j].Rate
		}
		if f.Links[i].From != f.Links[j].From {
			return f.Links[i].From < f.Links[j].From
		}
		return f.Links[i].To < f.Links[j].To
	})
	if len(f.Links) > topN {
		f.Links = f.Links[:topN]
	}
}

// Reporting counts the nodes that contributed (no pull error).
func (f *FleetStats) Reporting() int {
	n := 0
	for _, ns := range f.Nodes {
		if ns.Err == "" {
			n++
		}
	}
	return n
}

// WritePrometheus renders the fleet view in Prometheus text exposition
// format: the merged families under amber_cluster_<family>_*, the summed
// extras under amber_cluster_*, fleet gauges, and the hot-object/link tables
// as labelled gauge series. Per-node exemplars render under each histogram's
// cluster name, labelled by bucket and trace ID.
func (f *FleetStats) WritePrometheus(w io.Writer) {
	fmt.Fprintf(w, "# HELP amber_cluster_nodes nodes in the fleet view (reporting or not)\n")
	fmt.Fprintf(w, "# TYPE amber_cluster_nodes gauge\n")
	fmt.Fprintf(w, "amber_cluster_nodes %d\n", len(f.Nodes))
	fmt.Fprintf(w, "# HELP amber_cluster_nodes_reporting nodes whose stats pull succeeded\n")
	fmt.Fprintf(w, "# TYPE amber_cluster_nodes_reporting gauge\n")
	fmt.Fprintf(w, "amber_cluster_nodes_reporting %d\n", f.Reporting())

	fams := make([]string, 0, len(f.Merged))
	for fam := range f.Merged {
		fams = append(fams, fam)
	}
	sort.Strings(fams)
	for _, fam := range fams {
		stats.WriteSnapshotMetrics(w, "cluster_"+fam, f.Merged[fam])
	}
	extras := make([]stats.ExtraMetric, 0, len(f.MergedExtras))
	for k, v := range f.MergedExtras {
		extras = append(extras, stats.ExtraMetric{Name: "cluster_" + k, Value: v})
	}
	sort.Slice(extras, func(i, j int) bool { return extras[i].Name < extras[j].Name })
	stats.WriteExtras(w, extras)

	if len(f.TopObjects) > 0 {
		fmt.Fprintf(w, "# HELP amber_cluster_object_heat hottest objects by total invoke EWMA (node = holder, top = hottest remote caller)\n")
		fmt.Fprintf(w, "# TYPE amber_cluster_object_heat gauge\n")
		for _, o := range f.TopObjects {
			fmt.Fprintf(w, "amber_cluster_object_heat{obj=\"0x%x\",node=\"%d\",top=\"%d\"} %g\n",
				uint64(o.Obj), o.Node, o.Top, o.Rate)
		}
	}
	if len(f.Links) > 0 {
		fmt.Fprintf(w, "# HELP amber_cluster_link_heat internode invoke lanes by EWMA (from = caller, to = holder)\n")
		fmt.Fprintf(w, "# TYPE amber_cluster_link_heat gauge\n")
		for _, l := range f.Links {
			fmt.Fprintf(w, "amber_cluster_link_heat{from=\"%d\",to=\"%d\"} %g\n", l.From, l.To, l.Rate)
		}
	}
	for _, ns := range f.Nodes {
		names := make([]string, 0, len(ns.Exemplars))
		for name := range ns.Exemplars {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			stats.WriteExemplars(w, fmt.Sprintf("cluster_node%d_%s", ns.Node, name), ns.Exemplars[name])
		}
	}
}

// CollectStats pulls every peer's metrics state and merges it with this
// node's own into one fleet view. Unreachable peers contribute error entries
// rather than failing the collection. topN bounds the heat tables (<=0 = 10).
func (n *Node) CollectStats(peers []gaddr.NodeID, topN int) *FleetStats {
	f := &FleetStats{CollectedNs: time.Now().UnixNano()}
	f.Nodes = append(f.Nodes, n.localStats(topN))
	for _, p := range peers {
		if p == n.id {
			continue
		}
		ns, err := n.pullPeerStats(p, topN)
		if err != nil {
			ns = NodeStats{Node: p, Err: err.Error()}
		}
		f.Nodes = append(f.Nodes, ns)
	}
	sort.Slice(f.Nodes, func(i, j int) bool { return f.Nodes[i].Node < f.Nodes[j].Node })
	f.merge(topN)
	return f
}

// CollectStats builds the fleet view for an in-process cluster by reading
// every node directly — no RPC, and crashed transports cannot hide a node's
// state from its own process.
func (c *Cluster) CollectStats(topN int) *FleetStats {
	f := &FleetStats{CollectedNs: time.Now().UnixNano()}
	for _, n := range c.nodes {
		f.Nodes = append(f.Nodes, n.localStats(topN))
	}
	f.merge(topN)
	return f
}

// --- anomaly tripwire ---

// noteCallAnomaly classifies a failed internode call into a flight-recorder
// trigger. The failure ladder's final verdict (climb, engine.go) is the single
// funnel every shipped invocation and control operation that fails passes
// through, so this one hook sees each of them — once, and not the attempts
// the ladder recovered. Counting is unconditional; triggering is nil-safe and
// costs one atomic load when no recorder is installed.
func (n *Node) noteCallAnomaly(to gaddr.NodeID, p rpc.Proc, ro rpc.CallOpts, err error) {
	c := n.capture.Load()
	detail := func(kind string) string {
		return fmt.Sprintf("node %d: %s on call to node %d proc %d: %v", n.id, kind, to, p, err)
	}
	switch {
	case errors.Is(err, rpc.ErrNodeDown):
		n.counts.Inc("anomalies_node_down")
		c.Trigger(trace.TrigNodeDown, detail("peer down"))
	case errors.Is(err, rpc.ErrTimeout):
		if ro.MaxAttempts > 1 {
			n.counts.Inc("anomalies_retry_exhausted")
			c.Trigger(trace.TrigRetryExhausted, detail("retry budget exhausted"))
		} else {
			n.counts.Inc("anomalies_deadline")
			c.Trigger(trace.TrigDeadlineMiss, detail("deadline missed"))
		}
	}
}

// EnableCapture installs one shared anomaly-capture controller across the
// cluster: any node's trigger snapshots *every* node's ring (read directly —
// in-process, even a crashed node's ring is reachable, so the dump always
// contains the dead node's last moments). Returns the controller for
// inspection; cooldown <= 0 uses the default.
func (c *Cluster) EnableCapture(cooldown time.Duration) *trace.Capture {
	cp := trace.NewCapture(-1, cooldown, func() ([]trace.Event, []string) {
		return c.CollectTrace(), nil
	})
	for _, n := range c.nodes {
		n.SetCapture(cp)
	}
	return cp
}
