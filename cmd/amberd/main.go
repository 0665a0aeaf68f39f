// amberd runs one Amber node over real TCP, for multi-process (or
// multi-machine) deployments. All processes must run this same binary — the
// same requirement the original system had ("each task is an execution of
// the same program image", §3) — so that class registries agree.
//
// A 3-node cluster on one machine:
//
//	amberd -node 0 -listen :7700 -peers 1=localhost:7701,2=localhost:7702 &
//	amberd -node 1 -listen :7701 -peers 0=localhost:7700,2=localhost:7702 &
//	amberd -node 2 -listen :7702 -peers 0=localhost:7700,1=localhost:7701 -drive
//
// The -drive node runs a demonstration workload (creating, migrating and
// invoking objects across the cluster) and prints measured latencies; the
// others serve until killed.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"amber/internal/core"
	"amber/internal/debug"
	"amber/internal/demo"
	"amber/internal/gaddr"
	"amber/internal/sor"
	"amber/internal/stats"
	"amber/internal/trace"
	"amber/internal/transport"
	"amber/internal/wire"
)

// metricFamilies groups this process's stat sets for the shared Prometheus
// text renderer — the same families back both the stdout status block and
// the /metrics endpoint, so the two can never disagree about a counter.
func metricFamilies(tr *transport.TCP, node *core.Node) []stats.Family {
	return []stats.Family{
		{Name: "node", Set: node.Stats()},
		{Name: "sched", Set: node.Scheduler().Stats()},
		{Name: "rpc", Set: node.RPCStats()},
		{Name: "transport", Set: tr.Stats()},
	}
}

// extraMetrics are process-wide gauges that live outside any stats set: the
// wire codec's gob-fallback count, the sharded object space's aggregate
// counters (descriptor/hint population, stripe lock contention, evictions),
// instantaneous run-queue depths, heat-table occupancy, trace-ring fill, and
// the flight recorder's trigger counters.
func extraMetrics(node *core.Node) []stats.ExtraMetric {
	out := []stats.ExtraMetric{{Name: "wire_gob_fallbacks", Value: wire.GobFallbacks()}}
	out = append(out, stats.MapMetrics("objspace_", node.SpaceStats())...)
	slots, overflow := node.Scheduler().QueueDepths()
	for i, d := range slots {
		out = append(out, stats.ExtraMetric{Name: fmt.Sprintf("sched_runq_slot%d", i), Value: int64(d)})
	}
	out = append(out,
		stats.ExtraMetric{Name: "sched_runq_overflow", Value: int64(overflow)},
		stats.ExtraMetric{Name: "heat_tracked", Value: int64(node.HeatTracked())},
		stats.ExtraMetric{Name: "trace_buffered", Value: int64(node.Tracer().Len())},
		stats.ExtraMetric{Name: "trace_dropped", Value: int64(node.Tracer().Dropped())},
	)
	if c := node.Capture(); c != nil {
		out = append(out, stats.MapMetrics("", c.Stats())...)
	}
	return out
}

// printStatus renders every counter and latency histogram (transport byte
// counters per message kind, hint-cache hits/misses/retries, invoke and move
// latency quantiles, …) in the same format /metrics serves over HTTP.
func printStatus(tr *transport.TCP, node *core.Node) {
	fmt.Print(stats.RenderMetrics(extraMetrics(node), metricFamilies(tr, node)...))
}

// dumpTrace collects the cluster-wide thread-journey trace (this node's ring
// plus a procTraceDump from every peer) and writes Chrome trace_event JSON.
func dumpTrace(node *core.Node, peers []gaddr.NodeID, path string) {
	evs, err := node.CollectTrace(peers, 0)
	if err != nil {
		log.Printf("trace collection: %v", err)
		return
	}
	f, err := os.Create(path)
	if err != nil {
		log.Printf("trace output: %v", err)
		return
	}
	defer f.Close()
	if err := trace.WriteChrome(f, evs); err != nil {
		log.Printf("trace output: %v", err)
		return
	}
	fmt.Printf("wrote %d trace events to %s (load in chrome://tracing or https://ui.perfetto.dev)\n",
		len(evs), path)
}

func main() {
	var (
		nodeID      = flag.Int("node", 0, "this node's ID (node 0 hosts the address-space server)")
		listen      = flag.String("listen", ":7700", "TCP listen address")
		peerArg     = flag.String("peers", "", "comma-separated peer list: id=host:port,...")
		procs       = flag.Int("procs", 4, "processor slots on this node")
		drive       = flag.Bool("drive", false, "run the demo workload from this node, then exit")
		driveSOR    = flag.Bool("sor", false, "run a verified distributed SOR solve from this node, then exit")
		sorRows     = flag.Int("sor-rows", 26, "SOR grid rows")
		sorCols     = flag.Int("sor-cols", 26, "SOR grid columns")
		retries     = flag.Int("retries", 30, "startup retries while peers come up")
		debugAddr   = flag.String("debug-addr", "", "serve /metrics, /trace, /faults and pprof on this address (empty = off)")
		tracing     = flag.Bool("trace", false, "record thread-journey events from startup (implied by -debug-addr)")
		traceOut    = flag.String("trace-out", "amber-trace.json", "Chrome trace file written after -drive/-sor when tracing")
		traceSample = flag.Uint64("trace-sample", 1, "record only thread journeys whose ID ≡ 0 (mod N); 1 = every journey")
		capCooldown = flag.Duration("capture-cooldown", trace.DefaultCaptureCooldown, "minimum spacing between anomaly-triggered cluster trace captures (0 = recorder off)")
		capOut      = flag.String("capture-out", "amber-capture", "anomaly capture file prefix; dumps land in <prefix>-<seq>.json")
		spaceShards = flag.Int("space-shards", 0, "lock stripes in the object space (0 = default, rounded up to a power of two)")
		replicaCap  = flag.Int("replica-cache", 0, "demand-pulled copy cache capacity, split across shards (0 = default, negative = disable cached copies)")
		leaseTTL    = flag.Duration("lease-ttl", 0, "reader-lease lifetime for cacheable mutable objects (0 = default 2s, negative = disable leases)")
		heatIvl     = flag.Duration("heat-interval", 0, "heat-driven placement tick; hot objects migrate toward their dominant caller (0 = off)")
		heatRatio   = flag.Float64("heat-ratio", 0, "dominance ratio a remote caller's invoke rate needs over everyone else's to attract an object (0 = default 2.0)")
		heatMin     = flag.Float64("heat-min", 0, "minimum invoke rate (per heat interval) before an object may migrate (0 = default 16)")
		faultSeed   = flag.Int64("fault-seed", 0, "attach a seeded fault injector to this node's transport (0 = off)")
		faultsArg   = flag.String("faults", "", "fault script applied at startup, rules separated by ';' (e.g. 'drop 0 1 0.1; delay 1 2 1ms 5ms'); requires -fault-seed")
		rpcTO       = flag.Duration("rpc-timeout", 0, "bound internode requests (0 = wait forever); set when injecting faults")
	)
	flag.Parse()

	peers := make(map[gaddr.NodeID]string)
	maxID := *nodeID
	if *peerArg != "" {
		for _, kv := range strings.Split(*peerArg, ",") {
			parts := strings.SplitN(kv, "=", 2)
			if len(parts) != 2 {
				log.Fatalf("bad peer %q (want id=host:port)", kv)
			}
			id, err := strconv.Atoi(parts[0])
			if err != nil {
				log.Fatalf("bad peer id %q", parts[0])
			}
			peers[gaddr.NodeID(id)] = parts[1]
			if id > maxID {
				maxID = id
			}
		}
	}

	tr, err := transport.NewTCP(transport.TCPConfig{
		Self:   gaddr.NodeID(*nodeID),
		Listen: *listen,
		Peers:  peers,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer tr.Close()

	var faults *transport.Faults
	if *faultSeed != 0 {
		faults = transport.NewFaults(*faultSeed)
		tr.SetFaults(faults)
		if *faultsArg != "" {
			if err := faults.ApplyScript(*faultsArg); err != nil {
				log.Fatal(err)
			}
		}
	} else if *faultsArg != "" {
		log.Fatal("-faults requires -fault-seed")
	}

	reg := core.NewRegistry()
	if err := reg.Register(&demo.Counter{}); err != nil {
		log.Fatal(err)
	}
	if err := sor.RegisterAll(reg); err != nil {
		log.Fatal(err)
	}

	var server *gaddr.Server
	if *nodeID == 0 {
		server = gaddr.NewServer(0)
	}
	// One tracer for the whole process: the node's instrumentation sites and
	// the process-wide emitters (wire gob fallback, TCP dial retry) share it,
	// so cross-layer events land in a single ring.
	traceOn := *tracing || *debugAddr != ""
	tracer := trace.New(int32(*nodeID), 0)
	tracer.SetEnabled(traceOn)
	tracer.SetSample(*traceSample)
	trace.SetGlobal(tracer)
	// The generation number distinguishes this incarnation of the node from
	// any earlier one: peers that probe us after a restart see it change and
	// drop stale location hints.
	cfg := core.NodeConfig{
		ID: gaddr.NodeID(*nodeID), Procs: *procs, ServerNode: 0, Tracer: tracer,
		RPCTimeout:   *rpcTO,
		Generation:   uint64(time.Now().UnixNano()),
		SpaceShards:  *spaceShards,
		ReplicaCache: *replicaCap,
		LeaseTTL:     *leaseTTL,
		HeatInterval: *heatIvl,
		HeatRatio:    *heatRatio,
		HeatMin:      *heatMin,
	}

	// Nodes other than 0 need the server up to get their initial regions;
	// retry while the cluster assembles.
	var node *core.Node
	for attempt := 0; ; attempt++ {
		node, err = core.NewNode(cfg, reg, tr, server)
		if err == nil {
			break
		}
		if attempt >= *retries {
			log.Fatalf("node %d failed to join: %v", *nodeID, err)
		}
		time.Sleep(time.Second)
	}
	log.Printf("amberd node %d up on %s (procs=%d, peers=%d)", *nodeID, tr.Addr(), *procs, len(peers))

	all := make([]gaddr.NodeID, 0, maxID+1)
	for id := 0; id <= maxID; id++ {
		all = append(all, gaddr.NodeID(id))
	}

	// The flight recorder: anomalies observed by this node (peer death,
	// deadline misses, retry exhaustion, heat-migration storms) snapshot
	// every reachable ring into one clock-aligned Chrome trace on disk —
	// the explanation is already written by the time someone goes looking.
	var capture *trace.Capture
	if traceOn && *capCooldown > 0 {
		capture = trace.NewCapture(int32(*nodeID), *capCooldown, func() ([]trace.Event, []string) {
			return node.CollectTraceBestEffort(all, 0)
		})
		capture.SetSink(func(d trace.Dump) {
			path := fmt.Sprintf("%s-%d.json", *capOut, d.Seq)
			f, err := os.Create(path)
			if err != nil {
				log.Printf("capture %d (%s): %v", d.Seq, d.Reason, err)
				return
			}
			defer f.Close()
			if err := trace.WriteChrome(f, d.Events); err != nil {
				log.Printf("capture %d (%s): %v", d.Seq, d.Reason, err)
				return
			}
			log.Printf("capture %d: %s (%s) — %d events from the cluster → %s",
				d.Seq, d.Reason, d.Detail, len(d.Events), path)
		})
		node.SetCapture(capture)
	}

	if *debugAddr != "" {
		dbg, err := debug.Serve(*debugAddr, debug.Options{
			Families: metricFamilies(tr, node),
			Extras:   func() []stats.ExtraMetric { return extraMetrics(node) },
			Tracer:   tracer,
			Space: func() ([]debug.SpaceShard, map[string]int64) {
				raw := node.Space().ShardStats()
				shards := make([]debug.SpaceShard, len(raw))
				for i, st := range raw {
					shards[i] = debug.SpaceShard{
						Shard:            i,
						Descriptors:      st.Descriptors,
						Hints:            st.Hints,
						Evictions:        int64(st.Evictions),
						Replicas:         st.Replicas,
						ReplicaEvictions: int64(st.ReplicaEvictions),
						Leases:           st.Leases,
					}
				}
				return shards, node.SpaceStats()
			},
			CollectTrace: func(last int) ([]trace.Event, error) {
				return node.CollectTrace(all, last)
			},
			Cluster: func(topN int) (debug.ClusterDump, error) {
				return node.CollectStats(all, topN), nil
			},
			Heat:      func(topN int) any { return node.HeatDump(topN) },
			Capture:   capture,
			Exemplars: node.Exemplars,
			Faults:    faults,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer dbg.Close()
		log.Printf("introspection on http://%s (/metrics, /cluster, /heat, /capture, /trace, /trace.json, /faults, /debug/pprof/)", dbg.Addr())
	}

	if *driveSOR {
		// The paper's application over real sockets: sections distributed
		// across the amberd processes, verified against the sequential
		// solver in this process.
		numNodes := maxID + 1
		p := sor.DefaultProblem(*sorRows, *sorCols)
		const omega, eps, maxIters = 1.5, 1e-4, 20000
		res, err := sor.RunDistributedCtx(node.Root(), numNodes, sor.Config{
			Problem: p, Omega: omega, Eps: eps, MaxIters: maxIters,
			Overlap: true, ComputeThreads: *procs,
		})
		if err != nil {
			log.Fatalf("distributed SOR: %v", err)
		}
		want, wantIters, err := sor.SolveSequential(p, omega, eps, maxIters)
		if err != nil {
			log.Fatal(err)
		}
		diff := sor.MaxAbsDiff(want, res.Grid)
		fmt.Printf("SOR %dx%d over %d amberd processes: %d iterations in %v (seq: %d), max |Δ| = %.2e\n",
			*sorRows, *sorCols, numNodes, res.Iters, res.Elapsed.Round(time.Millisecond), wantIters, diff)
		if diff > 1e-9 || res.Iters != wantIters {
			log.Fatal("VERIFICATION FAILED")
		}
		fmt.Println("verification passed")
		printStatus(tr, node)
		if traceOn {
			dumpTrace(node, all, *traceOut)
		}
		os.Exit(0)
	}

	if !*drive {
		select {} // serve until killed
	}

	// --- demo workload ---
	ctx := node.Root()
	ref, err := ctx.New(&demo.Counter{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("created counter %#x on node %d\n", uint64(ref), *nodeID)

	for _, dest := range all {
		start := time.Now()
		if err := ctx.MoveTo(ref, dest); err != nil {
			log.Fatalf("move to node %d: %v", dest, err)
		}
		moveT := time.Since(start)
		start = time.Now()
		out, err := ctx.Invoke(ref, "Where")
		if err != nil {
			log.Fatalf("invoke on node %d: %v", dest, err)
		}
		invT := time.Since(start)
		out2, err := ctx.Invoke(ref, "Add", 1)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  moved to node %-2v in %-10v  invoke %-10v  (executed on %v, count=%v)\n",
			dest, moveT.Round(time.Microsecond), invT.Round(time.Microsecond), out[0], out2[0])
	}
	out, _ := ctx.Invoke(ref, "Add", 0)
	fmt.Printf("final count %v after visiting %d nodes — demo complete\n", out[0], len(all))
	printStatus(tr, node)
	if traceOn {
		dumpTrace(node, all, *traceOut)
	}
	os.Exit(0)
}
