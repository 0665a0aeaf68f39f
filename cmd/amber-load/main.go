// amber-load is an open-loop load harness for the async invocation path: a
// generator issues AsyncInvokes at a fixed arrival rate — independent of how
// fast replies come back, which is what makes it open-loop — against counters
// spread across the cluster, and reports latency quantiles (p50/p99/p999) and
// goodput. An admission cap (-clients) bounds outstanding requests: arrivals
// beyond the cap are shed and counted rather than queued, so the harness
// measures how the pipeline degrades under overload instead of deadlocking
// behind it.
//
// Two deployment modes:
//
//   - In-process (default): spins up an N-node cluster over the delay-modelled
//     fabric in this process.
//
//     amber-load -nodes 3 -procs 4 -objects 64 -clients 256 -rate 20000 -duration 5s
//
//   - Join (-peers given): joins a running amberd cluster over TCP as an extra
//     node and drives load at the existing nodes. The amberd peer lists must
//     include this node's ID and address so detached replies route back.
//
//     amber-load -node 3 -listen :7703 -peers 0=localhost:7700,1=localhost:7701,2=localhost:7702 \
//     -clients 2000 -rate 50000 -duration 3s -deadline 500ms
package main

import (
	"flag"
	"fmt"
	"log"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"amber/internal/core"
	"amber/internal/demo"
	"amber/internal/gaddr"
	"amber/internal/transport"
)

// recorder collects completion latencies. OnDone callbacks run on transport
// delivery goroutines and must not block; a short mutex-guarded append is the
// bounded kind of work they allow.
type recorder struct {
	mu  sync.Mutex
	lat []int64 // nanoseconds
}

func (r *recorder) observe(d time.Duration) {
	r.mu.Lock()
	r.lat = append(r.lat, int64(d))
	r.mu.Unlock()
}

// quantiles sorts the samples and returns p50/p99/p999.
func (r *recorder) quantiles() (p50, p99, p999 time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := len(r.lat)
	if n == 0 {
		return 0, 0, 0
	}
	sort.Slice(r.lat, func(i, j int) bool { return r.lat[i] < r.lat[j] })
	at := func(p float64) time.Duration {
		i := int(p * float64(n))
		if i >= n {
			i = n - 1
		}
		return time.Duration(r.lat[i])
	}
	return at(0.50), at(0.99), at(0.999)
}

func main() {
	var (
		// In-process mode.
		nodes   = flag.Int("nodes", 3, "in-process cluster size (ignored with -peers)")
		profile = flag.String("profile", "instant", "in-process network model: instant, ethernet, fastlan")
		window  = flag.Int("window", 0, "per-peer pipeline window, on-the-wire cap (0 = default)")
		depth   = flag.Int("depth", 0, "per-peer pipeline depth, total outstanding cap (0 = 4 × window)")
		// Join mode.
		nodeID  = flag.Int("node", 3, "this node's ID when joining a live cluster")
		listen  = flag.String("listen", ":7703", "TCP listen address when joining")
		peerArg = flag.String("peers", "", "comma-separated peer list id=host:port,... (selects join mode)")
		retries = flag.Int("retries", 30, "startup retries while the joined cluster comes up")
		// Workload shape.
		procs     = flag.Int("procs", 4, "processor slots on the driving node")
		objects   = flag.Int("objects", 64, "target counters, spread round-robin across remote nodes")
		clients   = flag.Int("clients", 256, "admission cap: max outstanding invokes before arrivals are shed")
		rate      = flag.Int("rate", 20000, "open-loop arrival rate, invokes/second")
		duration  = flag.Duration("duration", 5*time.Second, "generator run time")
		deadline  = flag.Duration("deadline", time.Second, "per-call deadline (0 = unbounded; overload then holds slots forever)")
		workload  = flag.String("workload", "async", "workload: async (remote Where churn) or readmostly (leased reads + writes on cacheable counters)")
		readRatio = flag.Float64("readratio", 0.9, "readmostly: fraction of arrivals that are reads (rest are writes)")
		leaseTTL  = flag.Duration("leasettl", 0, "reader-lease TTL for the in-process cluster (0 = node default)")
	)
	flag.Parse()
	if *workload != "async" && *workload != "readmostly" {
		log.Fatalf("unknown -workload %q (want async or readmostly)", *workload)
	}
	if *readRatio < 0 || *readRatio > 1 {
		log.Fatal("-readratio must be in [0, 1]")
	}

	reg := core.NewRegistry()
	if err := reg.Register(&demo.Counter{}); err != nil {
		log.Fatal(err)
	}

	var (
		ctx   *core.Ctx
		dests []gaddr.NodeID
		mode  string
	)
	if *peerArg == "" {
		mode = "in-process"
		prof := transport.Instant
		switch *profile {
		case "instant":
		case "ethernet":
			prof = transport.Ethernet1989
		case "fastlan":
			prof = transport.FastLAN
		default:
			log.Fatalf("unknown -profile %q (want instant, ethernet or fastlan)", *profile)
		}
		if *nodes < 2 {
			log.Fatal("-nodes must be at least 2: the harness drives remote invokes")
		}
		cl, err := core.NewCluster(core.ClusterConfig{
			Nodes:          *nodes,
			ProcsPerNode:   *procs,
			Profile:        prof,
			Registry:       reg,
			PipelineWindow: *window,
			PipelineDepth:  *depth,
			LeaseTTL:       *leaseTTL,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer cl.Close()
		ctx = cl.Node(0).Root()
		for i := 1; i < *nodes; i++ {
			dests = append(dests, gaddr.NodeID(i))
		}
	} else {
		mode = "join"
		peers := make(map[gaddr.NodeID]string)
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
			dests = append(dests, gaddr.NodeID(id))
		}
		sort.Slice(dests, func(i, j int) bool { return dests[i] < dests[j] })
		tr, err := transport.NewTCP(transport.TCPConfig{
			Self:   gaddr.NodeID(*nodeID),
			Listen: *listen,
			Peers:  peers,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer tr.Close()
		cfg := core.NodeConfig{
			ID: gaddr.NodeID(*nodeID), Procs: *procs, ServerNode: 0,
			Generation:     uint64(time.Now().UnixNano()),
			PipelineWindow: *window,
			PipelineDepth:  *depth,
		}
		var node *core.Node
		for attempt := 0; ; attempt++ {
			node, err = core.NewNode(cfg, reg, tr, nil)
			if err == nil {
				break
			}
			if attempt >= *retries {
				log.Fatalf("node %d failed to join: %v", *nodeID, err)
			}
			time.Sleep(time.Second)
		}
		defer node.Close()
		ctx = node.Root()
	}

	// Spread the targets round-robin across the destination nodes so one peer
	// pipeline doesn't carry the whole arrival stream.
	targets := make([]core.Ref, *objects)
	for i := range targets {
		ref, err := ctx.New(&demo.Counter{})
		if err != nil {
			log.Fatal(err)
		}
		if err := ctx.MoveTo(ref, dests[i%len(dests)]); err != nil {
			log.Fatalf("placing target %d: %v", i, err)
		}
		targets[i] = ref
	}
	if *workload == "readmostly" {
		// Cacheable targets: the first remote read of each counter pulls a
		// reader lease; subsequent reads within the TTL are zero-message local
		// hits until a write fences them.
		for i, ref := range targets {
			if err := ctx.SetCacheable(ref); err != nil {
				log.Fatalf("marking target %d cacheable: %v", i, err)
			}
		}
	}
	fmt.Printf("amber-load: mode=%s workload=%s dests=%d objects=%d clients=%d rate=%d/s duration=%v deadline=%v readratio=%.2f\n",
		mode, *workload, len(dests), *objects, *clients, *rate, *duration, *deadline, *readRatio)

	var (
		rec         recorder // reads in readmostly mode; everything otherwise
		recWrite    recorder // writes in readmostly mode
		outstanding atomic.Int64
		sent        atomic.Int64
		shed        atomic.Int64
		okC         atomic.Int64
		errC        atomic.Int64
		readsC      atomic.Int64
		writesC     atomic.Int64
	)
	var opts []core.CallOption
	if *deadline > 0 {
		opts = append(opts, core.WithDeadline(*deadline))
	}

	// Open-loop generator: arrivals are paced by the clock, never by
	// completions. When the generator falls behind its schedule (Sleep
	// granularity, a backpressured AsyncInvoke) it issues back-to-back until
	// caught up rather than silently lowering the offered rate.
	interval := time.Duration(int64(time.Second) / int64(*rate))
	if interval <= 0 {
		interval = time.Nanosecond
	}
	begin := time.Now()
	end := begin.Add(*duration)
	next := begin
	for i := 0; ; i++ {
		now := time.Now()
		if !now.Before(end) {
			break
		}
		if now.Before(next) {
			time.Sleep(next.Sub(now))
		}
		next = next.Add(interval)
		if outstanding.Load() >= int64(*clients) {
			shed.Add(1)
			continue
		}
		outstanding.Add(1)
		sent.Add(1)
		// Per-arrival op: the async workload hammers Where; readmostly mixes
		// leased Gets with Adds at the configured ratio (deterministic modular
		// schedule, so a run is reproducible).
		method := "Where"
		r := &rec
		var extra []any
		if *workload == "readmostly" {
			if float64(i%1000) < *readRatio*1000 {
				method = "Get"
				readsC.Add(1)
			} else {
				method = "Add"
				extra = []any{1}
				r = &recWrite
				writesC.Add(1)
			}
		}
		args := make([]any, 0, len(extra)+len(opts))
		args = append(args, extra...)
		for _, o := range opts {
			args = append(args, o)
		}
		start := time.Now()
		f := ctx.AsyncInvoke(targets[i%len(targets)], method, args...)
		f.OnDone(func(fu *core.Future) {
			if _, err := fu.Join(nil); err != nil {
				errC.Add(1)
			} else {
				okC.Add(1)
				r.observe(time.Since(start))
			}
			outstanding.Add(-1)
		})
	}
	genElapsed := time.Since(begin)

	// Drain: everything in flight has a deadline (unless -deadline 0), so the
	// wait is bounded; the grace period covers the probe that classifies an
	// expiry as ErrTimeout vs ErrNodeDown.
	grace := 2 * *deadline
	if grace < 2*time.Second {
		grace = 2 * time.Second
	}
	drainEnd := time.Now().Add(grace)
	for outstanding.Load() > 0 && time.Now().Before(drainEnd) {
		time.Sleep(10 * time.Millisecond)
	}

	ok, errs := okC.Load(), errC.Load()
	p50, p99, p999 := rec.quantiles()
	goodput := float64(ok) / genElapsed.Seconds()
	fmt.Printf("sent=%d ok=%d errors=%d shed=%d outstanding_end=%d\n",
		sent.Load(), ok, errs, shed.Load(), outstanding.Load())
	if *workload == "readmostly" {
		wp50, wp99, wp999 := recWrite.quantiles()
		fmt.Printf("reads=%d read  latency p50=%v p99=%v p999=%v\n", readsC.Load(),
			p50.Round(time.Microsecond), p99.Round(time.Microsecond), p999.Round(time.Microsecond))
		fmt.Printf("writes=%d write latency p50=%v p99=%v p999=%v\n", writesC.Load(),
			wp50.Round(time.Microsecond), wp99.Round(time.Microsecond), wp999.Round(time.Microsecond))
	} else {
		fmt.Printf("latency p50=%v p99=%v p999=%v\n",
			p50.Round(time.Microsecond), p99.Round(time.Microsecond), p999.Round(time.Microsecond))
	}
	fmt.Printf("goodput %.1f ops/s\n", goodput)
	if ok == 0 {
		log.Fatal("amber-load: zero goodput — no invoke completed successfully")
	}
}
