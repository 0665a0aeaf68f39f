package main

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"time"

	"amber/internal/core"
	"amber/internal/gaddr"
	"amber/internal/sor"
)

// workload is one row of the benchmark: how many client threads, how the
// objects are created and placed, what one latency sample does, and how the
// outcome is checked once the clients have stopped.
type workload struct {
	name string
	why  string
	// clients is the number of closed-loop Amber threads in the driver: each
	// issues its next sample only when the previous one has returned.
	clients int
	// writes marks a workload whose samples split into reads and writes.
	writes bool
	// noMessages asserts that the measured windows put nothing on the wire.
	noMessages bool
	// windowIsSample makes every sample a window of its own, where a sample is
	// too long for a window to hold windowSamples of them.
	windowIsSample bool
	// ledgerOps, when set, takes the per-layer counts over exactly this many
	// samples run from a fresh cluster instead of over the timed phase, so
	// the counts repeat exactly for a seed.
	ledgerOps int
	// probeArgs is the argument vector the workload ships most; the wire
	// probes encode and decode it.
	probeArgs func() []any
	// before runs once per process, outside every timer.
	before func()
	// prepare creates and places the objects; it is timed as part of setup_s.
	// Nil where every sample creates its own (sor.tcp's solves).
	prepare func(r *run) error
	// op runs one latency sample on client c and reports how many operations
	// it completed and failed, and whether it was a write.
	op func(r *run, c *client) (ok, failed int, write bool)
	// check verifies the outcome after the clients have stopped. Nil where
	// op already checks every reply as it arrives.
	check func(r *run) error
}

// run is one cluster's worth of workload state.
type run struct {
	w       *workload
	cl      *cluster
	root    *core.Ctx
	rng     *rand.Rand // set-up randomness, from the seed
	clients []*client

	refs   []core.Ref
	movers []core.Ref
	pos    []int    // mobility: node each object is on
	visits []int    // mobility: Touch count each object should report next
	sums   []uint32 // checksum of each object's state
	keys   []string // payload: record key per blob
}

// client is one closed-loop Amber thread of the driver.
type client struct {
	id  int
	ctx *core.Ctx
	rng *rand.Rand
	// adds counts this client's successful Adds per object and seen is the
	// highest value it has observed per object; both span warm-up and
	// measurement, because the counters do.
	adds  []int64
	seen  []int
	seq   int64
	buf   []byte
	order []int
	futs  []*core.Future
	spans []span
}

const (
	numCounters  = 64
	numMovables  = 16
	payloadBytes = 8 << 10
	// opDeadline is the latency past which a sample counts as failed.
	opDeadline = time.Second
)

var payloadTags = []string{"bench", "payload", "8k"}

func newRun(w *workload, cl *cluster, seed int64) *run {
	r := &run{w: w, cl: cl, root: cl.node.Root(), rng: rand.New(rand.NewSource(seed))}
	for i := 0; i < w.clients; i++ {
		c := &client{
			id:    i,
			ctx:   cl.node.Root(),
			rng:   rand.New(rand.NewSource(seed*7919 + int64(i) + 1)),
			adds:  make([]int64, numCounters),
			seen:  make([]int, numCounters),
			buf:   make([]byte, payloadBytes),
			order: rand.New(rand.NewSource(seed)).Perm(numCounters),
		}
		c.rng.Read(c.buf)
		r.clients = append(r.clients, c)
	}
	return r
}

func remoteRoundRobin(i int) gaddr.NodeID { return gaddr.NodeID(i % int(driverID)) }
func onDriver(int) gaddr.NodeID           { return driverID }

func placeCounters(where func(int) gaddr.NodeID, cacheable bool) func(*run) error {
	return func(r *run) error {
		for i := 0; i < numCounters; i++ {
			ref, err := r.root.NewAt(where(i), &BenchCounter{})
			if err != nil {
				return err
			}
			if cacheable {
				if err := r.root.SetCacheable(ref); err != nil {
					return err
				}
			}
			r.refs = append(r.refs, ref)
		}
		return nil
	}
}

func opAdd(r *run, c *client) (int, int, bool) {
	i := c.rng.Intn(len(r.refs))
	if _, err := c.ctx.Invoke(r.refs[i], "Add", 1); err != nil {
		return 0, 1, false
	}
	c.adds[i]++
	return 1, 0, false
}

// checkCounters holds every counter to the number of Adds that returned.
func checkCounters(r *run) error {
	for i, ref := range r.refs {
		var want int64
		for _, c := range r.clients {
			want += c.adds[i]
		}
		out, err := r.root.Invoke(ref, "Get")
		if err != nil {
			return err
		}
		if got := out[0].(int); int64(got) != want {
			return fmt.Errorf("counter %d reads %d after %d successful Adds", i, got, want)
		}
	}
	return nil
}

func opFanIn(r *run, c *client) (ok, failed int, _ bool) {
	c.rng.Shuffle(len(c.order), func(a, b int) { c.order[a], c.order[b] = c.order[b], c.order[a] })
	c.futs = c.futs[:0]
	for _, i := range c.order {
		c.futs = append(c.futs, c.ctx.AsyncInvoke(r.refs[i], "Add", 1))
	}
	for k, f := range c.futs {
		if _, err := f.Join(c.ctx); err != nil {
			failed++
			continue
		}
		c.adds[c.order[k]]++
		ok++
	}
	return ok, failed, false
}

func preparePayload(r *run) error {
	for i := 0; i < numCounters; i++ {
		fill := make([]byte, payloadBytes)
		r.rng.Read(fill)
		ref, err := r.root.NewAt(remoteRoundRobin(i), &BenchBlob{Fill: fill})
		if err != nil {
			return err
		}
		r.refs = append(r.refs, ref)
		r.sums = append(r.sums, crc32.ChecksumIEEE(fill))
		r.keys = append(r.keys, fmt.Sprintf("blob-%02d", i))
	}
	return nil
}

func opPayload(r *run, c *client) (int, int, bool) {
	i := c.rng.Intn(len(r.refs))
	c.seq++
	if c.seq%4 == 0 {
		out, err := c.ctx.Invoke(r.refs[i], "Fetch", payloadBytes)
		if err != nil {
			return 0, 1, false
		}
		if b, _ := out[0].([]byte); len(b) != payloadBytes || crc32.ChecksumIEEE(b) != r.sums[i] {
			return 0, 1, false
		}
		return 1, 0, false
	}
	binary.BigEndian.PutUint64(c.buf, uint64(c.seq)) // no two Puts carry the same bytes
	rec := Record{Key: r.keys[i], Seq: c.seq, Tags: payloadTags}
	out, err := c.ctx.Invoke(r.refs[i], "Put", rec, c.buf)
	if err != nil || len(out) != 2 || out[0] != len(c.buf) || out[1] != recordSum(rec, c.buf) {
		return 0, 1, false
	}
	return 1, 0, false
}

// opReadMostly reads (or, one time in ten, writes) one of the client's own
// counters: client k owns the counters ≡ k mod the client count. The clients
// do not share counters because the runtime has a coherence bug that sharing
// trips a few dozen times per run: a revoke that finds its lease copy pinned
// by a reader bumps the copy's epoch but leaves the old state
// (lease.go handleLease), and the next grant at that epoch takes installLease's
// renewal path (replica.go), re-arming the stale state until the next write —
// a read-your-writes violation. With one writer per counter no reader can be
// inside a copy when its revoke lands.
func opReadMostly(r *run, c *client) (int, int, bool) {
	i := c.rng.Intn(len(r.refs)/len(r.clients))*len(r.clients) + c.id
	if c.rng.Intn(10) == 0 {
		out, err := c.ctx.Invoke(r.refs[i], "Add", 1)
		if err != nil {
			return 0, 1, true
		}
		c.adds[i]++
		if v := out[0].(int); v > c.seen[i] {
			c.seen[i] = v
		}
		return 1, 0, true
	}
	out, err := c.ctx.Invoke(r.refs[i], "Get")
	if err != nil {
		return 0, 1, false
	}
	// Read-your-writes and monotonic reads: a leased copy may never show this
	// client less than it has already been shown.
	v, _ := out[0].(int)
	if v < c.seen[i] {
		return 0, 1, false
	}
	c.seen[i] = v
	return 1, 0, false
}

func prepareChase(r *run) error {
	for k := 0; k < int(driverID); k++ {
		m, err := r.root.NewAt(gaddr.NodeID(k), &BenchMover{})
		if err != nil {
			return err
		}
		r.movers = append(r.movers, m)
	}
	for i := 0; i < numMovables; i++ {
		data := make([]byte, 4<<10)
		r.rng.Read(data)
		child, err := r.root.New(&BenchChild{Data: make([]byte, 1<<10)})
		if err != nil {
			return err
		}
		obj, err := r.root.New(&BenchMovable{Data: data, Child: child})
		if err != nil {
			return err
		}
		if err := r.root.Attach(child, obj); err != nil {
			return err
		}
		if err := r.root.MoveTo(obj, 0); err != nil {
			return err
		}
		r.refs = append(r.refs, obj)
		r.sums = append(r.sums, crc32.ChecksumIEEE(data))
	}
	r.pos = make([]int, numMovables)
	r.visits = make([]int, numMovables)
	return nil
}

// opChase moves one object a step round the cycle 0→1→2→0, asked for by the
// mover on node 0 or 1 in turn, then touches it twice from the driver: the
// first Touch follows the driver's now-stale hint, the second the location
// the first one's reply taught it.
func opChase(r *run, c *client) (int, int, bool) {
	i := c.rng.Intn(len(r.refs))
	next := gaddr.NodeID((r.pos[i] + 1) % len(allNodes))
	c.seq++
	if _, err := c.ctx.Invoke(r.movers[c.seq%int64(len(r.movers))], "Move", r.refs[i], next); err != nil {
		return 0, 1, false
	}
	r.pos[i] = int(next)
	for k := 0; k < 2; k++ {
		out, err := c.ctx.Invoke(r.refs[i], "Touch")
		r.visits[i]++
		if err != nil || len(out) != 4 || out[0] != r.visits[i] || out[1] != next || out[2] != next || out[3] != r.sums[i] {
			return 0, 1, false
		}
	}
	return 1, 0, false
}

// The SOR problem is frozen: 66×66 with the paper's ω and a tolerance that
// makes one solve on this host's three loopback processes take about a second.
var sorProblem = sor.DefaultProblem(66, 66)

const (
	sorOmega    = 1.5
	sorEps      = 1e-4
	sorMaxIters = 20000
	sorSections = 3
)

// sorRef is the sequential solver's answer and time, the reference every
// distributed solve is held to.
var sorRef struct {
	grid  [][]float64
	iters int
	took  time.Duration
}

func sorReference() {
	start := time.Now()
	grid, iters, err := sor.SolveSequential(sorProblem, sorOmega, sorEps, sorMaxIters)
	if err != nil {
		panic(err) // the frozen problem is valid
	}
	sorRef.grid, sorRef.iters, sorRef.took = grid, iters, time.Since(start)
}

func opSOR(r *run, c *client) (int, int, bool) {
	res, err := sor.RunDistributedCtx(c.ctx, len(allNodes), sor.Config{
		Problem: sorProblem, Omega: sorOmega, Eps: sorEps, MaxIters: sorMaxIters,
		Sections: sorSections, Overlap: true, ComputeThreads: nodeProcs,
	})
	if err != nil || res.Iters != sorRef.iters || sor.MaxAbsDiff(sorRef.grid, res.Grid) > 1e-9 {
		return 0, sorRef.iters, false
	}
	return res.Iters, 0, false
}

func addArgs() []any { return []any{1} }

// workloads is the benchmark, in the order it runs. The names are the ones
// BENCHMARK.json lists; a later change cites them.
var workloads = []*workload{
	{
		name: "invoke.remote", clients: 2,
		why:       "Table 1's remote invocation on real sockets: rpc, transport and the slot hand-off in sched do the work, wire and dispatch almost none",
		probeArgs: addArgs,
		prepare:   placeCounters(remoteRoundRobin, false),
		op:        opAdd,
		check:     checkCounters,
	},
	{
		name: "invoke.local", clients: 1, noMessages: true,
		why:       "the same loop, one client, on resident counters: core dispatch, objspace pin and sched acquire only, zero messages; the bypass control for every network-layer change",
		probeArgs: addArgs,
		prepare:   placeCounters(onDriver, false),
		op:        opAdd,
		check:     checkCounters,
	},
	{
		name: "fanin.async", clients: 1,
		why:       "64 pipelined AsyncInvokes joined per batch: the same rpc and transport used through the per-peer window and coalesced flushes, so batching gains and single-call costs separate",
		probeArgs: addArgs,
		prepare:   placeCounters(remoteRoundRobin, false),
		op:        opFanIn,
		check:     checkCounters,
	},
	{
		name: "payload.remote", clients: 2,
		why: "8 KiB byte slices and a struct argument: message size is the first traffic dimension, so wire codecs and transport copies dominate here and are flat on invoke.remote",
		probeArgs: func() []any {
			return []any{Record{Key: "blob-00", Seq: 1, Tags: payloadTags}, make([]byte, payloadBytes)}
		},
		prepare: preparePayload,
		op:      opPayload,
	},
	{
		name: "readmostly.lease", clients: 2, writes: true,
		why:       "90 % leased reads beside 10 % fenced writes on cacheable counters: p50 is a zero-message read, p99 a write fence, so a read-side gain cannot hide a longer fence",
		probeArgs: addArgs,
		prepare:   placeCounters(remoteRoundRobin, true),
		op:        opReadMostly,
		check:     checkCounters,
	},
	{
		name: "mobility.chase", clients: 1, ledgerOps: 6 * numMovables,
		why:       "moves, attachment, forwarding chains and hint repair in one single-threaded deterministic sequence, so its message and byte counts repeat exactly",
		probeArgs: func() []any { return []any{core.Ref(1 << 20), gaddr.NodeID(1)} },
		prepare:   prepareChase,
		op:        opChase,
	},
	{
		name: "sor.tcp", clients: 1, windowIsSample: true,
		why:       "the paper's application, every layer at once: each iteration waits for the slowest section, so tail effects and sched stealing become wall time",
		probeArgs: func() []any { return []any{-1, 0, make([]float64, sorProblem.Cols)} },
		before:    sorReference,
		op:        opSOR,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
