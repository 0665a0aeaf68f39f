package main

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"

	"amber/internal/trace"
	"amber/internal/wire"
)

// Run shape, the same for every workload: a fresh cluster, a warm-up of
// warmupShare of the measured time, then measured windows for the measured
// time. Every reported value is the median of the per-window values. The loop
// is closed — Amber's callers are threads that wait for their reply — so a
// slow system is offered less load, and throughput and latency are two views
// of one number per client.
//
// Windows are short and many because this host's throughput is bimodal on a
// one-second scale (which core a thread wakes on): the median of twenty
// half-second windows finds the main mode where the median of five long ones
// lands between the two.
const (
	// windowsPerRun is how many windows the measured time is split into; a
	// window that holds too few samples runs on, so there may be fewer.
	windowsPerRun = 20
	warmupShare   = 0.1
	// windowSamples is the least a window holds (over all clients), so that
	// even its 99th percentile has ten samples beyond it.
	windowSamples = 1000
	// setupsPerRun is how many times a run assembles the cluster and places
	// the objects; setup_s is the median and the last cluster is measured.
	setupsPerRun = 9
	setupLimit   = 20 * time.Second
	runSlack     = 15 * time.Second
	probeTime    = 5 * time.Second
	spanCap      = 1 << 14 // driver-side spans kept per client in a traced run
)

// span is one driver-side latency sample of a traced run: the benchmark's own
// record of a call into the system, kept in memory until the run ends.
type span struct {
	start time.Time
	dur   time.Duration
}

// tally counts work done: by one client in one window, or by a whole phase,
// complete windows or not — the figure that event counts are divided by and
// that attempted and failed report.
type tally struct{ ops, failed, samples, writes uint64 }

func (t *tally) add(o tally) {
	t.ops += o.ops
	t.failed += o.failed
	t.samples += o.samples
	t.writes += o.writes
}

// clientWindow is what one client did in one window. A window ends at the
// first sample to complete once it is long enough and holds enough samples,
// so dur is exact and a workload whose sample is a whole SOR solve is not cut
// mid-solve.
type clientWindow struct {
	tally
	dur           time.Duration
	lat, writeLat *hist
}

func (r *run) newWindow() clientWindow {
	w := clientWindow{lat: newHist()}
	if r.w.writes {
		w.writeLat = newHist()
	}
	return w
}

// clientLoop runs samples on c until total has passed (or exactly maxSamples
// samples, if set) and returns the windows it completed, then the one still
// open at the end, which no per-window value is taken from.
func (r *run) clientLoop(c *client, winDur, total time.Duration, maxSamples int) ([]clientWindow, clientWindow) {
	perWindow := windowSamples
	if r.w.windowIsSample {
		perWindow = 1
	}
	minSamples := uint64((perWindow + len(r.clients) - 1) / len(r.clients))
	var out []clientWindow
	w := r.newWindow()
	begin := time.Now()
	prev, winStart := begin, begin
	for n := 1; ; n++ {
		ok, failed, write := r.w.op(r, c)
		now := time.Now()
		dt := now.Sub(prev)
		if dt > opDeadline*time.Duration(max(ok, 1)) {
			ok, failed = 0, failed+ok
		}
		w.ops += uint64(ok)
		w.failed += uint64(failed)
		if ok > 0 {
			w.samples++
			w.lat.add(dt)
			if write {
				w.writes += uint64(ok)
				w.writeLat.add(dt)
			}
		}
		if c.spans != nil && len(c.spans) < cap(c.spans) {
			c.spans = append(c.spans, span{prev, dt})
		}
		prev = now
		counted := n == maxSamples
		timed := maxSamples == 0
		if counted || (timed && now.Sub(winStart) >= winDur && w.samples+w.failed >= minSamples) {
			w.dur = now.Sub(winStart)
			out = append(out, w)
			w, winStart = r.newWindow(), now
		}
		if counted || (timed && now.Sub(begin) >= total) {
			return out, w
		}
	}
}

// phase runs every client for the given time (or number of samples) and waits
// for all of them, so the cluster is quiet when it returns. It returns the
// windows every client completed — a client that completed more than the
// slowest gives up its last ones — and the tally of all the work done.
func (r *run) phase(winDur, total time.Duration, maxSamples int) ([][]clientWindow, tally) {
	out := make([][]clientWindow, len(r.clients))
	open := make([]clientWindow, len(r.clients))
	var wg sync.WaitGroup
	for i, c := range r.clients {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			out[i], open[i] = r.clientLoop(c, winDur, total, maxSamples)
		}(i, c)
	}
	wg.Wait()
	var all tally
	least := len(out[0])
	for i, cw := range out {
		least = min(least, len(cw))
		all.add(open[i].tally)
		for _, w := range cw {
			all.add(w.tally)
		}
	}
	for i := range out {
		out[i] = out[i][:least]
	}
	return out, all
}

// transportCounters reads the message, byte and codec-fallback counts of all
// three processes: the driver's directly, the serve nodes' through their
// BenchProbe. Requests and replies are of fixed size, so two readings with
// nothing between them differ by a constant.
func (r *run) transportCounters() (counters, error) {
	st := r.cl.tr.Stats()
	out := counters{
		"transport.msgs_sent":  st.Value("msgs_sent"),
		"transport.bytes_sent": st.Value("bytes_sent"),
		"wire.gob_fallbacks":   wire.GobFallbacks(),
	}
	for _, p := range r.cl.probes {
		res, err := r.root.Invoke(p, probeMethod)
		if err != nil {
			return nil, fmt.Errorf("transport counters: %w", err)
		}
		b, _ := res[0].([]byte)
		if len(b) != 8*len(probeFields) {
			return nil, fmt.Errorf("transport counters: %d-byte reply", len(b))
		}
		for i, f := range probeFields {
			out[f] += int64(binary.BigEndian.Uint64(b[8*i:]))
		}
	}
	return out, nil
}

// runtimeCounters sums the node, sched and rpc counter families over the
// cluster with node.CollectStats.
func (r *run) runtimeCounters() (counters, error) {
	f := r.cl.node.CollectStats(allNodes, 1)
	out := counters{}
	for _, ns := range f.Nodes {
		if ns.Err != "" {
			return nil, fmt.Errorf("stats from node %d: %s", ns.Node, ns.Err)
		}
	}
	for fam, set := range f.Merged {
		for k, v := range set.Counters {
			out[fam+"."+k] = v
		}
	}
	return out, nil
}

// bracket counts what fn does on the cluster. The transport reading is the
// inner one on both sides, so the variable-size stats pulls of the runtime
// reading never fall inside it; what the readings themselves cost is measured
// by bracketing nothing, and subtracted.
func (r *run) bracket(overhead counters, fn func()) (counters, error) {
	rt0, err := r.runtimeCounters()
	if err != nil {
		return nil, err
	}
	tr0, err := r.transportCounters()
	if err != nil {
		return nil, err
	}
	fn()
	tr1, err := r.transportCounters()
	if err != nil {
		return nil, err
	}
	rt1, err := r.runtimeCounters()
	if err != nil {
		return nil, err
	}
	for k, v := range tr0 {
		rt0[k] = v
	}
	for k, v := range tr1 {
		rt1[k] = v
	}
	return deltaCounters(rt0, rt1, overhead), nil
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// windowSeries holds one value per measured window, over all clients.
type windowSeries struct {
	opsPerS, p50us, p95us, p99us, writeP50us []float64
}

// measurement is everything one cluster yields.
type measurement struct {
	setups []float64 // seconds, one per cluster assembled
	windowSeries
	// tally is the measured phase.
	tally
	// counts are cluster-wide event counts over countOps operations, of which
	// countWrites were writes: the measured windows, or the ledger.
	counts                counters
	countOps, countWrites uint64
	cpuFrac               float64
	allocsPerOp           float64
	bytesPerOp            float64
	probes                map[string]float64
	events                []trace.Event
	spans                 [][]span
	checkErr              error
}

func summarizeWindows(res [][]clientWindow, writes bool) windowSeries {
	var out windowSeries
	for j := range res[0] {
		lat, wlat := newHist(), newHist()
		var opsPerS float64
		for _, cw := range res {
			if cw[j].dur > 0 {
				opsPerS += float64(cw[j].ops) / cw[j].dur.Seconds()
			}
			lat.merge(cw[j].lat)
			if writes {
				wlat.merge(cw[j].writeLat)
			}
		}
		out.opsPerS = append(out.opsPerS, opsPerS)
		out.p50us = append(out.p50us, lat.quantile(0.5)/1e3)
		out.p95us = append(out.p95us, lat.quantile(tailQuantile(0.95, lat.n))/1e3)
		out.p99us = append(out.p99us, lat.quantile(tailQuantile(0.99, lat.n))/1e3)
		out.writeP50us = append(out.writeP50us, wlat.quantile(0.5)/1e3)
	}
	return out
}

// execute runs the workload on r's cluster for the given measured time and
// fills m. traced keeps driver-side spans and pulls the nodes' event rings;
// probes runs the layer probes on the quiet cluster afterwards.
func (r *run) execute(m *measurement, seconds float64, traced, probes bool) error {
	total := time.Duration(seconds * float64(time.Second))
	winDur := total / windowsPerRun
	// The first reading of each kind dials connections and teaches hints;
	// calibrate on the second.
	if _, err := r.bracket(nil, func() {}); err != nil {
		return err
	}
	overhead, err := r.bracket(nil, func() {})
	if err != nil {
		return err
	}
	if n := r.w.ledgerOps; n > 0 {
		var ledger tally
		if m.counts, err = r.bracket(overhead, func() { _, ledger = r.phase(0, 0, n) }); err != nil {
			return err
		}
		if ledger.failed > 0 {
			return fmt.Errorf("%d of %d ledger operations failed", ledger.failed, n)
		}
		m.countOps, m.countWrites = ledger.ops, ledger.writes
	}
	r.phase(winDur, time.Duration(warmupShare*float64(total)), 0) // warm-up; its Adds still count toward the end check
	if traced {
		for _, c := range r.clients {
			c.spans = make([]span, 0, spanCap)
		}
	}
	var res [][]clientWindow
	timed := func() {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		cpu0, t0 := cpuTime(), time.Now()
		res, m.tally = r.phase(winDur, total, 0)
		wall := time.Since(t0)
		m.cpuFrac = ratio(float64(cpuTime()-cpu0), float64(wall)*float64(runtime.GOMAXPROCS(0)))
		runtime.ReadMemStats(&m1)
		m.allocsPerOp = ratio(float64(m1.Mallocs-m0.Mallocs), float64(m.ops))
		m.bytesPerOp = ratio(float64(m1.TotalAlloc-m0.TotalAlloc), float64(m.ops))
	}
	if r.w.ledgerOps > 0 {
		timed()
	} else {
		if m.counts, err = r.bracket(overhead, timed); err != nil {
			return err
		}
		m.countOps, m.countWrites = m.ops, m.writes
	}
	if len(res[0]) == 0 {
		return fmt.Errorf("no window of %d samples completed in %v", windowSamples, total)
	}
	m.windowSeries = summarizeWindows(res, r.w.writes)
	for _, c := range r.clients {
		m.spans = append(m.spans, c.spans)
	}
	if traced {
		evs, err := r.cl.node.CollectTrace(allNodes, 0)
		if err != nil {
			return err
		}
		for _, ev := range evs {
			if ev.Label != probeMethod { // the counter readings are not the workload
				m.events = append(m.events, ev)
			}
		}
	}
	if probes {
		if m.probes, err = probeLayers(r); err != nil {
			return err
		}
	}
	if r.w.check != nil {
		m.checkErr = r.w.check(r)
	}
	if m.checkErr == nil && r.w.noMessages && m.counts["transport.msgs_sent"] != 0 {
		m.checkErr = fmt.Errorf("%d messages crossed the cluster during a local-only workload", m.counts["transport.msgs_sent"])
	}
	return nil
}

// measure assembles the cluster setups times, keeping the last, runs the
// workload on it for the given measured time, and tears it down. Both steps
// run under a watchdog.
func measure(w *workload, exe string, seed int64, seconds float64, setups int, traced, probes bool) (*measurement, error) {
	m := &measurement{}
	var r *run
	for i := 0; i < setups; i++ {
		if r != nil {
			r.cl.stop()
		}
		var cl *cluster
		start := time.Now()
		err := guard(w.name+" set-up", setupLimit, func() (err error) {
			if cl, err = startCluster(exe, traced); err != nil {
				return err
			}
			r = newRun(w, cl, seed)
			if w.prepare == nil {
				return nil
			}
			return w.prepare(r)
		})
		if err != nil {
			if cl != nil {
				cl.stop()
			}
			return nil, err
		}
		m.setups = append(m.setups, time.Since(start).Seconds())
	}
	defer r.cl.stop()
	limit := time.Duration((1+warmupShare)*seconds*float64(time.Second)) + runSlack
	if probes {
		limit += probeTime
	}
	if err := guard(w.name+" run", limit, func() error { return r.execute(m, seconds, traced, probes) }); err != nil {
		return nil, err
	}
	return m, nil
}
