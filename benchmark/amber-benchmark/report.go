package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// metricDef names one metric; BENCHMARK.json lists the same names, units and
// bounds, and a test holds the two together.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a caller of the system sees. Bound is the share of the
// parent's median by which a later change may worsen the metric.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s", "higher", 0.25},
	{"p50_us", "us", "lower", 0.25},
	{"p95_us", "us", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer is one layer each; README.md says which end-to-end metric each
// should move, on which workload.
var perLayer = []metricDef{
	{Name: "latency.p99_us", Unit: "us", Better: "lower"},
	{Name: "wire.encode_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.gob_fallbacks_per_op", Unit: "count", Better: "lower"},
	{Name: "transport.hop_us", Unit: "us", Better: "lower"},
	{Name: "transport.hop_8k_us", Unit: "us", Better: "lower"},
	{Name: "transport.msgs_per_op", Unit: "count", Better: "lower"},
	{Name: "transport.bytes_per_op", Unit: "bytes", Better: "lower"},
	{Name: "rpc.roundtrip_us", Unit: "us", Better: "lower"},
	{Name: "rpc.retries_per_op", Unit: "count", Better: "lower"},
	{Name: "rpc.timeouts", Unit: "count", Better: "lower"},
	{Name: "sched.acquire_release_ns", Unit: "ns", Better: "lower"},
	{Name: "sched.steals_per_op", Unit: "count", Better: "lower"},
	{Name: "sched.parks_per_op", Unit: "count", Better: "lower"},
	{Name: "objspace.pin_ns", Unit: "ns", Better: "lower"},
	{Name: "objspace.hint_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "objspace.lease_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.local_invoke_ns", Unit: "ns", Better: "lower"},
	{Name: "core.remote_invoke_us", Unit: "us", Better: "lower"},
	{Name: "core.remote_self_us", Unit: "us", Better: "lower"},
	{Name: "layers.unattributed_frac", Unit: "ratio", Better: "lower"},
	{Name: "core.invokes_shipped_per_op", Unit: "count", Better: "lower"},
	{Name: "core.forwards_per_op", Unit: "count", Better: "lower"},
	{Name: "core.bytes_per_move", Unit: "bytes", Better: "lower"},
	{Name: "core.lease_revokes_per_write", Unit: "count", Better: "lower"},
	{Name: "core.write_p50_us", Unit: "us", Better: "lower"},
	{Name: "sor.msgs_per_iter", Unit: "count", Better: "lower"},
	{Name: "sor.iters", Unit: "count", Better: "lower"},
	{Name: "sor.speedup_vs_seq", Unit: "ratio", Better: "higher"},
	{Name: "mem.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "mem.bytes_per_op", Unit: "bytes", Better: "lower"},
	{Name: "driver.cpu_frac", Unit: "ratio", Better: "lower"},
	{Name: "stage.outbound_us", Unit: "us", Better: "lower"},
	{Name: "stage.exec_us", Unit: "us", Better: "lower"},
	{Name: "stage.return_us", Unit: "us", Better: "lower"},
	{Name: "trace.matched", Unit: "count", Better: "higher"},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower"},
}

// value is one reported number: the median of the per-window (or per-set-up)
// values, their extremes, and how many samples stand behind it.
type value struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
	N       uint64    `json:"n"`
	Windows []float64 `json:"windows,omitempty"`
}

// result is one workload in one mode: end-to-end (untraced) or per-layer.
type result struct {
	Workload  string           `json:"workload"`
	PerLayer  bool             `json:"per_layer"`
	Correct   bool             `json:"correct"`
	Attempted uint64           `json:"attempted"`
	Failed    uint64           `json:"failed"`
	CPUFrac   float64          `json:"driver_cpu_frac"`
	Error     string           `json:"error,omitempty"`
	Metrics   map[string]value `json:"metrics"`
}

// report is the results file. Every timing in it is host-dependent; the host
// facts say which host.
type report struct {
	NProc      int       `json:"nproc"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	GoVersion  string    `json:"go_version"`
	Commit     string    `json:"commit"`
	Seed       int64     `json:"seed"`
	WindowS    float64   `json:"window_s"`
	Windows    int       `json:"windows"`
	Results    []*result `json:"results"`
}

func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown" // built outside a git checkout
}

func statValue(vals []float64, unit string, n uint64) value {
	s := medianOf(vals)
	return value{Value: s.median, Unit: unit, Min: s.min, Max: s.max, N: n, Windows: vals}
}

func endToEndValues(m *measurement) map[string]value {
	return map[string]value{
		"ops_per_s": statValue(m.opsPerS, "1/s", m.ops),
		"p50_us":    statValue(m.p50us, "us", m.samples),
		"p95_us":    statValue(m.p95us, "us", m.samples),
		"setup_s":   statValue(m.setups, "s", uint64(len(m.setups))),
	}
}

// perLayerValues turns an untraced measurement's counts and probes, and a
// traced measurement's events, into the per-layer metrics. traced may be nil
// and base may lack probes; their metrics are then left out.
func perLayerValues(w *workload, base, traced *measurement) map[string]value {
	c, ops, writes := base.counts, float64(base.countOps), float64(base.countWrites)
	per := func(key string) float64 { return ratio(float64(c[key]), ops) }
	vals := map[string]float64{
		"latency.p99_us":               medianOf(base.p99us).median,
		"wire.gob_fallbacks_per_op":    per("wire.gob_fallbacks"),
		"transport.msgs_per_op":        per("transport.msgs_sent"),
		"transport.bytes_per_op":       per("transport.bytes_sent"),
		"rpc.retries_per_op":           per("rpc.rpc_retries"),
		"rpc.timeouts":                 float64(c["rpc.rpc_async_timeouts"] + c["node.anomalies_deadline"] + c["node.anomalies_retry_exhausted"]),
		"sched.steals_per_op":          per("sched.steals"),
		"sched.parks_per_op":           per("sched.parks"),
		"objspace.hint_hit_ratio":      ratio(float64(c["node.hint_hits"]), float64(c["node.hint_hits"]+c["node.hint_misses"])),
		"objspace.lease_hit_ratio":     ratio(float64(c["node.lease_hits"]), ops-writes),
		"core.invokes_shipped_per_op":  per("node.invokes_shipped"),
		"core.forwards_per_op":         per("node.forwards"),
		"core.bytes_per_move":          0,
		"core.lease_revokes_per_write": ratio(float64(c["node.lease_revokes"]), writes),
		"core.write_p50_us":            medianOf(base.writeP50us).median,
		"mem.allocs_per_op":            base.allocsPerOp,
		"mem.bytes_per_op":             base.bytesPerOp,
		"driver.cpu_frac":              base.cpuFrac,
		"sor.msgs_per_iter":            0,
		"sor.iters":                    0,
		"sor.speedup_vs_seq":           0,
	}
	if w.ledgerOps > 0 {
		// Only where the counts are over a ledger of moves is every byte on
		// the wire a move's doing.
		vals["core.bytes_per_move"] = ratio(float64(c["transport.bytes_sent"]), float64(c["node.objects_moved_out"]))
	}
	if w.name == "sor.tcp" {
		vals["sor.msgs_per_iter"] = per("transport.msgs_sent")
		vals["sor.iters"] = float64(sorRef.iters)
		vals["sor.speedup_vs_seq"] = ratio(float64(sorRef.took.Microseconds()), medianOf(base.p50us).median)
	}
	for k, v := range base.probes {
		vals[k] = v
	}
	if traced != nil {
		var matched int
		vals["stage.outbound_us"], vals["stage.exec_us"], vals["stage.return_us"], matched = stageMedians(traced.events)
		vals["trace.matched"] = float64(matched)
		vals["trace.overhead_frac"] = ratio(medianOf(traced.p50us).median, medianOf(base.p50us).median) - 1
	}
	out := map[string]value{}
	for _, d := range perLayer {
		if v, ok := vals[d.Name]; ok {
			out[d.Name] = value{Value: v, Unit: d.Unit, Min: v, Max: v, N: 1}
		}
	}
	return out
}

func printResult(res *result, defs []metricDef) {
	for _, d := range defs {
		if v, ok := res.Metrics[d.Name]; ok {
			fmt.Printf("%s %s %.6g %s [%.6g..%.6g] n=%d\n", res.Workload, d.Name, v.Value, v.Unit, v.Min, v.Max, v.N)
		}
	}
	fmt.Printf("%s attempted=%d failed=%d correct=%v driver_cpu_frac=%.3f\n",
		res.Workload, res.Attempted, res.Failed, res.Correct, res.CPUFrac)
	if res.Error != "" {
		fmt.Printf("%s ERROR %s\n", res.Workload, res.Error)
	}
}

// chromeSpan is one driver-side span in Chrome trace_event form.
type chromeSpan struct {
	Name string  `json:"name"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
}

func chromeSpans(name string, spans [][]span, epoch time.Time) []chromeSpan {
	var out []chromeSpan
	for tid, ss := range spans {
		for _, s := range ss {
			out = append(out, chromeSpan{Name: name, Ph: "X", Pid: int(driverID), Tid: tid,
				Ts: float64(s.start.Sub(epoch)) / 1e3, Dur: float64(s.dur) / 1e3})
		}
	}
	return out
}

func writeJSON(path string, v any, indent string) error {
	b, err := json.MarshalIndent(v, "", indent)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func driveMain(args []string) int {
	fs := flag.NewFlagSet("drive", flag.ExitOnError)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "seed of the driver's PRNG: object order, read/write mix, payload bytes")
	seconds := fs.Float64("seconds", 10, "measured time per workload, split into 5 windows")
	window := fs.Duration("window", 0, "length of one measured window (overrides -seconds)")
	traceMode := fs.Int("trace", -1, "0: end-to-end metrics only; 1: per-layer metrics only (-layers -traced); default: both")
	layers := fs.Bool("layers", false, "per-layer probes and counts only")
	tracedOnly := fs.Bool("traced", false, "traced pass only: stage medians and tracing overhead")
	out := fs.String("out", filepath.Join("benchmark", "out"), "directory for results.json and trace.json")
	fs.Parse(args)
	if *window > 0 {
		*seconds = window.Seconds() * windowsPerRun
	}
	doE2E := *traceMode == 0
	doLayers := *traceMode == 1 || *layers
	doTraced := *traceMode == 1 || *tracedOnly
	if !doE2E && !doLayers && !doTraced {
		doE2E, doLayers, doTraced = true, true, true
	}
	todo := workloads
	if *name != "all" {
		w := findWorkload(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "drive: unknown workload %q\n", *name)
			return 2
		}
		todo = []*workload{w}
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "drive:", err)
		return 1
	}
	killChildrenOnSignal()
	defer killChildren()

	rep := &report{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit(), Seed: *seed, WindowS: *seconds / windowsPerRun, Windows: windowsPerRun,
	}
	fmt.Printf("# nproc=%d GOMAXPROCS=%d %s commit=%s seed=%d window=%.3gs x%d closed loop, loopback TCP, 3 processes\n",
		rep.NProc, rep.GOMAXPROCS, rep.GoVersion, rep.Commit, rep.Seed, rep.WindowS, rep.Windows)
	var spans []chromeSpan
	epoch := time.Now()
	// record folds the measurements behind one result (or the error that
	// prevented them) into rep and prints it.
	record := func(w *workload, defs []metricDef, err error, metrics func() map[string]value, ms ...*measurement) {
		res := &result{Workload: w.name, PerLayer: len(defs) == len(perLayer), Correct: err == nil}
		if err != nil {
			res.Attempted, res.Failed, res.Error, res.Metrics = 1, 1, err.Error(), map[string]value{}
		} else {
			res.CPUFrac, res.Metrics = ms[0].cpuFrac, metrics()
			for _, m := range ms {
				if m == nil {
					continue
				}
				res.Attempted += m.ops + m.failed
				res.Failed += m.failed
				if m.checkErr != nil {
					res.Error = m.checkErr.Error()
				}
				res.Correct = res.Correct && m.checkErr == nil && m.failed == 0
			}
		}
		printResult(res, defs)
		rep.Results = append(rep.Results, res)
	}
	if doE2E {
		for _, w := range todo {
			if w.before != nil {
				w.before()
			}
			m, err := measure(w, exe, *seed, *seconds, setupsPerRun, false, false)
			record(w, endToEnd, err, func() map[string]value { return endToEndValues(m) }, m)
		}
	}
	if doLayers || doTraced {
		for _, w := range todo {
			if w.before != nil {
				w.before()
			}
			// The untraced half gives the counts, the probes and the base of
			// the tracing overhead; the traced half gives the stages.
			base, err := measure(w, exe, *seed, *seconds/2, 1, false, doLayers)
			var traced *measurement
			if err == nil && doTraced {
				if traced, err = measure(w, exe, *seed, *seconds/2, 1, true, false); err == nil {
					spans = append(spans, chromeSpans(w.name, traced.spans, epoch)...)
				}
			}
			record(w, perLayer, err, func() map[string]value { return perLayerValues(w, base, traced) }, base, traced)
		}
	}

	code := 0
	for _, res := range rep.Results {
		if !res.Correct {
			code = 1
		}
	}
	if err := writeJSON(filepath.Join(*out, "results.json"), rep, " "); err != nil {
		fmt.Fprintln(os.Stderr, "drive:", err)
		code = 1
	}
	if doTraced {
		if err := writeJSON(filepath.Join(*out, "trace.json"), map[string]any{"traceEvents": spans}, ""); err != nil {
			fmt.Fprintln(os.Stderr, "drive:", err)
			code = 1
		}
	}
	// One workload in one mode is the driver's contract: the last line is
	// the result as one JSON object, and only a run that produced one exits 0.
	if len(rep.Results) == 1 && code == 0 {
		res := rep.Results[0]
		type unitValue struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		}
		metrics := map[string]unitValue{}
		for k, v := range res.Metrics {
			if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				fmt.Fprintf(os.Stderr, "drive: %s is not a number\n", k)
				return 1
			}
			metrics[k] = unitValue{v.Value, v.Unit}
		}
		line, err := json.Marshal(map[string]any{
			"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": metrics,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "drive:", err)
			return 1
		}
		fmt.Println(string(line))
	}
	return code
}

// compareMain prints, per workload and end-to-end metric, how far two results
// files of the same code differ, against the metric's bound in BENCHMARK.json.
func compareMain(args []string) int {
	if len(args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: amber-benchmark compare A.json B.json BENCHMARK.json")
		return 2
	}
	var a, b report
	var spec struct {
		EndToEnd []metricDef `json:"end_to_end"`
	}
	for i, dst := range []any{&a, &b, &spec} {
		raw, err := os.ReadFile(args[i])
		if err == nil {
			err = json.Unmarshal(raw, dst)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "compare: %s: %v\n", args[i], err)
			return 2
		}
	}
	find := func(r *report, workload string) *result {
		for _, res := range r.Results {
			if res.Workload == workload && !res.PerLayer {
				return res
			}
		}
		return nil
	}
	code := 0
	fmt.Printf("%-18s %-10s %14s %14s %8s %6s\n", "workload", "metric", "A", "B", "diff", "bound")
	for _, ra := range a.Results {
		rb := find(&b, ra.Workload)
		if ra.PerLayer || rb == nil {
			continue
		}
		for _, d := range spec.EndToEnd {
			va, vb := ra.Metrics[d.Name].Value, rb.Metrics[d.Name].Value
			diff := ratio(math.Abs(vb-va), va)
			verdict := ""
			if diff > d.Bound {
				verdict = "  BREACH"
				code = 1
			}
			fmt.Printf("%-18s %-10s %14.6g %14.6g %7.1f%% %5.0f%%%s\n", ra.Workload, d.Name, va, vb, 100*diff, 100*d.Bound, verdict)
		}
	}
	return code
}
