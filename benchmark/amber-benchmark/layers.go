package main

import (
	"fmt"
	"time"

	"amber/internal/gaddr"
	"amber/internal/objspace"
	"amber/internal/rpc"
	"amber/internal/sched"
	"amber/internal/trace"
	"amber/internal/transport"
	"amber/internal/wire"
)

// The layer probes time each module from outside, through its exported
// functions, in the driver process. Each reports a median, so one scheduling
// hiccup does not move it.

// perOp times f in batches and returns the median batch's nanoseconds per call.
func perOp(batches, calls int, f func()) float64 {
	vals := make([]float64, batches)
	for b := range vals {
		start := time.Now()
		for i := 0; i < calls; i++ {
			f()
		}
		vals[b] = float64(time.Since(start)) / float64(calls)
	}
	return medianOf(vals).median
}

// probeWire times the argument codec on args: MarshalArgs, and
// UnmarshalArgsScratch with the PutArgs that returns the vector.
func probeWire(args []any) (encodeNs, decodeNs float64, err error) {
	enc, err := wire.MarshalArgs(args)
	if err != nil {
		return 0, 0, err
	}
	defer wire.PutBuf(enc)
	encodeNs = perOp(5, 2000, func() {
		b, _ := wire.MarshalArgs(args)
		wire.PutBuf(b)
	})
	decodeNs = perOp(5, 2000, func() {
		vs, _ := wire.UnmarshalArgsScratch(enc)
		wire.PutArgs(vs)
	})
	return encodeNs, decodeNs, nil
}

const probeProc rpc.Proc = 250

// probeNet measures a loopback pair of transport.TCP inside this process: the
// one-way hop for a 32-byte and an 8 KiB frame (round trip ÷ 2, the peer
// echoing the frame), then a null rpc.Endpoint.Call over the same pair.
func probeNet() (hopUs, hop8kUs, rpcUs float64, err error) {
	var trs [2]*transport.TCP
	for i := range trs {
		if trs[i], err = transport.NewTCP(transport.TCPConfig{Self: gaddr.NodeID(i), Listen: "127.0.0.1:0"}); err != nil {
			return 0, 0, 0, err
		}
		defer trs[i].Close()
	}
	trs[0].SetPeers(map[gaddr.NodeID]string{1: trs[1].Addr()})
	trs[1].SetPeers(map[gaddr.NodeID]string{0: trs[0].Addr()})

	back := make(chan struct{}, 1)
	trs[0].SetHandler(func(m transport.Message) {
		wire.PutBuf(m.Payload)
		back <- struct{}{}
	})
	trs[1].SetHandler(func(m transport.Message) {
		trs[1].Send(m.From, m.Kind, m.Payload) // Send takes the payload over
	})
	hop := func(size int) (float64, error) {
		const trips = 1500
		us := make([]float64, 0, trips)
		for i := 0; i < trips+100; i++ {
			start := time.Now()
			if err := trs[0].Send(1, 1, wire.GetBufN(size)); err != nil {
				return 0, err
			}
			select {
			case <-back:
			case <-time.After(opDeadline):
				return 0, fmt.Errorf("transport probe: no echo of a %d-byte frame", size)
			}
			if i >= 100 { // the first trips dial the connections
				us = append(us, float64(time.Since(start))/1e3)
			}
		}
		return medianOf(us).median / 2, nil
	}
	if hopUs, err = hop(32); err != nil {
		return
	}
	if hop8kUs, err = hop(8 << 10); err != nil {
		return
	}

	// NewEndpoint takes the transports' handlers over from the echo pair.
	eps := [2]*rpc.Endpoint{rpc.NewEndpoint(trs[0]), rpc.NewEndpoint(trs[1])}
	eps[1].HandleProc(probeProc, func(c *rpc.Ctx) { c.Reply(nil, nil) })
	const calls = 1500
	us := make([]float64, 0, calls)
	for i := 0; i < calls+100; i++ {
		start := time.Now()
		resp, err := eps[0].CallTimeout(1, probeProc, nil, opDeadline)
		if err != nil {
			return 0, 0, 0, fmt.Errorf("rpc probe: %w", err)
		}
		wire.PutBuf(resp)
		if i >= 100 {
			us = append(us, float64(time.Since(start))/1e3)
		}
	}
	return hopUs, hop8kUs, medianOf(us).median, nil
}

// probeSched times an uncontended Acquire/Release pair on a scheduler shaped
// like a benchmark node's.
func probeSched() float64 {
	s := sched.New(nodeProcs, nil)
	t := &sched.Task{ThreadID: 1}
	return perOp(5, 20000, func() {
		s.Acquire(t)
		s.Release(t)
	})
}

// probePin times the residency check of a local invoke: look the descriptor
// up, TryPin it, unpin it.
func probePin() float64 {
	sp := objspace.New[struct{}](0, 0, 0)
	const addr gaddr.Addr = 1 << 20
	d := sp.Ensure(addr)
	d.Lock()
	d.SetStateLocked(objspace.StateResident)
	d.Unlock()
	return perOp(5, 20000, func() {
		if d := sp.Get(addr); d.TryPin() {
			d.Unpin()
		}
	})
}

// probeCore times a blocking Add from one client on one resident counter and
// on one counter a hop away, on the workload's own cluster, so that the
// layers measured above can be subtracted from it.
func probeCore(r *run) (localNs, remoteUs float64, err error) {
	ctx := r.cl.node.Root()
	time1 := func(where gaddr.NodeID, calls int) (float64, error) {
		ref, err := ctx.NewAt(where, &BenchCounter{})
		if err != nil {
			return 0, err
		}
		var callErr error
		ns := perOp(5, calls, func() {
			if _, err := ctx.Invoke(ref, "Add", 1); err != nil {
				callErr = err
			}
		})
		return ns, callErr
	}
	if localNs, err = time1(driverID, 20000); err != nil {
		return
	}
	remoteNs, err := time1(0, 1000)
	return localNs, remoteNs / 1e3, err
}

// probeLayers runs every probe and derives what core itself costs on a remote
// invoke: the round trip less the rpc round trip, the argument and result
// codec both ways, and a local invoke (which already holds one sched
// acquire/release, one pin and one dispatch).
func probeLayers(r *run) (map[string]float64, error) {
	m := map[string]float64{}
	var err error
	if m["wire.encode_ns"], m["wire.decode_ns"], err = probeWire(r.w.probeArgs()); err != nil {
		return nil, err
	}
	if m["transport.hop_us"], m["transport.hop_8k_us"], m["rpc.roundtrip_us"], err = probeNet(); err != nil {
		return nil, err
	}
	m["sched.acquire_release_ns"] = probeSched()
	m["objspace.pin_ns"] = probePin()
	if m["core.local_invoke_ns"], m["core.remote_invoke_us"], err = probeCore(r); err != nil {
		return nil, err
	}
	addEnc, addDec, err := probeWire(addArgs())
	if err != nil {
		return nil, err
	}
	attributed := m["rpc.roundtrip_us"] + 2*(addEnc+addDec)/1e3 + m["core.local_invoke_ns"]/1e3
	m["core.remote_self_us"] = m["core.remote_invoke_us"] - attributed
	m["layers.unattributed_frac"] = ratio(m["core.remote_self_us"], m["core.remote_invoke_us"])
	return m, nil
}

// stageMedians splits traced invocations into the paper's three legs from
// the events the runtime already emits: outbound is invoke.start on the
// caller to exec.start on the executor, exec is exec.start to exec.end, and
// return is exec.end to invoke.end. An exec span names the invoke span that
// shipped it as its parent; async invocations emit no invoke span, so they
// contribute to exec only. All in microseconds; matched is how many
// invocations had all four events still in the rings.
func stageMedians(evs []trace.Event) (outbound, exec, ret float64, matched int) {
	type times struct{ start, end int64 }
	invokes := map[uint64]*times{}
	execs := map[uint64]*times{}
	parent := map[uint64]uint64{}
	at := func(m map[uint64]*times, span uint64) *times {
		t := m[span]
		if t == nil {
			t = &times{}
			m[span] = t
		}
		return t
	}
	for _, ev := range evs {
		switch ev.Kind {
		case trace.KInvokeStart:
			at(invokes, ev.Span).start = ev.TimeNs
		case trace.KInvokeEnd:
			at(invokes, ev.Span).end = ev.TimeNs
		case trace.KExecStart:
			at(execs, ev.Span).start = ev.TimeNs
			parent[ev.Span] = ev.Parent
		case trace.KExecEnd:
			at(execs, ev.Span).end = ev.TimeNs
		}
	}
	var outs, exs, rets []float64
	for span, e := range execs {
		if e.start == 0 || e.end == 0 {
			continue
		}
		exs = append(exs, float64(e.end-e.start)/1e3)
		if inv := invokes[parent[span]]; inv != nil && inv.start != 0 && inv.end != 0 {
			outs = append(outs, float64(e.start-inv.start)/1e3)
			rets = append(rets, float64(inv.end-e.end)/1e3)
		}
	}
	return medianOf(outs).median, medianOf(exs).median, medianOf(rets).median, len(outs)
}
