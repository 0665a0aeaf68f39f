package perf

import (
	"strings"
	"testing"
	"time"

	"amber/internal/transport"
)

func TestModelConsistentWithTable1(t *testing.T) {
	m := CVAX1989
	ri := m.RemoteInvoke()
	if ri < 7500*time.Microsecond || ri > 9200*time.Microsecond {
		t.Fatalf("modelled remote invoke = %v, want ≈8.32ms", ri)
	}
	mv := m.ObjectMove()
	if mv < 11*time.Millisecond || mv > 17*time.Millisecond {
		t.Fatalf("modelled object move = %v, want ≈12.4ms", mv)
	}
	if m.TransmitTime(1250) < 900*time.Microsecond {
		t.Fatalf("10 Mbit/s transmit time looks wrong: %v", m.TransmitTime(1250))
	}
}

func TestSimulateSORValidation(t *testing.T) {
	if _, err := SimulateSOR(SORConfig{}); err == nil {
		t.Fatal("zero config accepted")
	}
	if _, err := SimulateSOR(SORConfig{
		Nodes: 1, ProcsPerNode: 1, Rows: 5, Cols: 5, Iters: 1, Sections: 10, Model: CVAX1989,
	}); err == nil {
		t.Fatal("oversubscribed sections accepted")
	}
}

func TestSimulateSORSpeedupShape(t *testing.T) {
	run := func(nodes, procs, sections int, overlap bool) SORPoint {
		t.Helper()
		pt, err := SimulateSOR(SORConfig{
			Nodes: nodes, ProcsPerNode: procs, Sections: sections,
			Rows: PaperGridRows, Cols: PaperGridCols, Iters: 10,
			Overlap: overlap, Model: CVAX1989,
		})
		if err != nil {
			t.Fatal(err)
		}
		return pt
	}

	s1 := run(1, 1, 8, true)
	if s1.Speedup < 0.90 || s1.Speedup > 1.02 {
		t.Fatalf("1Nx1P speedup = %.2f, want ≈1", s1.Speedup)
	}
	s44 := run(4, 4, 8, true)
	if s44.Speedup < 10 || s44.Speedup > 16 {
		t.Fatalf("4Nx4P speedup = %.2f, want ≈13±3 (paper ≈13–14)", s44.Speedup)
	}
	s84 := run(8, 4, 8, true)
	if s84.Speedup < 20 || s84.Speedup > 30 {
		t.Fatalf("8Nx4P speedup = %.2f, want ≈25 (paper: 25)", s84.Speedup)
	}
	s84n := run(8, 4, 8, false)
	if s84n.Speedup >= s84.Speedup {
		t.Fatalf("no-overlap (%.2f) should be slower than overlap (%.2f)",
			s84n.Speedup, s84.Speedup)
	}
	if s84.Speedup-s84n.Speedup < 1 {
		t.Fatalf("overlap benefit too small: %.2f vs %.2f", s84.Speedup, s84n.Speedup)
	}
	// The paper's equivalence observation: ≈equal speedups for all 4-CPU
	// totals (1Nx4P, 2Nx2P, 4Nx1P).
	s14 := run(1, 4, 8, true)
	s22 := run(2, 2, 8, true)
	s41 := run(4, 1, 8, true)
	min, max := s14.Speedup, s14.Speedup
	for _, v := range []float64{s22.Speedup, s41.Speedup} {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	if (max-min)/max > 0.15 {
		t.Fatalf("4-processor configs diverge: 1Nx4P=%.2f 2Nx2P=%.2f 4Nx1P=%.2f",
			s14.Speedup, s22.Speedup, s41.Speedup)
	}
}

func TestSimulateSORDeterministic(t *testing.T) {
	cfg := SORConfig{
		Nodes: 3, ProcsPerNode: 2, Sections: 6,
		Rows: 60, Cols: 80, Iters: 5, Overlap: true, Model: CVAX1989,
	}
	a, err := SimulateSOR(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SimulateSOR(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Parallel != b.Parallel || a.Messages != b.Messages {
		t.Fatalf("nondeterministic: %v/%d vs %v/%d", a.Parallel, a.Messages, b.Parallel, b.Messages)
	}
}

func TestFigure3MonotoneInProblemSize(t *testing.T) {
	pts, err := RunFigure3(6)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) < 5 {
		t.Fatalf("only %d figure-3 points", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Speedup < pts[i-1].Speedup-0.2 {
			t.Fatalf("speedup not rising with problem size: %.2f then %.2f",
				pts[i-1].Speedup, pts[i].Speedup)
		}
	}
	small, large := pts[0].Speedup, pts[len(pts)-1].Speedup
	if small > large/1.5 {
		t.Fatalf("communication should dominate small grids: small=%.2f large=%.2f", small, large)
	}
	if large < 12 || large > 16.5 {
		t.Fatalf("large-grid 4Nx4P speedup = %.2f, want near 16", large)
	}
}

func TestMeasureTable1Shape(t *testing.T) {
	rows, err := MeasureTable1(3, transport.Ethernet1989)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Table1Row{}
	for _, r := range rows {
		byName[r.Operation] = r
	}
	if len(byName) != 5 {
		t.Fatalf("got %d rows", len(byName))
	}
	local := byName["local invoke/return"].Measured
	remote := byName["remote invoke/return"].Measured
	move := byName["object move"].Measured
	if remote < 100*local {
		t.Fatalf("remote/local ratio = %.1f, want orders of magnitude (local=%v remote=%v)",
			float64(remote)/float64(local), local, remote)
	}
	if remote < 7*time.Millisecond || remote > 13*time.Millisecond {
		t.Fatalf("remote invoke = %v, want near 8.3ms under the 1989 profile", remote)
	}
	if move <= remote {
		t.Fatalf("object move (%v) should cost more than a remote invoke (%v)", move, remote)
	}
}

func TestLockContentionComparison(t *testing.T) {
	rows, err := LockContention(20)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	amber, ivyShared, ivyRPC := rows[0], rows[1], rows[3]
	if amber.Msgs >= ivyShared.Msgs {
		t.Fatalf("Amber (%d msgs) should beat Ivy shared-page (%d msgs)", amber.Msgs, ivyShared.Msgs)
	}
	// Amber: ≈1 RPC per remote critical section (half are local).
	if amber.Msgs > 2*20 {
		t.Fatalf("Amber used %d msgs for 20 critical sections", amber.Msgs)
	}
	// Later Ivy's RPC locks: comparable bytes to the CAS page (the data
	// page still shuttles once per critical section; the read-to-write
	// upgrade optimization keeps the second transfer off the wire), but
	// still far more messages than Amber's single invocation.
	if ivyRPC.Bytes > 2*ivyShared.Bytes {
		t.Fatalf("RPC-lock bytes exploded: %d vs %d", ivyRPC.Bytes, ivyShared.Bytes)
	}
	if ivyRPC.Msgs <= amber.Msgs {
		t.Fatalf("RPC-lock Ivy (%d msgs) should still trail Amber (%d msgs)", ivyRPC.Msgs, amber.Msgs)
	}
}

func TestFalseSharingComparison(t *testing.T) {
	rows, err := FalseSharing(20)
	if err != nil {
		t.Fatal(err)
	}
	amber, shared, padded := rows[0], rows[1], rows[2]
	if amber.Msgs != 0 {
		t.Fatalf("Amber should need zero messages, used %d", amber.Msgs)
	}
	if shared.Msgs < 20 {
		t.Fatalf("shared-page Ivy used only %d msgs; expected thrashing", shared.Msgs)
	}
	if padded.Msgs > shared.Msgs/3 {
		t.Fatalf("padding should mostly cure thrashing: %d vs %d", padded.Msgs, shared.Msgs)
	}
}

func TestBigObjectComparison(t *testing.T) {
	rows, err := BigObject(64)
	if err != nil {
		t.Fatal(err)
	}
	ship, move, ivyScan := rows[0], rows[1], rows[2]
	if ship.Msgs > 4 {
		t.Fatalf("function shipping used %d msgs, want ≈2", ship.Msgs)
	}
	if ivyScan.Msgs < 16 {
		t.Fatalf("Ivy scan used %d msgs, want ≥16 (one per page)", ivyScan.Msgs)
	}
	if ship.Bytes > ivyScan.Bytes/10 {
		t.Fatalf("function shipping moved %d bytes vs Ivy %d", ship.Bytes, ivyScan.Bytes)
	}
	if move.Bytes < 64*1024 {
		t.Fatalf("bulk move transferred only %d bytes", move.Bytes)
	}
	if move.Msgs >= ivyScan.Msgs {
		t.Fatalf("bulk move (%d msgs) should use far fewer messages than paging (%d)",
			move.Msgs, ivyScan.Msgs)
	}
}

// TestForwardingChainsAblation is E8's message ledger (§3.3). The first
// reference from a node that never heard of the object costs 4·hops + 2
// messages: the request to the home node, one forward per stale tombstone,
// the executor's detached reply, one chain-update oneway back to each node
// the request passed through, and a ping and a pong per forwarder — the
// health probe by which a forwarder learns a dead next hop (engine.go
// forward). The second reference goes straight to the object: 2 messages.
func TestForwardingChainsAblation(t *testing.T) {
	rows, err := ForwardingChains(4)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		h := int64(r.Hops)
		for _, c := range []struct {
			what      string
			got, want int64
		}{
			{"first-reference messages", r.FirstMsgs, 4*h + 2},
			{"forwards", r.FirstFwd, h},
			{"chain_updates_sent", r.FirstUpdates, h},
			{"rpc_probes_sent", r.FirstProbes, h},
			{"second-reference messages", r.SecondMsgs, 2},
			{"second-reference forwards", r.SecondFwd, 0},
			{"second-reference hint hits", r.HintHits, 1},
		} {
			if c.got != c.want {
				t.Errorf("hops=%d: %s = %d, want %d", r.Hops, c.what, c.got, c.want)
			}
		}
	}
}

func TestMobilityAblation(t *testing.T) {
	rows, err := MobilityAblation(4, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	loose, attached, mutable, immutable := rows[0], rows[1], rows[2], rows[3]
	if attached.Msgs >= loose.Msgs {
		t.Fatalf("attached move (%d msgs) should beat %d independent moves (%d msgs)",
			attached.Msgs, 4, loose.Msgs)
	}
	if immutable.Msgs >= mutable.Msgs {
		t.Fatalf("immutable replication (%d msgs) should beat repeated remote reads (%d)",
			immutable.Msgs, mutable.Msgs)
	}
}

func TestFormatters(t *testing.T) {
	pts, err := RunFigure2(3)
	if err != nil {
		t.Fatal(err)
	}
	s := FormatSOR("Figure 2", pts, false)
	if !strings.Contains(s, "8Nx4P") || !strings.Contains(s, "no overlap") {
		t.Fatalf("figure 2 rendering:\n%s", s)
	}
	rows, err := MeasureTable1(1, transport.Instant)
	if err != nil {
		t.Fatal(err)
	}
	ts := FormatTable1(rows)
	if !strings.Contains(ts, "remote invoke/return") {
		t.Fatalf("table 1 rendering:\n%s", ts)
	}
}

func TestSensitivityReproducesSection5Prediction(t *testing.T) {
	rows, err := RunSensitivity(8)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	base, fastCPU, fastWire, lowLat := rows[0], rows[1], rows[2], rows[3]
	// The forecast: with 100x CPUs and the same latency, efficiency
	// collapses (communication dominates the now-tiny compute).
	if fastCPU.Point.Speedup > base.Point.Speedup/2 {
		t.Fatalf("fast CPUs kept speedup %.2f vs base %.2f — latency should dominate",
			fastCPU.Point.Speedup, base.Point.Speedup)
	}
	// Bandwidth alone barely helps.
	if fastWire.Point.Speedup > 2*fastCPU.Point.Speedup {
		t.Fatalf("bandwidth alone rescued speedup: %.2f vs %.2f",
			fastWire.Point.Speedup, fastCPU.Point.Speedup)
	}
	// Only lower latency restores the balance.
	if lowLat.Point.Speedup < 3*fastWire.Point.Speedup {
		t.Fatalf("low latency did not restore speedup: %.2f vs %.2f",
			lowLat.Point.Speedup, fastWire.Point.Speedup)
	}
}
