package rpc

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"amber/internal/gaddr"
	"amber/internal/transport"
)

// faultyNet is testNet plus an attached fault injector.
func faultyNet(t *testing.T, n int) ([]*Endpoint, *transport.Fabric, *transport.Faults) {
	t.Helper()
	eps, f := testNet(t, n)
	fl := transport.NewFaults(42)
	f.SetFaults(fl)
	return eps, f, fl
}

func TestTimeoutClassifiedAliveVsDown(t *testing.T) {
	eps, _, fl := faultyNet(t, 2)
	eps[1].HandleProc(5, func(c *Ctx) { /* never reply */ })

	// The peer answers probes: a timed-out call is ErrTimeout, not node-down.
	_, err := eps[0].CallWith(1, 5, nil, CallOpts{Timeout: 50 * time.Millisecond, ProbeTimeout: 100 * time.Millisecond})
	if !errors.Is(err, ErrTimeout) || errors.Is(err, ErrNodeDown) {
		t.Fatalf("slow-peer err = %v, want ErrTimeout only", err)
	}
	if eps[0].PeerDown(1) {
		t.Fatal("alive peer marked down")
	}

	// Crash the peer: the same call now classifies as ErrNodeDown.
	fl.Crash(1)
	_, err = eps[0].CallWith(1, 5, nil, CallOpts{Timeout: 50 * time.Millisecond, ProbeTimeout: 50 * time.Millisecond})
	if !errors.Is(err, ErrNodeDown) || errors.Is(err, ErrRefused) {
		t.Fatalf("dead-peer err = %v, want ErrNodeDown and not ErrRefused (the crash ate an accepted frame)", err)
	}
	if !eps[0].PeerDown(1) {
		t.Fatal("dead peer not marked down")
	}
	if eps[0].Stats().Value("rpc_probe_failures") == 0 || eps[0].Stats().Value("rpc_peer_down_marks") != 1 {
		t.Fatalf("probe counters: failures=%d marks=%d",
			eps[0].Stats().Value("rpc_probe_failures"), eps[0].Stats().Value("rpc_peer_down_marks"))
	}

	// Restart: the next reply (or probe) clears the mark.
	fl.Restart(1)
	eps[1].HandleProc(5, func(c *Ctx) { c.Reply([]byte("ok"), nil) })
	resp, err := eps[0].CallWith(1, 5, nil, CallOpts{Timeout: time.Second})
	if err != nil || string(resp) != "ok" {
		t.Fatalf("after restart: %q, %v", resp, err)
	}
	if eps[0].PeerDown(1) {
		t.Fatal("down-mark survived live traffic")
	}
}

// TestRefusedSendClassified: a call whose only attempt the transport refused
// matches ErrRefused, with the transport's error still reachable; a call
// with attempts after a refused first one does not, since any of them may
// have been accepted.
func TestRefusedSendClassified(t *testing.T) {
	eps, _ := testNet(t, 2)
	_, err := eps[0].CallWith(7, 5, nil, CallOpts{Timeout: 50 * time.Millisecond, ProbeTimeout: 50 * time.Millisecond})
	if !errors.Is(err, ErrRefused) || !errors.Is(err, transport.ErrUnknownNode) {
		t.Fatalf("refused send: %v, want ErrRefused wrapping ErrUnknownNode", err)
	}
	_, err = eps[0].CallWith(7, 5, nil, CallOpts{Timeout: 50 * time.Millisecond, MaxAttempts: 2,
		Backoff: time.Millisecond, ProbeTimeout: 50 * time.Millisecond})
	if err == nil || errors.Is(err, ErrRefused) {
		t.Fatalf("refused send after a retry: %v, want an error that is not ErrRefused", err)
	}
}

func TestRetryRecoversFromLostRequest(t *testing.T) {
	eps, f, _ := faultyNet(t, 2)
	eps[1].HandleProc(5, func(c *Ctx) { c.Reply([]byte("done"), nil) })
	// Eat exactly the first request; retries get through.
	var eaten atomic.Int64
	f.SetFault(func(m transport.Message) bool {
		return m.Kind == kindRequest && eaten.Add(1) == 1
	})
	resp, err := eps[0].CallWith(1, 5, nil, CallOpts{
		Timeout: 50 * time.Millisecond, MaxAttempts: 3, Backoff: time.Millisecond,
	})
	if err != nil || string(resp) != "done" {
		t.Fatalf("retried call: %q, %v", resp, err)
	}
	if got := eps[0].Stats().Value("rpc_retries"); got != 1 {
		t.Fatalf("rpc_retries = %d, want 1", got)
	}
}

func TestIdempotentRetryExecutesOnce(t *testing.T) {
	eps, f, _ := faultyNet(t, 2)
	var executions atomic.Int64
	eps[1].HandleProc(5, func(c *Ctx) {
		executions.Add(1)
		c.Reply([]byte("counted"), nil)
	})
	// Eat exactly the first reply: the operation executes, the caller times
	// out and retries; the callee must answer from its dedup window instead
	// of executing again.
	var eaten atomic.Int64
	f.SetFault(func(m transport.Message) bool {
		return m.Kind == kindReply && eaten.Add(1) == 1
	})
	resp, err := eps[0].CallWith(1, 5, nil, CallOpts{
		Timeout: 50 * time.Millisecond, MaxAttempts: 4, Backoff: time.Millisecond,
		Idempotent: true,
	})
	if err != nil || string(resp) != "counted" {
		t.Fatalf("retried call: %q, %v", resp, err)
	}
	if n := executions.Load(); n != 1 {
		t.Fatalf("executed %d times, want exactly 1", n)
	}
	if got := eps[1].Stats().Value("rpc_dedup_hits"); got < 1 {
		t.Fatalf("rpc_dedup_hits = %d, want >= 1", got)
	}
}

func TestNonIdempotentRetryMayReexecute(t *testing.T) {
	eps, f, _ := faultyNet(t, 2)
	var executions atomic.Int64
	eps[1].HandleProc(5, func(c *Ctx) {
		executions.Add(1)
		c.Reply(nil, nil)
	})
	var eaten atomic.Int64
	f.SetFault(func(m transport.Message) bool {
		return m.Kind == kindReply && eaten.Add(1) == 1
	})
	// Without Idempotent the retry carries no token: the callee cannot tell
	// it from a fresh call and executes again — which is why callers opt in.
	_, err := eps[0].CallWith(1, 5, nil, CallOpts{
		Timeout: 50 * time.Millisecond, MaxAttempts: 3, Backoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := executions.Load(); n != 2 {
		t.Fatalf("executed %d times, want 2 (no dedup without token)", n)
	}
}

func TestGenerationChangeFiresRestartCallback(t *testing.T) {
	eps, _, _ := faultyNet(t, 2)
	restarted := make(chan gaddr.NodeID, 1)
	eps[0].OnPeerRestart(func(peer gaddr.NodeID) { restarted <- peer })

	eps[1].SetGeneration(5)
	if eps[0].checkDown(1, 100*time.Millisecond) {
		t.Fatal("live peer classified down")
	}
	select {
	case p := <-restarted:
		t.Fatalf("first generation sighting fired restart callback for %d", p)
	case <-time.After(20 * time.Millisecond):
	}

	// The peer comes back as a different incarnation.
	eps[1].SetGeneration(6)
	if eps[0].checkDown(1, 100*time.Millisecond) {
		t.Fatal("live peer classified down")
	}
	select {
	case p := <-restarted:
		if p != 1 {
			t.Fatalf("restart callback peer = %d", p)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("generation change did not fire restart callback")
	}
	if eps[0].Stats().Value("rpc_peer_restarts_seen") != 1 {
		t.Fatalf("rpc_peer_restarts_seen = %d", eps[0].Stats().Value("rpc_peer_restarts_seen"))
	}
}

func TestWatchPeerMarksDownAsync(t *testing.T) {
	eps, _, fl := faultyNet(t, 2)
	fl.Crash(1)
	eps[0].WatchPeer(1)
	deadline := time.Now().Add(3 * time.Second)
	for !eps[0].PeerDown(1) {
		if time.Now().After(deadline) {
			t.Fatal("WatchPeer never marked the crashed peer down")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Rate limit: an immediate second watch is a no-op (still one probe in
	// the books beyond the failed one).
	sent := eps[0].Stats().Value("rpc_probes_sent")
	eps[0].WatchPeer(1)
	time.Sleep(20 * time.Millisecond)
	if got := eps[0].Stats().Value("rpc_probes_sent"); got != sent {
		t.Fatalf("rate-limited WatchPeer probed anyway (%d -> %d)", sent, got)
	}
}

// --- dedup table unit tests ---

func TestDedupTableLifecycle(t *testing.T) {
	var d dedupTable
	d.init()

	v, _, _ := d.admit(3, 77)
	if v != dedupFresh {
		t.Fatalf("first admit = %v, want fresh", v)
	}
	if v, _, _ = d.admit(3, 77); v != dedupInflight {
		t.Fatalf("second admit = %v, want inflight", v)
	}
	// A different origin with the same token is a different request.
	if v, _, _ = d.admit(4, 77); v != dedupFresh {
		t.Fatalf("cross-origin admit = %v, want fresh", v)
	}

	d.complete(3, 77, []byte("result"), "")
	v, body, errStr := d.admit(3, 77)
	if v != dedupReplay || string(body) != "result" || errStr != "" {
		t.Fatalf("post-complete admit = %v, %q, %q", v, body, errStr)
	}

	// Abandon (the forwarder path): the entry is forgotten entirely.
	d.abandon(4, 77)
	if v, _, _ = d.admit(4, 77); v != dedupFresh {
		t.Fatalf("post-abandon admit = %v, want fresh", v)
	}
}

func TestDedupTableErrorReplay(t *testing.T) {
	var d dedupTable
	d.init()
	d.admit(1, 9)
	d.complete(1, 9, nil, "amber: object deleted")
	v, body, errStr := d.admit(1, 9)
	if v != dedupReplay || body != nil || errStr != "amber: object deleted" {
		t.Fatalf("error replay = %v, %q, %q", v, body, errStr)
	}
}

func TestDedupTableEviction(t *testing.T) {
	var d dedupTable
	d.init()
	for i := 0; i < dedupWindow+10; i++ {
		d.admit(1, uint64(i+1))
		d.complete(1, uint64(i+1), nil, "")
	}
	if len(d.entries) > dedupWindow {
		t.Fatalf("window grew to %d entries (cap %d)", len(d.entries), dedupWindow)
	}
	// The oldest entries fell out; the newest survive.
	if v, _, _ := d.admit(1, 1); v != dedupFresh {
		t.Fatal("evicted entry still present")
	}
	if v, _, _ := d.admit(1, uint64(dedupWindow+10)); v != dedupReplay {
		t.Fatal("recent entry evicted")
	}
}
