package core

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"amber/internal/gaddr"
	"amber/internal/ivy"
	"amber/internal/transport"
)

// A transport's reader runs the handler of every message it reads, so a
// handler that waits holds its link until a release or the watchdog hands
// the link to a fresh reader (transport.Transport.ReleaseReaders). Each row
// of TestReaderHandoff is a wait whose wake-up arrives on the link the
// waiting handler was read from.

// Napper holds its handler for as long as it is asked to, announcing each
// start on napping so a test knows the handler is running.
type Napper struct{ Naps int }

var napping = make(chan struct{}, 64)

func (s *Napper) Nap(ms int) int {
	s.Naps++
	select {
	case napping <- struct{}{}:
	default:
	}
	time.Sleep(time.Duration(ms) * time.Millisecond)
	return s.Naps
}

func (s *Napper) Count() int { return s.Naps }

// awaitNap waits until a Nap handler has started.
func awaitNap(t *testing.T) {
	t.Helper()
	select {
	case <-napping:
	case <-time.After(10 * time.Second):
		t.Fatal("Nap never started")
	}
}

// drainNaps forgets announcements left by earlier rows.
func drainNaps() {
	for {
		select {
		case <-napping:
		default:
			return
		}
	}
}

// handoffNodes starts n nodes on the named network ("fabric" or "tcp") with
// the fixtures registered. The probe timeout is short, so a probe held
// behind a running handler would classify its peer as down.
func handoffNodes(t *testing.T, network string, n int) []*Node {
	t.Helper()
	reg := NewRegistry()
	for _, v := range []any{&Counter{}, &Caller{}, &Napper{}, &LeasedCounter{}} {
		if err := reg.Register(v); err != nil {
			t.Fatal(err)
		}
	}
	return startNodes(t, reg, transportsOn(t, network, n), NodeConfig{Procs: 2, ProbeTimeout: 60 * time.Millisecond})
}

// transportsOn attaches n nodes to the named network: an in-process fabric
// or loopback TCP.
func transportsOn(t *testing.T, network string, n int) []transport.Transport {
	t.Helper()
	if network == "tcp" {
		return tcpTransports(t, n)
	}
	f := transport.NewFabric(transport.Instant)
	t.Cleanup(func() { f.Close() })
	trs := make([]transport.Transport, n)
	for i := range trs {
		tr, err := f.Attach(gaddr.NodeID(i))
		if err != nil {
			t.Fatal(err)
		}
		trs[i] = tr
	}
	return trs
}

// within runs f and fails the test if it does not return in time: a wait
// that holds its own reply's link shows as this failure, not as a hung test.
func within(t *testing.T, what string, f func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- f() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: no answer in 10s (a waiting handler held its link)", what)
	}
}

func TestReaderHandoff(t *testing.T) {
	for _, network := range []string{"fabric", "tcp"} {
		t.Run(network, func(t *testing.T) {
			t.Run("invoke back to origin", func(t *testing.T) {
				nodes := handoffNodes(t, network, 2)
				c, err := nodes[0].Root().New(&Counter{})
				if err != nil {
					t.Fatal(err)
				}
				caller, err := nodes[1].Root().New(&Caller{Target: c})
				if err != nil {
					t.Fatal(err)
				}
				// Warm node 1's region cache, so the handler's only wait is
				// the invoke itself.
				if _, err := nodes[1].Root().Invoke(c, "Get"); err != nil {
					t.Fatal(err)
				}
				within(t, "Relay", func() error {
					out, err := nodes[0].Root().Invoke(caller, "Relay", 3)
					if err == nil && out[0].(int) != 3 {
						err = fmt.Errorf("Relay = %v, want 3", out[0])
					}
					return err
				})
			})

			t.Run("first remote call resolves a region", func(t *testing.T) {
				nodes := handoffNodes(t, network, 3)
				c, err := nodes[2].Root().New(&Counter{})
				if err != nil {
					t.Fatal(err)
				}
				caller, err := nodes[1].Root().New(&Caller{Target: c})
				if err != nil {
					t.Fatal(err)
				}
				// Node 1 has never routed to node 2's region: its handler asks
				// the address server, node 0, whose answer comes back on the
				// link the request arrived on.
				within(t, "Relay", func() error {
					out, err := nodes[0].Root().Invoke(caller, "Relay", 4)
					if err == nil && out[0].(int) != 4 {
						err = fmt.Errorf("Relay = %v, want 4", out[0])
					}
					return err
				})
			})

			t.Run("slow handler is busy, not down", func(t *testing.T) {
				nodes := handoffNodes(t, network, 2)
				slow, err := nodes[1].Root().New(&Napper{})
				if err != nil {
					t.Fatal(err)
				}
				ctx := nodes[0].Root()
				if _, err := ctx.Invoke(slow, "Count"); err != nil {
					t.Fatal(err)
				}
				// The classifying probe reaches node 1 on the link the nap
				// holds, and must be answered there: the peer is busy, not down.
				_, err = ctx.Invoke(slow, "Nap", 400, WithDeadline(100*time.Millisecond))
				if !errors.Is(err, ErrTimeout) || errors.Is(err, ErrNodeDown) {
					t.Fatalf("deadline against a napping peer: %v, want ErrTimeout only", err)
				}

				// Lag: a probe sent just after a handler takes the link's
				// reader waits for the watchdog's hand-off, two periods at most
				// from the handler's start. The timer may fire late on a
				// loaded host, so the median is held to three periods, and
				// under the race detector only logged.
				probed, err := nodes[1].Root().New(&Napper{})
				if err != nil {
					t.Fatal(err)
				}
				lags := make([]time.Duration, 7)
				for i := range lags {
					drainNaps()
					f := ctx.AsyncInvoke(probed, "Nap", 50)
					awaitNap(t)
					start := time.Now()
					if _, err := nodes[0].ep.MeasureClockOffset(1, time.Second); err != nil {
						t.Fatalf("probe behind a napping handler: %v", err)
					}
					lags[i] = time.Since(start)
					if _, err := f.Join(ctx); err != nil {
						t.Fatal(err)
					}
				}
				sort.Slice(lags, func(i, j int) bool { return lags[i] < lags[j] })
				if med := lags[len(lags)/2]; med > 3*transport.WatchdogPeriod && !raceEnabled {
					t.Fatalf("probe answered after %v (median; all %v), want about 2 watchdog periods (%v)",
						med, lags, 2*transport.WatchdogPeriod)
				}
				t.Logf("probe lags behind a running handler: %v", lags)
			})

			t.Run("write fences a lease held by the origin", func(t *testing.T) {
				nodes := handoffNodes(t, network, 2)
				owner := nodes[1].Root()
				ref, err := owner.New(&LeasedCounter{N: 7})
				if err != nil {
					t.Fatal(err)
				}
				if err := owner.SetCacheable(ref); err != nil {
					t.Fatal(err)
				}
				reader := nodes[0]
				deadline := time.Now().Add(5 * time.Second)
				for reader.Stats().Value("lease_hits") == 0 {
					if _, err := reader.Root().Invoke(ref, "Get"); err != nil {
						t.Fatal(err)
					}
					if time.Now().After(deadline) {
						t.Fatal("node 0 never read from a lease")
					}
					reader.installBarrier()
				}
				// The write runs on node 1 and revokes node 0's lease; node 0's
				// acknowledgement arrives on the link that carried the write.
				within(t, "fenced Add", func() error {
					out, err := reader.Root().Invoke(ref, "Add", 1)
					if err == nil && out[0].(int) != 8 {
						err = fmt.Errorf("Add = %v, want 8", out[0])
					}
					return err
				})
				if out, err := reader.Root().Invoke(ref, "Get"); err != nil || out[0].(int) != 8 {
					t.Fatalf("Get after the fence = %v, %v; want 8", out, err)
				}
			})

			t.Run("entry waits on a move whose install answers on its link", func(t *testing.T) {
				nodes := handoffNodes(t, network, 2)
				ref, err := nodes[1].Root().New(&Napper{})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := nodes[0].Root().Invoke(ref, "Count"); err != nil {
					t.Fatal(err)
				}
				drainNaps()
				th, err := nodes[1].Root().StartThread(ref, "Nap", 200)
				if err != nil {
					t.Fatal(err)
				}
				awaitNap(t)
				// Node 1 moves the object to node 0 once the nap unpins it; the
				// install's reply comes back from node 0 on the same link as
				// node 0's invocation, which meanwhile waits out the move.
				moved := make(chan error, 1)
				go func() { moved <- nodes[1].Root().MoveTo(ref, 0) }()
				for d, deadline := nodes[1].desc(ref), time.Now().Add(5*time.Second); d.State() != stateMoving; {
					if time.Now().After(deadline) {
						t.Fatal("the move never started")
					}
					time.Sleep(100 * time.Microsecond)
				}
				within(t, "Count during the move", func() error {
					out, err := nodes[0].Root().Invoke(ref, "Count")
					if err == nil && out[0].(int) != 1 {
						err = fmt.Errorf("Count = %v, want 1", out[0])
					}
					return err
				})
				if err := <-moved; err != nil {
					t.Fatalf("MoveTo: %v", err)
				}
				if _, err := nodes[1].Root().Join(th); err != nil {
					t.Fatal(err)
				}
				if nodes[1].Stats().Value("entries_blocked_on_move") == 0 {
					t.Fatal("the invocation never waited on the move")
				}
			})

			t.Run("ivy fault and lock handlers", func(t *testing.T) {
				cfg := ivy.Config{Nodes: 3, PageSize: 128, NumPages: 2, Manager: ivy.DynamicDistributed}
				s, err := ivy.NewSystemOn(cfg, transportsOn(t, network, 3))
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(s.Close)
				// Every node writes whole pages under the RPC lock while the
				// others read them: page faults and lock grants wait inside
				// handlers, and no reader may ever see a torn page.
				within(t, "ivy writers and readers", func() error {
					var wg sync.WaitGroup
					errs := make(chan error, 3)
					for w := 0; w < 3; w++ {
						wg.Add(1)
						go func(n *ivy.Node, w int) {
							defer wg.Done()
							buf := make([]byte, 128)
							for i := 0; i < 30; i++ {
								if err := n.RPCLockAcquire(1); err != nil {
									errs <- err
									return
								}
								for j := range buf {
									buf[j] = byte(w*16 + i%8)
								}
								err := n.Write(128, buf)
								if rerr := n.RPCLockRelease(1); err == nil {
									err = rerr
								}
								if err == nil {
									var got []byte
									if got, err = n.Read(128, 128); err == nil &&
										!bytes.Equal(got, bytes.Repeat(got[:1], 128)) {
										err = fmt.Errorf("node %d read a torn page", w)
									}
								}
								if err != nil {
									errs <- err
									return
								}
							}
						}(s.Node(w), w)
					}
					wg.Wait()
					close(errs)
					return <-errs
				})
			})
		})
	}
}
