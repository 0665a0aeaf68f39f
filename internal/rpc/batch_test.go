package rpc

import (
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"amber/internal/gaddr"
	"amber/internal/transport"
)

// A reply to a request that has company on its link rides the inbound batch:
// it waits in the write buffer until the reader runs out of buffered frames
// or hands the link off, and a burst of requests is answered in one write.
// These rows hold the batching, its two bounds, and the replies that must
// never wait.

// tcpNet builds n endpoints over loopback TCP. wrap, when non-nil, stands
// between node i and its transport.
func tcpNet(t *testing.T, n int, wrap func(i int, tr *transport.TCP) transport.Transport) ([]*Endpoint, []*transport.TCP) {
	t.Helper()
	tcps := make([]*transport.TCP, n)
	for i := range tcps {
		tr, err := transport.NewTCP(transport.TCPConfig{Self: gaddr.NodeID(i), Listen: "127.0.0.1:0"})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tr.Close() })
		tcps[i] = tr
	}
	eps := make([]*Endpoint, n)
	for i, tr := range tcps {
		peers := make(map[gaddr.NodeID]string)
		for j, other := range tcps {
			if j != i {
				peers[gaddr.NodeID(j)] = other.Addr()
			}
		}
		tr.SetPeers(peers)
		var link transport.Transport = tr
		if wrap != nil {
			link = wrap(i, tr)
		}
		eps[i] = NewEndpoint(link)
	}
	return eps, tcps
}

// moreLink claims a further message behind every one it delivers, as a
// reader with a backlog would, but the TCP reader underneath does not know:
// it Kicks nothing on the link's behalf, so a reply left in the write buffer
// stays there until someone writes it out.
type moreLink struct{ *transport.TCP }

func (l moreLink) SetHandler(h transport.Handler) {
	l.TCP.SetHandler(func(m transport.Message) {
		m.More = true
		h(m)
	})
}

// moreOn wraps node i of a tcpNet in moreLink.
func moreOn(node int) func(int, *transport.TCP) transport.Transport {
	return func(i int, tr *transport.TCP) transport.Transport {
		if i == node {
			return moreLink{tr}
		}
		return tr
	}
}

func writes(tr *transport.TCP) int64 { return tr.Stats().Hist("flush_ns").Count() }

// settle waits until tr's write count reads want: a write is counted once its
// syscall returns, which can be after the peer already holds what it wrote.
func settle(t *testing.T, tr *transport.TCP, want int64) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); writes(tr) != want; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("socket writes = %d, want %d", writes(tr), want)
		}
	}
}

func await(t *testing.T, ch <-chan error, what string) {
	t.Helper()
	select {
	case err := <-ch:
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("%s never completed", what)
	}
}

// callWithin is a plain call that fails the test when no reply comes within
// 5 s. It has no deadline of its own: a timed-out call would probe its peer,
// and the pong would write out whatever the peer had left buffered.
func callWithin(t *testing.T, ep *Endpoint, to gaddr.NodeID, p Proc, body []byte) ([]byte, error) {
	t.Helper()
	type outcome struct {
		b   []byte
		err error
	}
	ch := make(chan outcome, 1)
	ep.StartCall(to, p, body, CallOpts{}, func(b []byte, err error) { ch <- outcome{b, err} })
	select {
	case o := <-ch:
		return o.b, o.err
	case <-time.After(5 * time.Second):
		t.Fatal("no reply within 5 s")
		return nil, nil
	}
}

// batchPair runs one deferred-reply scenario over a TCP pair: node 0 sends
// request A (proc 1) and request B (proc 2) in one write, so node 1 reads A
// with B buffered behind it and leaves A's reply in its write buffer. wait is
// B's handler, run once A's reply is buffered; arrived reports whether that
// reply has reached node 0. The scenario is repeated until A really was read
// with company (a read can split the pair), and B's reply must come back.
func batchPair(t *testing.T, wait func(c *Ctx, arrived *atomic.Bool) error) {
	t.Helper()
	eps, _ := tcpNet(t, 2, nil)
	var batched, arrived atomic.Bool
	eps[1].HandleProc(1, func(c *Ctx) {
		batched.Store(c.more)
		c.Reply(nil, nil)
	})
	eps[1].HandleProc(2, func(c *Ctx) { c.Reply(nil, wait(c, &arrived)) })
	if _, err := eps[0].Call(1, 1, nil); err != nil { // dial both ways
		t.Fatal(err)
	}
	for try := 0; try < 20; try++ {
		arrived.Store(false)
		doneB := make(chan error, 1)
		eps[0].StartCall(1, 1, nil, CallOpts{NoFlush: true}, func(_ []byte, err error) { arrived.Store(err == nil) })
		eps[0].StartCall(1, 2, nil, CallOpts{NoFlush: true}, func(_ []byte, err error) { doneB <- err })
		eps[0].Kick(1)
		await(t, doneB, "B")
		if batched.Load() {
			return
		}
	}
	t.Fatal("node 1 never read A with B behind it")
}

func TestReplyBatch(t *testing.T) {
	t.Run("burst", func(t *testing.T) {
		eps, tcps := tcpNet(t, 2, nil)
		eps[1].HandleProc(1, func(c *Ctx) { c.Reply(FrameCopy(c.Body), nil) })
		if _, err := eps[0].Call(1, 1, nil); err != nil { // dial both ways
			t.Fatal(err)
		}
		settle(t, tcps[1], 1)
		const calls = 64
		done := make(chan error, calls)
		for i := 0; i < calls; i++ {
			i := i
			eps[0].StartCall(1, 1, []byte{byte(i)}, CallOpts{NoFlush: true}, func(b []byte, err error) {
				if err == nil && (len(b) != 1 || b[0] != byte(i)) {
					err = errors.New("wrong reply")
				}
				done <- err
			})
		}
		eps[0].Kick(1)
		for i := 0; i < calls; i++ {
			await(t, done, "call")
		}
		if n := writes(tcps[1]) - 1; n > 2 {
			t.Fatalf("callee answered %d pipelined calls in %d socket writes, want <= 2", calls, n)
		}
	})

	t.Run("release bound", func(t *testing.T) {
		// B releases its link, then waits for A's reply to arrive: the fresh
		// reader writes the batch out before its first read.
		batchPair(t, func(c *Ctx, arrived *atomic.Bool) error {
			c.ep.ReleaseReaders()
			for deadline := time.Now().Add(5 * time.Second); !arrived.Load(); time.Sleep(100 * time.Microsecond) {
				if time.Now().After(deadline) {
					return errors.New("the reply ahead of a released handler was never written")
				}
			}
			return nil
		})
	})

	t.Run("watchdog bound", func(t *testing.T) {
		// B computes without releasing until A's reply arrives: the watchdog
		// hands the link off within two periods, and the hand-off writes.
		batchPair(t, func(c *Ctx, arrived *atomic.Bool) error {
			for deadline := time.Now().Add(5 * time.Second); !arrived.Load(); runtime.Gosched() {
				if time.Now().After(deadline) {
					return errors.New("the reply ahead of a computing handler was never written")
				}
			}
			return nil
		})
	})

	t.Run("direct reply is deferred", func(t *testing.T) {
		// The control for the rows below: a reply to the sender of a request
		// with company stays buffered until a Kick.
		eps, tcps := tcpNet(t, 2, moreOn(1))
		eps[1].HandleProc(1, func(c *Ctx) { c.Reply(nil, nil) })
		done := make(chan error, 1)
		eps[0].StartCall(1, 1, nil, CallOpts{}, func(_ []byte, err error) { done <- err })
		select {
		case err := <-done:
			t.Fatalf("the reply left before any Kick (err %v)", err)
		case <-time.After(50 * time.Millisecond):
		}
		if n := writes(tcps[1]); n != 0 {
			t.Fatalf("%d socket writes before the Kick", n)
		}
		eps[1].Kick(0)
		await(t, done, "call")
	})

	t.Run("third node", func(t *testing.T) {
		// Node 1 forwards to node 2, whose reply goes to node 0: no reader of
		// node 2 Kicks node 0 for it, so it must be written at once.
		eps, _ := tcpNet(t, 3, moreOn(2))
		eps[1].HandleProc(1, func(c *Ctx) {
			if err := c.Forward(2, 2, FrameCopy(c.Body)); err != nil {
				t.Error(err)
			}
		})
		eps[2].HandleProc(2, func(c *Ctx) {
			if c.From != 1 || c.Origin != 0 || !c.more {
				t.Errorf("ctx at node 2: from %d origin %d more %v", c.From, c.Origin, c.more)
			}
			c.Reply(append(FrameCopy(c.Body), '!'), nil)
		})
		out, err := callWithin(t, eps[0], 1, 1, []byte("hi"))
		if err != nil || string(out) != "hi!" {
			t.Fatalf("forwarded call = %q, %v", out, err)
		}
	})

	t.Run("no handler", func(t *testing.T) {
		eps, _ := tcpNet(t, 2, moreOn(1))
		_, err := callWithin(t, eps[0], 1, 99, nil)
		if err == nil || !strings.Contains(err.Error(), "no handler") {
			t.Fatalf("err = %v, want the no-handler answer", err)
		}
	})

	t.Run("reply after return", func(t *testing.T) {
		// A handler may hand its Ctx on and return; the reader's Kick is
		// behind it by then, so the late reply writes itself out.
		eps, _ := tcpNet(t, 2, moreOn(1))
		eps[1].HandleProc(1, func(c *Ctx) {
			go func() {
				for !c.returned.Load() {
					time.Sleep(100 * time.Microsecond)
				}
				c.Reply(nil, nil)
			}()
		})
		if _, err := callWithin(t, eps[0], 1, 1, nil); err != nil {
			t.Fatal(err)
		}
	})
}
