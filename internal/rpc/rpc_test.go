package rpc

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"amber/internal/gaddr"
	"amber/internal/transport"
)

// testNet builds n endpoints on an instant fabric.
func testNet(t *testing.T, n int) ([]*Endpoint, *transport.Fabric) {
	t.Helper()
	f := transport.NewFabric(transport.Instant)
	t.Cleanup(func() { f.Close() })
	eps := make([]*Endpoint, n)
	for i := 0; i < n; i++ {
		tr, err := f.Attach(gaddr.NodeID(i))
		if err != nil {
			t.Fatal(err)
		}
		eps[i] = NewEndpoint(tr)
	}
	return eps, f
}

func TestCallReply(t *testing.T) {
	eps, _ := testNet(t, 2)
	eps[1].HandleProc(5, func(c *Ctx) {
		if c.From != 0 || c.Origin != 0 || !c.IsCall() {
			t.Errorf("bad ctx: %+v", c)
		}
		c.Reply(append([]byte("echo:"), c.Body...), nil)
	})
	resp, err := eps[0].Call(1, 5, []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "echo:hello" {
		t.Fatalf("resp = %q", resp)
	}
}

func TestCallErrorPropagates(t *testing.T) {
	eps, _ := testNet(t, 2)
	eps[1].HandleProc(5, func(c *Ctx) {
		c.Reply(nil, errors.New("boom"))
	})
	_, err := eps[0].Call(1, 5, nil)
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("want RemoteError, got %v", err)
	}
	if re.Msg != "boom" || re.Node != 1 {
		t.Fatalf("remote error = %+v", re)
	}
}

func TestUnknownProc(t *testing.T) {
	eps, _ := testNet(t, 2)
	_, err := eps[0].Call(1, 99, nil)
	if err == nil || !strings.Contains(err.Error(), "no handler") {
		t.Fatalf("err = %v", err)
	}
}

func TestOneway(t *testing.T) {
	eps, _ := testNet(t, 2)
	got := make(chan []byte, 1)
	eps[1].HandleProc(7, func(c *Ctx) {
		if c.IsCall() {
			t.Error("oneway should not be a call")
		}
		c.Reply([]byte("ignored"), nil) // must be a harmless no-op
		got <- c.Body
	})
	if err := eps[0].Oneway(1, 7, []byte("fire")); err != nil {
		t.Fatal(err)
	}
	select {
	case b := <-got:
		if string(b) != "fire" {
			t.Fatalf("body = %q", b)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("oneway not delivered")
	}
}

func TestForwardDetachedReply(t *testing.T) {
	// Node 0 calls node 1; node 1 forwards to node 2; node 2 replies
	// directly to node 0. This is the §3.3 forwarding-chain pattern.
	eps, _ := testNet(t, 3)
	eps[1].HandleProc(5, func(c *Ctx) {
		if err := c.Forward(2, 5, c.Body); err != nil {
			t.Error(err)
		}
	})
	eps[2].HandleProc(5, func(c *Ctx) {
		if c.From != 1 {
			t.Errorf("From = %d, want 1 (previous hop)", c.From)
		}
		if c.Origin != 0 {
			t.Errorf("Origin = %d, want 0", c.Origin)
		}
		c.Reply([]byte("from-2"), nil)
	})
	resp, err := eps[0].Call(1, 5, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "from-2" {
		t.Fatalf("resp = %q", resp)
	}
	// The reply must have come straight from node 2 (one rpc reply sent in
	// the whole system, by node 2).
	if eps[1].Stats().Value("rpc_replies_sent") != 0 {
		t.Fatal("node 1 should not have replied")
	}
	if eps[2].Stats().Value("rpc_replies_sent") != 1 {
		t.Fatal("node 2 should have replied once")
	}
}

func TestForwardBackToOrigin(t *testing.T) {
	// A chain that loops back: 0 calls 1, 1 forwards to 0. Node 0's handler
	// executes and must complete node 0's own pending call locally.
	eps, _ := testNet(t, 2)
	eps[1].HandleProc(5, func(c *Ctx) {
		if err := c.Forward(0, 5, c.Body); err != nil {
			t.Error(err)
		}
	})
	eps[0].HandleProc(5, func(c *Ctx) {
		c.Reply([]byte("home again"), nil)
	})
	resp, err := eps[0].Call(1, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "home again" {
		t.Fatalf("resp = %q", resp)
	}
}

func TestCallTimeout(t *testing.T) {
	eps, _ := testNet(t, 2)
	eps[1].HandleProc(5, func(c *Ctx) {
		// Never reply.
	})
	start := time.Now()
	_, err := eps[0].CallTimeout(1, 5, nil, 50*time.Millisecond)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("timeout took far too long")
	}
}

func TestConcurrentCalls(t *testing.T) {
	eps, _ := testNet(t, 2)
	eps[1].HandleProc(5, func(c *Ctx) {
		c.Reply(c.Body, nil)
	})
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := []byte(fmt.Sprintf("msg-%d", i))
			resp, err := eps[0].Call(1, 5, body)
			if err != nil {
				t.Error(err)
				return
			}
			if string(resp) != string(body) {
				t.Errorf("mismatched reply: sent %q got %q", body, resp)
			}
		}(i)
	}
	wg.Wait()
}

func TestNestedCallFromHandler(t *testing.T) {
	// Handler on node 1 makes its own call to node 2 before replying —
	// the pattern of a nested remote invocation.
	eps, _ := testNet(t, 3)
	eps[2].HandleProc(6, func(c *Ctx) {
		c.Reply([]byte("leaf"), nil)
	})
	eps[1].HandleProc(5, func(c *Ctx) {
		inner, err := eps[1].Call(2, 6, nil)
		if err != nil {
			c.Reply(nil, err)
			return
		}
		c.Reply(append([]byte("via-1:"), inner...), nil)
	})
	resp, err := eps[0].Call(1, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "via-1:leaf" {
		t.Fatalf("resp = %q", resp)
	}
}

func TestDoubleReplyPanics(t *testing.T) {
	eps, _ := testNet(t, 2)
	panicked := make(chan any, 1)
	eps[1].HandleProc(5, func(c *Ctx) {
		c.Reply(nil, nil)
		defer func() { panicked <- recover() }()
		c.Reply(nil, nil)
	})
	if _, err := eps[0].Call(1, 5, nil); err != nil {
		t.Fatal(err)
	}
	select {
	case p := <-panicked:
		if p == nil {
			t.Fatal("second Reply did not panic")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("handler never ran twice")
	}
}

func TestOrphanReplyCounted(t *testing.T) {
	eps, _ := testNet(t, 2)
	eps[1].HandleProc(5, func(c *Ctx) {
		time.Sleep(100 * time.Millisecond)
		c.Reply(nil, nil) // arrives after the caller gave up
	})
	if _, err := eps[0].CallTimeout(1, 5, nil, 10*time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v", err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for eps[0].Stats().Value("rpc_orphan_reply") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("orphan reply never recorded")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
