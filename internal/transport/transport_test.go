package transport

import (
	"bufio"
	"bytes"
	"net"
	"sync"
	"testing"
	"time"

	"amber/internal/gaddr"
)

func TestProfileDelays(t *testing.T) {
	p := NetProfile{Latency: 4 * time.Millisecond, BandwidthBps: 1_250_000}
	if got := p.TransmitTime(0); got != time.Duration(headerBytes)*time.Second/1_250_000 {
		t.Fatalf("TransmitTime(0) = %v", got)
	}
	// 1250 bytes + 64 header at 1.25 MB/s ≈ 1.05 ms.
	tx := p.TransmitTime(1250)
	if tx < time.Millisecond || tx > 2*time.Millisecond {
		t.Fatalf("TransmitTime(1250) = %v", tx)
	}
	if ow := p.OneWay(0); ow <= p.Latency {
		t.Fatalf("OneWay must include transmit time, got %v", ow)
	}
	if Instant.OneWay(1<<20) != 0 {
		t.Fatal("Instant profile must inject no delay")
	}
}

func TestEthernet1989RTT(t *testing.T) {
	// A small request + small reply should round-trip near the paper's
	// 8.32 ms remote invoke figure.
	rtt := Ethernet1989.OneWay(200) + Ethernet1989.OneWay(100)
	if rtt < 7*time.Millisecond || rtt > 10*time.Millisecond {
		t.Fatalf("1989 small-RPC RTT = %v, want ≈8 ms", rtt)
	}
}

func collect(tr Transport) (<-chan Message, func() []Message) {
	ch := make(chan Message, 1024)
	tr.SetHandler(func(m Message) { ch <- m })
	return ch, func() []Message {
		var out []Message
		for {
			select {
			case m := <-ch:
				out = append(out, m)
			default:
				return out
			}
		}
	}
}

func TestFabricBasicDelivery(t *testing.T) {
	f := NewFabric(Instant)
	defer f.Close()
	a, err := f.Attach(0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := f.Attach(1)
	if err != nil {
		t.Fatal(err)
	}
	chB, _ := collect(b)
	_, _ = collect(a)
	if err := a.Send(1, 7, []byte("hi")); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-chB:
		if m.From != 0 || m.To != 1 || m.Kind != 7 || string(m.Payload) != "hi" {
			t.Fatalf("got %+v", m)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("message not delivered")
	}
}

func TestFabricErrors(t *testing.T) {
	f := NewFabric(Instant)
	defer f.Close()
	a, _ := f.Attach(0)
	if err := a.Send(0, 1, nil); err != ErrSelfSend {
		t.Fatalf("self send: %v", err)
	}
	if err := a.Send(99, 1, nil); err == nil {
		t.Fatal("send to unknown node should fail")
	}
	if _, err := f.Attach(0); err == nil {
		t.Fatal("duplicate attach should fail")
	}
	a.Close()
	if err := a.Send(1, 1, nil); err != ErrClosed {
		t.Fatalf("send after close: %v", err)
	}
}

func TestFabricCloseStopsDelivery(t *testing.T) {
	f := NewFabric(Instant)
	a, _ := f.Attach(0)
	f.Attach(1)
	f.Close()
	if err := a.Send(1, 1, nil); err != ErrClosed {
		t.Fatalf("send on closed fabric: %v", err)
	}
	if _, err := f.Attach(2); err != ErrClosed {
		t.Fatalf("attach on closed fabric: %v", err)
	}
}

func TestFabricFIFOPerLink(t *testing.T) {
	f := NewFabric(NetProfile{Latency: 100 * time.Microsecond})
	defer f.Close()
	a, _ := f.Attach(0)
	b, _ := f.Attach(1)
	const n = 200
	got := make(chan int, n)
	b.SetHandler(func(m Message) { got <- int(m.Payload[0])<<8 | int(m.Payload[1]) })
	for i := 0; i < n; i++ {
		if err := a.Send(1, 1, []byte{byte(i >> 8), byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		select {
		case v := <-got:
			if v != i {
				t.Fatalf("out of order: got %d want %d", v, i)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("timeout waiting for messages")
		}
	}
}

func TestFabricLatencyInjected(t *testing.T) {
	f := NewFabric(NetProfile{Latency: 20 * time.Millisecond})
	defer f.Close()
	a, _ := f.Attach(0)
	b, _ := f.Attach(1)
	done := make(chan time.Time, 1)
	b.SetHandler(func(m Message) { done <- time.Now() })
	start := time.Now()
	if err := a.Send(1, 1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	arrival := <-done
	if d := arrival.Sub(start); d < 18*time.Millisecond {
		t.Fatalf("delivery took %v, want >= ~20ms", d)
	}
}

func TestFabricBandwidthSerializes(t *testing.T) {
	// 1 MB/s: two 100 KB messages should take ~200 ms total wire time.
	f := NewFabric(NetProfile{BandwidthBps: 1_000_000})
	defer f.Close()
	a, _ := f.Attach(0)
	b, _ := f.Attach(1)
	arrivals := make(chan time.Time, 2)
	b.SetHandler(func(m Message) { arrivals <- time.Now() })
	payload := make([]byte, 100_000)
	start := time.Now()
	a.Send(1, 1, payload)
	a.Send(1, 1, payload)
	<-arrivals
	second := <-arrivals
	if d := second.Sub(start); d < 180*time.Millisecond {
		t.Fatalf("second large message arrived after %v, want >= ~200ms", d)
	}
}

func TestFabricFaultInjection(t *testing.T) {
	f := NewFabric(Instant)
	defer f.Close()
	a, _ := f.Attach(0)
	b, _ := f.Attach(1)
	chB, _ := collect(b)
	f.SetFault(func(m Message) bool { return m.Kind == 9 })
	if err := a.Send(1, 9, []byte("drop me")); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(1, 1, []byte("keep me")); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-chB:
		if m.Kind != 1 {
			t.Fatalf("dropped message was delivered: %+v", m)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("surviving message not delivered")
	}
	if f.Stats().Value("msgs_dropped") != 1 {
		t.Fatalf("msgs_dropped = %d", f.Stats().Value("msgs_dropped"))
	}
}

func TestFabricManyNodesConcurrent(t *testing.T) {
	f := NewFabric(Instant)
	defer f.Close()
	const nodes = 6
	const per = 50
	trs := make([]Transport, nodes)
	var recv [nodes]Counter
	for i := 0; i < nodes; i++ {
		tr, err := f.Attach(gaddr.NodeID(i))
		if err != nil {
			t.Fatal(err)
		}
		trs[i] = tr
		idx := i
		tr.SetHandler(func(m Message) { recv[idx].inc() })
	}
	var wg sync.WaitGroup
	for i := 0; i < nodes; i++ {
		wg.Add(1)
		go func(src int) {
			defer wg.Done()
			for j := 0; j < per; j++ {
				dst := (src + 1 + j%(nodes-1)) % nodes
				if err := trs[src].Send(gaddr.NodeID(dst), 1, []byte{byte(j)}); err != nil {
					t.Error(err)
				}
			}
		}(i)
	}
	wg.Wait()
	deadline := time.Now().Add(5 * time.Second)
	for {
		total := 0
		for i := range recv {
			total += recv[i].get()
		}
		if total == nodes*per {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("received %d of %d messages", total, nodes*per)
		}
		time.Sleep(time.Millisecond)
	}
	if got := f.Stats().Value("msgs_sent"); got != nodes*per {
		t.Fatalf("msgs_sent = %d, want %d", got, nodes*per)
	}
}

type Counter struct {
	mu sync.Mutex
	n  int
}

func (c *Counter) inc() { c.mu.Lock(); c.n++; c.mu.Unlock() }
func (c *Counter) get() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

func TestTCPBasic(t *testing.T) {
	a, err := NewTCP(TCPConfig{Self: 0, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewTCP(TCPConfig{Self: 1, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	// Wire up peer addresses after binding (port 0).
	a.cfg.Peers = map[gaddr.NodeID]string{1: b.Addr()}
	b.cfg.Peers = map[gaddr.NodeID]string{0: a.Addr()}

	gotB := make(chan Message, 16)
	b.SetHandler(func(m Message) { gotB <- m })
	gotA := make(chan Message, 16)
	a.SetHandler(func(m Message) { gotA <- m })

	if err := a.Send(1, 3, []byte("ping")); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-gotB:
		if m.From != 0 || m.Kind != 3 || string(m.Payload) != "ping" {
			t.Fatalf("got %+v", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("tcp message not delivered")
	}
	// Reply path uses b's own outbound connection.
	if err := b.Send(0, 4, []byte("pong")); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-gotA:
		if m.From != 1 || string(m.Payload) != "pong" {
			t.Fatalf("got %+v", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("tcp reply not delivered")
	}
}

func TestTCPOrderingAndVolume(t *testing.T) {
	a, err := NewTCP(TCPConfig{Self: 0, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewTCP(TCPConfig{Self: 1, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a.cfg.Peers = map[gaddr.NodeID]string{1: b.Addr()}
	const n = 500
	got := make(chan int, n)
	b.SetHandler(func(m Message) { got <- int(m.Payload[0])<<8 | int(m.Payload[1]) })
	for i := 0; i < n; i++ {
		if err := a.Send(1, 1, []byte{byte(i >> 8), byte(i), 0xAA}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		select {
		case v := <-got:
			if v != i {
				t.Fatalf("out of order at %d: got %d", i, v)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("timeout")
		}
	}
}

func TestTCPErrors(t *testing.T) {
	a, err := NewTCP(TCPConfig{Self: 0, Listen: "127.0.0.1:0", Peers: map[gaddr.NodeID]string{}})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Send(0, 1, nil); err != ErrSelfSend {
		t.Fatalf("self send: %v", err)
	}
	if err := a.Send(5, 1, nil); err == nil {
		t.Fatal("unknown peer should fail")
	}
	// Unreachable peer: dial error surfaces.
	a.cfg.Peers = map[gaddr.NodeID]string{2: "127.0.0.1:1"}
	if err := a.Send(2, 1, nil); err == nil {
		t.Fatal("dial to dead address should fail")
	}
	a.Close()
	if err := a.Send(2, 1, nil); err != ErrClosed {
		t.Fatalf("send after close: %v", err)
	}
	if err := a.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestFrameLengthValidation(t *testing.T) {
	// readFrame must reject absurd lengths rather than allocating them.
	var buf [4]byte
	buf[0] = 0xFF // length 0xFF000000 > 1<<28
	r := bufio.NewReader(bytes.NewReader(buf[:]))
	if _, err := readFrame(r, 0, 1); err == nil {
		t.Fatal("oversized frame length accepted")
	}
	// Zero-length frame is also invalid (must carry at least the kind byte).
	r = bufio.NewReader(bytes.NewReader([]byte{0, 0, 0, 0}))
	if _, err := readFrame(r, 0, 1); err == nil {
		t.Fatal("zero frame length accepted")
	}
}

func TestTCPDialRetryWaitsForListener(t *testing.T) {
	// Reserve a port, then free it so the "slow" peer can bind it later.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	a, err := NewTCP(TCPConfig{
		Self:          0,
		Listen:        "127.0.0.1:0",
		Peers:         map[gaddr.NodeID]string{1: addr},
		DialAttempts:  12,
		DialRetryBase: 25 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	got := make(chan Message, 1)
	peerUp := make(chan *TCP, 1)
	go func() {
		time.Sleep(150 * time.Millisecond) // peer starts late
		b, berr := NewTCP(TCPConfig{Self: 1, Listen: addr})
		if berr != nil {
			peerUp <- nil
			return
		}
		b.SetHandler(func(m Message) { got <- m })
		peerUp <- b
	}()
	defer func() {
		if b := <-peerUp; b != nil {
			b.Close()
		}
	}()

	// The first send races the peer's listener; the bounded retry should ride
	// it out instead of surfacing a dial error.
	if err := a.Send(1, 1, []byte("first contact before the peer listens")); err != nil {
		t.Fatalf("send before peer was listening: %v", err)
	}
	select {
	case m := <-got:
		if string(m.Payload) != "first contact before the peer listens" {
			t.Fatalf("got %q", m.Payload)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("message never delivered")
	}
	if a.Stats().Value("dial_retries") == 0 {
		t.Fatal("expected at least one dial retry")
	}
}

func TestTCPDialRetryBounded(t *testing.T) {
	// Nothing ever listens here: the send must fail after the configured
	// attempts rather than hang.
	a, err := NewTCP(TCPConfig{
		Self:          0,
		Listen:        "127.0.0.1:0",
		Peers:         map[gaddr.NodeID]string{1: "127.0.0.1:1"},
		DialAttempts:  3,
		DialRetryBase: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	start := time.Now()
	if err := a.Send(1, 1, []byte("doomed")); err == nil {
		t.Fatal("send to a dead address should fail")
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("bounded retry took %v", d)
	}
}

func TestPerKindByteCounters(t *testing.T) {
	f := NewFabric(Instant)
	defer f.Close()
	a, _ := f.Attach(0)
	b, _ := f.Attach(1)
	chB, _ := collect(b)
	if err := a.Send(1, 3, []byte("per-kind accounting payload")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-chB:
	case <-time.After(2 * time.Second):
		t.Fatal("not delivered")
	}
	if got := f.Stats().Value("bytes_sent_k3"); got != 27 {
		t.Fatalf("bytes_sent_k3 = %d, want 27", got)
	}
	if got := f.Stats().Value("bytes_sent_k4"); got != 0 {
		t.Fatalf("bytes_sent_k4 = %d, want 0", got)
	}
}
