package transport

import (
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
	"time"

	"amber/internal/gaddr"
)

// The TCP write path: whole frames appended under the connection lock, the
// last writer out flushing inline. flush_ns counts socket writes, so these
// tests hold it against the number of frames.

// tcpPair returns two connected transports, a (node 0) and b (node 1).
func tcpPair(t *testing.T) (a, b *TCP) {
	t.Helper()
	var trs [2]*TCP
	for i := range trs {
		tr, err := NewTCP(TCPConfig{Self: gaddr.NodeID(i), Listen: "127.0.0.1:0"})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tr.Close() })
		trs[i] = tr
	}
	trs[0].SetPeers(map[gaddr.NodeID]string{1: trs[1].Addr()})
	trs[1].SetPeers(map[gaddr.NodeID]string{0: trs[0].Addr()})
	return trs[0], trs[1]
}

func flushes(tr *TCP) int64 { return tr.Stats().Hist("flush_ns").Count() }

// patterned returns an n-byte payload whose every byte is a function of its
// position and tag, so a torn or shifted frame cannot pass checkPattern.
func patterned(n int, tag byte) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i*31) ^ tag
	}
	return p
}

// checkPattern verifies p from offset from on (a test may have overwritten
// the bytes before it with a label).
func checkPattern(p []byte, tag byte, from int) error {
	for i := from; i < len(p); i++ {
		if p[i] != byte(i*31)^tag {
			return fmt.Errorf("byte %d of %d is %#x, want %#x", i, len(p), p[i], byte(i*31)^tag)
		}
	}
	return nil
}

func recv(t *testing.T, ch <-chan Message) Message {
	t.Helper()
	select {
	case m := <-ch:
		return m
	case <-time.After(10 * time.Second):
		t.Fatal("frame not delivered")
		return Message{}
	}
}

// One sequential 8 KiB round trip is one socket write on each side: the frame
// leaves whole, with the connection's handshake riding in the first one.
func TestTCPOneFlushPerFrame(t *testing.T) {
	a, b := tcpPair(t)
	back := make(chan Message, 1)
	a.SetHandler(func(m Message) { back <- m })
	b.SetHandler(func(m Message) { b.Send(m.From, m.Kind, m.Payload) })
	const trips = 100
	for i := 0; i < trips; i++ {
		if err := a.Send(1, 1, patterned(8<<10, byte(i))); err != nil {
			t.Fatal(err)
		}
		m := recv(t, back)
		if err := checkPattern(m.Payload, byte(i), 0); err != nil {
			t.Fatalf("trip %d: %v", i, err)
		}
	}
	if fa, fb := flushes(a), flushes(b); fa != trips || fb != trips {
		t.Fatalf("socket writes: a=%d b=%d, want %d each", fa, fb, trips)
	}
}

// A SendNoFlush burst stays in the buffer until the Kick, which writes it out
// in one piece; frames arrive in order.
func TestTCPBurstCoalesces(t *testing.T) {
	a, b := tcpPair(t)
	got := make(chan Message, 64)
	b.SetHandler(func(m Message) { got <- m })
	const frames = 64
	for i := 0; i < frames; i++ {
		if err := a.SendNoFlush(1, 2, patterned(100, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	if n := flushes(a); n != 0 {
		t.Fatalf("%d socket writes before Kick", n)
	}
	a.Kick(1)
	for i := 0; i < frames; i++ {
		if err := checkPattern(recv(t, got).Payload, byte(i), 0); err != nil {
			t.Fatalf("frame %d out of order or torn: %v", i, err)
		}
	}
	if n := flushes(a); n != 1 {
		t.Fatalf("%d socket writes for a %d-frame burst, want 1", n, frames)
	}
	a.Kick(1) // nothing buffered: no write
	if n := flushes(a); n != 1 {
		t.Fatalf("idle Kick wrote to the socket (%d writes)", n)
	}
}

// Frames around the old 4 KiB bufio boundary, at the buffer's own size, and
// far past it (the vectored path) round-trip intact.
func TestTCPFrameSizes(t *testing.T) {
	a, b := tcpPair(t)
	back := make(chan Message, 1)
	a.SetHandler(func(m Message) { back <- m })
	b.SetHandler(func(m Message) { b.Send(m.From, m.Kind, m.Payload) })
	for i, size := range []int{0, 1, 4095, 4096, 64 << 10, 64<<10 + 1, 1 << 20} {
		if err := a.Send(1, 3, patterned(size, byte(i))); err != nil {
			t.Fatal(err)
		}
		m := recv(t, back)
		if len(m.Payload) != size {
			t.Fatalf("sent %d bytes, %d came back", size, len(m.Payload))
		}
		if err := checkPattern(m.Payload, byte(i), 0); err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
	}
}

// Concurrent senders share one connection — and, through flush combining, its
// socket writes — yet every frame arrives whole and each sender's frames in
// the order it sent them, duplicates (injected back to back) included.
func TestTCPConcurrentSendersWholeFrames(t *testing.T) {
	a, b := tcpPair(t)
	fl := NewFaults(7)
	fl.SetLink(0, 1, LinkRule{Dup: 1.0})
	a.SetFaults(fl)
	const senders, each = 8, 200
	got := make(chan Message, 2*senders*each)
	b.SetHandler(func(m Message) { got <- m })
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for seq := 0; seq < each; seq++ {
				// 8-byte label, then a patterned body whose length varies so
				// frames straddle the buffer boundary at different offsets.
				p := patterned(8+(s*977+seq*131)%9000, byte(s))
				binary.BigEndian.PutUint32(p[0:], uint32(s))
				binary.BigEndian.PutUint32(p[4:], uint32(seq))
				if err := a.Send(1, 4, p); err != nil {
					t.Error(err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	var next [senders]int // twice the next expected seq, plus one after its first copy
	for i := 0; i < 2*senders*each; i++ {
		m := recv(t, got)
		s, seq := int(binary.BigEndian.Uint32(m.Payload[0:])), int(binary.BigEndian.Uint32(m.Payload[4:]))
		if s >= senders || seq != next[s]/2 {
			t.Fatalf("sender %d: got seq %d, want %d", s, seq, next[s]/2)
		}
		next[s]++
		if want := 8 + (s*977+seq*131)%9000; len(m.Payload) != want {
			t.Fatalf("sender %d seq %d: %d bytes, want %d", s, seq, len(m.Payload), want)
		}
		if err := checkPattern(m.Payload, byte(s), 8); err != nil {
			t.Fatalf("sender %d seq %d torn: %v", s, seq, err)
		}
	}
	t.Logf("%d socket writes for %d sends (%d frames)", flushes(a), senders*each, 2*senders*each)
	if sent, writes := int64(senders*each), flushes(a); writes > sent {
		t.Fatalf("%d socket writes for %d sends", writes, sent)
	}
}

// A write error drops the connection — taking whatever the burst had buffered
// with it, like any broken socket — and the next Send dials a fresh one.
func TestTCPSendErrorRedials(t *testing.T) {
	a, b := tcpPair(t)
	got := make(chan Message, 8)
	b.SetHandler(func(m Message) { got <- m })
	if err := a.Send(1, 5, []byte("first")); err != nil {
		t.Fatal(err)
	}
	if m := recv(t, got); string(m.Payload) != "first" {
		t.Fatalf("got %q", m.Payload)
	}
	conn := (*a.conns.Load())[1]
	for i := 0; i < 3; i++ {
		if err := a.SendNoFlush(1, 5, []byte("burst")); err != nil {
			t.Fatal(err)
		}
	}
	conn.c.Close() // the socket breaks mid-burst
	if err := a.Send(1, 5, []byte("lost")); err == nil {
		t.Fatal("send on a broken socket reported success")
	}
	if (*a.conns.Load())[1] != nil {
		t.Fatal("broken connection still in the table")
	}
	if err := a.SendNoFlush(1, 5, []byte("stale")); err != nil {
		t.Fatal(err) // redials; buffered toward the fresh connection
	}
	if err := a.Send(1, 5, []byte("again")); err != nil {
		t.Fatalf("send after redial: %v", err)
	}
	for _, want := range []string{"stale", "again"} {
		if m := recv(t, got); string(m.Payload) != want {
			t.Fatalf("got %q, want %q", m.Payload, want)
		}
	}
	if fresh := (*a.conns.Load())[1]; fresh == nil || fresh == conn {
		t.Fatal("no fresh connection after redial")
	}
}
