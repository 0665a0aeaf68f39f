package transport

import (
	"testing"
	"time"

	"amber/internal/gaddr"
	"amber/internal/stats"
)

// The reader runs each handler itself; a release or the watchdog hands its
// link to a fresh reader while a handler waits. These tests hold both
// transports to that, and to an idle node running no watchdog timer.

// readerPair returns two connected transports of the named kind, a (node 0)
// and b (node 1), with the stats set that b's reader counters live in.
func readerPair(t *testing.T, kind string) (a, b Transport, counts *stats.Set) {
	t.Helper()
	if kind == "tcp" {
		ta, tb := tcpPair(t)
		return ta, tb, tb.Stats()
	}
	f := NewFabric(Instant)
	t.Cleanup(func() { f.Close() })
	var trs [2]Transport
	for i := range trs {
		tr, err := f.Attach(gaddr.NodeID(i))
		if err != nil {
			t.Fatal(err)
		}
		trs[i] = tr
	}
	return trs[0], trs[1], f.Stats()
}

func readersOf(tr Transport) *readers {
	if p, ok := tr.(*port); ok {
		return &p.readers
	}
	return &tr.(*TCP).readers
}

// A handler that waits for the next message on its own link gets it once it
// releases the link, with no watchdog involved.
func TestReaderReleaseHandsOffLink(t *testing.T) {
	for _, kind := range []string{"fabric", "tcp"} {
		t.Run(kind, func(t *testing.T) {
			a, b, counts := readerPair(t, kind)
			second := make(chan struct{})
			done := make(chan struct{}, 2)
			b.SetHandler(func(m Message) {
				if m.Kind == 1 {
					b.ReleaseReaders()
					<-second
				} else {
					close(second)
				}
				done <- struct{}{}
			})
			for k := Kind(1); k <= 2; k++ {
				if err := a.Send(1, k, []byte{byte(k)}); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 2; i++ {
				select {
				case <-done:
				case <-time.After(10 * time.Second):
					t.Fatal("the released link never delivered its next message")
				}
			}
			if n := counts.Value("reader_handoffs"); n != 1 {
				t.Fatalf("reader_handoffs = %d, want 1", n)
			}
		})
	}
}

// A handler that waits without releasing costs its link at most two watchdog
// periods: the watchdog hands the link off and the next message arrives.
func TestReaderWatchdogHandsOffBlockedHandler(t *testing.T) {
	for _, kind := range []string{"fabric", "tcp"} {
		t.Run(kind, func(t *testing.T) {
			a, b, counts := readerPair(t, kind)
			entered := make(chan struct{})
			second := make(chan struct{})
			release := make(chan struct{})
			b.SetHandler(func(m Message) {
				if m.Kind == 1 {
					close(entered)
					<-release
					return
				}
				close(second)
			})
			defer close(release)
			if err := a.Send(1, 1, []byte{1}); err != nil {
				t.Fatal(err)
			}
			<-entered
			if err := a.Send(1, 2, []byte{2}); err != nil {
				t.Fatal(err)
			}
			select {
			case <-second:
			case <-time.After(10 * time.Second):
				t.Fatal("the watchdog never handed the blocked link off")
			}
			if n := counts.Value("reader_watchdog_handoffs"); n != 1 {
				t.Fatalf("reader_watchdog_handoffs = %d, want 1", n)
			}
		})
	}
}

// The watchdog runs only while a reader is inside a handler: a node that has
// received nothing never armed it, and one whose traffic has stopped disarms
// it at the next scan and arms it no more.
func TestReaderWatchdogIdle(t *testing.T) {
	for _, kind := range []string{"fabric", "tcp"} {
		t.Run(kind, func(t *testing.T) {
			a, b, counts := readerPair(t, kind)
			got := make(chan struct{}, 16)
			b.SetHandler(func(Message) { got <- struct{}{} })
			rs := readersOf(b)
			time.Sleep(3 * WatchdogPeriod)
			if n := counts.Value("reader_watchdog_arms"); n != 0 || rs.armed.Load() {
				t.Fatalf("a node that received nothing armed its watchdog %d times (armed now: %v)", n, rs.armed.Load())
			}
			for i := 0; i < 10; i++ {
				if err := a.Send(1, 1, []byte{byte(i)}); err != nil {
					t.Fatal(err)
				}
				<-got
			}
			for deadline := time.Now().Add(5 * time.Second); rs.armed.Load(); time.Sleep(WatchdogPeriod) {
				if time.Now().After(deadline) {
					t.Fatal("the watchdog stayed armed with no handler running")
				}
			}
			arms := counts.Value("reader_watchdog_arms")
			if arms == 0 {
				t.Fatal("handlers ran without arming the watchdog")
			}
			time.Sleep(10 * WatchdogPeriod)
			if n := counts.Value("reader_watchdog_arms"); n != arms || rs.armed.Load() {
				t.Fatalf("an idle node re-armed its watchdog: %d arms, then %d (armed now: %v)", arms, n, rs.armed.Load())
			}
		})
	}
}
