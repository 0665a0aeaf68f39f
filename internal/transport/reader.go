package transport

import (
	"sync"
	"sync/atomic"
	"time"

	"amber/internal/stats"
)

// WatchdogPeriod is how often a node's reader watchdog scans its inbound
// links while a reader is inside a handler. A reader found in the same
// handler at two consecutive scans hands its link to a fresh reader, so no
// link waits behind a running handler for more than two periods.
const WatchdogPeriod = 2 * time.Millisecond

// readers is one node's set of inbound delivery goroutines, one per link.
// A reader runs each message's handler itself, so an arriving request costs
// no goroutine of its own. A reader is in one of three states:
//
//   - reading: waiting for the link's next message;
//   - handling: inside the handler of the message it read;
//   - handed off: its handler is still running, but the link belongs to a
//     fresh reader; the old goroutine exits when the handler returns.
//
// A link passes from handling to handed off in two ways: release, which
// every goroutine on the node calls before it waits (a handler waiting for a
// reply that can only arrive on its own link would otherwise wait forever),
// and the watchdog, which catches the handlers that wait or compute without
// calling it.
type readers struct {
	mu    sync.Mutex // serializes add and remove
	links atomic.Pointer[[]*reader]

	// armed is set while the watchdog timer is pending. A reader entering a
	// handler arms it; a scan that finds no reader inside a handler disarms
	// it, so an idle node runs no timer.
	armed atomic.Bool
	timer *time.Timer

	// Hand-offs by release and by the watchdog, and watchdog arms: a
	// watchdog hand-off is a handler that waited or computed without
	// releasing, and cost its link up to two periods.
	cReleased, cWatchdog, cArms *stats.Counter
}

// reader is one inbound link's delivery state.
type reader struct {
	// word is the link's handler entry count shifted left by one, with the
	// low bit set while its reader is inside a handler. Entry and exit
	// advance it, and so does a hand-off, which takes the place of the exit:
	// the reader's exit CAS and a hand-off CAS race for the same value, and
	// exactly one of them wins.
	word atomic.Uint64
	// seen is word at the previous watchdog scan; only the watchdog touches it.
	seen uint64
	// spawn starts a fresh reader goroutine on the link.
	spawn func()
}

func (rs *readers) init(counts *stats.Set) {
	rs.cReleased = counts.Get("reader_handoffs")
	rs.cWatchdog = counts.Get("reader_watchdog_handoffs")
	rs.cArms = counts.Get("reader_watchdog_arms")
	rs.timer = time.AfterFunc(time.Hour, rs.scan)
	rs.timer.Stop()
	rs.links.Store(&[]*reader{})
}

// add registers a link's reader.
func (rs *readers) add(r *reader) {
	rs.mu.Lock()
	old := *rs.links.Load()
	ls := make([]*reader, len(old), len(old)+1)
	copy(ls, old)
	ls = append(ls, r)
	rs.links.Store(&ls)
	rs.mu.Unlock()
}

// remove forgets a link whose reader has ended.
func (rs *readers) remove(r *reader) {
	rs.mu.Lock()
	old := *rs.links.Load()
	ls := make([]*reader, 0, len(old))
	for _, x := range old {
		if x != r {
			ls = append(ls, x)
		}
	}
	rs.links.Store(&ls)
	rs.mu.Unlock()
}

// handle runs h on the calling reader goroutine. It reports whether that
// goroutine still owns the link: false means the link was handed to a fresh
// reader while h ran, and the caller must return without reading again.
func (rs *readers) handle(r *reader, h Handler, m Message) bool {
	w := r.word.Load() + 3 // next entry, handling bit set
	r.word.Store(w)
	if !rs.armed.Load() {
		rs.arm()
	}
	h(m)
	return r.word.CompareAndSwap(w, w+1)
}

// arm starts the watchdog unless another goroutine just did. The first scan
// comes half a period in, so the handler that armed it, if still running, is
// handed off one and a half periods after it started: inside the two-period
// bound with room for the timer to fire late.
func (rs *readers) arm() {
	if rs.armed.CompareAndSwap(false, true) {
		rs.cArms.Inc()
		rs.timer.Reset(WatchdogPeriod / 2)
	}
}

// release hands every link whose reader is inside a handler to a fresh
// reader. With no reader inside a handler it is one load per link.
func (rs *readers) release() {
	for _, r := range *rs.links.Load() {
		handoff(r, r.word.Load(), rs.cReleased)
	}
}

// handoff moves r's link to a fresh reader if r is still in the handler
// that word w records, counting it on c and reporting whether it did.
func handoff(r *reader, w uint64, c *stats.Counter) bool {
	if w&1 == 0 || !r.word.CompareAndSwap(w, w+1) {
		return false
	}
	c.Inc()
	r.spawn()
	return true
}

// scan is the watchdog: it hands off every link whose reader has been in one
// handler since the previous scan, and re-arms while any reader is inside a
// handler.
func (rs *readers) scan() {
	busy := false
	for _, r := range *rs.links.Load() {
		w := r.word.Load()
		if w == r.seen && handoff(r, w, rs.cWatchdog) {
			w++
		}
		r.seen = w
		busy = busy || w&1 == 1
	}
	if busy {
		rs.timer.Reset(WatchdogPeriod)
		return
	}
	rs.armed.Store(false)
	// A reader that entered a handler after its link was scanned may have
	// found the watchdog still armed; re-check now that it reads disarmed.
	for _, r := range *rs.links.Load() {
		if r.word.Load()&1 == 1 {
			rs.arm()
			return
		}
	}
}

// stop cancels a pending watchdog scan.
func (rs *readers) stop() { rs.timer.Stop() }
