package rpc

import (
	"sync"

	"amber/internal/gaddr"
)

// The dedup window makes retried calls at-most-once. Every attempt of one
// logical idempotent call carries the same (Origin, Idem) token; the callee
// remembers recently seen tokens and their outcomes:
//
//   - first sight: execute, remember "in flight";
//   - retry while in flight: drop (the first execution will answer, or the
//     next retry after it completes will replay);
//   - retry after completion: replay the recorded reply, do not re-execute.
//
// The window is a FIFO of the last dedupWindow tokens per endpoint, from all
// origins together: it is bounded by count, not by time. A retry whose token
// has fallen out — because enough other tokened traffic passed through the
// callee meanwhile — executes again, so at-most-once holds only while fewer
// than dedupWindow tokens arrive between a call's first attempt and its last.
// Moves do not rely on the window: a re-sent install is made harmless by its
// residency epoch instead (see handleInstall in internal/core).

// dedupWindow bounds remembered tokens (and retained reply bytes) per node.
const dedupWindow = 1024

type dedupVerdict uint8

const (
	dedupFresh dedupVerdict = iota
	dedupInflight
	dedupReplay
)

type dedupKey struct {
	origin gaddr.NodeID
	idem   uint64
}

type dedupEntry struct {
	done bool
	body []byte // copied reply body (not pooled; retained across the window)
	err  string
}

type dedupTable struct {
	mu      sync.Mutex
	entries map[dedupKey]*dedupEntry
	fifo    []dedupKey
}

func (d *dedupTable) init() {
	d.entries = make(map[dedupKey]*dedupEntry)
}

// admit classifies one inbound request token. For dedupReplay the recorded
// outcome is returned; the caller must not mutate body.
func (d *dedupTable) admit(origin gaddr.NodeID, idem uint64) (dedupVerdict, []byte, string) {
	key := dedupKey{origin, idem}
	d.mu.Lock()
	defer d.mu.Unlock()
	if e, ok := d.entries[key]; ok {
		if e.done {
			return dedupReplay, e.body, e.err
		}
		return dedupInflight, nil, ""
	}
	if len(d.fifo) >= dedupWindow {
		evict := d.fifo[0]
		d.fifo = d.fifo[1:]
		delete(d.entries, evict)
	}
	d.entries[key] = &dedupEntry{}
	d.fifo = append(d.fifo, key)
	return dedupFresh, nil, ""
}

// complete records the outcome of an executed idempotent call so later
// retries replay it. body is copied (it usually aliases a pooled buffer).
func (d *dedupTable) complete(origin gaddr.NodeID, idem uint64, body []byte, errStr string) {
	key := dedupKey{origin, idem}
	d.mu.Lock()
	if e, ok := d.entries[key]; ok && !e.done {
		e.done = true
		if len(body) > 0 {
			e.body = append([]byte(nil), body...)
		}
		e.err = errStr
	}
	d.mu.Unlock()
}

// abandon forgets an in-flight token. Forwarding nodes call this: they are
// not the executor, so a retry arriving at them must be forwarded afresh
// rather than dropped against an entry that will never complete.
func (d *dedupTable) abandon(origin gaddr.NodeID, idem uint64) {
	key := dedupKey{origin, idem}
	d.mu.Lock()
	if e, ok := d.entries[key]; ok && !e.done {
		delete(d.entries, key)
		for i, k := range d.fifo {
			if k == key {
				d.fifo = append(d.fifo[:i], d.fifo[i+1:]...)
				break
			}
		}
	}
	d.mu.Unlock()
}
