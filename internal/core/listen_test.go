package core

import (
	"strings"
	"sync"
	"testing"

	"amber/internal/gaddr"
	"amber/internal/rpc"
	"amber/internal/transport"
)

// heldLink is one end of a two-node link with no network under it: Send
// hands a message straight to the other end's handler, and a message sent
// before that end has a handler waits in a queue that SetHandler delivers at
// once — the harshest schedule for a node that is still assembling itself.
type heldLink struct {
	self   gaddr.NodeID
	peer   *heldLink
	mu     sync.Mutex
	h      transport.Handler
	queued []transport.Message
}

func (l *heldLink) Self() gaddr.NodeID { return l.self }
func (l *heldLink) ReleaseReaders()    {}
func (l *heldLink) Close() error       { return nil }

func (l *heldLink) SetHandler(h transport.Handler) {
	l.mu.Lock()
	l.h = h
	queued := l.queued
	l.queued = nil
	l.mu.Unlock()
	for _, m := range queued {
		h(m)
	}
}

func (l *heldLink) Send(to gaddr.NodeID, kind transport.Kind, payload []byte) error {
	p := l.peer
	m := transport.Message{From: l.self, To: to, Kind: kind, Payload: payload}
	p.mu.Lock()
	h := p.h
	if h == nil {
		p.queued = append(p.queued, m)
	}
	p.mu.Unlock()
	if h != nil {
		h(m)
	}
	return nil
}

// TestNewNodeListensOnceBuilt queues a routed request toward node 0 before
// the node exists. The transport delivers it the moment the node installs a
// handler, so the reply tells whether the node listened before registering
// its procs ("no handler for proc") or after (the routed handler's own
// answer: no such object).
func TestNewNodeListensOnceBuilt(t *testing.T) {
	a, b := &heldLink{self: 0}, &heldLink{self: 1}
	a.peer, b.peer = b, a
	peer := rpc.NewEndpoint(b)
	replied := make(chan error, 1)
	m := routedMsg{Op: opInvoke, Obj: 0x1000, Method: "Get", Thread: ThreadRec{ID: 1, Home: 1}}
	peer.StartCall(0, procRouted, m.frame(), rpc.CallOpts{}, func(body []byte, err error) {
		replied <- err
	})
	n, err := NewNode(NodeConfig{ID: 0, Procs: 1}, NewRegistry(), a, gaddr.NewServer(0))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	select {
	case err := <-replied:
		if err == nil || !strings.Contains(err.Error(), "no such object") {
			t.Fatalf("request queued before NewNode got %v, want the routed handler's answer", err)
		}
		t.Logf("reply: %v", err)
	default:
		t.Fatal("the queued request was not answered")
	}
}
