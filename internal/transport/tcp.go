package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"amber/internal/gaddr"
	"amber/internal/stats"
	"amber/internal/trace"
	"amber/internal/wire"
)

// TCPConfig describes one node's place in a multi-process cluster. Every
// process must be an execution of the same program image (as in the paper,
// where Topaz tasks share one binary), so that type and method registries
// agree.
type TCPConfig struct {
	Self   gaddr.NodeID
	Listen string                  // address to listen on, e.g. ":7701"
	Peers  map[gaddr.NodeID]string // peer node → dial address (excluding Self)
	// DialAttempts bounds how many times a Send tries to connect to a peer
	// that is not answering (cluster members start in arbitrary order, so the
	// first send often races the peer's listener). 0 means the default (5).
	DialAttempts int
	// DialRetryBase is the backoff before the first retry; it doubles on
	// every subsequent attempt. 0 means the default (20ms).
	DialRetryBase time.Duration
}

// TCP is a socket transport. Connections are established lazily on first
// send and reused; inbound connections are identified by a handshake frame
// carrying the sender's node ID. Messages on one connection are delivered in
// order by a per-connection reader goroutine, which runs each handler itself
// until a release or the watchdog hands the connection to a fresh reader.
//
// The per-message path takes no transport-wide lock: the connection table and
// the handler are read through atomic pointers, and the counters a message
// touches are cached out of the stats set. mu serializes only the rare
// writers (dial, drop, SetPeers, accept, Close).
type TCP struct {
	cfg     TCPConfig
	ln      net.Listener
	mu      sync.Mutex
	conns   atomic.Pointer[map[gaddr.NodeID]*tcpConn] // copy-on-write under mu
	inConns map[net.Conn]struct{}
	h       atomic.Pointer[Handler]
	// ready is closed by the first SetHandler (or by Close). No inbound link
	// reads a frame before it: cluster members start in any order, and a
	// frame that arrived before the node had a handler would be lost, its
	// sender waiting for a reply that never comes.
	ready     chan struct{}
	readyOnce sync.Once
	closed    atomic.Bool
	// wg counts the accept loop and one reader per inbound connection; a
	// hand-off passes the connection's count on to the fresh reader.
	wg      sync.WaitGroup
	readers readers
	counts  *stats.Set
	faults  atomic.Pointer[Faults]

	// flushHist times each socket write: its count is the number of writes,
	// which the transport and rpc tests and core's BenchmarkFanInAsync64TCP
	// hold against the number of frames.
	flushHist                      *stats.Histogram
	cMsgsSent, cBytesSent          *stats.Counter
	cMsgsRecv, cBytesRecv          *stats.Counter
	cKindSentBytes, cKindRecvBytes [256]atomic.Pointer[stats.Counter]
}

// tcpBufSize is the capacity of each connection's write buffer and of each
// reader's buffer: a frame with up to 64 KiB of payload leaves in one write
// and is picked up by one read. Larger frames bypass both buffers.
const tcpBufSize = 64<<10 + frameHdrLen

// frameHdrLen is the frame header: length(u32) kind(u8).
const frameHdrLen = 5

// tcpConn is one outbound connection. No goroutine stands between a sender
// and the socket: a sender appends its whole frame to buf under mu and writes
// buf out itself, unless another sender is already queued behind it — then the
// flush is left to that one (flush combining: the last writer out flushes, so
// a burst of concurrent sends still shares one write).
type tcpConn struct {
	c net.Conn
	// queued counts senders that have announced themselves and not yet taken
	// mu. A sender that finds it non-zero on its way out knows one of them
	// will run the same exit check, and leaves buf to it.
	queued atomic.Int32
	mu     sync.Mutex
	buf    []byte // whole frames not yet written; never a partial one
	// flushDue records that buf holds a frame whose sender asked for a flush
	// and left it to a queued successor.
	flushDue bool
	err      error // sticky first write error: the connection is dead
}

const tcpMagic = 0x414d4252 // "AMBR"

// NewTCP starts listening and returns the transport. Peers may be started in
// any order: a Send to a peer that is not answering yet retries its dial with
// exponential backoff (see TCPConfig.DialAttempts) before giving up.
func NewTCP(cfg TCPConfig) (*TCP, error) {
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", cfg.Listen, err)
	}
	t := &TCP{
		cfg:     cfg,
		ln:      ln,
		inConns: make(map[net.Conn]struct{}),
		ready:   make(chan struct{}),
		counts:  stats.NewSet(),
	}
	t.conns.Store(&map[gaddr.NodeID]*tcpConn{})
	t.readers.init(t.counts)
	t.flushHist = t.counts.Hist("flush_ns")
	t.cMsgsSent = t.counts.Get("msgs_sent")
	t.cBytesSent = t.counts.Get("bytes_sent")
	t.cMsgsRecv = t.counts.Get("msgs_recv")
	t.cBytesRecv = t.counts.Get("bytes_recv")
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// kindCounter returns the per-kind byte counter, created in the stats set on
// the kind's first message.
func (t *TCP) kindCounter(tab *[256]atomic.Pointer[stats.Counter], names *[256]string, k Kind) *stats.Counter {
	c := tab[k].Load()
	if c == nil {
		c = t.counts.Get(names[k])
		tab[k].Store(c)
	}
	return c
}

// Addr returns the bound listen address (useful with ":0").
func (t *TCP) Addr() string { return t.ln.Addr().String() }

// SetPeers installs or replaces the peer address map. Useful when peers bind
// ephemeral ports (":0") and addresses are only known after all listeners
// are up. Existing connections are unaffected.
func (t *TCP) SetPeers(peers map[gaddr.NodeID]string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	m := make(map[gaddr.NodeID]string, len(peers))
	for k, v := range peers {
		m[k] = v
	}
	t.cfg.Peers = m
}

// Stats exposes transport counters.
func (t *TCP) Stats() *stats.Set { return t.counts }

// SetFaults attaches a scriptable fault injector (nil to detach). Over real
// sockets the injector models crash silence, one-way cuts, probabilistic
// drop and duplication; injected link *delay* is a fabric-only feature (a
// socket write cannot be deferred without reordering the stream) — delay
// rules are accepted but ignored here.
func (t *TCP) SetFaults(fl *Faults) { t.faults.Store(fl) }

// Faults returns the attached fault injector (nil if none).
func (t *TCP) Faults() *Faults { return t.faults.Load() }

func (t *TCP) Self() gaddr.NodeID { return t.cfg.Self }

// SetHandler implements Transport. Inbound frames wait in their links until
// the first call.
func (t *TCP) SetHandler(h Handler) {
	t.h.Store(&h)
	t.readyOnce.Do(func() { close(t.ready) })
}

// ReleaseReaders implements Transport.
func (t *TCP) ReleaseReaders() { t.readers.release() }

func (t *TCP) Close() error {
	if !t.closed.CompareAndSwap(false, true) {
		return nil
	}
	t.mu.Lock()
	conns := *t.conns.Swap(&map[gaddr.NodeID]*tcpConn{})
	in := make([]net.Conn, 0, len(t.inConns))
	for c := range t.inConns {
		in = append(in, c)
	}
	t.mu.Unlock()
	t.ln.Close()
	for _, c := range conns {
		c.c.Close()
	}
	for _, c := range in {
		c.Close()
	}
	t.readyOnce.Do(func() { close(t.ready) }) // readers waiting for a handler find their links closed
	// A reader inside a handler would hold Close up until its handler
	// returned; a fresh reader finds the socket closed and ends at once.
	t.readers.release()
	t.wg.Wait()
	t.readers.stop()
	return nil
}

func (t *TCP) acceptLoop() {
	defer t.wg.Done()
	for {
		c, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		if t.closed.Load() {
			t.mu.Unlock()
			c.Close()
			return
		}
		t.inConns[c] = struct{}{}
		t.wg.Add(1)
		t.mu.Unlock()
		go t.serve(c)
	}
}

// inLink is one inbound connection and the reader state of its delivery.
type inLink struct {
	reader
	c    net.Conn
	r    *bufio.Reader
	from gaddr.NodeID
}

// serve reads an inbound connection's handshake, then delivers its frames.
func (t *TCP) serve(c net.Conn) {
	r := bufio.NewReaderSize(c, tcpBufSize)
	var hs [8]byte
	if _, err := io.ReadFull(r, hs[:]); err != nil || binary.BigEndian.Uint32(hs[:4]) != tcpMagic {
		t.endIn(c, nil)
		return
	}
	l := &inLink{c: c, r: r, from: gaddr.NodeID(int32(binary.BigEndian.Uint32(hs[4:])))}
	l.spawn = func() { go t.readLoop(l, true) }
	t.readers.add(&l.reader)
	<-t.ready
	t.readLoop(l, false)
}

// readLoop delivers l's frames in order, running each handler on this
// goroutine, until the connection fails or the link is handed to a fresh
// readLoop while a handler runs.
//
// A frame delivered with More set may leave its reply to l.from in the write
// buffer, so the reader writes that buffer out (Kick) before it waits for a
// frame that is not already buffered: a batch of requests read together is
// answered in one write. A fresh reader (fresh set) Kicks before its first
// read, for the replies its predecessor left; the predecessor Kicks once the
// handler it was handed off in returns, for that handler's own reply.
func (t *TCP) readLoop(l *inLink, fresh bool) {
	if fresh {
		t.Kick(l.from)
	}
	owed := false // a frame delivered since the last Kick had More set
	for {
		if owed && !frameBuffered(l.r) {
			t.Kick(l.from)
			owed = false
		}
		msg, err := readFrame(l.r, l.from, t.cfg.Self)
		if err != nil {
			t.endIn(l.c, &l.reader)
			return
		}
		// Receive-side fault check: a crashed or partitioned-off receiver
		// never sees frames already pushed into the kernel socket buffers.
		if !t.faults.Load().DeliverOK(l.from, t.cfg.Self) {
			t.counts.Inc("msgs_dropped")
			wire.PutBuf(msg.Payload)
			continue
		}
		t.cMsgsRecv.Inc()
		t.cBytesRecv.Add(int64(len(msg.Payload) + frameHdrLen))
		t.kindCounter(&t.cKindRecvBytes, &kindRecvBytes, msg.Kind).Add(int64(len(msg.Payload)))
		if h := t.h.Load(); h != nil && *h != nil {
			msg.More = frameBuffered(l.r)
			// The handler owns Payload now.
			if !t.readers.handle(&l.reader, *h, msg) {
				// Handed off: a fresh reader owns the link, and its Kick
				// may have run before this handler left its reply.
				if msg.More {
					t.Kick(l.from)
				}
				return
			}
			owed = owed || msg.More
		} else {
			wire.PutBuf(msg.Payload)
		}
	}
}

// endIn retires an inbound connection whose reader has ended (r nil: it
// failed its handshake), returning the reader's count on t.wg.
func (t *TCP) endIn(c net.Conn, r *reader) {
	c.Close()
	t.mu.Lock()
	delete(t.inConns, c)
	t.mu.Unlock()
	if r != nil {
		t.readers.remove(r)
	}
	t.wg.Done()
}

// frameBuffered reports whether r's buffer holds a whole frame, so that
// reading it will not wait for the socket.
func frameBuffered(r *bufio.Reader) bool {
	if r.Buffered() < frameHdrLen {
		return false
	}
	hdr, _ := r.Peek(4)
	return r.Buffered() >= 4+int(binary.BigEndian.Uint32(hdr))
}

// Frame layout: length(u32) kind(u8) payload. Length covers kind+payload.
// The payload lands in a pooled buffer owned by the receiving handler. A
// frame the sender wrote in one piece is already whole in r's buffer after
// one read; a payload larger than that buffer is read from the socket
// straight into the pooled one (bufio bypasses its own buffer for reads at
// least as large as it).
func readFrame(r *bufio.Reader, from, to gaddr.NodeID) (Message, error) {
	hdr, err := r.Peek(frameHdrLen)
	if err != nil {
		return Message{}, err
	}
	n, kind := binary.BigEndian.Uint32(hdr[:4]), Kind(hdr[4])
	if n < 1 || n > 1<<28 {
		return Message{}, fmt.Errorf("transport: bad frame length %d", n)
	}
	r.Discard(frameHdrLen)
	buf := wire.GetBufN(int(n) - 1)
	if _, err := io.ReadFull(r, buf); err != nil {
		wire.PutBuf(buf)
		return Message{}, err
	}
	return Message{From: from, To: to, Kind: kind, Payload: buf}, nil
}

func (t *TCP) Send(to gaddr.NodeID, kind Kind, payload []byte) error {
	return t.send(to, kind, payload, true)
}

// SendNoFlush implements Coalescer: the frame joins the connection's write
// buffer and stays there — a pipelining sender batches frames and flushes
// once with Kick. Should the buffer fill mid-burst, what it holds is written
// out to make room, so an unbounded burst cannot hold frames hostage.
func (t *TCP) SendNoFlush(to gaddr.NodeID, kind Kind, payload []byte) error {
	return t.send(to, kind, payload, false)
}

// Kick implements Coalescer: it writes out, on the caller's goroutine,
// everything buffered toward the peer. No connection (nothing was ever sent,
// or it died and took its buffer with it) means nothing to flush.
func (t *TCP) Kick(to gaddr.NodeID) {
	if conn := (*t.conns.Load())[to]; conn != nil {
		if err := conn.write(t, 0, nil, 0, true); err != nil {
			t.dropConn(to, conn)
		}
	}
}

func (t *TCP) send(to gaddr.NodeID, kind Kind, payload []byte, flush bool) error {
	if to == t.cfg.Self {
		return ErrSelfSend
	}
	verdict := t.faults.Load().Judge(t.cfg.Self, to)
	if verdict.Drop {
		t.counts.Inc("msgs_dropped")
		wire.PutBuf(payload)
		return nil // fail-stop silence: the sender cannot tell
	}
	conn := (*t.conns.Load())[to]
	if conn == nil {
		var err error
		if conn, err = t.dial(to); err != nil {
			return err
		}
	}
	copies := 1
	if verdict.Duplicate {
		copies = 2 // two identical frames back to back; delivered in order
	}
	// Count the frame before it can leave: the peer may answer before write
	// returns, and a reader of this node's counters must never see a reply to
	// a frame it has not counted. A failed write takes the count back, so the
	// counters mean frames accepted.
	n := int64(len(payload))
	kc := t.kindCounter(&t.cKindSentBytes, &kindSentBytes, kind)
	t.cMsgsSent.Inc()
	t.cBytesSent.Add(n + frameHdrLen)
	kc.Add(n)
	if err := conn.write(t, kind, payload, copies, flush); err != nil {
		t.cMsgsSent.Add(-1)
		t.cBytesSent.Add(-(n + frameHdrLen))
		kc.Add(-n)
		t.dropConn(to, conn)
		return err
	}
	// The frame was copied into the connection's buffer (or written out), so
	// the payload buffer is free to recycle.
	wire.PutBuf(payload)
	return nil
}

// write appends copies whole frames of (kind, payload) to the connection —
// zero copies is Kick — and, when flush is set or a predecessor left a flush
// due, writes the buffer to the socket unless a queued sender will.
func (c *tcpConn) write(t *TCP, kind Kind, payload []byte, copies int, flush bool) error {
	c.queued.Add(1)
	c.mu.Lock()
	c.queued.Add(-1)
	err := c.err
	for ; copies > 0 && err == nil; copies-- {
		var hdr [frameHdrLen]byte
		binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)+1))
		hdr[4] = byte(kind)
		// A frame that fits the buffer is buffered whole; a payload larger
		// than the buffer never passes through it — its header joins whatever
		// is pending and the payload follows in the same vectored write.
		// Either way, if what must join the buffer has no room (full
		// mid-burst), what is pending goes out first.
		large := frameHdrLen+len(payload) > cap(c.buf)
		joins := frameHdrLen
		if !large {
			joins += len(payload)
		}
		if len(c.buf)+joins > cap(c.buf) {
			err = c.flushLocked(t, nil)
		}
		if err == nil {
			c.buf = append(c.buf, hdr[:]...)
			if large {
				err = c.flushLocked(t, payload)
			} else {
				c.buf = append(c.buf, payload...)
			}
		}
	}
	if err == nil && (flush || c.flushDue) {
		if c.queued.Load() == 0 {
			err = c.flushLocked(t, nil)
		} else {
			c.flushDue = true
		}
	}
	if err != nil {
		c.err = err
	}
	c.mu.Unlock()
	return err
}

// flushLocked writes the buffer to the socket in one write — one vectored
// write when tail, the payload of a frame whose header ends the buffer,
// follows it. Caller holds c.mu.
func (c *tcpConn) flushLocked(t *TCP, tail []byte) error {
	c.flushDue = false
	if len(c.buf) == 0 {
		return nil
	}
	start := time.Now()
	var err error
	if tail == nil {
		_, err = c.c.Write(c.buf)
	} else {
		bufs := net.Buffers{c.buf, tail}
		_, err = bufs.WriteTo(c.c)
	}
	t.flushHist.Observe(time.Since(start))
	c.buf = c.buf[:0]
	return err
}

// dropConn retires a connection whose write failed; the next Send redials.
func (t *TCP) dropConn(to gaddr.NodeID, conn *tcpConn) {
	conn.c.Close()
	t.mu.Lock()
	if old := *t.conns.Load(); old[to] == conn {
		m := make(map[gaddr.NodeID]*tcpConn, len(old))
		for k, v := range old {
			if k != to {
				m[k] = v
			}
		}
		t.conns.Store(&m)
	}
	t.mu.Unlock()
}

// dial establishes (or finds, if another sender won the race) the connection
// to a peer. The handshake is not written here: it is the first thing in the
// new connection's buffer and leaves with the first frame.
func (t *TCP) dial(to gaddr.NodeID) (*tcpConn, error) {
	t.mu.Lock()
	addr, ok := t.cfg.Peers[to]
	t.mu.Unlock()
	if t.closed.Load() {
		return nil, ErrClosed
	}
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownNode, to)
	}

	// Bounded dial retry: cluster processes start in arbitrary order, so the
	// first send frequently beats the peer's listener. Back off exponentially
	// between attempts, and re-check for a connection another sender may have
	// established meanwhile.
	attempts := t.cfg.DialAttempts
	if attempts <= 0 {
		attempts = 5
	}
	backoff := t.cfg.DialRetryBase
	if backoff <= 0 {
		backoff = 20 * time.Millisecond
	}
	var raw net.Conn
	var err error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			time.Sleep(backoff)
			backoff *= 2
			if t.closed.Load() {
				return nil, ErrClosed
			}
			if c := (*t.conns.Load())[to]; c != nil {
				return c, nil
			}
			t.counts.Inc("dial_retries")
			if trace.GlobalOn() {
				trace.GlobalEmit(trace.Event{Kind: trace.KDialRetry,
					Node: int32(t.cfg.Self), Arg: int64(to)})
			}
		}
		if raw, err = net.Dial("tcp", addr); err == nil {
			break
		}
	}
	if err != nil {
		return nil, fmt.Errorf("transport: dial node %d (%s) after %d attempts: %w", to, addr, attempts, err)
	}

	conn := &tcpConn{c: raw, buf: make([]byte, 0, tcpBufSize)}
	conn.buf = binary.BigEndian.AppendUint32(conn.buf, tcpMagic)
	conn.buf = binary.BigEndian.AppendUint32(conn.buf, uint32(t.cfg.Self))
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed.Load() {
		raw.Close()
		return nil, ErrClosed
	}
	old := *t.conns.Load()
	if existing := old[to]; existing != nil {
		// Lost a race with another sender; use theirs.
		raw.Close()
		return existing, nil
	}
	m := make(map[gaddr.NodeID]*tcpConn, len(old)+1)
	for k, v := range old {
		m[k] = v
	}
	m[to] = conn
	t.conns.Store(&m)
	return conn, nil
}
