package main

import (
	"encoding/binary"
	"hash/crc32"
	"sync/atomic"
	"time"

	"amber/internal/core"
	"amber/internal/gaddr"
	"amber/internal/sor"
	"amber/internal/trace"
	"amber/internal/transport"
	"amber/internal/wire"
)

// The image's own classes. They have plain methods only, so every call takes
// the runtime's default dispatch tier (no AmberDispatch), and they live here
// rather than in cmd/amberd so the benchmark does not depend on the
// main.DemoCounter twins.

// BenchCounter is the invocation target of the invoke, fan-in and lease
// workloads. Two callers may be inside one counter at once (Amber objects are
// not monitors), so the count is atomic: the end-of-run check needs every Add
// to land.
type BenchCounter struct{ N int64 }

// Add increments the counter and returns the new value.
func (c *BenchCounter) Add(n int) int { return int(atomic.AddInt64(&c.N, int64(n))) }

// Get reads the counter.
func (c *BenchCounter) Get() int { return int(atomic.LoadInt64(&c.N)) }

// AmberReadOnly lets a cacheable counter serve Get from a reader lease.
func (c *BenchCounter) AmberReadOnly() []string { return []string{"Get"} }

// Record is the struct argument of BenchBlob.Put: a string, a scalar and a
// slice, so the struct codec has one of each to carry.
type Record struct {
	Key  string
	Seq  int64
	Tags []string
}

// recordSum is the checksum both ends compute over a Put's arguments; it
// covers the record as well as the bytes, so a codec that drops a field fails
// the round trip.
func recordSum(rec Record, data []byte) uint32 {
	h := crc32.NewIEEE()
	h.Write(data)
	h.Write([]byte(rec.Key))
	var seq [8]byte
	binary.BigEndian.PutUint64(seq[:], uint64(rec.Seq))
	h.Write(seq[:])
	for _, t := range rec.Tags {
		h.Write([]byte(t))
	}
	return h.Sum32()
}

// BenchBlob is the payload workload's target.
type BenchBlob struct {
	Fill []byte
	Puts int64
}

// Put accepts a record and a byte slice and returns what it received.
func (b *BenchBlob) Put(rec Record, data []byte) (int, uint32) {
	atomic.AddInt64(&b.Puts, 1)
	return len(data), recordSum(rec, data)
}

// Fetch returns the first n bytes of the blob's fill.
func (b *BenchBlob) Fetch(n int) []byte { return b.Fill[:n] }

// BenchChild is the object attached to each BenchMovable; it only reports
// where it is, which must always be where its parent is.
type BenchChild struct{ Data []byte }

// At reports the node the child is on.
func (c *BenchChild) At(ctx *core.Ctx) gaddr.NodeID { return ctx.NodeID() }

// BenchMovable is the object the mobility workload chases around the cluster.
type BenchMovable struct {
	Data    []byte
	Touches int
	Child   core.Ref
}

// Touch counts the visit and reports where it ran, where the attached child
// is, and the checksum of the state that travelled with the object.
func (m *BenchMovable) Touch(ctx *core.Ctx) (int, gaddr.NodeID, gaddr.NodeID, uint32, error) {
	m.Touches++
	out, err := ctx.Invoke(m.Child, "At")
	if err != nil {
		return 0, 0, 0, 0, err
	}
	return m.Touches, ctx.NodeID(), out[0].(gaddr.NodeID), crc32.ChecksumIEEE(m.Data), nil
}

// BenchMover issues moves from the node it lives on, so a move is requested
// by a third party that has to find the object first.
type BenchMover struct{ Moves int }

// Move migrates obj (and what is attached to it) to dest.
func (m *BenchMover) Move(ctx *core.Ctx, obj core.Ref, dest gaddr.NodeID) error {
	m.Moves++
	return ctx.MoveTo(obj, dest)
}

// procTransport is this process's transport, set once at start-up by the
// serve role for BenchProbe to read.
var procTransport *transport.TCP

// BenchProbe reports a serve process's transport and codec counters, which
// node.CollectStats does not carry.
type BenchProbe struct{ Reads int }

const probeMethod = "Process"

// probeFields is the fixed order of Process's reply.
var probeFields = []string{"transport.msgs_sent", "transport.bytes_sent", "wire.gob_fallbacks"}

// Process returns the counters as fixed-width integers in probeFields order:
// a reply whose size does not depend on the values keeps the byte ledger
// exact.
func (p *BenchProbe) Process() []byte {
	p.Reads++
	st := procTransport.Stats()
	vals := []int64{st.Value("msgs_sent"), st.Value("bytes_sent"), wire.GobFallbacks()}
	out := make([]byte, 0, 8*len(vals))
	for _, v := range vals {
		out = binary.BigEndian.AppendUint64(out, uint64(v))
	}
	return out
}

func registerClasses(reg *core.Registry) error {
	wire.Register(Record{})
	for _, v := range []any{&BenchCounter{}, &BenchBlob{}, &BenchChild{}, &BenchMovable{}, &BenchMover{}, &BenchProbe{}} {
		if err := reg.Register(v); err != nil {
			return err
		}
	}
	return sor.RegisterAll(reg)
}

// Every node of a benchmark cluster has two processor slots, the host's nproc.
const nodeProcs = 2

// traceRing is each node's event ring: large enough that the rings of all
// three nodes still overlap on a few thousand operations when they are pulled.
const traceRing = 1 << 16

// newNode brings up one core.Node over tr; serve and drive share it so the
// three processes are configured alike. Node 0 hosts the address-space server.
func newNode(id gaddr.NodeID, tr *transport.TCP, traced bool) (*core.Node, error) {
	reg := core.NewRegistry()
	if err := registerClasses(reg); err != nil {
		return nil, err
	}
	tracer := trace.New(int32(id), traceRing)
	tracer.SetEnabled(traced)
	trace.SetGlobal(tracer)
	var server *gaddr.Server
	if id == 0 {
		server = gaddr.NewServer(0)
	}
	return core.NewNode(core.NodeConfig{
		ID: id, Procs: nodeProcs, ServerNode: 0, Tracer: tracer,
		Generation: uint64(time.Now().UnixNano()),
	}, reg, tr, server)
}
