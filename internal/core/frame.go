package core

import (
	"amber/internal/rpc"
	"amber/internal/wire"
)

// Frame assembly. A remote message is one pooled buffer from the moment its
// first byte is encoded to the moment the transport has written it: the core
// header (routedMsg, invokeReply) is appended at the front, the bulk that
// follows it — continuation, argument vector, result vector — is appended in
// place behind it, the rpc layer appends its envelope behind that, and the
// transport recycles the buffer once it is on the wire (DESIGN.md §6.2). No
// layer marshals its part into a buffer of its own for the next layer to
// copy. Frames are always Codec-encoded, so they carry no format tag: the
// receiver calls the header's DecodeWire on the body directly.
//
// There are three assemblers: the origin's request builder, which encodes a
// journey's steps from values (engine.go), and the two below.

// frame encodes a request whose bulk is already bytes — a control operation,
// or an invocation being forwarded: one presized buffer, one copy of the
// tail, with room to spare for the rpc envelope so that nothing on the way to
// the socket regrows it.
func (m *routedMsg) frame() []byte {
	return m.AppendWire(wire.GetBufCap(m.sizeHint() + rpc.FrameRoom))
}

// frame encodes a reply with its result vector appended in place behind the
// header. On error the buffer goes back to the pool.
func (m *invokeReply) frame(results []any) ([]byte, error) {
	b := m.AppendWire(wire.GetBufCap(m.sizeHint() + wire.SizeHint(results) + rpc.FrameRoom))
	out, err := wire.AppendArgs(b, results)
	if err != nil {
		wire.PutBuf(b)
		return nil, err
	}
	return out, nil
}
