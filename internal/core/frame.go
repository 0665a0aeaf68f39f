package core

import (
	"amber/internal/rpc"
	"amber/internal/wire"
)

// Frame assembly. A remote message is one pooled buffer from the moment its
// first byte is encoded to the moment the transport has written it: the core
// header (routedMsg, invokeReply) is appended at the front, the bulk that
// follows it — argument vector, result vector, chain — is appended in place
// behind it, the rpc layer appends its envelope behind that, and the
// transport recycles the buffer once it is on the wire (DESIGN.md §6.2). No
// layer marshals its part into a buffer of its own for the next layer to
// copy.

// frameHeader is a message whose encoding ends with a bulk tail that the
// sender appends in place. Frames are always Codec-encoded, so they carry no
// format tag: the receiver calls the header's DecodeWire on the body directly.
type frameHeader interface {
	wire.Codec
	sizeHint() int
}

// assemble builds one message body: hdr, then whatever fill appends behind
// it. The buffer is presized from hdr's hint plus tailHint, with room to
// spare for the rpc envelope, so that nothing on the way to the socket
// regrows it. On error the buffer goes back to the pool.
func assemble(hdr frameHeader, tailHint int, fill func([]byte) ([]byte, error)) ([]byte, error) {
	b := encode(hdr, tailHint)
	out, err := fill(b)
	if err != nil {
		wire.PutBuf(b)
		return nil, err
	}
	return out, nil
}

// assembleVec is assemble for the common tail: an argument or result vector.
func assembleVec(hdr frameHeader, vec []any) ([]byte, error) {
	return assemble(hdr, wire.SizeHint(vec), func(b []byte) ([]byte, error) {
		return wire.AppendArgs(b, vec)
	})
}

// encode is assemble for a header that already carries its tail as bytes (a
// request being forwarded): one presized buffer, one copy of the tail.
func encode(hdr frameHeader, tailHint int) []byte {
	return hdr.AppendWire(wire.GetBufCap(hdr.sizeHint() + tailHint + rpc.FrameRoom))
}
