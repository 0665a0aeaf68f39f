package rpc

import (
	"bytes"
	"testing"
)

// FuzzEnvelope: whatever a peer sends as a request or reply frame, splitting
// off the envelope returns an error or a body that is a prefix of the frame —
// never a panic — and an envelope that decodes re-encodes to the same frame.
func FuzzEnvelope(f *testing.F) {
	hdr := requestHdr{CallID: 77, Origin: 2, Proc: 5, Trace: TraceInfo{TraceID: 9, SpanID: 3}, Idem: 77}
	f.Add(hdr.appendTo([]byte("request body")))
	f.Add(appendReplyTrailer([]byte("result"), 77, 0))
	f.Add(appendReplyTrailer([]byte("boom"), 1<<40, replyErr))
	f.Add([]byte{})
	f.Add([]byte{0xff})
	f.Add([]byte{0x00})
	f.Fuzz(func(t *testing.T, frame []byte) {
		var rq requestHdr
		if body, err := rq.decode(frame); err == nil {
			if !bytes.HasPrefix(frame, body) {
				t.Fatal("request body is not a prefix of the frame")
			}
			var again requestHdr
			if _, err := again.decode(rq.appendTo(append([]byte(nil), body...))); err != nil || again != rq {
				t.Fatalf("request envelope does not round-trip: %+v vs %+v (%v)", rq, again, err)
			}
		}
		if body, id, flags, err := decodeReply(frame); err == nil {
			if !bytes.HasPrefix(frame, body) {
				t.Fatal("reply body is not a prefix of the frame")
			}
			b2, id2, flags2, err := decodeReply(appendReplyTrailer(append([]byte(nil), body...), id, flags))
			if err != nil || id2 != id || flags2 != flags || !bytes.Equal(b2, body) {
				t.Fatalf("reply envelope does not round-trip (%v)", err)
			}
		}
	})
}
