package core

import (
	"reflect"
	"testing"

	"amber/internal/gaddr"
	"amber/internal/wire"
)

// Fuzzing the protocol decoders: whatever arrives in a request or reply body,
// DecodeWire returns an error or a message — never a panic, a hang or an
// allocation out of proportion to the input — and a message that decodes
// re-encodes to bytes that decode to the same message. Run continuously with:
//
//	go test -fuzz FuzzRoutedMsg ./internal/core      (likewise the others)

// fuzzSeeds adds a valid encoding and the usual degenerate inputs.
func fuzzSeeds(f *testing.F, valid ...[]byte) {
	for _, v := range valid {
		f.Add(v)
	}
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
}

func FuzzRoutedMsg(f *testing.F) {
	args, _ := wire.MarshalArgs([]any{7, "x", []byte{1, 2, 3}})
	m := routedMsg{Op: opInvoke, Obj: 0x1000, Method: "Add", Args: args, Dest: 2, Peer: 0x2000,
		Thread: ThreadRec{ID: 9, Home: 1, Priority: -3, Pins: []gaddr.Addr{0x1000, 0x3000}},
		Chain:  []gaddr.NodeID{0, 2, 1},
		Flags:  rmFlagReadOnly | rmFlagLeaseOK}
	// Continuation-bearing seeds: 0 (m above), 1 and 3 remaining steps, with a
	// ChainPrev marker in a later step.
	cont := func(steps ...ChainStep) []byte {
		var b []byte
		for i := range steps {
			var err error
			if b, err = appendStep(b, &steps[i]); err != nil {
				f.Fatal(err)
			}
		}
		return b
	}
	one, three := m, m
	one.Flags = rmFlagChain
	one.Cont = cont(ChainStep{Obj: 0x2000, Method: "AddTo", Args: []any{ChainPrev, "x"}})
	three.Flags = rmFlagChain | rmFlagReadOnly
	three.Cont = cont(
		ChainStep{Obj: 0x2000, Method: "Get"},
		ChainStep{Obj: 0x3000, Method: "Add", Args: []any{1}},
		ChainStep{Obj: 0x1000, Method: "AddTo", Args: []any{2, ChainPrev}})
	// Malformed continuations: a length prefix cut mid-varint, a length larger
	// than the bytes that follow, and a last step cut short.
	hdr := m.appendHeader(nil)
	cutPrefix := append(append([]byte(nil), hdr...), 0x80)
	tooLong := append(append([]byte(nil), hdr...), 0x7f, 1, 2, 3)
	cutStep := append(wire.AppendBytes(append([]byte(nil), hdr...), one.Cont[:len(one.Cont)-2]), args...)
	fuzzSeeds(f, m.AppendWire(nil), (&routedMsg{Op: opLocate, Obj: 1}).AppendWire(nil),
		one.AppendWire(nil), three.AppendWire(nil), cutPrefix, tooLong, cutStep)
	f.Fuzz(func(t *testing.T, data []byte) {
		var got routedMsg
		if _, err := got.DecodeWire(data); err != nil {
			return
		}
		// A forwarder appends itself to the chain and re-sends the rest as
		// decoded; what it sends decodes to what it held.
		got.Chain = append(got.Chain, 7)
		var again routedMsg
		if _, err := again.DecodeWire(got.AppendWire(nil)); err != nil {
			t.Fatalf("re-encoded message does not decode: %v", err)
		}
		if !reflect.DeepEqual(got, again) {
			t.Fatalf("round trip changed the message:\n%+v\n%+v", got, again)
		}
		if len(got.Cont) == 0 {
			return
		}
		// A mid-chain hand-off pops the head step, binds the previous results
		// into its arguments and forwards the rest: the remaining steps arrive
		// as they were.
		next, rest, err := popStep(got.Cont)
		if err != nil {
			t.Fatalf("a decoded continuation does not pop: %v", err)
		}
		got.Obj, got.Method, got.Args, got.Cont = next.Obj, next.Method, next.Args, rest
		if err := bindPrev(&got, []any{5}); err != nil {
			return // the head's arguments are not a vector: the executor replies the error
		}
		if _, err := again.DecodeWire(got.AppendWire(nil)); err != nil {
			t.Fatalf("handed-off message does not decode: %v", err)
		}
		if !reflect.DeepEqual(got, again) {
			t.Fatalf("hand-off changed the message:\n%+v\n%+v", got, again)
		}
	})
}

func FuzzInvokeReply(f *testing.F) {
	res, _ := wire.MarshalArgs([]any{42})
	plain := invokeReply{Results: res, Node: 1, Epoch: 3}
	lease := invokeReply{Results: res, Node: 2, Epoch: 9, Lease: true, LeaseNs: 2e9,
		SnapType: "core.Counter", SnapState: []byte{1, 2, 3}}
	replica := invokeReply{Node: 2, Epoch: 1, Immutable: true, SnapType: "core.Greeter"}
	revoked := invokeReply{Results: res, Node: 2, Epoch: 10, Revoked: true}
	fuzzSeeds(f, plain.AppendWire(nil), lease.AppendWire(nil), replica.AppendWire(nil), revoked.AppendWire(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		var got invokeReply
		if _, err := got.DecodeWire(data); err != nil {
			return
		}
		var again invokeReply
		if _, err := again.DecodeWire(got.AppendWire(nil)); err != nil {
			t.Fatalf("re-encoded reply does not decode: %v", err)
		}
		// A snapshot flag with an empty type name is not re-encoded as one;
		// everything a receiver acts on must survive.
		if got.SnapType != "" && !reflect.DeepEqual(got, again) {
			t.Fatalf("round trip changed the reply:\n%+v\n%+v", got, again)
		}
	})
}

func FuzzInstallMsg(f *testing.F) {
	state, _ := wire.Marshal(Counter{N: 7})
	m := installMsg{From: 1, Objects: []snapshot{
		{Addr: 0x1000, TypeName: "core.Counter", State: state, Epoch: 4, Leasable: true,
			Attached: []gaddr.Addr{0x2000}},
		{Addr: 0x2000, TypeName: "core.Greeter", Immutable: true, Epoch: 1},
	}}
	fuzzSeeds(f, m.AppendWire(nil), (&installMsg{From: 2, Copy: true}).AppendWire(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		var got installMsg
		if _, err := got.DecodeWire(data); err != nil {
			return
		}
		var again installMsg
		if _, err := again.DecodeWire(got.AppendWire(nil)); err != nil {
			t.Fatalf("re-encoded batch does not decode: %v", err)
		}
		if len(got.Objects) != len(again.Objects) || got.From != again.From || got.Copy != again.Copy {
			t.Fatalf("round trip changed the batch:\n%+v\n%+v", got, again)
		}
		for i := range got.Objects {
			a, b := got.Objects[i], again.Objects[i]
			if string(a.State) != string(b.State) {
				t.Fatalf("object %d: state changed", i)
			}
			a.State, b.State = nil, nil // nil and empty are one encoding
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("object %d changed:\n%+v\n%+v", i, a, b)
			}
		}
	})
}
