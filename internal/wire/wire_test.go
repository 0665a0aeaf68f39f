package wire

import (
	"bytes"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"amber/internal/gaddr"
)

type customPayload struct {
	Name   string
	Scores []float64
	Tag    gaddr.Addr
}

func init() { Register(customPayload{}) }

func TestMarshalRoundTripBuiltins(t *testing.T) {
	cases := []any{
		int(42), int64(-7), uint32(9), "hello", 3.25, true,
		[]byte{1, 2, 3}, []int{4, 5}, []float64{1.5, 2.5},
		gaddr.Addr(0xdeadbeef), gaddr.NodeID(3),
		map[string]int{"a": 1},
	}
	for _, v := range cases {
		b, err := Marshal(v)
		if err != nil {
			t.Fatalf("Marshal(%v): %v", v, err)
		}
		got, err := Unmarshal(b)
		if err != nil {
			t.Fatalf("Unmarshal(%v): %v", v, err)
		}
		if !reflect.DeepEqual(got, v) {
			t.Errorf("round trip %T: got %#v want %#v", v, got, v)
		}
	}
}

func TestMarshalNil(t *testing.T) {
	b, err := Marshal(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if got != nil {
		t.Fatalf("got %#v, want nil", got)
	}
}

func TestMarshalCustomRegistered(t *testing.T) {
	v := customPayload{Name: "x", Scores: []float64{1, 2}, Tag: 99}
	b, err := Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, v) {
		t.Fatalf("got %#v want %#v", got, v)
	}
}

func TestMarshalUnregisteredFails(t *testing.T) {
	type private struct{ X int }
	if _, err := Marshal(private{1}); err == nil {
		t.Fatal("marshalling an unregistered type should fail")
	}
}

func TestArgsRoundTrip(t *testing.T) {
	args := []any{1, "two", 3.0, customPayload{Name: "n"}, gaddr.Addr(7)}
	b, err := MarshalArgs(args)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalArgs(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, args) {
		t.Fatalf("got %#v want %#v", got, args)
	}
}

func TestArgsEmptyAndNilElements(t *testing.T) {
	for _, args := range [][]any{nil, {}, {nil}, {nil, 1, nil}} {
		b, err := MarshalArgs(args)
		if err != nil {
			t.Fatal(err)
		}
		got, err := UnmarshalArgs(b)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(args) {
			t.Fatalf("len %d want %d", len(got), len(args))
		}
		for i := range args {
			if !reflect.DeepEqual(got[i], args[i]) {
				t.Fatalf("elem %d: got %#v want %#v", i, got[i], args[i])
			}
		}
	}
}

func TestUnmarshalGarbage(t *testing.T) {
	if _, err := Unmarshal([]byte{0xff, 0x01, 0x02}); err == nil {
		t.Fatal("expected error on garbage input")
	}
	if _, err := UnmarshalArgs([]byte{0x00}); err == nil {
		t.Fatal("expected error on garbage args")
	}
}

type protoMsg struct {
	A   int
	B   string
	Raw []byte
}

func TestMarshalIntoFrom(t *testing.T) {
	in := protoMsg{A: 5, B: "q", Raw: []byte{9}}
	b, err := MarshalInto(&in)
	if err != nil {
		t.Fatal(err)
	}
	var out protoMsg
	if err := UnmarshalFrom(b, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("got %#v want %#v", out, in)
	}
	if err := UnmarshalFrom([]byte{1, 2}, &out); err == nil {
		t.Fatal("expected decode error")
	}
}

// Property: any payload of basic shapes survives a round trip.
func TestQuickArgsRoundTrip(t *testing.T) {
	f := func(i int64, s string, fl float64, bs []byte, addr uint64) bool {
		if math.IsNaN(fl) {
			fl = 0
		}
		args := []any{i, s, fl, bs, gaddr.Addr(addr)}
		b, err := MarshalArgs(args)
		if err != nil {
			return false
		}
		got, err := UnmarshalArgs(b)
		if err != nil || len(got) != len(args) {
			return false
		}
		// gob decodes a nil/empty []byte as nil; normalize.
		gb, _ := got[3].([]byte)
		if len(bs) == 0 {
			if len(gb) != 0 {
				return false
			}
		} else if !reflect.DeepEqual(gb, bs) {
			return false
		}
		return got[0] == args[0] && got[1] == args[1] && got[2] == args[2] && got[4] == args[4]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// The pool is size-classed: a buffer comes back from the class that holds
// the request, and goes back to the largest class it can serve.
func TestBufPoolSizeClasses(t *testing.T) {
	for _, n := range []int{0, 1, 1024, 1025, 8192, 8200, 1 << 18} {
		b := GetBufN(n)
		if len(b) != n || cap(b) < n {
			t.Fatalf("GetBufN(%d): len %d cap %d", n, len(b), cap(b))
		}
		if c := cap(b); c&(c-1) != 0 || c < 1024 {
			t.Fatalf("GetBufN(%d): cap %d is not a class size", n, c)
		}
		PutBuf(b)
	}
	if b := GetBufN(1<<18 + 1); cap(b) != 1<<18+1 {
		t.Fatalf("a buffer past the largest class should be a plain allocation, cap %d", cap(b))
	}
	// No-ops: nil, too small, too large.
	PutBuf(nil)
	PutBuf(make([]byte, 0, 100))
	PutBuf(make([]byte, 0, 1<<19))
	// A buffer of an odd capacity serves the class below it.
	odd := make([]byte, 0, 5000)
	odd = append(odd, 1, 2, 3)
	PutBuf(odd)
	if b := GetBufCap(4096); len(b) != 0 || cap(b) < 4096 {
		t.Fatalf("GetBufCap(4096): len %d cap %d", len(b), cap(b))
	}
}

// A sized region encoded in place reads back exactly like AppendBytes of the
// same contents, whichever side of the one-byte-prefix boundary it falls on.
func TestSizedRegionMatchesAppendBytes(t *testing.T) {
	for _, n := range []int{0, 1, 127, 128, 129, 16383, 16384, 70000} {
		body := bytes.Repeat([]byte{0xAB}, n)
		want := AppendBytes([]byte("pre"), body)
		got, mark := BeginSized([]byte("pre"))
		got = EndSized(append(got, body...), mark)
		if !bytes.Equal(got, want) {
			t.Fatalf("n=%d: in-place region differs from AppendBytes", n)
		}
		p, rest, err := ReadBytes(got[3:])
		if err != nil || len(rest) != 0 || !bytes.Equal(p, body) {
			t.Fatalf("n=%d: ReadBytes: %d bytes, rest %d, err %v", n, len(p), len(rest), err)
		}
	}
}

func TestSizeHintCoversBulk(t *testing.T) {
	args := []any{7, "hello", make([]byte, 8192), []float64{1, 2, 3}, struct{}{}}
	enc, err := MarshalArgs(args[:4])
	if err != nil {
		t.Fatal(err)
	}
	if hint := SizeHint(args[:4]); hint < len(enc) || hint > len(enc)+256 {
		t.Fatalf("SizeHint %d for a %d-byte encoding", hint, len(enc))
	}
}
