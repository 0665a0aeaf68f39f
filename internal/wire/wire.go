// Package wire provides the marshalling layer used everywhere Amber state
// crosses a node boundary: invocation arguments and results, migrating object
// state, and thread records. It corresponds to the argument-marshalling half
// of Topaz RPC in the original system.
//
// Two encodings share the wire, distinguished by a one-byte tag:
//
//   - A hand-rolled fast path (fastcodec.go) covers the hot message shapes —
//     primitive and slice argument vectors, addresses, and protocol structs
//     that implement the Codec interface. It appends into pooled []byte
//     buffers (GetBuf/PutBuf) and allocates nothing per message beyond the
//     decoded values themselves.
//   - encoding/gob remains the fallback for user argument types and object
//     state the fast path does not know. Values carried as interfaces must
//     be registered with Register, the analogue of the original requirement
//     that all nodes run the same program image: registration happens in
//     package init/main code, which is identical in every process of a
//     deployment.
package wire

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"

	"amber/internal/gaddr"
	"amber/internal/trace"
)

// box wraps an interface value so gob records the concrete type.
type box struct{ V any }

func init() {
	// Pre-register the types any Amber program is likely to pass across the
	// wire without further ceremony. All of these also have fast-path
	// encodings; registration keeps them valid inside gob-encoded user
	// structures.
	gob.Register(int(0))
	gob.Register(int8(0))
	gob.Register(int16(0))
	gob.Register(int32(0))
	gob.Register(int64(0))
	gob.Register(uint(0))
	gob.Register(uint8(0))
	gob.Register(uint16(0))
	gob.Register(uint32(0))
	gob.Register(uint64(0))
	gob.Register(float32(0))
	gob.Register(float64(0))
	gob.Register(false)
	gob.Register("")
	gob.Register([]byte(nil))
	gob.Register([]int(nil))
	gob.Register([]int64(nil))
	gob.Register([]float64(nil))
	gob.Register([]string(nil))
	gob.Register([]any(nil))
	gob.Register(map[string]int(nil))
	gob.Register(map[string]string(nil))
	gob.Register(map[string]any(nil))
	gob.Register(gaddr.Addr(0))
	gob.Register(gaddr.NodeID(0))
	gob.Register([]gaddr.Addr(nil))
}

// Register makes a concrete type transmissible inside interface-typed slots
// (arguments, results, object state). It must be called identically on every
// node, normally from an init function or before cluster startup. Struct
// types additionally join the reflective fast codec (structcodec.go), which
// is what keeps migration and replica snapshots off the gob slow path.
func Register(v any) {
	gob.Register(v)
	t := reflect.TypeOf(v)
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	if t.Kind() == reflect.Struct {
		structTypes.Store(t.String(), t)
	}
}

// Marshal encodes a single interface value into a pooled buffer.
func Marshal(v any) ([]byte, error) {
	b, err := AppendValue(GetBuf(), v)
	if err != nil {
		return nil, err
	}
	return b, nil
}

// Unmarshal decodes a value encoded by Marshal.
func Unmarshal(b []byte) (any, error) {
	v, _, err := DecodeValue(b)
	return v, err
}

// UnmarshalStruct decodes a value encoded by Marshal, returning it as a
// reflect.Value. When the payload rides the struct fast path the result is
// addressable — install paths (migration, replica) adopt it in place instead
// of allocating a second struct and copying into it. On any other encoding it
// falls back to Unmarshal and the result may be unaddressable; callers must
// check CanAddr.
func UnmarshalStruct(b []byte) (reflect.Value, error) {
	if len(b) > 0 && b[0] == vStruct {
		v, _, err := decodeStructReflect(b[1:])
		return v, err
	}
	v, err := Unmarshal(b)
	if err != nil {
		return reflect.Value{}, err
	}
	return reflect.ValueOf(v), nil
}

// MarshalArgs encodes an argument (or result) vector into a pooled buffer
// presized from SizeHint, so a bulk argument does not regrow it.
func MarshalArgs(args []any) ([]byte, error) {
	return AppendArgs(GetBufCap(SizeHint(args)), args)
}

// UnmarshalArgs decodes a vector encoded by MarshalArgs. The returned values
// own their memory; b may be recycled afterwards.
func UnmarshalArgs(b []byte) ([]any, error) {
	vs, _, err := DecodeArgs(b)
	return vs, err
}

// argsScratchCap is the pooled argument-vector capacity; vectors longer than
// this (rare — operations take a handful of arguments) fall back to a plain
// allocation.
const argsScratchCap = 8

var argsPool = sync.Pool{New: func() any { return new([argsScratchCap]any) }}

// UnmarshalArgsScratch decodes like UnmarshalArgs but draws the vector from a
// per-P scratch pool: for the remote-execution hot path, where the argument
// vector dies with the call. The caller must hand the vector back with
// PutArgs once the operation has returned; the decoded *values* own their
// memory and may outlive the vector (user code keeps whatever arguments it
// wants — it is only the []any spine that is recycled).
func UnmarshalArgsScratch(b []byte) ([]any, error) {
	arr := argsPool.Get().(*[argsScratchCap]any)
	vs, _, err := DecodeArgsInto(arr[:0], b)
	if err != nil || cap(vs) != argsScratchCap {
		// Scratch unused: decode error, empty vector, or overflow into a
		// plain allocation. Clear junk from a partial decode and re-pool.
		clear(arr[:])
		argsPool.Put(arr)
	}
	return vs, err
}

// PutArgs recycles a vector obtained from UnmarshalArgsScratch. The slice
// must not be referenced after the call. Safe to pass any args vector:
// non-pooled ones (overflow or plain UnmarshalArgs) are left to the GC.
func PutArgs(vs []any) {
	if cap(vs) != argsScratchCap {
		return
	}
	arr := (*[argsScratchCap]any)(vs[:argsScratchCap])
	clear(arr[:])
	argsPool.Put(arr)
}

// MarshalInto encodes a protocol message struct into a pooled buffer. Types
// implementing Codec take the fast path; anything else (and every user
// payload embedded via interface fields) is gob-encoded. Both sides carry a
// format tag, so UnmarshalFrom never guesses.
func MarshalInto(v any) ([]byte, error) {
	if c, ok := v.(Codec); ok {
		return c.AppendWire(append(GetBuf(), fmtFast)), nil
	}
	gobFallbacks.Add(1)
	if trace.GlobalOn() {
		trace.GlobalEmit(trace.Event{Kind: trace.KGobFallback, Label: fmt.Sprintf("%T", v)})
	}
	var buf bytes.Buffer
	buf.WriteByte(fmtGob)
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, fmt.Errorf("wire: encode %T: %w", v, err)
	}
	return buf.Bytes(), nil
}

// gobFallbacks counts protocol messages that missed the fast codec and fell
// back to gob — a growing number on a hot path is a performance bug.
var gobFallbacks atomic.Int64

// GobFallbacks reports how many MarshalInto calls took the gob fallback.
func GobFallbacks() int64 { return gobFallbacks.Load() }

// UnmarshalFrom decodes into v, which must be a pointer to the same static
// type that was encoded.
func UnmarshalFrom(b []byte, v any) error {
	if len(b) == 0 {
		return fmt.Errorf("wire: decode %T: %w", v, ErrShortBuffer)
	}
	switch b[0] {
	case fmtFast:
		c, ok := v.(Codec)
		if !ok {
			return fmt.Errorf("wire: decode %T: fast-path payload for a non-Codec type", v)
		}
		if _, err := c.DecodeWire(b[1:]); err != nil {
			return fmt.Errorf("wire: decode %T: %w", v, err)
		}
		return nil
	case fmtGob:
		if err := gob.NewDecoder(bytes.NewReader(b[1:])).Decode(v); err != nil {
			return fmt.Errorf("wire: decode %T: %w", v, err)
		}
		return nil
	default:
		return fmt.Errorf("wire: decode %T: unknown format tag %#x", v, b[0])
	}
}
