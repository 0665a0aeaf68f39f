package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sort"

	"amber/internal/gaddr"
)

// This file implements the hot-path half of the wire format: a hand-rolled,
// allocation-light binary codec for the value shapes Amber ships constantly
// (primitive and slice argument vectors, addresses, protocol message
// structs), with encoding/gob kept only as the fallback for user types the
// fast path does not know. Every encoding starts with a one-byte tag, so the
// two halves coexist on the same wire and a decoder always knows which one it
// is looking at.

// Format tags for whole messages produced by MarshalInto.
const (
	fmtGob  byte = 0x01 // gob stream follows (slow path)
	fmtFast byte = 0x02 // self-encoded Codec payload follows (fast path)
)

// Value tags for the fast value codec. Tag 0x00 is deliberately invalid so a
// truncated or zeroed buffer can never decode silently.
const (
	vNil byte = iota + 1
	vFalse
	vTrue
	vInt
	vInt8
	vInt16
	vInt32
	vInt64
	vUint
	vUint8
	vUint16
	vUint32
	vUint64
	vFloat32
	vFloat64
	vString
	vBytes
	vIntSlice
	vInt64Slice
	vF64Slice
	vStrSlice
	vAnySlice
	vMapStrInt
	vMapStrStr
	vMapStrAny
	vAddr
	vNodeID
	vAddrSlice
	vGob    // length-prefixed gob(box{V}) — the per-value fallback
	vArgs   // argument-vector wrapper: uvarint count, then count values
	vStruct // registered struct: type name, field count, exported fields in order
)

// ErrShortBuffer reports a truncated encoding.
var ErrShortBuffer = errors.New("wire: short buffer")

// Codec is implemented by protocol message structs that encode themselves on
// the fast path. AppendWire appends the struct's encoding to b and returns
// the extended slice; DecodeWire consumes the struct's encoding from the
// front of b and returns the remainder. Implementations must produce
// fully-owned field values on decode (copying strings and re-slicing only
// payloads whose lifetime is managed by the caller, such as nested message
// bodies).
type Codec interface {
	AppendWire(b []byte) []byte
	DecodeWire(b []byte) ([]byte, error)
}

// --- primitive append/read helpers (exported for Codec implementations) ---

// AppendUvarint appends x in unsigned varint form.
func AppendUvarint(b []byte, x uint64) []byte { return binary.AppendUvarint(b, x) }

// AppendVarint appends x in zig-zag varint form.
func AppendVarint(b []byte, x int64) []byte { return binary.AppendVarint(b, x) }

// ReadUvarint consumes an unsigned varint from the front of b.
func ReadUvarint(b []byte) (uint64, []byte, error) {
	x, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, ErrShortBuffer
	}
	return x, b[n:], nil
}

// ReadVarint consumes a zig-zag varint from the front of b.
func ReadVarint(b []byte) (int64, []byte, error) {
	x, n := binary.Varint(b)
	if n <= 0 {
		return 0, nil, ErrShortBuffer
	}
	return x, b[n:], nil
}

// AppendBytes appends p with a uvarint length prefix.
func AppendBytes(b, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

// ReadBytes consumes a length-prefixed byte string. The returned slice
// aliases b (zero copy); callers that retain it past b's lifetime must copy.
func ReadBytes(b []byte) ([]byte, []byte, error) {
	n, rest, err := ReadUvarint(b)
	if err != nil {
		return nil, nil, err
	}
	if n > uint64(len(rest)) {
		return nil, nil, ErrShortBuffer
	}
	return rest[:n:n], rest[n:], nil
}

// BeginSized opens a length-prefixed region encoded in place: it reserves one
// byte for the uvarint length and returns its position. Append the region's
// contents, then close it with EndSized. The result reads back with ReadBytes,
// exactly as if the contents had been marshalled apart and added with
// AppendBytes — without the second buffer and the copy.
func BeginSized(b []byte) ([]byte, int) { return append(b, 0), len(b) }

// EndSized closes the region opened at mark by patching in its length. A
// region of 128 bytes or more needs a longer prefix than the byte reserved, so
// its contents shift right by the difference.
func EndSized(b []byte, mark int) []byte {
	n := len(b) - mark - 1
	if n < 0x80 {
		b[mark] = byte(n)
		return b
	}
	var pre [binary.MaxVarintLen64]byte
	w := binary.PutUvarint(pre[:], uint64(n))
	b = append(b, pre[:w-1]...) // grow by the extra prefix bytes
	copy(b[mark+w:], b[mark+1:mark+1+n])
	copy(b[mark:], pre[:w])
	return b
}

// AppendString appends s with a uvarint length prefix.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// ReadString consumes a length-prefixed string (always an owned copy).
func ReadString(b []byte) (string, []byte, error) {
	p, rest, err := ReadBytes(b)
	if err != nil {
		return "", nil, err
	}
	return string(p), rest, nil
}

// appendBool appends a bool as one byte.
func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func readBool(b []byte) (bool, []byte, error) {
	if len(b) < 1 {
		return false, nil, ErrShortBuffer
	}
	return b[0] != 0, b[1:], nil
}

// --- the fast value codec ---

// AppendValue appends the encoding of v to b. Known shapes use the compact
// tag form; anything else falls back to an embedded gob encoding, which
// fails (as gob does) for unregistered types.
func AppendValue(b []byte, v any) ([]byte, error) {
	switch x := v.(type) {
	case nil:
		return append(b, vNil), nil
	case bool:
		if x {
			return append(b, vTrue), nil
		}
		return append(b, vFalse), nil
	case int:
		return binary.AppendVarint(append(b, vInt), int64(x)), nil
	case int8:
		return binary.AppendVarint(append(b, vInt8), int64(x)), nil
	case int16:
		return binary.AppendVarint(append(b, vInt16), int64(x)), nil
	case int32:
		return binary.AppendVarint(append(b, vInt32), int64(x)), nil
	case int64:
		return binary.AppendVarint(append(b, vInt64), x), nil
	case uint:
		return binary.AppendUvarint(append(b, vUint), uint64(x)), nil
	case uint8:
		return binary.AppendUvarint(append(b, vUint8), uint64(x)), nil
	case uint16:
		return binary.AppendUvarint(append(b, vUint16), uint64(x)), nil
	case uint32:
		return binary.AppendUvarint(append(b, vUint32), uint64(x)), nil
	case uint64:
		return binary.AppendUvarint(append(b, vUint64), x), nil
	case float32:
		return binary.LittleEndian.AppendUint32(append(b, vFloat32), math.Float32bits(x)), nil
	case float64:
		return binary.LittleEndian.AppendUint64(append(b, vFloat64), math.Float64bits(x)), nil
	case string:
		return AppendString(append(b, vString), x), nil
	case []byte:
		return AppendBytes(append(b, vBytes), x), nil
	case []int:
		b = binary.AppendUvarint(append(b, vIntSlice), uint64(len(x)))
		for _, e := range x {
			b = binary.AppendVarint(b, int64(e))
		}
		return b, nil
	case []int64:
		b = binary.AppendUvarint(append(b, vInt64Slice), uint64(len(x)))
		for _, e := range x {
			b = binary.AppendVarint(b, e)
		}
		return b, nil
	case []float64:
		b = binary.AppendUvarint(append(b, vF64Slice), uint64(len(x)))
		for _, e := range x {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(e))
		}
		return b, nil
	case []string:
		b = binary.AppendUvarint(append(b, vStrSlice), uint64(len(x)))
		for _, e := range x {
			b = AppendString(b, e)
		}
		return b, nil
	case []any:
		b = binary.AppendUvarint(append(b, vAnySlice), uint64(len(x)))
		var err error
		for _, e := range x {
			if b, err = AppendValue(b, e); err != nil {
				return nil, err
			}
		}
		return b, nil
	case map[string]int:
		b = binary.AppendUvarint(append(b, vMapStrInt), uint64(len(x)))
		for _, k := range sortedKeys(x) {
			b = AppendString(b, k)
			b = binary.AppendVarint(b, int64(x[k]))
		}
		return b, nil
	case map[string]string:
		b = binary.AppendUvarint(append(b, vMapStrStr), uint64(len(x)))
		for _, k := range sortedKeys(x) {
			b = AppendString(b, k)
			b = AppendString(b, x[k])
		}
		return b, nil
	case map[string]any:
		b = binary.AppendUvarint(append(b, vMapStrAny), uint64(len(x)))
		var err error
		for _, k := range sortedKeys(x) {
			b = AppendString(b, k)
			if b, err = AppendValue(b, x[k]); err != nil {
				return nil, err
			}
		}
		return b, nil
	case gaddr.Addr:
		return binary.AppendUvarint(append(b, vAddr), uint64(x)), nil
	case gaddr.NodeID:
		return binary.AppendVarint(append(b, vNodeID), int64(x)), nil
	case []gaddr.Addr:
		b = binary.AppendUvarint(append(b, vAddrSlice), uint64(len(x)))
		for _, e := range x {
			b = binary.AppendUvarint(b, uint64(e))
		}
		return b, nil
	default:
		if rv := reflect.ValueOf(v); rv.Kind() == reflect.Struct {
			if nb, ok := appendStructValue(b, rv); ok {
				return nb, nil
			}
		}
		return appendGobValue(b, v)
	}
}

// sortedKeys returns m's keys in sorted order so map encodings are
// deterministic (the immutability write-detector compares encodings
// byte-for-byte).
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func appendGobValue(b []byte, v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&box{V: v}); err != nil {
		return nil, fmt.Errorf("wire: marshal %T: %w", v, err)
	}
	return AppendBytes(append(b, vGob), buf.Bytes()), nil
}

// DecodeValue consumes one value from the front of b. The returned value
// owns all of its memory (nothing aliases b), so b may be recycled as soon
// as decoding finishes.
func DecodeValue(b []byte) (any, []byte, error) {
	if len(b) == 0 {
		return nil, nil, ErrShortBuffer
	}
	tag, b := b[0], b[1:]
	switch tag {
	case vNil:
		return nil, b, nil
	case vFalse:
		return false, b, nil
	case vTrue:
		return true, b, nil
	case vInt, vInt8, vInt16, vInt32, vInt64:
		x, rest, err := ReadVarint(b)
		if err != nil {
			return nil, nil, err
		}
		switch tag {
		case vInt:
			return int(x), rest, nil
		case vInt8:
			return int8(x), rest, nil
		case vInt16:
			return int16(x), rest, nil
		case vInt32:
			return int32(x), rest, nil
		}
		return x, rest, nil
	case vUint, vUint8, vUint16, vUint32, vUint64:
		x, rest, err := ReadUvarint(b)
		if err != nil {
			return nil, nil, err
		}
		switch tag {
		case vUint:
			return uint(x), rest, nil
		case vUint8:
			return uint8(x), rest, nil
		case vUint16:
			return uint16(x), rest, nil
		case vUint32:
			return uint32(x), rest, nil
		}
		return x, rest, nil
	case vFloat32:
		if len(b) < 4 {
			return nil, nil, ErrShortBuffer
		}
		return math.Float32frombits(binary.LittleEndian.Uint32(b)), b[4:], nil
	case vFloat64:
		if len(b) < 8 {
			return nil, nil, ErrShortBuffer
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(b)), b[8:], nil
	case vString:
		return decodeString(b)
	case vBytes:
		p, rest, err := ReadBytes(b)
		if err != nil {
			return nil, nil, err
		}
		if len(p) == 0 {
			// Match gob's historical behavior: empty decodes as nil.
			return []byte(nil), rest, nil
		}
		cp := make([]byte, len(p))
		copy(cp, p)
		return cp, rest, nil
	case vIntSlice:
		n, rest, err := readLen(b)
		if err != nil {
			return nil, nil, err
		}
		out := make([]int, n)
		for i := range out {
			var x int64
			if x, rest, err = ReadVarint(rest); err != nil {
				return nil, nil, err
			}
			out[i] = int(x)
		}
		return out, rest, nil
	case vInt64Slice:
		n, rest, err := readLen(b)
		if err != nil {
			return nil, nil, err
		}
		out := make([]int64, n)
		for i := range out {
			if out[i], rest, err = ReadVarint(rest); err != nil {
				return nil, nil, err
			}
		}
		return out, rest, nil
	case vF64Slice:
		n, rest, err := readLen(b)
		if err != nil {
			return nil, nil, err
		}
		if n*8 > len(rest) {
			return nil, nil, ErrShortBuffer
		}
		out := make([]float64, n)
		for i := range out {
			out[i] = math.Float64frombits(binary.LittleEndian.Uint64(rest[i*8:]))
		}
		return out, rest[n*8:], nil
	case vStrSlice:
		n, rest, err := readLen(b)
		if err != nil {
			return nil, nil, err
		}
		out := make([]string, n)
		for i := range out {
			if out[i], rest, err = ReadString(rest); err != nil {
				return nil, nil, err
			}
		}
		return out, rest, nil
	case vAnySlice:
		n, rest, err := readLen(b)
		if err != nil {
			return nil, nil, err
		}
		out := make([]any, n)
		for i := range out {
			if out[i], rest, err = DecodeValue(rest); err != nil {
				return nil, nil, err
			}
		}
		return out, rest, nil
	case vMapStrInt:
		n, rest, err := readLen(b)
		if err != nil {
			return nil, nil, err
		}
		out := make(map[string]int, n)
		for i := 0; i < n; i++ {
			var k string
			var x int64
			if k, rest, err = ReadString(rest); err != nil {
				return nil, nil, err
			}
			if x, rest, err = ReadVarint(rest); err != nil {
				return nil, nil, err
			}
			out[k] = int(x)
		}
		return out, rest, nil
	case vMapStrStr:
		n, rest, err := readLen(b)
		if err != nil {
			return nil, nil, err
		}
		out := make(map[string]string, n)
		for i := 0; i < n; i++ {
			var k, v string
			if k, rest, err = ReadString(rest); err != nil {
				return nil, nil, err
			}
			if v, rest, err = ReadString(rest); err != nil {
				return nil, nil, err
			}
			out[k] = v
		}
		return out, rest, nil
	case vMapStrAny:
		n, rest, err := readLen(b)
		if err != nil {
			return nil, nil, err
		}
		out := make(map[string]any, n)
		for i := 0; i < n; i++ {
			var k string
			var v any
			if k, rest, err = ReadString(rest); err != nil {
				return nil, nil, err
			}
			if v, rest, err = DecodeValue(rest); err != nil {
				return nil, nil, err
			}
			out[k] = v
		}
		return out, rest, nil
	case vAddr:
		x, rest, err := ReadUvarint(b)
		if err != nil {
			return nil, nil, err
		}
		return gaddr.Addr(x), rest, nil
	case vNodeID:
		x, rest, err := ReadVarint(b)
		if err != nil {
			return nil, nil, err
		}
		return gaddr.NodeID(x), rest, nil
	case vAddrSlice:
		n, rest, err := readLen(b)
		if err != nil {
			return nil, nil, err
		}
		out := make([]gaddr.Addr, n)
		for i := range out {
			var x uint64
			if x, rest, err = ReadUvarint(rest); err != nil {
				return nil, nil, err
			}
			out[i] = gaddr.Addr(x)
		}
		return out, rest, nil
	case vGob:
		p, rest, err := ReadBytes(b)
		if err != nil {
			return nil, nil, err
		}
		var bx box
		if err := gob.NewDecoder(bytes.NewReader(p)).Decode(&bx); err != nil {
			return nil, nil, fmt.Errorf("wire: unmarshal: %w", err)
		}
		return bx.V, rest, nil
	case vStruct:
		return decodeStructValue(b)
	default:
		return nil, nil, fmt.Errorf("wire: unknown value tag %#x", tag)
	}
}

func decodeString(b []byte) (any, []byte, error) {
	s, rest, err := ReadString(b)
	if err != nil {
		return nil, nil, err
	}
	return s, rest, nil
}

// readLen reads a uvarint element count and sanity-checks it against the
// bytes remaining, so hostile input cannot trigger huge allocations (every
// element takes at least one byte).
func readLen(b []byte) (int, []byte, error) {
	n, rest, err := ReadUvarint(b)
	if err != nil {
		return 0, nil, err
	}
	if n > uint64(len(rest)) {
		return 0, nil, ErrShortBuffer
	}
	return int(n), rest, nil
}

// AppendArgs appends an argument (or result) vector.
func AppendArgs(b []byte, args []any) ([]byte, error) {
	b = binary.AppendUvarint(append(b, vArgs), uint64(len(args)))
	var err error
	for _, a := range args {
		if b, err = AppendValue(b, a); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// DecodeArgs consumes an argument vector from the front of b.
func DecodeArgs(b []byte) ([]any, []byte, error) {
	return DecodeArgsInto(nil, b)
}

// DecodeArgsInto consumes an argument vector from the front of b, decoding
// into dst's backing array when the vector fits in cap(dst) and allocating a
// fresh slice otherwise. The decoded values own their memory either way; only
// the vector itself aliases dst.
func DecodeArgsInto(dst []any, b []byte) ([]any, []byte, error) {
	if len(b) == 0 {
		return nil, nil, ErrShortBuffer
	}
	if b[0] != vArgs {
		return nil, nil, fmt.Errorf("wire: not an argument vector (tag %#x)", b[0])
	}
	n, rest, err := readLen(b[1:])
	if err != nil {
		return nil, nil, err
	}
	if n == 0 {
		return nil, rest, nil
	}
	var out []any
	if n <= cap(dst) {
		out = dst[:n]
	} else {
		out = make([]any, n)
	}
	for i := range out {
		if out[i], rest, err = DecodeValue(rest); err != nil {
			return nil, nil, err
		}
	}
	return out, rest, nil
}
