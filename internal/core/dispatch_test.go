package core

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"amber/internal/gaddr"
	"amber/internal/wire"
)

// --- conformance fixtures ---

// DispShapes exercises every shape family in the trampoline corpus plus the
// shapes deliberately outside it. Methods are pure functions of their
// arguments (except Bump) so the trampoline and reflective tiers can be
// compared on separate instances.
type DispShapes struct {
	N int64
}

// Arity 0.
func (d *DispShapes) Void()                     {}
func (d *DispShapes) VoidErr() error            { return errors.New("void says no") }
func (d *DispShapes) CtxVoid(c *Ctx)            {}
func (d *DispShapes) CtxVoidErr(c *Ctx) error   { return nil }
func (d *DispShapes) GetInt() int               { return 42 }
func (d *DispShapes) GetI64() int64             { return -7 }
func (d *DispShapes) GetU64() uint64            { return 9 }
func (d *DispShapes) GetF64() float64           { return 2.5 }
func (d *DispShapes) GetStr() string            { return "s" }
func (d *DispShapes) GetBool() bool             { return true }
func (d *DispShapes) GetBytes() []byte          { return []byte{1, 2} }
func (d *DispShapes) GetAddr() gaddr.Addr       { return gaddr.Addr(99) }
func (d *DispShapes) GetIntErr() (int, error)   { return 5, errors.New("with result") }
func (d *DispShapes) CtxInt(c *Ctx) int         { return 11 }
func (d *DispShapes) CtxIntErr(c *Ctx) (int, error) { return 12, nil }

// Arity 1, per scalar.
func (d *DispShapes) EchoInt(x int) int             { return x }
func (d *DispShapes) EchoI64(x int64) int64         { return x }
func (d *DispShapes) EchoU64(x uint64) uint64       { return x }
func (d *DispShapes) EchoF64(x float64) float64     { return x * 2 }
func (d *DispShapes) EchoStr(x string) string       { return x + "!" }
func (d *DispShapes) EchoBool(x bool) bool          { return !x }
func (d *DispShapes) EchoBytes(x []byte) []byte     { return x }
func (d *DispShapes) EchoAddr(x gaddr.Addr) gaddr.Addr { return x + 1 }
func (d *DispShapes) EchoIntErr(x int) (int, error) {
	if x < 0 {
		return x, errors.New("negative")
	}
	return x, nil
}
func (d *DispShapes) CtxEchoInt(c *Ctx, x int) int { return x + 1 }
func (d *DispShapes) SinkInt(x int)                {}
func (d *DispShapes) SinkErr(x int) error {
	if x == 0 {
		return errors.New("zero")
	}
	return nil
}

// Arity 2–4.
func (d *DispShapes) Add2(a, b int) int                 { return a + b }
func (d *DispShapes) Cat2(a, b string) string           { return a + b }
func (d *DispShapes) Add2F(a, b float64) float64        { return a + b }
func (d *DispShapes) Add2Err(a, b int) (int, error)     { return a + b, nil }
func (d *DispShapes) CtxAdd2(c *Ctx, a, b int) int      { return a + b }
func (d *DispShapes) Sum3(a, b, c int) int              { return a + b + c }
func (d *DispShapes) Sum3F(a, b, c float64) float64     { return a + b + c }
func (d *DispShapes) Mix3(a, b, c int) float64          { return float64(a+b+c) / 2 }
func (d *DispShapes) Sum4(a, b, c, e int) int           { return a + b + c + e }
func (d *DispShapes) Sum4Err(a, b, c, e int) (int, error) { return a + b + c + e, nil }

// Mutating + panicking.
func (d *DispShapes) Bump() int64 { return atomic.AddInt64(&d.N, 1) }
func (d *DispShapes) Blow(tag string) string {
	panic("blow: " + tag)
}

// Outside the corpus: these must fall back to the reflective plan at
// registration time.
func (d *DispShapes) TakesMap(m map[string]int) int       { return len(m) }
func (d *DispShapes) TakesSliceInt(xs []int) int          { return len(xs) }
func (d *DispShapes) Hetero3(a int, b string, c int) int  { return a + len(b) + c }
func (d *DispShapes) Sum5(a, b, c, e, f int) int          { return a + b + c + e + f }
func (d *DispShapes) TakesIface(s fmt.Stringer) string    { return s.String() }
func (d *DispShapes) GivesIface() fmt.Stringer            { return Name{S: "x"} }

// Name is a concrete wire-transmissible type implementing fmt.Stringer, for
// the interface-parameter regression tests.
type Name struct{ S string }

func (n Name) String() string { return n.S }

// dispTier is one side of the parity comparison: a registry (with or without
// trampolines), the compiled typeInfo, and a live payload.
type dispTier struct {
	ti *typeInfo
	p  payload
}

func newDispTier(t *testing.T, noTramp bool) *dispTier {
	t.Helper()
	r := NewRegistry()
	r.noTramp = noTramp
	if err := r.Register(&DispShapes{}); err != nil {
		t.Fatal(err)
	}
	ti, err := r.lookupValue(&DispShapes{})
	if err != nil {
		t.Fatal(err)
	}
	return &dispTier{ti: ti, p: newPayload(reflect.ValueOf(&DispShapes{}), ti)}
}

func (dt *dispTier) invoke(t *testing.T, method string, args ...any) ([]any, error) {
	t.Helper()
	mi, err := dt.ti.method(method)
	if err != nil {
		t.Fatalf("method %s: %v", method, err)
	}
	return dt.p.call(mi, nil, args)
}

// errHead strips the stack trace from a panic error so the two tiers can be
// compared on the stable part of the message.
func errHead(err error) string {
	if err == nil {
		return ""
	}
	s := err.Error()
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	return s
}

// TestDispatchParity runs every corpus shape — plus coercions, nil arguments,
// arity and type errors, and panics — through the trampoline tier and the
// reflective plan, asserting identical observable results. This is the
// contract that lets the dispatcher pick a tier freely.
func TestDispatchParity(t *testing.T) {
	tramp := newDispTier(t, false)
	refl := newDispTier(t, true)

	cases := []struct {
		method string
		args   []any
	}{
		{"Void", nil},
		{"VoidErr", nil},
		{"CtxVoid", nil},
		{"CtxVoidErr", nil},
		{"GetInt", nil},
		{"GetI64", nil},
		{"GetU64", nil},
		{"GetF64", nil},
		{"GetStr", nil},
		{"GetBool", nil},
		{"GetBytes", nil},
		{"GetAddr", nil},
		{"GetIntErr", nil},
		{"CtxInt", nil},
		{"CtxIntErr", nil},
		{"EchoInt", []any{3}},
		{"EchoI64", []any{int64(-4)}},
		{"EchoU64", []any{uint64(8)}},
		{"EchoF64", []any{1.5}},
		{"EchoStr", []any{"hey"}},
		{"EchoBool", []any{true}},
		{"EchoBytes", []any{[]byte{9}}},
		{"EchoAddr", []any{gaddr.Addr(5)}},
		{"EchoIntErr", []any{6}},
		{"EchoIntErr", []any{-6}}, // user error with populated result
		{"CtxEchoInt", []any{10}},
		{"SinkInt", []any{1}},
		{"SinkErr", []any{0}},
		{"SinkErr", []any{1}},
		{"Add2", []any{2, 3}},
		{"Cat2", []any{"a", "b"}},
		{"Add2F", []any{0.5, 0.25}},
		{"Add2Err", []any{4, 5}},
		{"CtxAdd2", []any{1, 2}},
		{"Sum3", []any{1, 2, 3}},
		{"Sum3F", []any{1.0, 2.0, 3.5}},
		{"Mix3", []any{1, 2, 4}},
		{"Sum4", []any{1, 2, 3, 4}},
		{"Sum4Err", []any{1, 2, 3, 4}},
		// Numeric coercion: the trampoline's exact assert misses and the
		// reflective plan converts — identical results either way.
		{"EchoF64", []any{2}},
		{"Add2F", []any{1, 2}},
		{"EchoI64", []any{7}},
		// nil for a nilable parameter: zero slice via the reflective plan.
		{"EchoBytes", []any{nil}},
		{"TakesSliceInt", []any{nil}},
		// Arity and type errors: canonical ErrBadArgument from the plan.
		{"EchoInt", []any{1, 2}},
		{"EchoInt", []any{"not an int"}},
		{"Add2", nil},
		{"SinkInt", []any{nil}},
		// Outside the corpus entirely.
		{"TakesMap", []any{map[string]int{"a": 1}}},
		{"Hetero3", []any{1, "xy", 3}},
		{"Sum5", []any{1, 2, 3, 4, 5}},
		// Panics carry the user stack in both tiers.
		{"Blow", []any{"parity"}},
	}

	for _, tc := range cases {
		name := fmt.Sprintf("%s(%v)", tc.method, tc.args)
		resT, errT := tramp.invoke(t, tc.method, tc.args...)
		resR, errR := refl.invoke(t, tc.method, tc.args...)
		if (errT == nil) != (errR == nil) {
			t.Errorf("%s: error mismatch: tramp=%v refl=%v", name, errT, errR)
			continue
		}
		if errHead(errT) != errHead(errR) {
			t.Errorf("%s: error text mismatch:\n  tramp: %s\n  refl:  %s",
				name, errHead(errT), errHead(errR))
		}
		if errT != nil && strings.HasPrefix(errHead(errT), "amber: panic in") {
			for side, e := range map[string]error{"tramp": errT, "refl": errR} {
				if !strings.Contains(e.Error(), "goroutine") {
					t.Errorf("%s: %s panic error lacks a stack trace", name, side)
				}
			}
		}
		if !reflect.DeepEqual(resT, resR) {
			t.Errorf("%s: result mismatch:\n  tramp: %#v\n  refl:  %#v", name, resT, resR)
		}
	}
}

// TestDispatchTrampolineBinding asserts which signatures actually bound a
// trampoline at registration: every corpus shape did, and everything outside
// the corpus — wrong arity, heterogeneous argument lists, container and
// interface parameters or results — cleanly fell back (mi.tramp == nil), at
// registration time rather than per call.
func TestDispatchTrampolineBinding(t *testing.T) {
	tramp := newDispTier(t, false)
	bound := []string{
		"Void", "VoidErr", "CtxVoid", "CtxVoidErr",
		"GetInt", "GetI64", "GetU64", "GetF64", "GetStr", "GetBool",
		"GetBytes", "GetAddr", "GetIntErr", "CtxInt", "CtxIntErr",
		"EchoInt", "EchoI64", "EchoU64", "EchoF64", "EchoStr", "EchoBool",
		"EchoBytes", "EchoAddr", "EchoIntErr", "CtxEchoInt", "SinkInt",
		"SinkErr", "Add2", "Cat2", "Add2F", "Add2Err", "CtxAdd2",
		"Sum3", "Sum3F", "Mix3", "Sum4", "Sum4Err", "Bump", "Blow",
	}
	unbound := []string{
		"TakesMap", "TakesSliceInt", "Hetero3", "Sum5", "TakesIface", "GivesIface",
	}
	for _, m := range bound {
		mi, err := tramp.ti.method(m)
		if err != nil {
			t.Fatal(err)
		}
		if mi.tramp == nil {
			t.Errorf("%s: expected a trampoline, got reflective fallback", m)
		}
	}
	for _, m := range unbound {
		mi, err := tramp.ti.method(m)
		if err != nil {
			t.Fatal(err)
		}
		if mi.tramp != nil {
			t.Errorf("%s: bound a trampoline for an out-of-corpus signature", m)
		}
	}
	// The noTramp hook really disables binding.
	refl := newDispTier(t, true)
	for _, m := range bound {
		if mi, _ := refl.ti.method(m); mi.tramp != nil {
			t.Errorf("%s: noTramp registry bound a trampoline", m)
		}
	}
}

// TestDispatchParityConcurrent hammers both tiers from many goroutines so the
// race detector can see the direct-call path and the shared trampoline
// closures under contention.
func TestDispatchParityConcurrent(t *testing.T) {
	tramp := newDispTier(t, false)
	refl := newDispTier(t, true)
	const workers = 8
	const iters = 300
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				for _, dt := range []*dispTier{tramp, refl} {
					if out, err := dt.invoke(t, "Add2", w, i); err != nil || out[0].(int) != w+i {
						t.Errorf("Add2(%d,%d) = %v, %v", w, i, out, err)
						return
					}
					if _, err := dt.invoke(t, "Bump"); err != nil {
						t.Errorf("Bump: %v", err)
						return
					}
					// Coercion miss → reflective fallback, concurrently.
					if out, err := dt.invoke(t, "EchoF64", i); err != nil || out[0].(float64) != float64(2*i) {
						t.Errorf("EchoF64(%d) = %v, %v", i, out, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	want := int64(workers * iters)
	if n := atomic.LoadInt64(&tramp.p.obj.Interface().(*DispShapes).N); n != want {
		t.Errorf("trampoline Bump count = %d, want %d", n, want)
	}
	if n := atomic.LoadInt64(&refl.p.obj.Interface().(*DispShapes).N); n != want {
		t.Errorf("reflective Bump count = %d, want %d", n, want)
	}
}

// TestInvokePanicCarriesStack asserts the satellite-1 contract end to end: a
// panic inside user code surfaces to a caller on another node as an error
// containing the panic value and the executing goroutine's stack.
func TestInvokePanicCarriesStack(t *testing.T) {
	cl := newTestCluster(t, 2, 1)
	ref, err := cl.Node(1).Root().New(&Counter{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = cl.Node(0).Root().Invoke(ref, "Boom")
	if err == nil {
		t.Fatal("panicking operation returned nil error")
	}
	for _, want := range []string{"amber: panic in Boom", "boom", "goroutine"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("panic error lacks %q:\n%s", want, err)
		}
	}
}

// TestInterfaceParamAcrossNodes is the satellite-6 regression: a method with
// an interface parameter must never bind a trampoline (exact type asserts
// cannot reproduce coerce's implements-check), and invoking it across nodes
// with a concrete wire-registered argument must keep working through the
// reflective plan.
func TestInterfaceParamAcrossNodes(t *testing.T) {
	wire.Register(Name{})
	cl := newTestCluster(t, 2, 1)
	if err := cl.Register(&DispShapes{}); err != nil {
		t.Fatal(err)
	}
	ti, err := cl.Node(0).Registry().lookupValue(&DispShapes{})
	if err != nil {
		t.Fatal(err)
	}
	mi, err := ti.method("TakesIface")
	if err != nil {
		t.Fatal(err)
	}
	if mi.tramp != nil {
		t.Fatal("interface-parameter method bound a trampoline")
	}
	ref, err := cl.Node(1).Root().New(&DispShapes{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := cl.Node(0).Root().Invoke(ref, "TakesIface", Name{S: "over the wire"})
	if err != nil {
		t.Fatal(err)
	}
	if out[0].(string) != "over the wire" {
		t.Fatalf("TakesIface = %v", out)
	}
	// Local path takes the same reflective plan.
	out, err = cl.Node(1).Root().Invoke(ref, "TakesIface", Name{S: "local"})
	if err != nil || out[0].(string) != "local" {
		t.Fatalf("local TakesIface = %v, %v", out, err)
	}
}

// TestAmberDispatchTier exercises the self-dispatch tier: handled methods run
// through Dispatch (observable via the class's own counter), unhandled ones
// fall back to the reflective plan via ErrNotDispatched, Dispatch panics are
// recovered, and the Dispatch method itself is not an operation.
func TestAmberDispatchTier(t *testing.T) {
	cl := newTestCluster(t, 1, 1)
	if err := cl.Register(&SelfServed{}); err != nil {
		t.Fatal(err)
	}
	ref, err := cl.Node(0).Root().New(&SelfServed{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := cl.Node(0).Root()
	out, err := ctx.Invoke(ref, "Poke", 5)
	if err != nil || out[0].(int) != 5 {
		t.Fatalf("Poke = %v, %v", out, err)
	}
	// Fallback method: not handled by Dispatch, served reflectively.
	out, err = ctx.Invoke(ref, "Reflected")
	if err != nil || out[0].(string) != "reflected" {
		t.Fatalf("Reflected = %v, %v", out, err)
	}
	// The switch really ran for Poke but not for Reflected.
	out, err = ctx.Invoke(ref, "Dispatched")
	if err != nil || out[0].(int) != 2 { // Poke + Dispatched itself
		t.Fatalf("Dispatched = %v, %v", out, err)
	}
	// Dispatch panics are recovered like any user panic.
	_, err = ctx.Invoke(ref, "Angry")
	if err == nil || !strings.Contains(err.Error(), "amber: panic in Angry") {
		t.Fatalf("Angry = %v", err)
	}
	// Dispatch itself is plumbing, not an operation.
	if _, err = ctx.Invoke(ref, "Dispatch", "x", []any(nil)); !errors.Is(err, ErrUnknownMethod) {
		t.Fatalf("Dispatch as an operation = %v", err)
	}
	// Unknown methods still fail before Dispatch is consulted.
	if _, err = ctx.Invoke(ref, "Nope"); !errors.Is(err, ErrUnknownMethod) {
		t.Fatalf("unknown method = %v", err)
	}
}

// SelfServed implements AmberDispatch for a subset of its operations.
type SelfServed struct {
	Hits int
}

func (s *SelfServed) Poke(x int) int     { return x }
func (s *SelfServed) Dispatched() int    { return s.Hits }
func (s *SelfServed) Reflected() string  { return "reflected" }
func (s *SelfServed) Angry()             {}

func (s *SelfServed) Dispatch(c *Ctx, method string, args []any) ([]any, error) {
	switch method {
	case "Poke":
		s.Hits++
		x, ok := args[0].(int)
		if !ok {
			return nil, ErrNotDispatched
		}
		return []any{x}, nil
	case "Dispatched":
		s.Hits++
		return []any{s.Hits}, nil
	case "Angry":
		panic("dispatch tantrum")
	default:
		return nil, ErrNotDispatched
	}
}
