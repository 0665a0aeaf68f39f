package core

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"unsafe"

	"amber/internal/gaddr"
)

// This file is the compiled-dispatch layer: everything the registry can
// decide once at Register time instead of on every call. Three tiers, fastest
// first:
//
//  1. AmberDispatch — the class routes its own operations with a hand-written
//     switch; the runtime only supplies recovery and the operation table.
//  2. Typed trampolines — at registration the method's receiver-stripped
//     signature is looked up in a corpus of common concrete shapes and the
//     unbound Method(i).Func is reinterpreted as the same function with an
//     unsafe.Pointer receiver (see erasedFunc), yielding a direct call: no
//     reflect.Call, no argument frame, no method value, no per-object state.
//  3. The compiled reflective plan — methodInfo.call with the unbound func
//     cached, per-parameter coercers precompiled, and the []reflect.Value
//     frame drawn from a per-P free list.
//
// Tiers fall through: a Dispatch implementation returns ErrNotDispatched for
// operations it does not handle, and a trampoline returns errTrampMiss when
// the live arguments need coercion (nil for a slice parameter, an int literal
// for a float64 parameter) — both land on the reflective plan, which is the
// semantic reference. The conformance suite in dispatch_test.go holds the
// tiers to identical observable behavior.

// trampFn is one compiled method entry point: a direct-call closure taking
// the receiver as an untyped pointer, shared by every object of the class.
type trampFn func(recv unsafe.Pointer, c *Ctx, args []any) ([]any, error)

// trampBind produces a method's trampFn from its compiled plan (mi.fn holds
// the unbound func). Selected by corpus lookup and executed once, at
// registration.
type trampBind func(mi *methodInfo) trampFn

// errTrampMiss is returned by a trampoline whose type asserts did not match
// the live arguments; the dispatcher falls back to the reflective plan, whose
// compiled coercers implement the lenient conversion rules. Never escapes to
// users.
var errTrampMiss = errors.New("amber: trampoline miss")

// ErrNotDispatched is returned by an AmberDispatch implementation for a
// method it does not handle; the runtime falls back to the compiled
// reflective plan for that call. Must be returned directly or wrapped so
// errors.Is matches.
var ErrNotDispatched = errors.New("amber: not dispatched")

// AmberDispatch is the opt-in self-dispatch interface: a registered class
// implementing it routes invocations itself — typically a switch on method
// with direct type asserts — bypassing both reflection and the trampoline
// corpus. The runtime still consults the operation table first (unknown
// methods fail with ErrUnknownMethod and read-only classification still
// comes from AmberReadOnly), still recovers panics, and still applies the
// coherence lock; Dispatch replaces only the call itself.
//
// Contract: args is scratch owned by the runtime — on the remote-execution
// path it is a pooled vector reused after the call returns, so an
// implementation must copy the slice (not the values) if it retains it.
// Return ErrNotDispatched for methods the switch does not cover; the
// reflective plan (with its nil- and numeric-coercion rules) handles them.
type AmberDispatch interface {
	Dispatch(c *Ctx, method string, args []any) ([]any, error)
}

// emptyResults is the shared result vector for void operations, so the
// trampoline path stays allocation-free for them. Callers never mutate
// result slices they receive.
var emptyResults = []any{}

// panicError converts a recovered panic from user code into an error carrying
// the goroutine stack at recovery time, so a panic that surfaces on a remote
// caller's node is diagnosable without logs from the executing node.
func panicError(name string, p any) error {
	buf := make([]byte, 16<<10)
	n := runtime.Stack(buf, false)
	return fmt.Errorf("amber: panic in %s: %v\n%s", name, p, buf[:n])
}

// trampRecover is the shared deferred recovery for trampolines and Dispatch
// implementations, mirroring methodInfo.call's.
func trampRecover(mi *methodInfo, res *[]any, err *error) {
	if p := recover(); p != nil {
		*res, *err = nil, panicError(mi.name, p)
	}
}

// erasedFunc reinterprets the unbound method func held by fn — concretely a
// func(*T, params...) results — as F, the same signature with the receiver
// typed unsafe.Pointer. The two are ABI-identical (a receiver is just a
// pointer-class first argument), and a func value is a single word (the
// *funcval), so copying that word under a new func type yields a value whose
// calls jump straight to the method's entry point: a true direct call, where
// a reflect-made method value would route through reflect's methodValueCall
// machinery on every invocation. The registration-time corpus lookup is what
// guarantees the remaining parameter and result types match exactly.
func erasedFunc[F any](fn reflect.Value) F {
	fnAny := fn.Interface()
	type ifaceWords struct{ typ, data unsafe.Pointer }
	w := (*ifaceWords)(unsafe.Pointer(&fnAny))
	var f F
	*(*unsafe.Pointer)(unsafe.Pointer(&f)) = w.data
	return f
}

// --- the trampoline corpus -------------------------------------------------
//
// corpus maps a receiver-stripped method signature (reflect.FuncOf over the
// method's ins after the receiver, and its outs) to the binder that produces
// the direct-call closure. Populated once at init over the cross product of
// common shapes: ctx/no-ctx × error/no-error × arity ≤ 4 over the wire
// scalar set (int, int64, uint64, float64, string, bool, []byte, gaddr.Addr).
// Arities 0 and 1 carry the full argument×result cross; arities 2–4 are
// homogeneous in their arguments (the overwhelmingly common shape for worker
// math like ComputeColorRange(color, from, to int)). Everything else takes
// the reflective plan — a fallback, not a failure.

var corpus = map[reflect.Type]trampBind{}

// addTramp registers the binder for shape F, which must be a func type whose
// first parameter is the unsafe.Pointer receiver; the corpus key is F with
// that receiver stripped, i.e. exactly the shape register() derives from a
// user method.
func addTramp[F any](bind func(f F, mi *methodInfo) trampFn) {
	ft := reflect.TypeOf((*F)(nil)).Elem()
	ins := make([]reflect.Type, 0, ft.NumIn()-1)
	for i := 1; i < ft.NumIn(); i++ {
		ins = append(ins, ft.In(i))
	}
	outs := make([]reflect.Type, ft.NumOut())
	for i := range outs {
		outs[i] = ft.Out(i)
	}
	key := reflect.FuncOf(ins, outs, false)
	if _, dup := corpus[key]; dup {
		return // shape already covered (homogeneous helpers overlap)
	}
	corpus[key] = func(mi *methodInfo) trampFn {
		f := erasedFunc[F](mi.fn)
		return bind(f, mi)
	}
}

// Arity 0, no result.
func regVoid() {
	addTramp(func(f func(unsafe.Pointer), mi *methodInfo) trampFn {
		return func(recv unsafe.Pointer, c *Ctx, args []any) (res []any, err error) {
			if len(args) != 0 {
				return nil, errTrampMiss
			}
			defer trampRecover(mi, &res, &err)
			f(recv)
			return emptyResults, nil
		}
	})
	addTramp(func(f func(unsafe.Pointer) error, mi *methodInfo) trampFn {
		return func(recv unsafe.Pointer, c *Ctx, args []any) (res []any, err error) {
			if len(args) != 0 {
				return nil, errTrampMiss
			}
			defer trampRecover(mi, &res, &err)
			return emptyResults, f(recv)
		}
	})
	addTramp(func(f func(unsafe.Pointer, *Ctx), mi *methodInfo) trampFn {
		return func(recv unsafe.Pointer, c *Ctx, args []any) (res []any, err error) {
			if len(args) != 0 {
				return nil, errTrampMiss
			}
			defer trampRecover(mi, &res, &err)
			f(recv, c)
			return emptyResults, nil
		}
	})
	addTramp(func(f func(unsafe.Pointer, *Ctx) error, mi *methodInfo) trampFn {
		return func(recv unsafe.Pointer, c *Ctx, args []any) (res []any, err error) {
			if len(args) != 0 {
				return nil, errTrampMiss
			}
			defer trampRecover(mi, &res, &err)
			return emptyResults, f(recv, c)
		}
	})
}

// Arity 0, one result.
func regR[R any]() {
	addTramp(func(f func(unsafe.Pointer) R, mi *methodInfo) trampFn {
		return func(recv unsafe.Pointer, c *Ctx, args []any) (res []any, err error) {
			if len(args) != 0 {
				return nil, errTrampMiss
			}
			defer trampRecover(mi, &res, &err)
			return []any{f(recv)}, nil
		}
	})
	addTramp(func(f func(unsafe.Pointer) (R, error), mi *methodInfo) trampFn {
		return func(recv unsafe.Pointer, c *Ctx, args []any) (res []any, err error) {
			if len(args) != 0 {
				return nil, errTrampMiss
			}
			defer trampRecover(mi, &res, &err)
			r, e := f(recv)
			return []any{r}, e
		}
	})
	addTramp(func(f func(unsafe.Pointer, *Ctx) R, mi *methodInfo) trampFn {
		return func(recv unsafe.Pointer, c *Ctx, args []any) (res []any, err error) {
			if len(args) != 0 {
				return nil, errTrampMiss
			}
			defer trampRecover(mi, &res, &err)
			return []any{f(recv, c)}, nil
		}
	})
	addTramp(func(f func(unsafe.Pointer, *Ctx) (R, error), mi *methodInfo) trampFn {
		return func(recv unsafe.Pointer, c *Ctx, args []any) (res []any, err error) {
			if len(args) != 0 {
				return nil, errTrampMiss
			}
			defer trampRecover(mi, &res, &err)
			r, e := f(recv, c)
			return []any{r}, e
		}
	})
}

// Arity 1, no result.
func regA[A any]() {
	addTramp(func(f func(unsafe.Pointer, A), mi *methodInfo) trampFn {
		return func(recv unsafe.Pointer, c *Ctx, args []any) (res []any, err error) {
			if len(args) != 1 {
				return nil, errTrampMiss
			}
			a, ok := args[0].(A)
			if !ok {
				return nil, errTrampMiss
			}
			defer trampRecover(mi, &res, &err)
			f(recv, a)
			return emptyResults, nil
		}
	})
	addTramp(func(f func(unsafe.Pointer, A) error, mi *methodInfo) trampFn {
		return func(recv unsafe.Pointer, c *Ctx, args []any) (res []any, err error) {
			if len(args) != 1 {
				return nil, errTrampMiss
			}
			a, ok := args[0].(A)
			if !ok {
				return nil, errTrampMiss
			}
			defer trampRecover(mi, &res, &err)
			return emptyResults, f(recv, a)
		}
	})
	addTramp(func(f func(unsafe.Pointer, *Ctx, A), mi *methodInfo) trampFn {
		return func(recv unsafe.Pointer, c *Ctx, args []any) (res []any, err error) {
			if len(args) != 1 {
				return nil, errTrampMiss
			}
			a, ok := args[0].(A)
			if !ok {
				return nil, errTrampMiss
			}
			defer trampRecover(mi, &res, &err)
			f(recv, c, a)
			return emptyResults, nil
		}
	})
	addTramp(func(f func(unsafe.Pointer, *Ctx, A) error, mi *methodInfo) trampFn {
		return func(recv unsafe.Pointer, c *Ctx, args []any) (res []any, err error) {
			if len(args) != 1 {
				return nil, errTrampMiss
			}
			a, ok := args[0].(A)
			if !ok {
				return nil, errTrampMiss
			}
			defer trampRecover(mi, &res, &err)
			return emptyResults, f(recv, c, a)
		}
	})
}

// Arity 1, one result.
func regAR[A, R any]() {
	addTramp(func(f func(unsafe.Pointer, A) R, mi *methodInfo) trampFn {
		return func(recv unsafe.Pointer, c *Ctx, args []any) (res []any, err error) {
			if len(args) != 1 {
				return nil, errTrampMiss
			}
			a, ok := args[0].(A)
			if !ok {
				return nil, errTrampMiss
			}
			defer trampRecover(mi, &res, &err)
			return []any{f(recv, a)}, nil
		}
	})
	addTramp(func(f func(unsafe.Pointer, A) (R, error), mi *methodInfo) trampFn {
		return func(recv unsafe.Pointer, c *Ctx, args []any) (res []any, err error) {
			if len(args) != 1 {
				return nil, errTrampMiss
			}
			a, ok := args[0].(A)
			if !ok {
				return nil, errTrampMiss
			}
			defer trampRecover(mi, &res, &err)
			r, e := f(recv, a)
			return []any{r}, e
		}
	})
	addTramp(func(f func(unsafe.Pointer, *Ctx, A) R, mi *methodInfo) trampFn {
		return func(recv unsafe.Pointer, c *Ctx, args []any) (res []any, err error) {
			if len(args) != 1 {
				return nil, errTrampMiss
			}
			a, ok := args[0].(A)
			if !ok {
				return nil, errTrampMiss
			}
			defer trampRecover(mi, &res, &err)
			return []any{f(recv, c, a)}, nil
		}
	})
	addTramp(func(f func(unsafe.Pointer, *Ctx, A) (R, error), mi *methodInfo) trampFn {
		return func(recv unsafe.Pointer, c *Ctx, args []any) (res []any, err error) {
			if len(args) != 1 {
				return nil, errTrampMiss
			}
			a, ok := args[0].(A)
			if !ok {
				return nil, errTrampMiss
			}
			defer trampRecover(mi, &res, &err)
			r, e := f(recv, c, a)
			return []any{r}, e
		}
	})
}

// Arity 2, no result.
func regAB[A, B any]() {
	addTramp(func(f func(unsafe.Pointer, A, B), mi *methodInfo) trampFn {
		return func(recv unsafe.Pointer, c *Ctx, args []any) (res []any, err error) {
			a, b, ok := args2[A, B](args)
			if !ok {
				return nil, errTrampMiss
			}
			defer trampRecover(mi, &res, &err)
			f(recv, a, b)
			return emptyResults, nil
		}
	})
	addTramp(func(f func(unsafe.Pointer, A, B) error, mi *methodInfo) trampFn {
		return func(recv unsafe.Pointer, c *Ctx, args []any) (res []any, err error) {
			a, b, ok := args2[A, B](args)
			if !ok {
				return nil, errTrampMiss
			}
			defer trampRecover(mi, &res, &err)
			return emptyResults, f(recv, a, b)
		}
	})
	addTramp(func(f func(unsafe.Pointer, *Ctx, A, B), mi *methodInfo) trampFn {
		return func(recv unsafe.Pointer, c *Ctx, args []any) (res []any, err error) {
			a, b, ok := args2[A, B](args)
			if !ok {
				return nil, errTrampMiss
			}
			defer trampRecover(mi, &res, &err)
			f(recv, c, a, b)
			return emptyResults, nil
		}
	})
	addTramp(func(f func(unsafe.Pointer, *Ctx, A, B) error, mi *methodInfo) trampFn {
		return func(recv unsafe.Pointer, c *Ctx, args []any) (res []any, err error) {
			a, b, ok := args2[A, B](args)
			if !ok {
				return nil, errTrampMiss
			}
			defer trampRecover(mi, &res, &err)
			return emptyResults, f(recv, c, a, b)
		}
	})
}

// Arity 2, one result.
func regABR[A, B, R any]() {
	addTramp(func(f func(unsafe.Pointer, A, B) R, mi *methodInfo) trampFn {
		return func(recv unsafe.Pointer, c *Ctx, args []any) (res []any, err error) {
			a, b, ok := args2[A, B](args)
			if !ok {
				return nil, errTrampMiss
			}
			defer trampRecover(mi, &res, &err)
			return []any{f(recv, a, b)}, nil
		}
	})
	addTramp(func(f func(unsafe.Pointer, A, B) (R, error), mi *methodInfo) trampFn {
		return func(recv unsafe.Pointer, c *Ctx, args []any) (res []any, err error) {
			a, b, ok := args2[A, B](args)
			if !ok {
				return nil, errTrampMiss
			}
			defer trampRecover(mi, &res, &err)
			r, e := f(recv, a, b)
			return []any{r}, e
		}
	})
	addTramp(func(f func(unsafe.Pointer, *Ctx, A, B) R, mi *methodInfo) trampFn {
		return func(recv unsafe.Pointer, c *Ctx, args []any) (res []any, err error) {
			a, b, ok := args2[A, B](args)
			if !ok {
				return nil, errTrampMiss
			}
			defer trampRecover(mi, &res, &err)
			return []any{f(recv, c, a, b)}, nil
		}
	})
	addTramp(func(f func(unsafe.Pointer, *Ctx, A, B) (R, error), mi *methodInfo) trampFn {
		return func(recv unsafe.Pointer, c *Ctx, args []any) (res []any, err error) {
			a, b, ok := args2[A, B](args)
			if !ok {
				return nil, errTrampMiss
			}
			defer trampRecover(mi, &res, &err)
			r, e := f(recv, c, a, b)
			return []any{r}, e
		}
	})
}

// Arity 3 (homogeneous arguments), with and without result/error.
func regA3[A, R any]() {
	addTramp(func(f func(unsafe.Pointer, A, A, A), mi *methodInfo) trampFn {
		return func(recv unsafe.Pointer, c *Ctx, args []any) (res []any, err error) {
			a, b, d, ok := args3[A](args)
			if !ok {
				return nil, errTrampMiss
			}
			defer trampRecover(mi, &res, &err)
			f(recv, a, b, d)
			return emptyResults, nil
		}
	})
	addTramp(func(f func(unsafe.Pointer, A, A, A) error, mi *methodInfo) trampFn {
		return func(recv unsafe.Pointer, c *Ctx, args []any) (res []any, err error) {
			a, b, d, ok := args3[A](args)
			if !ok {
				return nil, errTrampMiss
			}
			defer trampRecover(mi, &res, &err)
			return emptyResults, f(recv, a, b, d)
		}
	})
	addTramp(func(f func(unsafe.Pointer, A, A, A) R, mi *methodInfo) trampFn {
		return func(recv unsafe.Pointer, c *Ctx, args []any) (res []any, err error) {
			a, b, d, ok := args3[A](args)
			if !ok {
				return nil, errTrampMiss
			}
			defer trampRecover(mi, &res, &err)
			return []any{f(recv, a, b, d)}, nil
		}
	})
	addTramp(func(f func(unsafe.Pointer, A, A, A) (R, error), mi *methodInfo) trampFn {
		return func(recv unsafe.Pointer, c *Ctx, args []any) (res []any, err error) {
			a, b, d, ok := args3[A](args)
			if !ok {
				return nil, errTrampMiss
			}
			defer trampRecover(mi, &res, &err)
			r, e := f(recv, a, b, d)
			return []any{r}, e
		}
	})
	addTramp(func(f func(unsafe.Pointer, *Ctx, A, A, A), mi *methodInfo) trampFn {
		return func(recv unsafe.Pointer, c *Ctx, args []any) (res []any, err error) {
			a, b, d, ok := args3[A](args)
			if !ok {
				return nil, errTrampMiss
			}
			defer trampRecover(mi, &res, &err)
			f(recv, c, a, b, d)
			return emptyResults, nil
		}
	})
	addTramp(func(f func(unsafe.Pointer, *Ctx, A, A, A) error, mi *methodInfo) trampFn {
		return func(recv unsafe.Pointer, c *Ctx, args []any) (res []any, err error) {
			a, b, d, ok := args3[A](args)
			if !ok {
				return nil, errTrampMiss
			}
			defer trampRecover(mi, &res, &err)
			return emptyResults, f(recv, c, a, b, d)
		}
	})
	addTramp(func(f func(unsafe.Pointer, *Ctx, A, A, A) R, mi *methodInfo) trampFn {
		return func(recv unsafe.Pointer, c *Ctx, args []any) (res []any, err error) {
			a, b, d, ok := args3[A](args)
			if !ok {
				return nil, errTrampMiss
			}
			defer trampRecover(mi, &res, &err)
			return []any{f(recv, c, a, b, d)}, nil
		}
	})
	addTramp(func(f func(unsafe.Pointer, *Ctx, A, A, A) (R, error), mi *methodInfo) trampFn {
		return func(recv unsafe.Pointer, c *Ctx, args []any) (res []any, err error) {
			a, b, d, ok := args3[A](args)
			if !ok {
				return nil, errTrampMiss
			}
			defer trampRecover(mi, &res, &err)
			r, e := f(recv, c, a, b, d)
			return []any{r}, e
		}
	})
}

// Arity 4 (homogeneous arguments), with and without result/error.
func regA4[A, R any]() {
	addTramp(func(f func(unsafe.Pointer, A, A, A, A), mi *methodInfo) trampFn {
		return func(recv unsafe.Pointer, c *Ctx, args []any) (res []any, err error) {
			a, b, d, e4, ok := args4[A](args)
			if !ok {
				return nil, errTrampMiss
			}
			defer trampRecover(mi, &res, &err)
			f(recv, a, b, d, e4)
			return emptyResults, nil
		}
	})
	addTramp(func(f func(unsafe.Pointer, A, A, A, A) error, mi *methodInfo) trampFn {
		return func(recv unsafe.Pointer, c *Ctx, args []any) (res []any, err error) {
			a, b, d, e4, ok := args4[A](args)
			if !ok {
				return nil, errTrampMiss
			}
			defer trampRecover(mi, &res, &err)
			return emptyResults, f(recv, a, b, d, e4)
		}
	})
	addTramp(func(f func(unsafe.Pointer, A, A, A, A) R, mi *methodInfo) trampFn {
		return func(recv unsafe.Pointer, c *Ctx, args []any) (res []any, err error) {
			a, b, d, e4, ok := args4[A](args)
			if !ok {
				return nil, errTrampMiss
			}
			defer trampRecover(mi, &res, &err)
			return []any{f(recv, a, b, d, e4)}, nil
		}
	})
	addTramp(func(f func(unsafe.Pointer, A, A, A, A) (R, error), mi *methodInfo) trampFn {
		return func(recv unsafe.Pointer, c *Ctx, args []any) (res []any, err error) {
			a, b, d, e4, ok := args4[A](args)
			if !ok {
				return nil, errTrampMiss
			}
			defer trampRecover(mi, &res, &err)
			r, e := f(recv, a, b, d, e4)
			return []any{r}, e
		}
	})
	addTramp(func(f func(unsafe.Pointer, *Ctx, A, A, A, A), mi *methodInfo) trampFn {
		return func(recv unsafe.Pointer, c *Ctx, args []any) (res []any, err error) {
			a, b, d, e4, ok := args4[A](args)
			if !ok {
				return nil, errTrampMiss
			}
			defer trampRecover(mi, &res, &err)
			f(recv, c, a, b, d, e4)
			return emptyResults, nil
		}
	})
	addTramp(func(f func(unsafe.Pointer, *Ctx, A, A, A, A) error, mi *methodInfo) trampFn {
		return func(recv unsafe.Pointer, c *Ctx, args []any) (res []any, err error) {
			a, b, d, e4, ok := args4[A](args)
			if !ok {
				return nil, errTrampMiss
			}
			defer trampRecover(mi, &res, &err)
			return emptyResults, f(recv, c, a, b, d, e4)
		}
	})
	addTramp(func(f func(unsafe.Pointer, *Ctx, A, A, A, A) R, mi *methodInfo) trampFn {
		return func(recv unsafe.Pointer, c *Ctx, args []any) (res []any, err error) {
			a, b, d, e4, ok := args4[A](args)
			if !ok {
				return nil, errTrampMiss
			}
			defer trampRecover(mi, &res, &err)
			return []any{f(recv, c, a, b, d, e4)}, nil
		}
	})
	addTramp(func(f func(unsafe.Pointer, *Ctx, A, A, A, A) (R, error), mi *methodInfo) trampFn {
		return func(recv unsafe.Pointer, c *Ctx, args []any) (res []any, err error) {
			a, b, d, e4, ok := args4[A](args)
			if !ok {
				return nil, errTrampMiss
			}
			defer trampRecover(mi, &res, &err)
			r, e := f(recv, c, a, b, d, e4)
			return []any{r}, e
		}
	})
}

func args2[A, B any](args []any) (a A, b B, ok bool) {
	if len(args) != 2 {
		return a, b, false
	}
	a, oka := args[0].(A)
	b, okb := args[1].(B)
	return a, b, oka && okb
}

func args3[A any](args []any) (a, b, c A, ok bool) {
	if len(args) != 3 {
		return a, b, c, false
	}
	a, oka := args[0].(A)
	b, okb := args[1].(A)
	c, okc := args[2].(A)
	return a, b, c, oka && okb && okc
}

func args4[A any](args []any) (a, b, c, d A, ok bool) {
	if len(args) != 4 {
		return a, b, c, d, false
	}
	a, oka := args[0].(A)
	b, okb := args[1].(A)
	c, okc := args[2].(A)
	d, okd := args[3].(A)
	return a, b, c, d, oka && okb && okc && okd
}

// regScalar1 fills arities 0–1 for argument type A: the void/error twins plus
// every corpus result type.
func regScalar1[A any]() {
	regA[A]()
	regAR[A, int]()
	regAR[A, int64]()
	regAR[A, uint64]()
	regAR[A, float64]()
	regAR[A, string]()
	regAR[A, bool]()
	regAR[A, []byte]()
	regAR[A, gaddr.Addr]()
}

// regScalar2 fills arity 2 with homogeneous arguments of type A and every
// corpus result type.
func regScalar2[A any]() {
	regAB[A, A]()
	regABR[A, A, int]()
	regABR[A, A, int64]()
	regABR[A, A, uint64]()
	regABR[A, A, float64]()
	regABR[A, A, string]()
	regABR[A, A, bool]()
	regABR[A, A, []byte]()
	regABR[A, A, gaddr.Addr]()
}

func init() {
	regVoid()
	regR[int]()
	regR[int64]()
	regR[uint64]()
	regR[float64]()
	regR[string]()
	regR[bool]()
	regR[[]byte]()
	regR[gaddr.Addr]()
	regScalar1[int]()
	regScalar1[int64]()
	regScalar1[uint64]()
	regScalar1[float64]()
	regScalar1[string]()
	regScalar1[bool]()
	regScalar1[[]byte]()
	regScalar1[gaddr.Addr]()
	regScalar2[int]()
	regScalar2[int64]()
	regScalar2[uint64]()
	regScalar2[float64]()
	regScalar2[string]()
	regScalar2[bool]()
	regScalar2[[]byte]()
	regScalar2[gaddr.Addr]()
	regA3[int, int]()
	regA3[int64, int64]()
	regA3[float64, float64]()
	regA3[int, float64]()
	regA3[float64, int]()
	regA4[int, int]()
	regA4[int64, int64]()
	regA4[float64, float64]()
	regA4[int, float64]()
	regA4[float64, int]()
}

// --- the per-payload dispatcher --------------------------------------------

// call routes one operation through the fastest compiled tier available. The
// caller has already resolved mi from the operation table (so unknown methods
// and read-only classification are settled) and holds a pin on the
// descriptor, which licenses the lock-free payload read.
func (p *payload) call(mi *methodInfo, c *Ctx, args []any) ([]any, error) {
	if p.disp != nil {
		res, err := p.dispatchCall(mi, c, args)
		if err == nil || !errors.Is(err, ErrNotDispatched) {
			return res, err
		}
	}
	if mi.tramp != nil {
		res, err := mi.tramp(p.obj.UnsafePointer(), c, args)
		if err != errTrampMiss {
			return res, err
		}
	}
	return mi.call(p.obj, c, args)
}

// dispatchCall runs the class's own Dispatch under the runtime's panic
// recovery.
func (p *payload) dispatchCall(mi *methodInfo, c *Ctx, args []any) (res []any, err error) {
	defer trampRecover(mi, &res, &err)
	return p.disp.Dispatch(c, mi.name, args)
}

// newPayload builds the payload for a live object, capturing the class's
// AmberDispatch implementation if it has one. Called at every payload install
// site (creation, migration, replica, lease) before the descriptor goes
// resident; trampolines need no per-object state (they are compiled at
// registration and take the receiver as an argument), so this is one
// interface assertion.
func newPayload(pv reflect.Value, ti *typeInfo) payload {
	p := payload{obj: pv, ti: ti}
	if ti.selfDispatch {
		p.disp, _ = pv.Interface().(AmberDispatch)
	}
	return p
}
