package core

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"

	"amber/internal/wire"
)

// Registry maps user types to invocation tables. In the original system this
// role was played by the C++ class hierarchy plus the Amber preprocessor; the
// Go reproduction derives the operation table with reflection, the net/rpc
// idiom. Every node of a deployment must register the same types (all nodes
// are "activations of the same program image", §3.1); the in-process cluster
// shares a single registry, and cmd/amberd processes share a binary.
type Registry struct {
	mu     sync.RWMutex
	byName map[string]*typeInfo
	byType map[reflect.Type]*typeInfo

	// noTramp disables trampoline binding for types registered afterwards.
	// Test hook: the dispatch conformance suite registers the same class with
	// and without trampolines and asserts identical observable behavior.
	noTramp bool
}

// NewRegistry returns an empty registry with the runtime's internal types
// pre-registered.
func NewRegistry() *Registry {
	r := &Registry{
		byName: make(map[string]*typeInfo),
		byType: make(map[reflect.Type]*typeInfo),
	}
	// The thread object class is part of the runtime (§2.1).
	if _, err := r.register(&threadObject{}, false); err != nil {
		panic("core: registering thread class: " + err.Error())
	}
	return r
}

// typeInfo describes one registered class.
type typeInfo struct {
	name    string
	elem    reflect.Type // struct type
	ptr     reflect.Type // pointer-to-struct type, the receiver
	methods map[string]*methodInfo
	// serializable is false for runtime-internal classes that never
	// marshal (thread objects).
	serializable bool
	// hasState is false when the struct has no exported fields: such
	// objects migrate as a fresh zero value (gob cannot encode them, and
	// there is nothing to carry — unexported runtime state like wait
	// queues must be empty at migration time anyway, enforced by the
	// classes' MoveGuards).
	hasState bool
	// selfDispatch marks a class implementing AmberDispatch; installs bind
	// the interface and the Dispatch method itself is excluded from the
	// operation table (it is plumbing, not an operation).
	selfDispatch bool
	// snapSize remembers how large this class's last state encoding was, so
	// the next install frame carrying one is presized to hold it.
	snapSize atomic.Int64
}

// methodInfo describes one operation.
type methodInfo struct {
	name     string
	idx      int // method index on ptr type
	takesCtx bool
	params   []reflect.Type // user-visible parameters (after receiver/ctx)
	results  []reflect.Type // results excluding a trailing error
	hasErr   bool
	// readOnly marks an operation declared mutation-free (via the class's
	// AmberReadOnly list or a per-call WithReadOnly). The coherence layer
	// lets read-only invokes run under the shared side of the object's
	// coherence lock and serve from reader leases; it is a promise, not a
	// proof — a lying declaration yields stale reads, never corruption.
	readOnly bool

	// The compiled dispatch plan (dispatch.go), built once at registration:
	// fn is the unbound Method(idx).Func — calling it with the receiver as
	// arg 0 avoids the per-call method-value allocation of
	// objPtr.Method(idx).Call; frameLen is the full argument frame length
	// (receiver + optional ctx + params); coercers holds one precompiled
	// coercion per parameter, so coerce's type tests run at registration
	// instead of per call; tramp (nil if the signature is outside the
	// trampoline corpus) is the method's direct-call closure, shared by every
	// object of the class — it takes the receiver as an untyped pointer.
	fn       reflect.Value
	frameLen int
	coercers []coerceFn
	tramp    trampFn
}

// ReadOnlyDeclarer is implemented by registered classes that want some of
// their operations classified as read-only for the coherence layer:
// AmberReadOnly returns the names of the exported methods that never mutate
// the receiver. Unknown names are ignored.
type ReadOnlyDeclarer interface {
	AmberReadOnly() []string
}

var (
	ctxType = reflect.TypeOf((*Ctx)(nil))
	errType = reflect.TypeOf((*error)(nil)).Elem()
)

// Register adds a class. v must be a pointer to a struct (the canonical
// receiver shape) or a struct value. Operations are the exported methods on
// *T; each may optionally take a *core.Ctx first parameter and may return a
// trailing error. Variadic methods are not invocable and are skipped.
// The struct's state must be gob-serializable for the object to migrate.
func (r *Registry) Register(v any) error {
	_, err := r.register(v, true)
	return err
}

func (r *Registry) register(v any, serializable bool) (*typeInfo, error) {
	t := reflect.TypeOf(v)
	if t == nil {
		return nil, fmt.Errorf("amber: Register(nil)")
	}
	if t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	if t.Kind() != reflect.Struct {
		return nil, fmt.Errorf("amber: Register: %s is not a struct type", t)
	}
	ti := &typeInfo{
		name:         t.String(),
		elem:         t,
		ptr:          reflect.PointerTo(t),
		methods:      make(map[string]*methodInfo),
		serializable: serializable,
	}
	var readOnly map[string]bool
	if decl, ok := reflect.New(t).Interface().(ReadOnlyDeclarer); ok {
		names := decl.AmberReadOnly()
		readOnly = make(map[string]bool, len(names))
		for _, name := range names {
			readOnly[name] = true
		}
	}
	_, ti.selfDispatch = reflect.New(t).Interface().(AmberDispatch)
	for i := 0; i < ti.ptr.NumMethod(); i++ {
		m := ti.ptr.Method(i)
		if m.PkgPath != "" { // unexported
			continue
		}
		mt := m.Type
		if mt.IsVariadic() {
			continue
		}
		if ti.selfDispatch && m.Name == "Dispatch" {
			continue // runtime plumbing, not an operation
		}
		mi := &methodInfo{name: m.Name, idx: i, readOnly: readOnly[m.Name]}
		argStart := 1 // skip receiver
		if mt.NumIn() > 1 && mt.In(1) == ctxType {
			mi.takesCtx = true
			argStart = 2
		}
		for j := argStart; j < mt.NumIn(); j++ {
			mi.params = append(mi.params, mt.In(j))
		}
		n := mt.NumOut()
		if n > 0 && mt.Out(n-1) == errType {
			mi.hasErr = true
			n--
		}
		for j := 0; j < n; j++ {
			mi.results = append(mi.results, mt.Out(j))
		}
		// Compile the dispatch plan (dispatch.go): cache the unbound func,
		// precompute the frame length and per-parameter coercers, and select
		// a trampoline binder if the receiver-stripped signature is in the
		// corpus. An unsupported signature is not an error — it simply runs
		// on the reflective plan.
		mi.fn = m.Func
		mi.frameLen = mt.NumIn()
		mi.coercers = make([]coerceFn, len(mi.params))
		for j, p := range mi.params {
			mi.coercers[j] = compileCoerce(p)
		}
		if !r.noTramp && trampEligible(mi) {
			ins := make([]reflect.Type, 0, mt.NumIn()-1)
			for j := 1; j < mt.NumIn(); j++ {
				ins = append(ins, mt.In(j))
			}
			outs := make([]reflect.Type, mt.NumOut())
			for j := range outs {
				outs[j] = mt.Out(j)
			}
			if bind, ok := corpus[reflect.FuncOf(ins, outs, false)]; ok {
				mi.tramp = bind(mi)
			}
		}
		ti.methods[m.Name] = mi
	}
	for i := 0; i < t.NumField(); i++ {
		if t.Field(i).PkgPath == "" {
			ti.hasState = true
			break
		}
	}
	if serializable && ti.hasState {
		// Make the state transmissible inside snapshots and as an argument.
		wire.Register(reflect.New(t).Elem().Interface())
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if existing, ok := r.byName[ti.name]; ok {
		if existing.elem != ti.elem {
			return nil, fmt.Errorf("amber: Register: name collision for %q", ti.name)
		}
		return existing, nil // idempotent
	}
	r.byName[ti.name] = ti
	r.byType[ti.elem] = ti
	return ti, nil
}

// lookupValue finds the typeInfo for a live object (pointer to struct).
func (r *Registry) lookupValue(v any) (*typeInfo, error) {
	t := reflect.TypeOf(v)
	if t == nil || t.Kind() != reflect.Pointer || t.Elem().Kind() != reflect.Struct {
		return nil, fmt.Errorf("%w: object must be a pointer to struct, got %T", ErrUnknownType, v)
	}
	r.mu.RLock()
	ti := r.byType[t.Elem()]
	r.mu.RUnlock()
	if ti == nil {
		return nil, fmt.Errorf("%w: %s", ErrUnknownType, t.Elem())
	}
	return ti, nil
}

// lookupName finds a typeInfo by registered name (for installing migrated
// objects).
func (r *Registry) lookupName(name string) (*typeInfo, error) {
	r.mu.RLock()
	ti := r.byName[name]
	r.mu.RUnlock()
	if ti == nil {
		return nil, fmt.Errorf("%w: %s", ErrUnknownType, name)
	}
	return ti, nil
}

// method resolves an operation.
func (ti *typeInfo) method(name string) (*methodInfo, error) {
	mi, ok := ti.methods[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s.%s", ErrUnknownMethod, ti.name, name)
	}
	return mi, nil
}

// call performs the reflective invocation of mi on objPtr — the compiled
// plan: unbound func cached at registration (receiver passed as arg 0, so no
// per-call method value) and per-parameter coercers precompiled. A panic in
// user code is converted into an error carrying the user stack rather than
// taking down the node.
func (mi *methodInfo) call(objPtr reflect.Value, ctx *Ctx, args []any) (results []any, err error) {
	if len(args) != len(mi.params) {
		return nil, fmt.Errorf("%w: %s takes %d args, got %d",
			ErrBadArgument, mi.name, len(mi.params), len(args))
	}
	in := make([]reflect.Value, mi.frameLen)
	in[0] = objPtr
	base := 1
	if mi.takesCtx {
		in[1] = reflect.ValueOf(ctx)
		base = 2
	}
	for i, a := range args {
		v, cerr := mi.coercers[i](a)
		if cerr != nil {
			return nil, fmt.Errorf("%w: %s arg %d: %v", ErrBadArgument, mi.name, i, cerr)
		}
		in[base+i] = v
	}
	defer func() {
		if p := recover(); p != nil {
			err = panicError(mi.name, p)
			results = nil
		}
	}()
	out := mi.fn.Call(in)
	if mi.hasErr {
		if e := out[len(out)-1]; !e.IsNil() {
			err = e.Interface().(error)
		}
		out = out[:len(out)-1]
	}
	results = make([]any, len(out))
	for i, o := range out {
		results[i] = o.Interface()
	}
	return results, err
}

// trampEligible reports whether mi's signature may bind a trampoline at all.
// Interface-typed parameters and results are excluded at registration — not
// at call time — because a trampoline's exact type asserts cannot reproduce
// coerce's interface semantics (nil arguments become the zero interface, and
// any implementing concrete type is accepted); those methods always take the
// reflective plan. The corpus contains no interface shapes, so this guard is
// an explicit statement of policy rather than a load-bearing filter.
func trampEligible(mi *methodInfo) bool {
	for _, p := range mi.params {
		if p.Kind() == reflect.Interface {
			return false
		}
	}
	for _, r := range mi.results {
		if r.Kind() == reflect.Interface {
			return false
		}
	}
	return true
}

// coerceFn adapts one decoded argument to its parameter type.
type coerceFn func(a any) (reflect.Value, error)

// compileCoerce builds the per-parameter coercer: all of coerce's type tests
// (nilability, interface, numeric convertibility) run here, once, at
// registration; the returned closure does only the per-value work.
func compileCoerce(want reflect.Type) coerceFn {
	var nilable bool
	switch want.Kind() {
	case reflect.Pointer, reflect.Slice, reflect.Map, reflect.Interface, reflect.Chan, reflect.Func:
		nilable = true
	}
	zero := reflect.Zero(want)
	isIface := want.Kind() == reflect.Interface
	var convertible bool
	switch want.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64, reflect.String:
		convertible = true
	}
	return func(a any) (reflect.Value, error) {
		if a == nil {
			if nilable {
				return zero, nil
			}
			return reflect.Value{}, fmt.Errorf("nil for non-nilable %s", want)
		}
		v := reflect.ValueOf(a)
		t := v.Type()
		if t == want || t.AssignableTo(want) {
			return v, nil
		}
		if isIface && t.Implements(want) {
			return v, nil
		}
		if convertible && t.ConvertibleTo(want) {
			return v.Convert(want), nil
		}
		return reflect.Value{}, fmt.Errorf("cannot use %s as %s", t, want)
	}
}

// coerce adapts a decoded argument to a parameter type. gob preserves
// registered concrete types, but numeric kinds may need conversion (an int
// literal passed where the method wants float64, say). The per-call plans use
// compileCoerce above; this one-shot form serves ad-hoc call sites and tests,
// and the two must agree (the conformance suite checks).
func coerce(a any, want reflect.Type) (reflect.Value, error) {
	return compileCoerce(want)(a)
}
