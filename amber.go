// Package amber is a Go implementation of the Amber system (Chase, Amador,
// Lazowska, Levy, Littlefield — SOSP 1989): a runtime that lets one parallel
// program run across a network of shared-memory multiprocessor nodes as a
// single machine.
//
// Programs are collections of passive objects in a network-wide shared
// object space. Objects are invoked location-transparently: if the object is
// on another node, the calling thread ships there (function shipping) and
// continues. Placement is explicit — MoveTo, Locate, Attach/Unattach and
// runtime immutability give the program full control of locality, which is
// what makes loosely-coupled performance predictable.
//
// A minimal program:
//
//	cl, _ := amber.NewCluster(amber.ClusterConfig{Nodes: 2, ProcsPerNode: 4})
//	defer cl.Close()
//	cl.Register(&Counter{})
//	ctx := cl.Node(0).Root()
//	ref, _ := ctx.New(&Counter{})
//	ctx.MoveTo(ref, 1)                  // place the object on node 1
//	out, _ := ctx.Invoke(ref, "Add", 5) // thread ships to node 1 and back
//
// User classes are plain Go structs registered with Register; operations are
// their exported methods, optionally taking a *amber.Ctx first parameter for
// runtime services (nested invocation, thread creation, blocking).
// See README.md for the full tour and DESIGN.md for how this implementation
// maps onto the paper.
package amber

import (
	"time"

	"amber/internal/amsync"
	"amber/internal/core"
	"amber/internal/gaddr"
	"amber/internal/sched"
	"amber/internal/transport"
	"amber/internal/wire"
)

// Core type surface (aliases into the runtime).
type (
	// Ref is a reference to an object in the global object space; valid on
	// every node of the cluster.
	Ref = core.Ref
	// Ctx is an Amber thread's execution context; operations receive it as
	// an optional first parameter.
	Ctx = core.Ctx
	// Thread is a handle to a started thread (Start/Join, §2.1).
	Thread = core.Thread
	// Cluster is an in-process Amber deployment.
	Cluster = core.Cluster
	// ClusterConfig configures NewCluster.
	ClusterConfig = core.ClusterConfig
	// Node is one cluster member.
	Node = core.Node
	// NodeID identifies a node.
	NodeID = gaddr.NodeID
	// NetProfile models the network's latency and bandwidth.
	NetProfile = transport.NetProfile
	// Registry maps user classes to dispatch tables; a Cluster owns one.
	Registry = core.Registry
	// MoveGuard lets a class veto migration (see core.MoveGuard).
	MoveGuard = core.MoveGuard
	// AmberDispatch is the opt-in self-dispatch interface: a registered
	// class implementing it routes its own operations (typically a switch on
	// the method name with direct type asserts), bypassing reflection on the
	// invoke hot path. Return ErrNotDispatched for operations the switch
	// does not cover; the runtime's reflective plan handles them with its
	// usual argument-coercion rules. See core.AmberDispatch for the full
	// contract (the args vector is runtime-owned scratch).
	AmberDispatch = core.AmberDispatch
)

// NilRef is the null object reference.
const NilRef = core.NilRef

// Network profiles.
var (
	// Instant injects no network delay (functional testing).
	Instant = transport.Instant
	// Ethernet1989 reproduces the paper's 10 Mbit/s Ethernet + Topaz RPC
	// economics (remote ≈ 3 orders of magnitude dearer than local).
	Ethernet1989 = transport.Ethernet1989
	// FastLAN approximates a modern 10 GbE link.
	FastLAN = transport.FastLAN
)

// Errors (see the core package for semantics).
var (
	ErrNoSuchObject      = core.ErrNoSuchObject
	ErrDeleted           = core.ErrDeleted
	ErrUnknownMethod     = core.ErrUnknownMethod
	ErrUnknownType       = core.ErrUnknownType
	ErrNotMovable        = core.ErrNotMovable
	ErrMoveTimeout       = core.ErrMoveTimeout
	ErrImmutableDelete   = core.ErrImmutableDelete
	ErrRoutingLost       = core.ErrRoutingLost
	ErrBadArgument       = core.ErrBadArgument
	ErrImmutableViolated = core.ErrImmutableViolated
	ErrNotAttached       = core.ErrNotAttached
	// ErrNotDispatched is returned by an AmberDispatch implementation for
	// operations it does not handle; the runtime falls back to reflective
	// dispatch for that call.
	ErrNotDispatched = core.ErrNotDispatched
)

// Failure taxonomy. Every cross-node failure returned by Invoke, MoveTo,
// Locate and Join is errors.Is-matchable against exactly one of these three
// sentinels; no lower-layer (rpc/transport) error ever leaks through the
// public API:
//
//   - ErrTimeout: the request did not complete within its deadline, but the
//     remote node answered a health probe — it is alive, just slow or behind
//     a lossy link. Retrying may succeed; the operation may also have
//     executed (the reply could be what was lost). A MoveTo that fails with
//     ErrTimeout or ErrNodeDown may still complete: the object waits, moving,
//     until the destination answers the re-sent install, so it is never
//     live on two nodes at once.
//   - ErrNodeDown: the remote node failed a health probe — it has crashed or
//     is unreachable. Whether in-flight operations executed is unknowable
//     until the node restarts. WithRetry makes retries safe here: each
//     attempt carries an idempotency token, so a restarted or slow node
//     executes the operation at most once.
//   - ErrOrphaned: a thread started with StartThread shipped into a node
//     that then went down. Join returns the thread's fate instead of
//     hanging; errors.Is(err, ErrNodeDown) is also true for the wrapped
//     cause.
//
// Errors cross nodes as strings, but sentinel identity is rehydrated on the
// way back — errors.Is keeps working across any number of hops.
var (
	// ErrTimeout: deadline expired but the target node is alive.
	ErrTimeout = core.ErrTimeout
	// ErrNodeDown: the target node is crashed or unreachable.
	ErrNodeDown = core.ErrNodeDown
	// ErrOrphaned: a started thread was lost to a node failure.
	ErrOrphaned = core.ErrOrphaned
)

// Per-call failure-handling options (pass to Invoke — mixed into the
// argument list — or to MoveTo / Locate as trailing arguments):
//
//	out, err := ctx.Invoke(ref, "Add", 5,
//	    amber.WithDeadline(time.Second),
//	    amber.WithRetry(amber.RetryPolicy{MaxAttempts: 3}))
type (
	// CallOption shapes failure handling for one call.
	CallOption = core.CallOption
	// RetryPolicy bounds automatic retries (see WithRetry).
	RetryPolicy = core.RetryPolicy
)

// Asynchronous invocation (Ctx.AsyncInvoke) and continuation shipping
// (Ctx.InvokeChain / Ctx.AsyncInvokeChain). See README §"Asynchronous
// invocation & pipelining" and DESIGN.md §13.
type (
	// Future is the handle returned by Ctx.AsyncInvoke; Join blocks the
	// calling Amber thread (relinquishing its processor slot) until the
	// remote reply lands.
	Future = core.Future
	// ChainStep is one step of an InvokeChain continuation.
	ChainStep = core.ChainStep
)

// ChainPrev, used as an argument inside a ChainStep, is replaced at
// execution time by the previous step's first result — dataflow between
// chain steps without a round trip home.
var ChainPrev = core.ChainPrev

// WithDeadline bounds one call: the call fails with ErrTimeout (node alive)
// or ErrNodeDown (node crashed) when d elapses without a reply. It overrides
// the cluster-wide RPCTimeout for this call only.
func WithDeadline(d time.Duration) CallOption { return core.WithDeadline(d) }

// WithRetry retries a failed remote call with capped exponential backoff.
// Retried requests carry an idempotency token and every attempt reuses the
// same call identity, so the remote node executes the operation at most
// once even when a reply (rather than a request) was lost — the duplicate
// is answered from the callee's dedup window. Every attempt goes to the node
// the call first reached, whichever entry point issued it.
func WithRetry(p RetryPolicy) CallOption { return core.WithRetry(p) }

// WithReadOnly declares that this invoke never mutates the object. On a
// cacheable object (Ctx.SetCacheable) a read-only invoke may be served from a
// local reader lease — zero messages while the lease stands — and runs under
// the shared side of the object's coherence lock at the holder. Classes can
// declare whole methods read-only instead by implementing
//
//	func (o *T) AmberReadOnly() []string { return []string{"Get", "Len"} }
//
// The declaration is a promise, not a proof: marking a mutating operation
// read-only yields stale reads on other nodes, never memory corruption.
func WithReadOnly() CallOption { return core.WithReadOnly() }

// NewCluster starts an in-process cluster of cfg.Nodes nodes with
// cfg.ProcsPerNode processor slots each, connected by a fabric with
// cfg.Profile delays. Node 0 hosts the address-space server.
func NewCluster(cfg ClusterConfig) (*Cluster, error) { return core.NewCluster(cfg) }

// NewRegistry creates a standalone class registry (to share between
// clusters).
func NewRegistry() *Registry { return core.NewRegistry() }

// Call invokes an operation and returns its first result — the common
// single-result convenience over Ctx.Invoke. Like Invoke, CallOptions may be
// mixed into the argument list (they are filtered out before dispatch), and
// the call routes through the same funnel as Ctx.Invoke — deadlines, retries
// and anomaly classification behave identically:
//
//	v, err := amber.Call(ctx, ref, "Get", amber.WithDeadline(time.Second))
func Call(ctx *Ctx, obj Ref, method string, args ...any) (any, error) {
	out, err := ctx.Invoke(obj, method, args...)
	if err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, nil
	}
	return out[0], nil
}

// RegisterWireType makes a concrete type transmissible inside interface-
// typed argument and result slots (gob registration). Object classes are
// registered automatically by Cluster.Register.
func RegisterWireType(v any) { wire.Register(v) }

// Synchronization classes (§2.2): mobile, remotely-invocable objects. Every
// blocking operation — Lock.Acquire, Monitor.Enter, RWLock.AcquireRead and
// AcquireWrite, Semaphore.P, Event.Wait, CondVar.Wait, Barrier.Arrive —
// returns an error instead of waiting for good: one matching ErrNodeDown when
// the holder it waits behind (a Lock's, Monitor's or writer's, named by its
// home node) is marked down or the object's node closes, and ErrOrphaned when
// the waiting thread's own home is marked down. A holder is known by its
// home only: one that dies on another node is not seen, and one still running
// elsewhere when its home dies is taken for dead.
type (
	// Lock is a relinquishing mutual-exclusion lock.
	Lock = amsync.Lock
	// SpinLock is a non-relinquishing lock.
	SpinLock = amsync.SpinLock
	// RWLock is a writer-preferring readers/writer lock.
	RWLock = amsync.RWLock
	// Barrier synchronizes a fixed party of threads, reusable by epoch.
	Barrier = amsync.Barrier
	// Monitor is the mutual-exclusion half of a monitor.
	Monitor = amsync.Monitor
	// CondVar is a condition variable bound to a Monitor.
	CondVar = amsync.CondVar
	// Semaphore is a counting semaphore.
	Semaphore = amsync.Semaphore
	// Event is a one-shot broadcast flag.
	Event = amsync.Event
)

// NewBarrier returns a barrier for n parties.
func NewBarrier(n int) *Barrier { return amsync.NewBarrier(n) }

// NewCondVar returns a condition variable for the given monitor object.
func NewCondVar(mon Ref) *CondVar { return amsync.NewCondVar(mon) }

// NewSemaphore returns a semaphore with n permits.
func NewSemaphore(n int) *Semaphore { return amsync.NewSemaphore(n) }

// RegisterSyncClasses registers every synchronization class with a cluster
// (or registry).
func RegisterSyncClasses(r interface{ Register(v any) error }) error {
	return amsync.RegisterAll(r)
}

// Scheduling policies (§2.1): the scheduler is replaceable at runtime with
// Node.Scheduler().SetPolicy, which takes one of these constructors and
// builds one queue instance per processor slot.
var (
	// DequePolicy is the default: a bounded per-slot deque, newest-first
	// for the owning slot and oldest-first for work stealing.
	DequePolicy = sched.NewDeque
	// PriorityPolicy runs the highest-priority thread first (see
	// Ctx.SetPriority); arrival order among equals.
	PriorityPolicy = sched.NewPriority
)
