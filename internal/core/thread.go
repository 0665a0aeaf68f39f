package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"amber/internal/gaddr"
	"amber/internal/sched"
	"amber/internal/trace"
)

// Ctx is an Amber thread's execution context on one node: the thread's
// migrating record plus the node-local scheduling state. Operations receive
// a *Ctx as their optional first parameter and use it for all runtime
// services (invocation, creation, mobility, thread management, blocking).
//
// A Ctx is confined to the goroutine currently animating the thread; it
// must not be stored or shared.
type Ctx struct {
	node *Node
	rec  ThreadRec

	// span is the trace span the thread is currently executing under on
	// this node (0 = untraced or at the journey root). It is node-local
	// state: a migrating invocation re-derives it from the rpc envelope's
	// trace context on the remote side.
	span uint64

	task      *sched.Task
	slotDepth int
	// quantumStart is when the thread last took a processor slot; only
	// Checkpoint reads it, so it is stamped only when timeslicing is on.
	quantumStart time.Time
}

// Root creates a context for a fresh top-level thread on this node — the
// program's main thread, or a driver in tests and benchmarks.
func (n *Node) Root() *Ctx {
	return &Ctx{node: n, rec: ThreadRec{ID: n.newThreadID(), Home: n.id}}
}

func (n *Node) newThreadID() uint64 {
	return uint64(uint32(n.id))<<40 | n.threadSeq.Add(1)
}

// NodeID reports the node this context is currently executing on. Inside an
// operation on a remote object this is the remote node — the thread moved.
func (c *Ctx) NodeID() gaddr.NodeID { return c.node.id }

// ThreadID reports the Amber thread's global identity.
func (c *Ctx) ThreadID() uint64 { return c.rec.ID }

// Home reports the node the thread started on, where its caller waits.
func (c *Ctx) Home() gaddr.NodeID { return c.rec.Home }

// Priority returns the thread's scheduling priority.
func (c *Ctx) Priority() int { return c.rec.Priority }

// SetPriority adjusts the thread's priority for subsequent scheduling
// decisions.
func (c *Ctx) SetPriority(p int) { c.rec.Priority = p }

// acquireSlot makes sure the thread holds a processor slot on node n while
// executing; releaseSlot undoes one level. Nested invocations on one node
// share a single slot. A paired-call API rather than a returned release
// closure: the pair sits on every local invoke, and the closure was a
// heap allocation per call.
func (c *Ctx) acquireSlot(n *Node) {
	if c.slotDepth > 0 {
		c.slotDepth++
		return
	}
	if c.task == nil || c.task.ThreadID != c.rec.ID {
		c.task = &sched.Task{ThreadID: c.rec.ID, Priority: c.rec.Priority}
	}
	if !n.sch.TryAcquire() {
		// About to queue for a slot: a thread animated by a link's reader
		// must not hold the link while it waits.
		n.ep.ReleaseReaders()
		n.sch.Acquire(c.task)
	}
	c.slotDepth = 1
	if c.node.cfg.Quantum > 0 {
		c.quantumStart = time.Now()
	}
}

func (c *Ctx) releaseSlot(n *Node) {
	c.slotDepth--
	if c.slotDepth == 0 {
		n.sch.Release(c.task)
	}
}

// Spawn derives a fresh Amber thread context on the same node, for code
// that runs its own goroutines without the thread-object/Join machinery
// (lighter than StartThread; the goroutine should use WithSlot around CPU
// work so the node's processor limits still hold).
func (c *Ctx) Spawn() *Ctx {
	n := c.node
	return &Ctx{node: n, rec: ThreadRec{ID: n.newThreadID(), Home: n.id, Priority: c.rec.Priority}}
}

// WithSlot runs f while the thread holds a processor slot on its node. Used
// by raw compute goroutines (see Spawn); invocations manage slots
// themselves.
func (c *Ctx) WithSlot(f func()) {
	c.acquireSlot(c.node)
	defer c.releaseSlot(c.node)
	f()
}

// Block releases the thread's processor slot and this node's link readers,
// runs wait (which should block on a channel or condition), and re-acquires
// a slot afterwards, so a blocked Amber thread frees its CPU (§2.1/§2.2). A
// nil Ctx — a raw goroutine — just runs wait. wait has no exit of its own:
// a wait for another thread belongs on a WaitQueue, which adds them.
func (c *Ctx) Block(wait func()) {
	if c != nil {
		c.node.ep.ReleaseReaders()
	}
	if c == nil || c.slotDepth == 0 {
		wait()
		return
	}
	c.node.sch.Block(c.task, wait)
	if c.node.cfg.Quantum > 0 {
		c.quantumStart = time.Now()
	}
}

// Yield gives up the processor to the next ready thread (cooperative
// timeslicing).
func (c *Ctx) Yield() {
	if c.slotDepth > 0 {
		c.node.ep.ReleaseReaders()
		c.node.sch.Yield(c.task)
		if c.node.cfg.Quantum > 0 {
			c.quantumStart = time.Now()
		}
	}
}

// Checkpoint is the analogue of the paper's context-switch residency check
// point (§3.5): long-running operations call it periodically. It yields the
// processor when the node's timeslice quantum has expired.
func (c *Ctx) Checkpoint() {
	q := c.node.cfg.Quantum
	if q <= 0 || c.slotDepth == 0 {
		return
	}
	if time.Since(c.quantumStart) >= q {
		c.node.counts.Inc("timeslice_yields")
		c.Yield()
	}
}

// --- thread objects (§2.1) ---

// threadObject is the runtime class behind StartThread/Join. It is a real
// object in the global space (threads are objects in Amber), resident on the
// node that started the thread. §3.4 notes the original optimized thread
// migration for invocations *by* the thread at the expense of invocations
// *on* the thread object; we go further and pin the record at its birth node
// (its channels cannot serialize), which preserves those semantics.
type threadObject struct {
	mu      sync.Mutex
	done    bool
	results []any
	errMsg  string
	joiners WaitQueue
}

// CanMove pins thread objects at their birth node.
func (t *threadObject) CanMove() error {
	return fmt.Errorf("%w: thread objects do not migrate", ErrNotMovable)
}

// Join blocks the calling thread until the target thread terminates and
// returns its results (§2.1). It executes on the thread object's node;
// callers elsewhere function-ship to it like any other invocation.
func (t *threadObject) Join(ctx *Ctx) ([]any, string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for !t.done {
		if err := t.joiners.Wait(ctx, &t.mu); err != nil {
			return nil, err.Error()
		}
	}
	return t.results, t.errMsg
}

// Done reports (without blocking) whether the thread has terminated.
func (t *threadObject) Done(ctx *Ctx) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.done
}

// complete records the thread's outcome and wakes joiners. Called directly
// by the runtime on the thread's home node.
func (t *threadObject) complete(results []any, err error) {
	t.mu.Lock()
	t.done = true
	t.results = results
	if err != nil {
		t.errMsg = err.Error()
	}
	t.joiners.Broadcast()
	t.mu.Unlock()
}

// Thread is a handle on a started thread.
type Thread struct {
	// Ref is the thread object's reference; it can cross nodes.
	Ref Ref
}

// StartThread creates a thread and starts it executing method on obj with
// the given arguments (the paper's Start primitive, §2.1). The thread begins
// life on the caller's node and immediately function-ships to the object if
// it is remote. The spawned thread inherits the caller's priority.
func (c *Ctx) StartThread(obj Ref, method string, args ...any) (Thread, error) {
	n := c.node
	tobj := &threadObject{}
	tref, err := n.newLocalObject(tobj)
	if err != nil {
		return Thread{}, err
	}
	rec := ThreadRec{ID: n.newThreadID(), Home: n.id, Priority: c.rec.Priority}
	n.counts.Inc("threads_started")
	if tr := n.tracer; tr.OnFor(rec.ID) {
		// The new journey's birth is linked to the starting thread's current
		// span, so a fan-out's children hang off their parent in the trace.
		tr.Emit(trace.Event{Kind: trace.KThreadStart, Trace: rec.ID, Parent: c.span,
			Thread: rec.ID, Obj: uint64(obj), Label: method})
	}
	go func() {
		tc := &Ctx{node: n, rec: rec}
		results, ierr := tc.Invoke(obj, method, args...)
		if ierr != nil && errors.Is(ierr, ErrNodeDown) {
			// The thread shipped into a node that died: it will never come
			// back, and whether it executed is unknowable. Unwind it at its
			// origin as orphaned so Join gets a typed answer (§failure
			// semantics) instead of hanging or a bare transport error.
			n.counts.Inc("threads_orphaned")
			ierr = fmt.Errorf("%w: %v", ErrOrphaned, ierr)
		}
		// The thread object lives on this node and never moves; complete
		// it directly.
		tobj.complete(results, ierr)
		n.counts.Inc("threads_finished")
	}()
	return Thread{Ref: tref}, nil
}

// Join blocks until the thread terminates, returning the results of the
// operation it was started on (§2.1).
func (c *Ctx) Join(t Thread) ([]any, error) {
	out, err := c.Invoke(t.Ref, "Join")
	if err != nil {
		return nil, err
	}
	return unpackThreadOutcome(out)
}

// ThreadDone reports whether the thread has terminated, without blocking.
func (c *Ctx) ThreadDone(t Thread) (bool, error) {
	out, err := c.Invoke(t.Ref, "Done")
	if err != nil {
		return false, err
	}
	done, _ := out[0].(bool)
	return done, nil
}

// unpackThreadOutcome converts threadObject.Join's wire shape back into
// (results, error). The outcome crossed the wire as a bare string, so
// sentinel identity (ErrOrphaned, ErrNodeDown, ErrDeleted, …) is rehydrated
// — errors.Is keeps working across Join.
func unpackThreadOutcome(out []any) ([]any, error) {
	if len(out) != 2 {
		return nil, errors.New("amber: malformed thread outcome")
	}
	results, _ := out[0].([]any)
	if msg, _ := out[1].(string); msg != "" {
		return results, rehydrateError(msg)
	}
	return results, nil
}
