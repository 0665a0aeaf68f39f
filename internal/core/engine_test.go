package core

import (
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"amber/internal/gaddr"
	"amber/internal/rpc"
	"amber/internal/transport"
)

// Entry-point parity: Invoke, AsyncInvoke, InvokeChain and AsyncInvokeChain
// are one engine behind four doors, and Locate/MoveTo take their routing
// rungs from the same ladder — so one failure script must produce the same
// error identity, the same ladder counters and the same anomaly trigger
// whichever door the call came through. Every cell runs on a cluster of its
// own, so the counters it reads are that call's alone.

// parityCase is what a failure script hands the entry points: the object the
// call is made on, a second object co-located with where the first will
// execute (the two-step chains' second step), and the call itself.
type parityCase struct {
	head, tail Ref
	method     string
	args       []any
	opts       []CallOption
}

func (pc *parityCase) steps(n int) []ChainStep {
	steps := []ChainStep{{Obj: pc.head, Method: pc.method, Args: pc.args}}
	if n == 2 {
		steps = append(steps, ChainStep{Obj: pc.tail, Method: "Add", Args: []any{1}})
	}
	return steps
}

// parityColumns are the entry points. control marks the mobility operations,
// which join the routing rows only; twoStep marks the doors that also run the
// case's second object.
var parityColumns = []struct {
	name             string
	control, twoStep bool
	call             func(ctx *Ctx, pc *parityCase) error
}{
	{name: "Invoke", call: func(ctx *Ctx, pc *parityCase) error {
		args := append([]any(nil), pc.args...)
		for _, o := range pc.opts {
			args = append(args, o)
		}
		_, err := ctx.Invoke(pc.head, pc.method, args...)
		return err
	}},
	{name: "AsyncInvoke", call: func(ctx *Ctx, pc *parityCase) error {
		args := append([]any(nil), pc.args...)
		for _, o := range pc.opts {
			args = append(args, o)
		}
		_, err := ctx.AsyncInvoke(pc.head, pc.method, args...).Join(ctx)
		return err
	}},
	{name: "InvokeChain/1", call: func(ctx *Ctx, pc *parityCase) error {
		_, err := ctx.InvokeChain(pc.steps(1), pc.opts...)
		return err
	}},
	{name: "InvokeChain/2", twoStep: true, call: func(ctx *Ctx, pc *parityCase) error {
		_, err := ctx.InvokeChain(pc.steps(2), pc.opts...)
		return err
	}},
	{name: "AsyncInvokeChain", twoStep: true, call: func(ctx *Ctx, pc *parityCase) error {
		_, err := ctx.AsyncInvokeChain(pc.steps(2), pc.opts...).Join(ctx)
		return err
	}},
	{name: "Locate", control: true, call: func(ctx *Ctx, pc *parityCase) error {
		_, err := ctx.Locate(pc.head, pc.opts...)
		return err
	}},
	{name: "MoveTo", control: true, call: func(ctx *Ctx, pc *parityCase) error {
		return ctx.MoveTo(pc.head, 0, pc.opts...)
	}},
}

// counterValue reads obj's Counter through a fresh blocking invoke.
func counterValue(t *testing.T, ctx *Ctx, obj Ref) int {
	t.Helper()
	out, err := ctx.Invoke(obj, "Get")
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	return out[0].(int)
}

func TestEntryPointParity(t *testing.T) {
	retry := WithRetry(RetryPolicy{MaxAttempts: 30, Backoff: 25 * time.Millisecond, MaxBackoff: 100 * time.Millisecond})
	rows := []struct {
		name    string
		routing bool // Locate and MoveTo join in
		// arrange builds the cell's cluster, places the objects and arms the
		// failure. Anything it starts must stop by the cluster's cleanup.
		arrange func(t *testing.T) (*Cluster, *parityCase)
		// wantErr is the sentinel the call must fail with (nil: it succeeds);
		// wantText, when set, must appear in the error.
		wantErr  error
		wantText string
		// The origin's ladder and anomaly counters, exact. retried asserts
		// that the retry policy re-issued at least once (the count depends on
		// when the link heals); otherwise no retry may have happened.
		hintRetries, restarts int64
		nodeDown, deadline    int64
		retried               bool
		// check is the row's own postcondition.
		check func(t *testing.T, cl *Cluster, pc *parityCase, twoStep bool)
	}{
		{
			name:    "stale hint after a move",
			routing: true,
			arrange: func(t *testing.T) (*Cluster, *parityCase) {
				cl := newTestCluster(t, 3, 2)
				head, _ := cl.Node(1).Root().New(&Counter{})
				tail, _ := cl.Node(2).Root().New(&Counter{})
				cl.Node(0).learnLocation(head, 1, 1)
				if err := cl.Node(1).Root().MoveTo(head, 2); err != nil {
					t.Fatal(err)
				}
				return cl, &parityCase{head: head, tail: tail, method: "Add", args: []any{1}}
			},
			check: func(t *testing.T, cl *Cluster, _ *parityCase, _ bool) {
				// The old holder's tombstone carried the thread on: one forward,
				// no ladder rung.
				if got := cl.Node(1).Stats().Value("forwards"); got != 1 {
					t.Errorf("forwards on the old holder = %d, want 1", got)
				}
			},
		},
		{
			name:    "hint into a crashed node, live home",
			routing: true,
			arrange: func(t *testing.T) (*Cluster, *parityCase) {
				cl, fl := newFailureCluster(t, 3, 7)
				head, _ := cl.Node(1).Root().New(&Counter{})
				tail, _ := cl.Node(1).Root().New(&Counter{})
				cl.Node(0).learnLocation(head, 2, 1)
				fl.Crash(2)
				return cl, &parityCase{head: head, tail: tail, method: "Add", args: []any{1},
					opts: []CallOption{WithDeadline(150 * time.Millisecond)}}
			},
			hintRetries: 1,
		},
		{
			name:    "chase longer than MaxHops, then a restart that wins",
			routing: true,
			arrange: func(t *testing.T) (*Cluster, *parityCase) {
				cl := newTestCluster(t, 5, 2)
				for i := 0; i < 5; i++ {
					cl.Node(i).cfg.MaxHops = 2
				}
				// Tombstones 1→2→3→4: from node 0 the chase is one hop too long.
				head, _ := cl.Node(1).Root().New(&Counter{})
				tail, _ := cl.Node(4).Root().New(&Counter{})
				for at := 1; at < 4; at++ {
					if err := cl.Node(at).Root().MoveTo(head, gaddr.NodeID(at+1)); err != nil {
						t.Fatal(err)
					}
				}
				// The object "stops moving" as the lost chase reports back: the
				// routing-lost reply leaving node 3 is the hook on which the home
				// node's tombstone is back-patched to the holder, as a chain
				// update would, so the restarted chase fits in MaxHops.
				var once sync.Once
				cl.Fabric().SetFault(func(m transport.Message) bool {
					if m.From == 3 && m.To == 0 && !rpc.IsHealthProbe(m.Kind) {
						once.Do(func() {
							cl.Node(1).learnLocation(head, 4, cl.Node(4).desc(head).Epoch())
						})
					}
					return false
				})
				return cl, &parityCase{head: head, tail: tail, method: "Add", args: []any{1}}
			},
			restarts: 1,
			check: func(t *testing.T, cl *Cluster, _ *parityCase, _ bool) {
				if got := cl.Node(3).Stats().Value("routing_lost"); got != 1 {
					t.Errorf("routing_lost on node 3 = %d, want 1", got)
				}
			},
		},
		{
			name: "cut link, lost replies, WithRetry",
			arrange: func(t *testing.T) (*Cluster, *parityCase) {
				cl, fl := newFailureCluster(t, 2, 7)
				head, _ := cl.Node(1).Root().New(&Counter{})
				tail, _ := cl.Node(1).Root().New(&Counter{})
				// Requests arrive and execute; replies vanish until a retry has
				// been answered from the callee's dedup window.
				fl.Cut(1, 0)
				stop := make(chan struct{})
				healed := make(chan struct{})
				go func() {
					defer close(healed)
					for cl.Node(1).RPCStats().Value("rpc_dedup_hits") < 1 {
						select {
						case <-stop:
							return
						case <-time.After(time.Millisecond):
						}
					}
					fl.Heal(1, 0)
				}()
				t.Cleanup(func() { close(stop); <-healed })
				return cl, &parityCase{head: head, tail: tail, method: "Add", args: []any{1},
					opts: []CallOption{WithDeadline(100 * time.Millisecond), retry}}
			},
			retried: true,
			check: func(t *testing.T, cl *Cluster, pc *parityCase, twoStep bool) {
				ctx := cl.Node(0).Root()
				if got := counterValue(t, ctx, pc.head); got != 1 {
					t.Errorf("head counter = %d, want 1 (executed exactly once)", got)
				}
				if twoStep {
					if got := counterValue(t, ctx, pc.tail); got != 1 {
						t.Errorf("tail counter = %d, want 1 (executed exactly once)", got)
					}
				}
			},
		},
		{
			name: "slow peer, WithDeadline",
			arrange: func(t *testing.T) (*Cluster, *parityCase) {
				cl, _ := newFailureCluster(t, 2, 7)
				head, _ := cl.Node(1).Root().New(&Slow{})
				tail, _ := cl.Node(1).Root().New(&Counter{})
				return cl, &parityCase{head: head, tail: tail, method: "Work", args: []any{600},
					opts: []CallOption{WithDeadline(100 * time.Millisecond)}}
			},
			wantErr:  ErrTimeout,
			deadline: 1,
		},
		{
			name: "dead peer",
			arrange: func(t *testing.T) (*Cluster, *parityCase) {
				cl, fl := newFailureCluster(t, 2, 7)
				head, _ := cl.Node(1).Root().New(&Counter{})
				tail, _ := cl.Node(1).Root().New(&Counter{})
				fl.Crash(1)
				return cl, &parityCase{head: head, tail: tail, method: "Add", args: []any{1},
					opts: []CallOption{WithDeadline(150 * time.Millisecond)}}
			},
			wantErr:  ErrNodeDown,
			nodeDown: 1,
		},
		{
			name: "application error",
			arrange: func(t *testing.T) (*Cluster, *parityCase) {
				cl, _ := newFailureCluster(t, 2, 7)
				head, _ := cl.Node(1).Root().New(&Counter{})
				tail, _ := cl.Node(1).Root().New(&Counter{})
				return cl, &parityCase{head: head, tail: tail, method: "Fail",
					opts: []CallOption{WithRetry(RetryPolicy{MaxAttempts: 3, Backoff: time.Millisecond})}}
			},
			wantText: "kaboom",
			check: func(t *testing.T, cl *Cluster, pc *parityCase, _ bool) {
				// An error the operation returned is an answer: executed once,
				// and the chain stopped there.
				if got := cl.Node(1).Stats().Value("invokes_executed_for_remote"); got != 1 {
					t.Errorf("invokes_executed_for_remote = %d, want 1", got)
				}
				if got := counterValue(t, cl.Node(1).Root(), pc.tail); got != 0 {
					t.Errorf("tail counter = %d: the chain ran past a failed step", got)
				}
			},
		},
	}
	for _, row := range rows {
		for _, col := range parityColumns {
			if col.control && !row.routing {
				continue
			}
			row, col := row, col
			t.Run(row.name+"/"+col.name, func(t *testing.T) {
				t.Parallel()
				cl, pc := row.arrange(t)
				origin := cl.Node(0)
				err := col.call(origin.Root(), pc)
				switch {
				case row.wantErr != nil:
					if !errors.Is(err, row.wantErr) {
						t.Fatalf("error = %v, want %v", err, row.wantErr)
					}
					if errors.Is(err, ErrTimeout) && errors.Is(err, ErrNodeDown) {
						t.Fatalf("error matches both failure sentinels: %v", err)
					}
				case row.wantText != "":
					if err == nil || !strings.Contains(err.Error(), row.wantText) {
						t.Fatalf("error = %v, want one mentioning %q", err, row.wantText)
					}
				case err != nil:
					t.Fatalf("call failed: %v", err)
				}
				retries := origin.RPCStats().Value("rpc_retries") + origin.Stats().Value("async_retries")
				if row.retried && retries < 1 {
					t.Errorf("no retry was issued")
				} else if !row.retried && retries != 0 {
					t.Errorf("retries = %d, want 0", retries)
				}
				for _, want := range []struct {
					counter string
					n       int64
				}{
					{"hint_retries", row.hintRetries},
					{"routing_restarts", row.restarts},
					{"anomalies_node_down", row.nodeDown},
					{"anomalies_deadline", row.deadline},
					{"anomalies_retry_exhausted", 0},
				} {
					if got := origin.Stats().Value(want.counter); got != want.n {
						t.Errorf("%s = %d, want %d", want.counter, got, want.n)
					}
				}
				if row.check != nil {
					row.check(t, cl, pc, col.twoStep)
				}
			})
		}
	}
}

// TestEngineSaysItOnce is the structural half of the one-engine, one-copy
// and one-location-rule claims: each of the engine's jobs, each of the cached
// copy's, and each of location's is done in exactly one function of this
// package. It parses the package's non-test files, so a second request
// builder, failure ladder, forwarder, executor, copy offer, installer, serve
// rule, location writer or retry loop growing beside the first fails here
// rather than in review.
func TestEngineSaysItOnce(t *testing.T) {
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// uses maps a name — an identifier, a selected field or method, or the
	// contents of a string literal — to the functions whose bodies mention it,
	// and mentions counts every mention. raisesCopy collects the functions
	// that call SetCopyLocked(true), and setsFwd those that assign a
	// descriptor's forwarding address, and sleeps those that call time.Sleep.
	uses := map[string]map[string]bool{}
	mentions := map[string]int{}
	raisesCopy := map[string]bool{}
	setsFwd := map[string]bool{}
	sleeps := map[string]int{}
	for _, file := range pkgs["core"].Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				var name string
				switch x := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range x.Lhs {
						if sel, ok := lhs.(*ast.SelectorExpr); ok && sel.Sel.Name == "Fwd" {
							setsFwd[fn.Name.Name] = true
						}
					}
					return true
				case *ast.CallExpr:
					if sel, ok := x.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "SetCopyLocked" && len(x.Args) == 1 {
						if arg, ok := x.Args[0].(*ast.Ident); ok && arg.Name == "true" {
							raisesCopy[fn.Name.Name] = true
						}
					}
					if sel, ok := x.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Sleep" {
						if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "time" {
							sleeps[fn.Name.Name]++
						}
					}
					return true
				case *ast.Ident:
					name = x.Name
				case *ast.BasicLit:
					if x.Kind != token.STRING {
						return true
					}
					name = strings.Trim(x.Value, "\"`")
				default:
					return true
				}
				if uses[name] == nil {
					uses[name] = map[string]bool{}
				}
				uses[name][fn.Name.Name] = true
				mentions[name]++
				return true
			})
		}
	}
	for _, c := range []struct {
		what  string
		name  string
		funcs []string // the only functions that may mention name
	}{
		{"encodes a routed invocation from values", "appendHeader", []string{"request", "AppendWire"}},
		{"counts an invocation shipped", "cInvokesShipped", []string{"request", "NewNode"}},
		{"counts a chain shipped", "cChainsShipped", []string{"request", "NewNode"}},
		{"takes the stale-hint rung", "hint_retries", []string{"climb"}},
		{"takes the routing-restart rung", "routing_restarts", []string{"climb"}},
		{"counts a retry the ladder issued", "async_retries", []string{"climb"}},
		{"trips the anomaly recorder", "noteCallAnomaly", []string{"climb"}},
		{"refuses to forward into a dead peer", "forwards_refused_down", []string{"forward"}},
		{"forwards with a detached reply", "Forward", []string{"forward"}},
		{"runs an operation on a pinned object", "runPinned", []string{"runHere", "executeStep"}},
		// One cached copy (DESIGN.md §10): one offer, one installer, one
		// publisher, one teardown, one serve rule.
		{"decides and encodes the copy a reply carries", "replica_snaps_oversize", []string{"offerCopy"}},
		{"records a lease grant", "leaseRecord", []string{"offerCopy"}},
		{"fills a reply's copy", "SnapState", []string{"offerCopy", "acceptReply", "AppendWire", "DecodeWire", "sizeHint"}},
		{"installs a copy pulled off a reply", "installCopy", []string{"copyWorker"}},
		{"publishes a copy", "publishCopyLocked", []string{"installCopy", "handleInstall"}},
		{"tears a copy down to a tombstone", "tombstoneCopyLocked", []string{"evictCopy", "handleLease", "handleInstall"}},
		{"raises or drops the copy bit", "SetCopyLocked", []string{"publishCopyLocked", "tombstoneCopyLocked", "handleInstall"}},
		{"decides what a lease copy serves", "leaseRedirect", []string{"resolve"}},
		// One location rule (DESIGN.md §9.5): one writer of location gossip,
		// for owned tombstones and advisory hints alike, and one control-op
		// executor.
		{"applies the location rule", "Supersedes", []string{"learnLocked"}},
		{"writes a location hint", "HintLearn", []string{"learnLocation"}},
		{"reads a location hint", "HintGet", []string{"homeFallback"}},
		{"refreshes a tombstone from gossip", "learnLocked", []string{"learnLocation", "handleLease"}},
		{"executes a control operation", "executeControl", []string{"control", "handleRouted"}},
		// One way to wait out a racing transition: the executors name the
		// descriptor that was not resident, and one helper waits on it.
		{"asks for the entry protocol to run again", "retryRoute", []string{"executeMove", "component",
			"executeSetImmutable", "executeSetCacheable", "executeDelete", "executeAttach", "executeUnattach",
			"awaitTransition"}},
		{"waits out a racing transition", "awaitTransition", []string{"control", "handleRouted"}},
	} {
		allowed := map[string]bool{}
		for _, f := range c.funcs {
			allowed[f] = true
		}
		if len(uses[c.name]) == 0 {
			t.Errorf("nothing %s: %q is gone — update this test with the engine", c.what, c.name)
		}
		for f := range uses[c.name] {
			if !allowed[f] {
				t.Errorf("%s also %s (%q): the engine's %v is the one place for that", f, c.what, c.name, c.funcs)
			}
		}
	}
	if len(raisesCopy) != 1 || !raisesCopy["publishCopyLocked"] {
		t.Errorf("the copy bit is raised in %v: publishCopyLocked is the one place", raisesCopy)
	}
	if got := mentions["leaseRedirect"]; got != 1 {
		t.Errorf("leaseRedirect is mentioned %d times: resolve's serve rule is the one call", got)
	}
	// A racing transition is waited on, never polled: the runtime does not
	// sleep.
	for f, k := range sleeps {
		t.Errorf("%s calls time.Sleep %d times: wait on the descriptor (awaitTransition) instead", f, k)
	}
	// A descriptor's forwarding address is written by a move leaving it
	// (ship), an object or copy arriving (handleInstall, publishCopyLocked), a
	// copy's teardown, and the one gossip writer — never by a message handler
	// of its own.
	wantFwd := map[string]bool{"ship": true, "handleInstall": true, "publishCopyLocked": true,
		"tombstoneCopyLocked": true, "learnLocked": true}
	for f := range setsFwd {
		if !wantFwd[f] {
			t.Errorf("%s assigns a descriptor's Fwd: location gossip goes through learnLocked", f)
		}
	}
	for f := range wantFwd {
		if !setsFwd[f] {
			t.Errorf("%s no longer assigns Fwd — update this test with the location rule", f)
		}
	}
	for _, f := range []string{"handleLocUpdate", "handleLease"} {
		if setsFwd[f] {
			t.Errorf("%s assigns Fwd itself instead of calling the gossip writer", f)
		}
	}
	for _, retired := range []string{"opChain", "executeChain", "shipChain", "chainInvoke", "chainMsg",
		"shipInvoke", "runAsyncLocal", "asyncDispatch", "asyncFail", "callWith",
		"installReplica", "replicaSnapshot", "SetReplicaLocked", "Replica", "replicaInstall",
		"installLease", "leaseGrantTo", "SnapMax", "replicaMax", "replicaOn",
		"hintSet", "hintGet", "hintDrop", "dropHintsTo", "HintSet", "HintCache",
		"executeControlLocal", "executeRouted", "errRetryRoute", "forwardedTo"} {
		for f := range uses[retired] {
			t.Errorf("%s mentions %s, which the one engine or the one copy replaced", f, retired)
		}
	}
	// One copy bit in the object space: the packed word has no replica bit
	// beside it.
	objspace, err := parser.ParseFile(token.NewFileSet(), "../objspace/descriptor.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	bits := map[string]bool{}
	ast.Inspect(objspace, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			bits[id.Name] = true
		}
		return true
	})
	if !bits["wordCopy"] {
		t.Error("objspace has no wordCopy bit — update this test with the descriptor")
	}
	for _, retired := range []string{"wordReplica", "wordLease", "SetReplicaLocked", "SetLeaseLocked", "Replica"} {
		if bits[retired] {
			t.Errorf("objspace still has %s beside the one copy bit", retired)
		}
	}
}
