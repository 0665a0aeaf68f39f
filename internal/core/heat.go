package core

// Heat-driven object placement (§4 of the paper argues placement should
// follow the computation; the decentralized style is that of ABS-NET): each
// node tracks, per resident object, an EWMA of invoke rates broken down by
// calling node, and migrates an object toward its dominant caller when that
// caller's rate decisively outweighs everyone else's — including this node's
// own local use. Every node decides purely from its own counters; there is
// no coordinator, and no messages beyond the moves themselves.
//
// The tracker sits off the invocation fast paths: the remote-execution leg
// (already a microseconds path) attributes each arriving invoke to its
// origin node, and the local fast path pays one nil-check when placement is
// disabled and one sharded map increment when enabled. A periodic worker
// folds the raw counts into the EWMAs and issues the moves through the
// ordinary mobility machinery, so heat migration composes with pins, drains,
// attachment components and forwarding like any other MoveTo.

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"amber/internal/gaddr"
	"amber/internal/trace"
)

const (
	// heatShards stripes the tracker table like the object space: observers
	// on different objects lock different shards.
	heatShards = 16
	// heatAlpha is the EWMA smoothing factor per tick: ~half the weight on
	// the newest interval, so a shifted workload re-dominates in a few ticks
	// while a single bursty interval cannot trigger a move on its own.
	heatAlpha = 0.5
	// heatSettleTicks is how many ticks an entry must age before it may
	// move its object. A freshly arrived object re-settles on its new node,
	// which (with the EWMA) damps ping-pong between two callers.
	heatSettleTicks = 2
	// heatColdRate is the EWMA below which a caller's lane — and, when all
	// lanes go cold, the whole entry — is dropped.
	heatColdRate = 0.25
	// heatMaxMovesPerTick bounds the migrations one tick may issue, so a
	// pathological workload cannot turn the worker into a move storm.
	heatMaxMovesPerTick = 8
)

// heatEntry is one object's per-caller invoke accounting.
type heatEntry struct {
	// counts are raw invokes observed this interval, by calling node (this
	// node's own ID = local use).
	counts map[gaddr.NodeID]uint32
	// rates are the per-caller EWMAs, in invokes per interval.
	rates map[gaddr.NodeID]float64
	// ticks ages the entry; negative values are a failure back-off.
	ticks int
}

type heatShard struct {
	mu sync.Mutex
	m  map[gaddr.Addr]*heatEntry
}

// heatMove is one tick's migration decision.
type heatMove struct {
	obj  gaddr.Addr
	dest gaddr.NodeID
	rate float64
}

// heatDecisionKeep bounds the retained migration-decision log.
const heatDecisionKeep = 64

// heatTracker holds the sharded per-object table plus the decision knobs.
type heatTracker struct {
	shards   [heatShards]heatShard
	perShard int     // entry cap per shard
	ratio    float64 // dominance ratio over the sum of all other lanes
	min      float64 // minimum EWMA (invokes/interval) to consider moving
	interval time.Duration

	// decisions is a small ring of recent migration decisions and their
	// outcomes, for the /heat introspection endpoint.
	decMu     sync.Mutex
	decisions []HeatDecision
}

func newHeatTracker(interval time.Duration, ratio, min float64, entries int) *heatTracker {
	if ratio <= 0 {
		ratio = 2.0
	}
	if min <= 0 {
		min = 16
	}
	if entries <= 0 {
		entries = 4096
	}
	h := &heatTracker{
		perShard: (entries + heatShards - 1) / heatShards,
		ratio:    ratio,
		min:      min,
		interval: interval,
	}
	for i := range h.shards {
		h.shards[i].m = make(map[gaddr.Addr]*heatEntry)
	}
	return h
}

func (h *heatTracker) shard(a gaddr.Addr) *heatShard {
	return &h.shards[(uint64(a)*0x9E3779B97F4A7C15)>>59&(heatShards-1)]
}

// observe attributes one invoke on a to the calling node src. A full shard
// sheds new objects rather than evicting (the periodic fold retires cold
// entries, freeing room); shedding only delays discovery of a hot object by
// a tick or two.
func (h *heatTracker) observe(a gaddr.Addr, src gaddr.NodeID) bool {
	s := h.shard(a)
	s.mu.Lock()
	e := s.m[a]
	if e == nil {
		if len(s.m) >= h.perShard {
			s.mu.Unlock()
			return false
		}
		e = &heatEntry{counts: make(map[gaddr.NodeID]uint32), rates: make(map[gaddr.NodeID]float64)}
		s.m[a] = e
	}
	e.counts[src]++
	s.mu.Unlock()
	return true
}

// forget drops an object's accounting (after a migration either way: the
// destination builds its own view from scratch).
func (h *heatTracker) forget(a gaddr.Addr) {
	s := h.shard(a)
	s.mu.Lock()
	delete(s.m, a)
	s.mu.Unlock()
}

// backoff resets an entry's age after a failed move so the object is not
// re-attempted every tick.
func (h *heatTracker) backoff(a gaddr.Addr) {
	s := h.shard(a)
	s.mu.Lock()
	if e := s.m[a]; e != nil {
		e.ticks = -2 * heatSettleTicks
	}
	s.mu.Unlock()
}

// fold is the once-per-tick pass: raw counts decay into the EWMAs, cold
// lanes and entries retire, and each surviving entry is tested against the
// placement rule. self is the local node (its lane counts as local use).
//
// The rule: let top be the remote caller with the highest EWMA and rest the
// sum of every other lane, local use included. The object moves to top when
//
//	top >= min  &&  top >= ratio × rest
//
// i.e. the dominant caller is both hot in absolute terms and decisively
// hotter than everyone else combined. Decisions use only this node's own
// counters — no coordinator.
func (h *heatTracker) fold(self gaddr.NodeID) []heatMove {
	var moves []heatMove
	for i := range h.shards {
		s := &h.shards[i]
		s.mu.Lock()
		for a, e := range s.m {
			// Existing lanes fold this interval's count in (zero if idle,
			// which is the decay); lanes seen for the first time start at
			// their count's share.
			for src := range e.rates {
				e.rates[src] = heatAlpha*float64(e.counts[src]) + (1-heatAlpha)*e.rates[src]
				delete(e.counts, src)
			}
			for src, c := range e.counts {
				e.rates[src] = heatAlpha * float64(c)
				delete(e.counts, src)
			}
			for src, r := range e.rates {
				if r < heatColdRate {
					delete(e.rates, src)
				}
			}
			if len(e.rates) == 0 {
				delete(s.m, a)
				continue
			}
			e.ticks++
			if e.ticks < heatSettleTicks || len(moves) >= heatMaxMovesPerTick {
				continue
			}
			var top gaddr.NodeID
			var topRate, rest float64
			for src, r := range e.rates {
				if src != self && r > topRate {
					topRate = r
					top = src
				}
			}
			for src, r := range e.rates {
				if src != top {
					rest += r
				}
			}
			if topRate >= h.min && topRate >= h.ratio*rest {
				moves = append(moves, heatMove{obj: a, dest: top, rate: topRate})
			}
		}
		s.mu.Unlock()
	}
	return moves
}

// --- introspection (/heat endpoint, DESIGN.md §12) ---

// HeatLane is one calling node's smoothed invoke rate on an object.
type HeatLane struct {
	Node gaddr.NodeID `json:"node"`
	Rate float64      `json:"rate"` // EWMA, invokes per interval
}

// HeatObject is one tracked object's accounting, as exported by HeatDump.
type HeatObject struct {
	Obj   gaddr.Addr `json:"obj"`
	Ticks int        `json:"ticks"` // age; negative = failure back-off
	Total float64    `json:"total"` // sum of all lanes
	// Top is the hottest *remote* lane — the candidate destination the
	// placement rule tests — and TopRate its EWMA. Top is NoNode when every
	// lane is local.
	Top     gaddr.NodeID `json:"top"`
	TopRate float64      `json:"top_rate"`
	Lanes   []HeatLane   `json:"lanes"` // hottest first
}

// HeatDecision is one migration decision the placement worker took.
type HeatDecision struct {
	TimeNs int64        `json:"time_ns"`
	Obj    gaddr.Addr   `json:"obj"`
	Dest   gaddr.NodeID `json:"dest"`
	Rate   float64      `json:"rate"`
	// Outcome: "moved", "failed" (MoveTo refused; entry backs off), or
	// "stale" (the object was gone/immutable/replica by execution time).
	Outcome string `json:"outcome"`
}

// HeatDump is the full /heat payload: the placement configuration, the
// hottest tracked objects, and the recent decision log.
type HeatDump struct {
	Node       gaddr.NodeID   `json:"node"`
	Enabled    bool           `json:"enabled"`
	IntervalNs int64          `json:"interval_ns"`
	Ratio      float64        `json:"ratio"`
	Min        float64        `json:"min"`
	Tracked    int            `json:"tracked"`
	Objects    []HeatObject   `json:"objects"`   // hottest first, capped
	Decisions  []HeatDecision `json:"decisions"` // oldest first
}

// record appends a decision to the ring.
func (h *heatTracker) record(d HeatDecision) {
	h.decMu.Lock()
	h.decisions = append(h.decisions, d)
	if len(h.decisions) > heatDecisionKeep {
		h.decisions = h.decisions[len(h.decisions)-heatDecisionKeep:]
	}
	h.decMu.Unlock()
}

// snapshot exports the tracker's state: the topN hottest objects (by total
// EWMA across lanes) plus the decision ring. Shards are locked one at a time,
// so the view is per-shard consistent — introspection, not coordination.
func (h *heatTracker) snapshot(self gaddr.NodeID, topN int) ([]HeatObject, []HeatDecision) {
	if topN <= 0 {
		topN = 10
	}
	var objs []HeatObject
	for i := range h.shards {
		s := &h.shards[i]
		s.mu.Lock()
		for a, e := range s.m {
			o := HeatObject{Obj: a, Ticks: e.ticks, Top: gaddr.NoNode}
			for src, r := range e.rates {
				o.Total += r
				o.Lanes = append(o.Lanes, HeatLane{Node: src, Rate: r})
				if src != self && r > o.TopRate {
					o.Top, o.TopRate = src, r
				}
			}
			sort.Slice(o.Lanes, func(i, j int) bool { return o.Lanes[i].Rate > o.Lanes[j].Rate })
			objs = append(objs, o)
		}
		s.mu.Unlock()
	}
	sort.Slice(objs, func(i, j int) bool { return objs[i].Total > objs[j].Total })
	if len(objs) > topN {
		objs = objs[:topN]
	}
	h.decMu.Lock()
	decs := append([]HeatDecision(nil), h.decisions...)
	h.decMu.Unlock()
	return objs, decs
}

// HeatDump exports this node's heat tracker for the /heat endpoint. With
// placement disabled the dump is valid but empty (Enabled=false).
func (n *Node) HeatDump(topN int) *HeatDump {
	d := &HeatDump{Node: n.id}
	if n.heat == nil {
		return d
	}
	d.Enabled = true
	d.IntervalNs = int64(n.heat.interval)
	d.Ratio = n.heat.ratio
	d.Min = n.heat.min
	d.Tracked = n.heat.tracked()
	d.Objects, d.Decisions = n.heat.snapshot(n.id, topN)
	return d
}

// tracked reports how many objects currently have heat accounting (for
// introspection and tests).
func (h *heatTracker) tracked() int {
	n := 0
	for i := range h.shards {
		s := &h.shards[i]
		s.mu.Lock()
		n += len(s.m)
		s.mu.Unlock()
	}
	return n
}

// --- node integration ---

// heatObserve attributes one executed invoke on a mutable resident object to
// the calling node. Inlined nil-check at the call sites keeps the disabled
// cost to one branch.
func (n *Node) heatObserve(a gaddr.Addr, src gaddr.NodeID) {
	if n.heat.observe(a, src) {
		n.cHeatObs.Inc()
	} else {
		n.counts.Inc("heat_shed")
	}
}

// HeatTracked reports how many objects this node currently keeps heat
// accounting for (0 when placement is disabled).
func (n *Node) HeatTracked() int {
	if n.heat == nil {
		return 0
	}
	return n.heat.tracked()
}

// heatWorker is the per-node placement loop: fold, decide, move. It runs
// while the node is open and exits on Close, like the replica installer.
func (n *Node) heatWorker() {
	tk := time.NewTicker(n.heat.interval)
	defer tk.Stop()
	for {
		select {
		case <-n.stopc:
			return
		case <-tk.C:
			n.heatTick()
		}
	}
}

// heatTick executes one placement round. Decisions were computed from this
// node's counters alone; each is re-validated against the live descriptor
// (the object may have moved, become immutable, or died since) and executed
// through the ordinary mobility machinery so pins, drains and attachment
// components are honoured.
func (n *Node) heatTick() {
	n.counts.Inc("heat_ticks")
	moves := n.heat.fold(n.id)
	if len(moves) >= heatMaxMovesPerTick {
		// The tick saturated its migration budget: fold wanted to move at
		// least this many objects at once, which is the signature of placement
		// thrash (ping-ponging objects, or a workload shift re-homing a whole
		// working set). Worth a flight-recorder snapshot.
		n.counts.Inc("heat_storms")
		n.capture.Load().Trigger(trace.TrigHeatStorm,
			fmt.Sprintf("node %d: heat tick hit its migration budget (%d moves)", n.id, len(moves)))
	}
	for _, mv := range moves {
		dec := HeatDecision{TimeNs: time.Now().UnixNano(), Obj: mv.obj, Dest: mv.dest, Rate: mv.rate}
		d := n.desc(mv.obj)
		if d == nil || d.State() != stateResident || d.Copy() || d.Immutable() {
			n.heat.forget(mv.obj)
			dec.Outcome = "stale"
			n.heat.record(dec)
			continue
		}
		ctx := n.Root()
		if err := ctx.MoveTo(mv.obj, mv.dest); err != nil {
			// Unmovable (pinned forever, attachment veto, racing delete):
			// keep the entry but back off so we do not retry every tick.
			n.counts.Inc("heat_move_failed")
			n.heat.backoff(mv.obj)
			dec.Outcome = "failed"
			n.heat.record(dec)
			continue
		}
		n.counts.Inc("heat_moves")
		if tr := n.tracer; tr.On() {
			tr.Emit(trace.Event{Kind: trace.KHeatMove, Obj: uint64(mv.obj), Arg: int64(mv.dest)})
		}
		n.heat.forget(mv.obj)
		dec.Outcome = "moved"
		n.heat.record(dec)
	}
}
