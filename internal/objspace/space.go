package objspace

import (
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"

	"amber/internal/gaddr"
)

const (
	// DefaultShards is the shard count when the configuration leaves it
	// zero. 64 stripes comfortably exceeds the processor counts the runtime
	// models (the Fireflies had ≤ 4 CPUs; modern hosts a few dozen), so two
	// threads rarely collide on a stripe by accident.
	DefaultShards = 64
	// DefaultHintCap is the default total location-hint capacity per node,
	// split evenly across shards. Hints are advisory (descriptor state
	// always wins), so capping them costs at most one extra home-node hop
	// on a cold object.
	DefaultHintCap = 4096
	// DefaultReplicaCap is the default total demand-pulled replica capacity
	// per node, split evenly across shards. Replicas are pure caches of
	// immutable state (the residence copy is never the one evicted), so the
	// bound trades memory for repeat-miss round trips, nothing else.
	DefaultReplicaCap = 1024
	// maxShards bounds configuration mistakes.
	maxShards = 1 << 16
	// minHintsPerShard keeps tiny configurations useful.
	minHintsPerShard = 4
)

// shard is one stripe of the object space. Descriptors live in a sync.Map so
// the invoke fast path reads them lock-free; the shard mutex guards only the
// bounded hint cache; the move mutex serializes topology changes (moves,
// attaches) whose components touch this shard.
type shard[P any] struct {
	descs sync.Map // gaddr.Addr -> *Descriptor[P]
	ndesc atomic.Int64

	mu       sync.Mutex // guards hints + fifo and the replica FIFO below
	hints    map[gaddr.Addr]Hint
	fifo     []gaddr.Addr // insertion order; may carry stale (dropped) keys
	fifoHead int

	// Demand-pulled copy tracking: which addresses this node holds as read
	// copies — immutable replicas and mutable reader leases share one table
	// and one bound, since both are caches of remote state torn down the
	// same way. Each entry maps to the source node the copy was pulled from
	// (the eviction tombstone's forward target) plus whether it is a lease.
	// Same bounded-FIFO shape as the hint cache; the map is bookkeeping only
	// — the payload lives in the descriptor, and core tears it down on
	// eviction.
	replicas   map[gaddr.Addr]replicaEntry
	rfifo      []gaddr.Addr
	rfifoHead  int
	revictions atomic.Uint64

	moveMu sync.Mutex

	// Contention counters: TryLock-probed so a clean acquisition costs one
	// extra atomic and a contended one is visible in /metrics.
	hintLocks     atomic.Uint64
	hintContended atomic.Uint64
	moveLocks     atomic.Uint64
	moveContended atomic.Uint64
	evictions     atomic.Uint64
}

func (sh *shard[P]) lockHints() {
	sh.hintLocks.Add(1)
	if sh.mu.TryLock() {
		return
	}
	sh.hintContended.Add(1)
	sh.mu.Lock()
}

func (sh *shard[P]) lockMove() {
	sh.moveLocks.Add(1)
	if sh.moveMu.TryLock() {
		return
	}
	sh.moveContended.Add(1)
	sh.moveMu.Lock()
}

// Space is a node's lock-striped object-space table: descriptors and
// location hints for the global addresses this node has touched, sharded by
// address hash. The type parameter P is the runtime's per-object payload
// (live value + type info); objspace itself never inspects it.
type Space[P any] struct {
	shards     []shard[P]
	shift      uint // 64 - log2(len(shards)), for the multiplicative hash
	hintCap    int  // per shard
	replicaCap int  // per shard; 0 disables replica tracking
}

// New creates a Space with the given shard count (rounded up to a power of
// two; 0 selects DefaultShards), total hint capacity (0 selects
// DefaultHintCap) and total replica capacity (0 selects DefaultReplicaCap,
// negative disables replica tracking), each divided evenly among shards.
func New[P any](shards, hintCap, replicaCap int) *Space[P] {
	if shards <= 0 {
		shards = DefaultShards
	}
	if shards > maxShards {
		shards = maxShards
	}
	// Round up to a power of two so shard selection is a shift.
	n := 1 << bits.Len(uint(shards-1))
	if n < 1 {
		n = 1
	}
	if hintCap <= 0 {
		hintCap = DefaultHintCap
	}
	per := hintCap / n
	if per < minHintsPerShard {
		per = minHintsPerShard
	}
	var rper int
	switch {
	case replicaCap < 0:
		rper = 0
	case replicaCap == 0:
		replicaCap = DefaultReplicaCap
		fallthrough
	default:
		rper = replicaCap / n
		if rper < 1 {
			rper = 1
		}
	}
	s := &Space[P]{
		shards:     make([]shard[P], n),
		shift:      uint(64 - bits.Len(uint(n-1))),
		hintCap:    per,
		replicaCap: rper,
	}
	if n == 1 {
		s.shift = 64 // degenerate single-shard space; x>>64 == 0 in Go
	}
	return s
}

// NumShards reports the shard count (a power of two).
func (s *Space[P]) NumShards() int { return len(s.shards) }

// HintCapPerShard reports the per-shard hint bound.
func (s *Space[P]) HintCapPerShard() int { return s.hintCap }

// ShardOf maps an address to its shard index. Fibonacci hashing spreads the
// allocator's sequential addresses across stripes.
func (s *Space[P]) ShardOf(a gaddr.Addr) int {
	return int((uint64(a) * 0x9E3779B97F4A7C15) >> s.shift)
}

func (s *Space[P]) shardOf(a gaddr.Addr) *shard[P] { return &s.shards[s.ShardOf(a)] }

// Get returns the descriptor for a, or nil if absent. Lock-free: one hash
// plus one sync.Map read.
func (s *Space[P]) Get(a gaddr.Addr) *Descriptor[P] {
	if v, ok := s.shardOf(a).descs.Load(a); ok {
		return v.(*Descriptor[P])
	}
	return nil
}

// Ensure returns the descriptor for a, creating an empty (StateAbsent) one
// if needed; the caller initializes it under its lock.
func (s *Space[P]) Ensure(a gaddr.Addr) *Descriptor[P] {
	sh := s.shardOf(a)
	if v, ok := sh.descs.Load(a); ok {
		return v.(*Descriptor[P])
	}
	v, loaded := sh.descs.LoadOrStore(a, newDescriptor[P]())
	if !loaded {
		sh.ndesc.Add(1)
	}
	return v.(*Descriptor[P])
}

// Range visits every descriptor (no ordering guarantees, concurrent-safe).
// Return false from f to stop.
func (s *Space[P]) Range(f func(gaddr.Addr, *Descriptor[P]) bool) {
	for i := range s.shards {
		stop := false
		s.shards[i].descs.Range(func(k, v any) bool {
			if !f(k.(gaddr.Addr), v.(*Descriptor[P])) {
				stop = true
				return false
			}
			return true
		})
		if stop {
			return
		}
	}
}

// Descriptors reports the number of descriptor slots in the table.
func (s *Space[P]) Descriptors() int {
	var n int64
	for i := range s.shards {
		n += s.shards[i].ndesc.Load()
	}
	return int(n)
}

// --- location hints (chain caching without descriptors, §3.3) ---

// Hint is an advisory forwarding entry: the object was last seen at Node, in
// the residency whose version is Epoch (0 = an unversioned claim). It is the
// forwarding tombstone of a node that never hosted the object — nobody owns
// it, so it lives in a bounded cache and may be evicted or dropped at will.
type Hint struct {
	Node  gaddr.NodeID
	Epoch uint64
}

// Supersedes is the one location rule, for owned forwarding tombstones and
// advisory hints alike: a claim replaces an entry held at epoch held only
// when it is strictly newer. Location gossip arrives arbitrarily late, and
// anything weaker could aim an entry backward in time, into a forwarding
// cycle with some other node's newer entry. An unversioned claim (epoch 0)
// therefore never replaces anything; it can only fill an empty hint slot.
func Supersedes(claim, held uint64) bool { return claim > held }

// HintGet consults the shard's location-hint cache.
func (s *Space[P]) HintGet(a gaddr.Addr) (Hint, bool) {
	sh := s.shardOf(a)
	sh.lockHints()
	h, ok := sh.hints[a]
	sh.mu.Unlock()
	return h, ok
}

// HintLearn records that a was last seen at h.Node. An existing hint is
// refreshed in place (keeping its FIFO position) only when h Supersedes it;
// a new one evicts the oldest hint in the shard (FIFO) when the shard is at
// capacity. Reports whether h was stored.
func (s *Space[P]) HintLearn(a gaddr.Addr, h Hint) bool {
	sh := s.shardOf(a)
	sh.lockHints()
	if cur, ok := sh.hints[a]; ok {
		stored := Supersedes(h.Epoch, cur.Epoch)
		if stored {
			sh.hints[a] = h
		}
		sh.mu.Unlock()
		return stored
	}
	if sh.hints == nil {
		sh.hints = make(map[gaddr.Addr]Hint, s.hintCap)
	}
	sh.hints[a] = h
	sh.fifo = append(sh.fifo, a)
	for len(sh.hints) > s.hintCap {
		// Pop FIFO entries until one still names a live hint; dropped keys
		// leave stale queue entries behind, skipped here.
		old := sh.fifo[sh.fifoHead]
		sh.fifoHead++
		if _, ok := sh.hints[old]; ok {
			delete(sh.hints, old)
			sh.evictions.Add(1)
		}
	}
	// Compact the queue once the dead prefix dominates.
	if sh.fifoHead > len(sh.fifo)/2 && sh.fifoHead > s.hintCap {
		sh.fifo = append(sh.fifo[:0], sh.fifo[sh.fifoHead:]...)
		sh.fifoHead = 0
	}
	sh.mu.Unlock()
	return true
}

// HintDrop forgets a (presumed stale) hint, reporting whether one existed.
func (s *Space[P]) HintDrop(a gaddr.Addr) bool {
	sh := s.shardOf(a)
	sh.lockHints()
	_, ok := sh.hints[a]
	if ok {
		delete(sh.hints, a)
	}
	sh.mu.Unlock()
	return ok
}

// DropHintsTo forgets every hint pointing at a peer (used when the peer is
// discovered to have restarted without its memory). The sweep is sharded:
// each stripe's bounded map is scanned under that stripe's own lock, so a
// peer restart never stalls the whole node behind one giant map scan.
// Returns the number of hints dropped.
func (s *Space[P]) DropHintsTo(peer gaddr.NodeID) int {
	dropped := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.lockHints()
		for a, h := range sh.hints {
			if h.Node == peer {
				delete(sh.hints, a)
				dropped++
			}
		}
		sh.mu.Unlock()
	}
	return dropped
}

// Hints reports the total number of cached hints.
func (s *Space[P]) Hints() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.lockHints()
		n += len(sh.hints)
		sh.mu.Unlock()
	}
	return n
}

// --- demand-pulled replica/lease tracking (bounded, FIFO-evicted) ---

// replicaEntry is one tracked read copy: the node it was pulled from and
// whether it is a bounded-lifetime lease on a mutable object (as opposed to
// an immutable replica).
type replicaEntry struct {
	src   gaddr.NodeID
	lease bool
}

// ReplicaVictim names a copy popped from the cache by ReplicaTrack or
// DropReplicasFrom; the caller is responsible for tearing down the descriptor
// (replacing the local copy with a tombstone forwarding to Source).
type ReplicaVictim struct {
	Addr   gaddr.Addr
	Source gaddr.NodeID
	Lease  bool
}

// ReplicaCapPerShard reports the per-shard replica bound (0 = tracking
// disabled).
func (s *Space[P]) ReplicaCapPerShard() int { return s.replicaCap }

// ReplicaTrack records that a is now held locally as a read copy pulled from
// src (lease marks a mutable reader lease rather than an immutable replica),
// and returns the FIFO victims (from a's shard) that must be evicted to stay
// within the per-shard bound. Re-tracking an existing entry refreshes its
// source and kind in place and keeps its queue position. No-op when tracking
// is disabled.
func (s *Space[P]) ReplicaTrack(a gaddr.Addr, src gaddr.NodeID, lease bool) (victims []ReplicaVictim) {
	if s.replicaCap == 0 {
		return nil
	}
	sh := s.shardOf(a)
	sh.lockHints()
	if _, ok := sh.replicas[a]; ok {
		sh.replicas[a] = replicaEntry{src: src, lease: lease}
		sh.mu.Unlock()
		return nil
	}
	if sh.replicas == nil {
		sh.replicas = make(map[gaddr.Addr]replicaEntry, s.replicaCap)
	}
	sh.replicas[a] = replicaEntry{src: src, lease: lease}
	sh.rfifo = append(sh.rfifo, a)
	for len(sh.replicas) > s.replicaCap {
		old := sh.rfifo[sh.rfifoHead]
		sh.rfifoHead++
		if oldEnt, ok := sh.replicas[old]; ok && old != a {
			delete(sh.replicas, old)
			sh.revictions.Add(1)
			victims = append(victims, ReplicaVictim{Addr: old, Source: oldEnt.src, Lease: oldEnt.lease})
		}
	}
	if sh.rfifoHead > len(sh.rfifo)/2 && sh.rfifoHead > s.replicaCap {
		sh.rfifo = append(sh.rfifo[:0], sh.rfifo[sh.rfifoHead:]...)
		sh.rfifoHead = 0
	}
	sh.mu.Unlock()
	return victims
}

// ReplicaRetrack re-enters a victim whose descriptor teardown could not
// proceed (e.g. the copy was pinned by an executing invoke). The entry is
// appended WITHOUT cap enforcement, so a busy victim cannot trigger an
// eviction cascade; the shard shrinks back to its bound on the next
// ReplicaTrack.
func (s *Space[P]) ReplicaRetrack(a gaddr.Addr, src gaddr.NodeID, lease bool) {
	if s.replicaCap == 0 {
		return
	}
	sh := s.shardOf(a)
	sh.lockHints()
	if _, ok := sh.replicas[a]; !ok {
		if sh.replicas == nil {
			sh.replicas = make(map[gaddr.Addr]replicaEntry, s.replicaCap)
		}
		sh.replicas[a] = replicaEntry{src: src, lease: lease}
		sh.rfifo = append(sh.rfifo, a)
	}
	sh.mu.Unlock()
}

// ReplicaDrop forgets a tracked replica (the descriptor was superseded or
// torn down by other means), reporting whether one was tracked.
func (s *Space[P]) ReplicaDrop(a gaddr.Addr) bool {
	if s.replicaCap == 0 {
		return false
	}
	sh := s.shardOf(a)
	sh.lockHints()
	_, ok := sh.replicas[a]
	if ok {
		delete(sh.replicas, a)
	}
	sh.mu.Unlock()
	return ok
}

// Replicas reports the total number of tracked copies (replicas + leases).
func (s *Space[P]) Replicas() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.lockHints()
		n += len(sh.replicas)
		sh.mu.Unlock()
	}
	return n
}

// Leases reports the number of tracked copies that are mutable reader
// leases.
func (s *Space[P]) Leases() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.lockHints()
		for _, e := range sh.replicas {
			if e.lease {
				n++
			}
		}
		sh.mu.Unlock()
	}
	return n
}

// DropReplicasFrom untracks every copy pulled from peer (used when the peer
// is discovered to be down or restarted: a lease granted by a pre-crash
// incarnation must not keep serving reads, and a replica's forward target is
// gone). Sharded like DropHintsTo. Returns the dropped entries as victims;
// the caller tears down each descriptor.
func (s *Space[P]) DropReplicasFrom(peer gaddr.NodeID) []ReplicaVictim {
	var victims []ReplicaVictim
	for i := range s.shards {
		sh := &s.shards[i]
		sh.lockHints()
		for a, e := range sh.replicas {
			if e.src == peer {
				delete(sh.replicas, a)
				victims = append(victims, ReplicaVictim{Addr: a, Source: e.src, Lease: e.lease})
			}
		}
		sh.mu.Unlock()
	}
	return victims
}

// --- per-shard move serialization ---

// ShardsOf returns the sorted, deduplicated shard indices covering addrs —
// the lock set for a multi-shard topology change.
func (s *Space[P]) ShardsOf(addrs []gaddr.Addr) []int {
	idx := make([]int, 0, len(addrs))
	for _, a := range addrs {
		idx = append(idx, s.ShardOf(a))
	}
	sort.Ints(idx)
	out := idx[:0]
	for i, v := range idx {
		if i == 0 || v != idx[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// LockMove acquires the move locks for the given shard indices, which MUST
// be sorted ascending and deduplicated (ShardsOf's output). Ascending-order
// acquisition is the system-wide rule that makes concurrent multi-shard
// moves and attaches deadlock-free.
func (s *Space[P]) LockMove(shards []int) {
	for _, i := range shards {
		s.shards[i].lockMove()
	}
}

// UnlockMove releases the move locks taken by LockMove.
func (s *Space[P]) UnlockMove(shards []int) {
	for i := len(shards) - 1; i >= 0; i-- {
		s.shards[shards[i]].moveMu.Unlock()
	}
}

// ContainsAll reports whether every index in sub appears in super; both must
// be sorted ascending. Used to validate that a re-walked component still
// fits inside an already-held lock set.
func ContainsAll(super, sub []int) bool {
	j := 0
	for _, v := range sub {
		for j < len(super) && super[j] < v {
			j++
		}
		if j >= len(super) || super[j] != v {
			return false
		}
	}
	return true
}

// --- introspection ---

// ShardStat is one stripe's occupancy and contention snapshot.
type ShardStat struct {
	Descriptors      int64  `json:"descriptors"`
	Hints            int    `json:"hints"`
	HintLocks        uint64 `json:"hint_locks"`
	HintContended    uint64 `json:"hint_contended"`
	MoveLocks        uint64 `json:"move_locks"`
	MoveContended    uint64 `json:"move_contended"`
	Evictions        uint64 `json:"hint_evictions"`
	Replicas         int    `json:"replicas"`
	Leases           int    `json:"leases"`
	ReplicaEvictions uint64 `json:"replica_evictions"`
}

// ShardStats snapshots every stripe (for the /space debug endpoint and
// tests).
func (s *Space[P]) ShardStats() []ShardStat {
	out := make([]ShardStat, len(s.shards))
	for i := range s.shards {
		sh := &s.shards[i]
		sh.lockHints()
		hints := len(sh.hints)
		replicas := len(sh.replicas)
		leases := 0
		for _, e := range sh.replicas {
			if e.lease {
				leases++
			}
		}
		sh.mu.Unlock()
		out[i] = ShardStat{
			Descriptors:      sh.ndesc.Load(),
			Hints:            hints,
			HintLocks:        sh.hintLocks.Load(),
			HintContended:    sh.hintContended.Load(),
			MoveLocks:        sh.moveLocks.Load(),
			MoveContended:    sh.moveContended.Load(),
			Evictions:        sh.evictions.Load(),
			Replicas:         replicas,
			Leases:           leases,
			ReplicaEvictions: sh.revictions.Load(),
		}
	}
	return out
}

// Snapshot aggregates the space's counters into a flat metric map (rendered
// under the objspace_ prefix by amberd's /metrics).
func (s *Space[P]) Snapshot() map[string]int64 {
	var st ShardStat
	var hints, replicas, leases int
	for i := range s.shards {
		sh := &s.shards[i]
		st.Descriptors += sh.ndesc.Load()
		st.HintLocks += sh.hintLocks.Load()
		st.HintContended += sh.hintContended.Load()
		st.MoveLocks += sh.moveLocks.Load()
		st.MoveContended += sh.moveContended.Load()
		st.Evictions += sh.evictions.Load()
		st.ReplicaEvictions += sh.revictions.Load()
		sh.lockHints()
		hints += len(sh.hints)
		replicas += len(sh.replicas)
		for _, e := range sh.replicas {
			if e.lease {
				leases++
			}
		}
		sh.mu.Unlock()
	}
	return map[string]int64{
		"shards":                int64(len(s.shards)),
		"descriptors":           st.Descriptors,
		"hints":                 int64(hints),
		"hint_cap_per_shard":    int64(s.hintCap),
		"hint_lock_acquires":    int64(st.HintLocks),
		"hint_lock_contended":   int64(st.HintContended),
		"move_lock_acquires":    int64(st.MoveLocks),
		"move_lock_contended":   int64(st.MoveContended),
		"hint_evictions":        int64(st.Evictions),
		"replicas":              int64(replicas),
		"leases":                int64(leases),
		"replica_cap_per_shard": int64(s.replicaCap),
		"replica_evictions":     int64(st.ReplicaEvictions),
	}
}
