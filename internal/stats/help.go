package stats

import "sync"

// HELP text for the Prometheus exposition. Keys are the rendered metric name
// minus the "amber_" prefix (i.e. "<family>_<counter>"), so the same counter
// name under different families can carry different explanations. The
// renderer falls back to a generic line for unregistered names — every
// series always gets a HELP line — but the PR5/PR6 subsystem counters
// (sched_*, heat_*, replica_*) are all registered explicitly and a test
// audits that they stay that way.

var helpText = map[string]string{
	// --- scheduler (per-slot run queues + work stealing) ---
	"sched_acquires":        "processor-slot acquisitions requested",
	"sched_acquire_fast":    "acquisitions served on the lock-free token fast path",
	"sched_yields":          "cooperative timeslice yields",
	"sched_blocks":          "slot releases for a blocking primitive (lock wait, join, remote invoke)",
	"sched_steals":          "dispatches served by stealing from another slot's run queue",
	"sched_steal_attempts":  "steal probes of other slots' run queues (hits and misses)",
	"sched_handoffs":        "releases that passed the slot directly to a queued task",
	"sched_parks":           "tasks that actually slept on their grant channel",
	"sched_unparks":         "queued tasks granted a slot (handoff or wakeup)",
	"sched_overflow_spills": "enqueues a bounded slot queue rejected into the shared overflow ring",

	// --- transport readers (handlers run on the link's reader goroutine) ---
	"transport_reader_handoffs":          "links handed to a fresh reader because a goroutine was about to wait while the reader ran a handler",
	"transport_reader_watchdog_handoffs": "links handed to a fresh reader because its handler was still running at two watchdog scans",
	"transport_reader_watchdog_arms":     "reader watchdog timer starts (the watchdog runs only while a reader is inside a handler)",

	// --- heat-driven placement ---
	"node_heat_observed":    "invokes attributed to a caller lane by the heat tracker",
	"node_heat_shed":        "heat observations dropped because the tracker shard was full",
	"node_heat_ticks":       "heat placement rounds (fold + decide + move)",
	"node_heat_moves":       "objects migrated toward their dominant caller",
	"node_heat_move_failed": "heat migrations refused by the mobility layer (pins, attachment vetoes)",
	"node_heat_storms":      "ticks that saturated the per-tick migration budget (anomaly trigger)",

	// --- read-path replication ---
	"node_replica_hits":             "local invokes served by an installed immutable replica",
	"node_replica_misses":           "shipped invokes that found the object immutable (a replica would have absorbed them)",
	"node_replica_installs":         "replica snapshots accepted from piggybacked invoke replies",
	"node_replica_installs_shed":    "replica installs dropped because the install queue was full",
	"node_replica_installs_dropped": "replica installs skipped because a descriptor state precluded them",
	"node_replica_installs_dup":     "replica installs that found the replica already present",
	"node_replica_installs_stale":   "replica installs rejected as older than the local view",
	"node_replica_install_errors":   "replica installs that failed to decode or register",
	"node_replica_evicted":          "replicas evicted by the cache's FIFO cap",
	"node_replica_evictions_busy":   "replica evictions deferred because the replica was pinned",
	"node_replica_snaps_encoded":    "immutable snapshots encoded onto invoke replies",
	"node_replica_snaps_oversize":   "immutable copies not offered because the snapshot exceeded 64 KiB",
	"node_replica_snap_errors":      "snapshot encodings that failed",
	"node_replicas_installed":       "replica objects installed via explicit immutable moves",
	"node_replicas_sent":            "replica copies shipped to other nodes",
	"node_locates_local_replica":    "Locate calls answered by a local replica",

	// --- reader leases (mutable-object caching) ---
	"node_lease_hits":                "local reads served by a live reader-lease copy (zero messages)",
	"node_lease_grants":              "reader leases granted on invoke replies to remote read-only callers",
	"node_lease_installs":            "lease snapshots installed from piggybacked invoke replies",
	"node_lease_renewals":            "lease installs that only extended an existing same-epoch copy's expiry",
	"node_lease_stale":               "reads that found the local lease expired and forwarded to the owner",
	"node_lease_write_forwards":      "mutating invokes that arrived at a lease copy and forwarded to the owner",
	"node_lease_invalidations_sent":  "lease revoke messages sent during write/move/delete fences",
	"node_lease_revokes":             "lease revokes applied, from a message or a write's reply (copy dropped or tombstone refreshed)",
	"node_lease_revokes_on_reply":    "write fences that left the writer's own lease revoke to the write's reply instead of a message",
	"node_lease_fences":              "write fences that sent revoke messages because outstanding leases predate the new epoch",
	"node_lease_fence_timeouts":      "fence rounds that timed out waiting for a revoke ack (lease expired instead)",
	"node_lease_purged_down":         "lease copies purged because their grantor was declared down",
	"node_lease_grants_dropped_down": "grant-table entries dropped because the holder was declared down",
	"node_lease_snap_errors":         "lease snapshot encodings that failed",
	"node_lease_snaps_oversize":      "lease grants skipped because the snapshot exceeded 64 KiB",
	"node_lease_installs_dropped":    "lease installs skipped because a descriptor state precluded them",
	"node_lease_installs_stale":      "lease installs rejected as older than the local view",
	"node_lease_install_errors":      "lease installs that failed to decode or register",
	"node_replicas_purged_down":      "immutable replicas purged because their source was declared down",
	"node_set_cacheable":             "objects marked cacheable for reader leases (SetCacheable)",

	// --- observability plane (this PR) ---
	"node_anomalies_node_down":       "calls that failed with ErrNodeDown (flight-recorder trigger)",
	"node_anomalies_deadline":        "calls that missed their deadline with the peer alive (flight-recorder trigger)",
	"node_anomalies_retry_exhausted": "calls that exhausted their retry budget (flight-recorder trigger)",

	// --- frequently-read node counters (not exhaustive; fallback covers the rest) ---
	"node_invokes_local":               "invocations executed on the caller's node (resident fast path)",
	"node_invokes_shipped":             "invocations function-shipped to another node",
	"node_invokes_executed_for_remote": "invocations executed here on behalf of a migrated thread",
	"node_hint_hits":                   "location-hint cache hits",
	"node_hint_misses":                 "location-hint cache misses",
	"node_invoke_remote_ns":            "latency of the full function-ship round trip",
	"node_invoke_exec_ns":              "latency of the remote execution leg",
	"node_move_ns":                     "latency of MoveTo round trips",
}

// helpMu guards helpText: registration normally happens in init functions,
// but tests and late-bound subsystems may race a concurrent /metrics render.
var helpMu sync.RWMutex

// helpFor returns the HELP text for a rendered metric name (without the
// "amber_" prefix). Unregistered names get a generic line so the exposition
// is uniformly self-describing.
func helpFor(key string) string {
	helpMu.RLock()
	h, ok := helpText[key]
	helpMu.RUnlock()
	if ok {
		return h
	}
	return "amber runtime metric " + key
}

// RegisterHelp adds or overrides HELP text for a metric key
// ("<family>_<name>", without the "amber_" prefix). Subsystems outside this
// package (e.g. the fleet aggregator's cluster_ namespace) register theirs
// at init.
func RegisterHelp(key, text string) {
	helpMu.Lock()
	helpText[key] = text
	helpMu.Unlock()
}

// HasHelp reports whether a metric key has explicitly registered HELP text
// (used by the naming-audit test).
func HasHelp(key string) bool {
	helpMu.RLock()
	defer helpMu.RUnlock()
	_, ok := helpText[key]
	return ok
}
