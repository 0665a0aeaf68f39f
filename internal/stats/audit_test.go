package stats

import (
	"strings"
	"testing"
	"time"
)

// The PR5/PR6 subsystem counters, as emitted by the runtime, keyed by the
// family each renders under. The audit pins two properties: every one of
// these renders through the shared Prometheus renderer with its canonical
// amber_<family>_ prefix, and every one carries explicitly registered HELP
// text (not the generic fallback).
var auditNames = map[string][]string{
	"sched": {
		"acquires", "acquire_fast", "yields", "blocks", "steals",
		"steal_attempts", "handoffs", "parks", "unparks", "overflow_spills",
	},
	"node": {
		// heat-driven placement (PR6)
		"heat_observed", "heat_shed", "heat_ticks", "heat_moves",
		"heat_move_failed", "heat_storms",
		// read-path replication (PR5)
		"replica_hits", "replica_misses", "replica_installs",
		"replica_installs_shed", "replica_installs_dropped",
		"replica_installs_dup", "replica_installs_stale",
		"replica_install_errors", "replica_evicted", "replica_evictions_busy",
		"replica_snaps_encoded", "replica_snaps_oversize",
		"replica_snap_errors", "replicas_installed", "replicas_sent",
		"locates_local_replica",
		// reader leases (PR9)
		"lease_hits", "lease_grants", "lease_installs", "lease_renewals",
		"lease_stale", "lease_write_forwards", "lease_invalidations_sent",
		"lease_revokes", "lease_revokes_on_reply", "lease_fences", "lease_fence_timeouts",
		"lease_purged_down", "lease_grants_dropped_down",
		"lease_snap_errors", "lease_snaps_oversize",
		"lease_installs_dropped", "lease_installs_stale",
		"lease_install_errors", "replicas_purged_down", "set_cacheable",
	},
}

func TestMetricsNamingAudit(t *testing.T) {
	for family, names := range auditNames {
		set := NewSet()
		for i, name := range names {
			set.Add(name, int64(i+1))
		}
		out := RenderMetrics(nil, Family{Name: family, Set: set})
		for _, name := range names {
			key := family + "_" + name
			full := "amber_" + key
			if !HasHelp(key) {
				t.Errorf("%s: no registered HELP text (generic fallback would render)", key)
			}
			if !strings.Contains(out, "# HELP "+full+" ") {
				t.Errorf("%s: HELP line missing from exposition", full)
			}
			if !strings.Contains(out, "# TYPE "+full+" counter") {
				t.Errorf("%s: TYPE line missing from exposition", full)
			}
			if !strings.Contains(out, "\n"+full+" ") {
				t.Errorf("%s: sample line missing from exposition", full)
			}
		}
	}
}

func TestExemplars(t *testing.T) {
	var e Exemplars
	e.Note(100*time.Nanosecond, 0) // untraced: ignored
	e.Note(100*time.Nanosecond, 0x2a)
	e.Note(50*time.Millisecond, 0x2b)
	e.Note(55*time.Millisecond, 0x2c) // same bucket: most recent wins

	snap := e.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot = %+v, want 2 entries", snap)
	}
	top := e.Top(1)
	if len(top) != 1 || top[0].Trace != 0x2c {
		t.Fatalf("top = %+v, want the 55ms bucket's 0x2c", top)
	}

	var b strings.Builder
	WriteExemplars(&b, "node_invoke_remote_ns", e.Top(4))
	out := b.String()
	if !strings.Contains(out, "amber_node_invoke_remote_ns_exemplar{le=") ||
		!strings.Contains(out, `trace="0x2c"`) {
		t.Fatalf("exemplar rendering wrong:\n%s", out)
	}

	e.Reset()
	if len(e.Snapshot()) != 0 {
		t.Fatal("reset left exemplars behind")
	}
}
