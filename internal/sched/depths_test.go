package sched

import (
	"sync"
	"testing"
	"time"
)

func TestQueueDepths(t *testing.T) {
	s := New(2, nil)
	for i := 0; i < 4; i++ {
		s.push(&Task{ThreadID: uint64(i)})
	}
	slots, overflow := s.QueueDepths()
	if len(slots) != 2 {
		t.Fatalf("slots = %v", slots)
	}
	if slots[0]+slots[1]+overflow != 4 {
		t.Fatalf("depths %v + overflow %d, want total 4", slots, overflow)
	}
	// Past dequeCap, a slot's arrivals spill to the shared overflow ring.
	for i := slots[0]; i <= dequeCap; i++ {
		s.push(&Task{ThreadID: 100})
	}
	slots2, overflow2 := s.QueueDepths()
	if slots2[0] != dequeCap || overflow2 != overflow+1 {
		t.Fatalf("depths %v + overflow %d after spill, want slot 0 at %d and overflow %d",
			slots2, overflow2, dequeCap, overflow+1)
	}
	if got := s.Stats().Value("overflow_spills"); got != 1 {
		t.Fatalf("overflow_spills = %d, want 1", got)
	}
	// Every queued task dispatches, the spilled one included.
	for n := slots2[0] + slots2[1] + overflow2; n > 0; n-- {
		if s.dispatch(-1) == nil {
			t.Fatalf("dispatch found nothing with %d tasks left", n)
		}
	}
	if _, overflow3 := s.QueueDepths(); s.Waiting() != 0 || overflow3 != 0 {
		t.Fatalf("Waiting = %d, overflow = %d after draining", s.Waiting(), overflow3)
	}
}

func TestStealAttemptAndUnparkCounters(t *testing.T) {
	s := New(2, nil)
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			task := &Task{ThreadID: id}
			s.Acquire(task)
			time.Sleep(time.Millisecond) // hold the slot so later acquirers queue
			s.Yield(task)
			s.Release(task)
		}(uint64(i))
	}
	wg.Wait()
	snap := s.Stats().SnapshotAll()
	c := snap.Counters
	if c["unparks"] < c["parks"] {
		t.Fatalf("unparks=%d < parks=%d: a parked task ran without a grant", c["unparks"], c["parks"])
	}
	if c["unparks"] == 0 {
		t.Fatal("contended workload produced no unparks")
	}
	if c["steal_attempts"] < c["steals"] {
		t.Fatalf("steal_attempts=%d < steals=%d", c["steal_attempts"], c["steals"])
	}
	if c["steal_attempts"] == 0 {
		t.Fatal("contended workload produced no steal attempts")
	}
}
