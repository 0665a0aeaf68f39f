package sched

// Concurrency stress tests for the per-slot scheduler: policy swaps racing
// the hot paths, steal-vs-release races, starvation-freedom while siblings
// spin, and cross-slot fairness. All of these are meant to run under -race
// (scripts/ci.sh runs this file a second time there).

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestDequePolicyUnit(t *testing.T) {
	d := NewDeque()
	if d.Pop() != nil || d.Steal() != nil {
		t.Fatal("empty deque should pop nil")
	}
	a, b, c := &Task{ThreadID: 1}, &Task{ThreadID: 2}, &Task{ThreadID: 3}
	d.Push(a)
	d.Push(b)
	d.Push(c)
	if d.Len() != 3 {
		t.Fatalf("Len = %d", d.Len())
	}
	// Owner pops newest-first; thief steals oldest-first.
	if got := d.Steal(); got != a {
		t.Fatalf("Steal = thread %d, want oldest (1)", got.ThreadID)
	}
	if got := d.Pop(); got != c {
		t.Fatalf("Pop = thread %d, want newest (3)", got.ThreadID)
	}
	if d.Pop() != b || d.Len() != 0 {
		t.Fatal("deque drain wrong")
	}
	// A yielded re-enqueue goes to the steal end: it must not overtake a
	// fresh arrival.
	y := &Task{ThreadID: 4, Yielded: true}
	d.Push(y)
	d.Push(a)
	if got := d.Pop(); got != a {
		t.Fatalf("yielded task overtook fresh arrival (got thread %d)", got.ThreadID)
	}
	if d.Pop() != y {
		t.Fatal("yielded task lost")
	}
}

func TestDequeSpillsToOverflow(t *testing.T) {
	d := NewDeque()
	tasks := make([]*Task, dequeCap)
	for i := range tasks {
		tasks[i] = &Task{ThreadID: uint64(i)}
		if !d.Push(tasks[i]) {
			t.Fatalf("push %d rejected below capacity", i)
		}
	}
	if d.Push(&Task{ThreadID: 999}) {
		t.Fatal("push beyond capacity should report false")
	}
	if d.Len() != dequeCap {
		t.Fatalf("Len = %d, want %d", d.Len(), dequeCap)
	}
}

func TestRingGrowPreservesOrder(t *testing.T) {
	var r ring
	// Pop a few first so the live window wraps the buffer's end, then grow
	// across several doublings.
	for i := 0; i < 10; i++ {
		r.pushBack(&Task{ThreadID: uint64(i)})
	}
	for i := 0; i < 6; i++ {
		if got := r.popFront(); got.ThreadID != uint64(i) {
			t.Fatalf("order broken at %d: got %d", i, got.ThreadID)
		}
	}
	for i := 10; i < 110; i++ {
		r.pushBack(&Task{ThreadID: uint64(i)})
	}
	if r.len() != 104 {
		t.Fatalf("len = %d", r.len())
	}
	for i := 6; i < 110; i++ {
		if got := r.popFront(); got.ThreadID != uint64(i) {
			t.Fatalf("order broken at %d: got %d", i, got.ThreadID)
		}
	}
	if r.popFront() != nil {
		t.Fatal("drained ring should pop nil")
	}
}

// TestSetPolicyRacesHotPaths swaps the discipline continuously while many
// threads churn Acquire/Yield/Release. The assertions are the scheduler's
// invariants: every thread completes its quota (no task lost in a policy
// transfer), and the scheduler drains to zero.
func TestSetPolicyRacesHotPaths(t *testing.T) {
	s := New(3, nil)
	stop := make(chan struct{})
	var swaps sync.WaitGroup
	swaps.Add(1)
	go func() {
		defer swaps.Done()
		factories := []func() Policy{NewPriority, NewDeque}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			s.SetPolicy(factories[i%len(factories)])
		}
	}()
	var wg sync.WaitGroup
	var done atomic.Int64
	for i := 0; i < 24; i++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			task := &Task{ThreadID: id, Priority: int(id % 4)}
			for j := 0; j < 200; j++ {
				s.Acquire(task)
				if j%3 == 0 {
					s.Yield(task)
				}
				done.Add(1)
				s.Release(task)
			}
		}(uint64(i + 1))
	}
	wg.Wait()
	close(stop)
	swaps.Wait()
	if done.Load() != 24*200 {
		t.Fatalf("completed %d, want %d", done.Load(), 24*200)
	}
	if s.Running() != 0 || s.Waiting() != 0 {
		t.Fatalf("Running=%d Waiting=%d after drain", s.Running(), s.Waiting())
	}
}

// TestStealVsReleaseRace parks a crowd of tasks whose slot affinity is all
// slot 0 behind two held slots, then releases the holders: the slot-1
// holder's release finds its own queue empty and must steal across, while
// the ensuing drain races releases (direct handoffs) against thieves over
// the same queue. The slot limit must hold throughout and the final books
// must balance; the steal and handoff counters are checked >0 so the races
// are actually exercised, not vacuously passed.
func TestStealVsReleaseRace(t *testing.T) {
	s := New(2, nil)
	h0 := &Task{ThreadID: 2} // affinity slot 0
	h1 := &Task{ThreadID: 3} // affinity slot 1
	s.Acquire(h0)
	s.Acquire(h1)
	var cur, max atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			task := &Task{ThreadID: id}
			for j := 0; j < 100; j++ {
				s.Acquire(task)
				c := cur.Add(1)
				for {
					m := max.Load()
					if c <= m || max.CompareAndSwap(m, c) {
						break
					}
				}
				cur.Add(-1)
				s.Release(task)
			}
		}(uint64(4 + 2*i)) // even IDs: every worker's affinity is slot 0
	}
	// Wait until a crowd is parked behind the held slots, then open them.
	deadline := time.Now().Add(5 * time.Second)
	for s.Waiting() < 16 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d tasks queued behind held slots", s.Waiting())
		}
		time.Sleep(time.Millisecond)
	}
	s.Release(h0)
	s.Release(h1)
	wg.Wait()
	if max.Load() > 2 {
		t.Fatalf("slot limit violated: %d concurrent on 2 slots", max.Load())
	}
	if s.Running() != 0 || s.Waiting() != 0 {
		t.Fatalf("Running=%d Waiting=%d after drain", s.Running(), s.Waiting())
	}
	if s.Stats().Value("steals") == 0 {
		t.Fatal("no steals recorded; cross-slot race not exercised")
	}
	if s.Stats().Value("handoffs") == 0 {
		t.Fatal("no handoffs recorded; release race not exercised")
	}
}

// TestStarvationQueuedTaskRunsWhileSiblingsSpin parks one victim behind a
// full set of slots whose holders spin in an Acquire/Yield/Release loop. The
// fairness tick (and the deque's yielded-to-the-back rule) must let the
// victim through promptly even though the spinners never go idle.
func TestStarvationQueuedTaskRunsWhileSiblingsSpin(t *testing.T) {
	const slots = 2
	s := New(slots, nil)
	stop := make(chan struct{})
	var spinners sync.WaitGroup
	for i := 0; i < slots; i++ {
		spinners.Add(1)
		go func(id uint64) {
			defer spinners.Done()
			task := &Task{ThreadID: id}
			for {
				select {
				case <-stop:
					return
				default:
				}
				s.Acquire(task)
				s.Yield(task)
				s.Release(task)
			}
		}(uint64(i + 1))
	}
	// Let the spinners saturate the slots.
	deadline := time.Now().Add(2 * time.Second)
	for s.Running() < slots {
		if time.Now().After(deadline) {
			t.Fatal("spinners never saturated the slots")
		}
		time.Sleep(time.Millisecond)
	}
	victimRan := make(chan struct{})
	go func() {
		victim := &Task{ThreadID: 99}
		s.Acquire(victim)
		close(victimRan)
		s.Release(victim)
	}()
	select {
	case <-victimRan:
	case <-time.After(5 * time.Second):
		t.Fatal("queued task starved while siblings spun")
	}
	close(stop)
	spinners.Wait()
}

// TestFairnessAcrossSlots runs one churning thread per slot affinity and
// checks the spread of completions: with per-slot queues plus stealing, no
// thread's affinity slot should let it lag far behind the others.
func TestFairnessAcrossSlots(t *testing.T) {
	const slots = 4
	const threads = 8
	s := New(slots, nil)
	var counts [threads]atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < threads; i++ {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			task := &Task{ThreadID: uint64(idx)}
			for {
				select {
				case <-stop:
					return
				default:
				}
				s.Acquire(task)
				counts[idx].Add(1)
				s.Release(task)
			}
		}(i)
	}
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
	var min, max int64 = 1 << 62, 0
	var total int64
	for i := range counts {
		v := counts[i].Load()
		total += v
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	if min == 0 {
		t.Fatalf("a thread starved entirely: counts %v", countsSnapshot(&counts))
	}
	// Loose bound: the slowest thread should do at least a few percent of
	// the mean. Catches systematic starvation, not OS scheduling jitter.
	mean := total / threads
	if min*20 < mean {
		t.Fatalf("unfair spread: min %d vs mean %d (counts %v)", min, mean, countsSnapshot(&counts))
	}
}

func countsSnapshot(c *[8]atomic.Int64) []int64 {
	out := make([]int64, len(c))
	for i := range c {
		out[i] = c[i].Load()
	}
	return out
}

// BenchmarkAcquireRelease measures the uncontended token fast path — the
// per-operation scheduler cost an invocation pays when slots are plentiful.
func BenchmarkAcquireRelease(b *testing.B) {
	s := New(64, nil)
	b.RunParallel(func(pb *testing.PB) {
		task := &Task{ThreadID: uint64(s.nextRand())}
		for pb.Next() {
			s.Acquire(task)
			s.Release(task)
		}
	})
}

// BenchmarkAcquireContended oversubscribes the slots so most acquires queue
// and park: the slow path with stealing and handoffs.
func BenchmarkAcquireContended(b *testing.B) {
	s := New(2, nil)
	b.RunParallel(func(pb *testing.PB) {
		task := &Task{ThreadID: uint64(s.nextRand())}
		for pb.Next() {
			s.Acquire(task)
			s.Release(task)
		}
	})
}
