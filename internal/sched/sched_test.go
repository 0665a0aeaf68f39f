package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestSlotLimitEnforced(t *testing.T) {
	s := New(2, nil)
	var cur, max atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			task := &Task{ThreadID: id}
			s.Acquire(task)
			c := cur.Add(1)
			for {
				m := max.Load()
				if c <= m || max.CompareAndSwap(m, c) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			cur.Add(-1)
			s.Release(task)
		}(uint64(i))
	}
	wg.Wait()
	if max.Load() > 2 {
		t.Fatalf("max concurrent = %d, want <= 2", max.Load())
	}
	if s.Running() != 0 {
		t.Fatalf("Running = %d after drain", s.Running())
	}
}

func TestMinimumOneSlot(t *testing.T) {
	s := New(0, nil)
	if s.Slots() != 1 {
		t.Fatalf("Slots = %d, want 1", s.Slots())
	}
}

func TestTryAcquire(t *testing.T) {
	s := New(1, nil)
	if !s.TryAcquire() {
		t.Fatal("first TryAcquire should succeed")
	}
	if s.TryAcquire() {
		t.Fatal("second TryAcquire should fail")
	}
	s.Release(nil)
	if !s.TryAcquire() {
		t.Fatal("TryAcquire after Release should succeed")
	}
	s.Release(nil)
}

// waitQueued spins until n tasks are queued. A task's Seq is stamped before
// it is counted, so a task started after this returns arrives strictly later
// than every one already queued.
func waitQueued(t *testing.T, s *Scheduler, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.Waiting() < n {
		if time.Now().After(deadline) {
			t.Fatalf("Waiting = %d, want %d", s.Waiting(), n)
		}
		runtime.Gosched()
	}
}

// TestFIFOOrder checks arrival order among equal priorities under the
// priority heap, through the scheduler.
func TestFIFOOrder(t *testing.T) {
	s := New(1, NewPriority)
	hold := &Task{}
	s.Acquire(hold)

	var order []uint64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 1; i <= 5; i++ {
		wg.Add(1)
		id := uint64(i)
		go func() {
			defer wg.Done()
			task := &Task{ThreadID: id, Priority: 3}
			s.Acquire(task)
			mu.Lock()
			order = append(order, id)
			mu.Unlock()
			s.Release(task)
		}()
		waitQueued(t, s, i) // establish arrival order
	}
	s.Release(hold)
	wg.Wait()
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			t.Fatalf("FIFO violated: %v", order)
		}
	}
}

func TestPriorityOrder(t *testing.T) {
	s := New(1, NewPriority)
	hold := &Task{}
	s.Acquire(hold)

	var order []int
	var mu sync.Mutex
	var wg sync.WaitGroup
	prios := []int{1, 5, 3, 9, 2}
	for i, p := range prios {
		wg.Add(1)
		prio := p
		go func() {
			defer wg.Done()
			task := &Task{Priority: prio}
			s.Acquire(task)
			mu.Lock()
			order = append(order, prio)
			mu.Unlock()
			s.Release(task)
		}()
		waitQueued(t, s, i+1)
	}
	s.Release(hold)
	wg.Wait()
	want := []int{9, 5, 3, 2, 1}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("priority order = %v, want %v", order, want)
		}
	}
}

func TestPriorityStableAmongEquals(t *testing.T) {
	p := NewPriority()
	tasks := make([]*Task, 5)
	for i := range tasks {
		tasks[i] = &Task{ThreadID: uint64(i), Priority: 7, Seq: uint64(i)}
		p.Push(tasks[i])
	}
	for i := range tasks {
		if got := p.Pop(); got != tasks[i] {
			t.Fatalf("equal-priority order broken at %d", i)
		}
	}
}

func TestYieldHandsOff(t *testing.T) {
	s := New(1, nil)
	me := &Task{ThreadID: 1}
	s.Acquire(me)

	ran := make(chan struct{})
	go func() {
		other := &Task{ThreadID: 2}
		s.Acquire(other)
		close(ran)
		s.Release(other)
	}()
	// Wait for the other task to queue up.
	deadline := time.Now().Add(2 * time.Second)
	for s.Waiting() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("other task never queued")
		}
		time.Sleep(time.Millisecond)
	}
	s.Yield(me)
	select {
	case <-ran:
	case <-time.After(2 * time.Second):
		t.Fatal("yield did not let the other task run")
	}
	s.Release(me)
	if s.Stats().Value("yields") != 1 {
		t.Fatalf("yields = %d", s.Stats().Value("yields"))
	}
}

func TestYieldNoCompetitionKeepsSlot(t *testing.T) {
	s := New(1, nil)
	me := &Task{}
	s.Acquire(me)
	done := make(chan struct{})
	go func() {
		s.Yield(me) // must return immediately
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Yield with empty queue blocked")
	}
	if s.Running() != 1 {
		t.Fatalf("Running = %d, want 1", s.Running())
	}
	s.Release(me)
}

func TestBlockReleasesSlot(t *testing.T) {
	s := New(1, nil)
	a := &Task{ThreadID: 1}
	s.Acquire(a)

	proceed := make(chan struct{})
	blockedRunning := make(chan struct{})
	go func() {
		s.Block(a, func() {
			close(blockedRunning)
			<-proceed
		})
		s.Release(a)
	}()
	<-blockedRunning
	// While a is blocked, b must be able to run.
	b := &Task{ThreadID: 2}
	got := make(chan struct{})
	go func() {
		s.Acquire(b)
		close(got)
		s.Release(b)
	}()
	select {
	case <-got:
	case <-time.After(2 * time.Second):
		t.Fatal("slot was not released during Block")
	}
	close(proceed)
}

// TestSetPolicyTransfersWaiters queues three threads under the default
// deque, swaps to the priority heap while they wait, and checks they then
// run highest-priority first.
func TestSetPolicyTransfersWaiters(t *testing.T) {
	s := New(1, nil)
	hold := &Task{}
	s.Acquire(hold)
	var order []int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i, p := range []int{1, 9, 5} {
		wg.Add(1)
		prio := p
		go func() {
			defer wg.Done()
			task := &Task{Priority: prio}
			s.Acquire(task)
			mu.Lock()
			order = append(order, prio)
			mu.Unlock()
			s.Release(task)
		}()
		waitQueued(t, s, i+1)
	}
	// Swap to priority while three tasks wait.
	s.SetPolicy(NewPriority)
	if s.Waiting() != 3 {
		t.Fatalf("Waiting = %d after SetPolicy, want 3", s.Waiting())
	}
	s.Release(hold)
	wg.Wait()
	want := []int{9, 5, 1}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order after SetPolicy = %v, want %v", order, want)
		}
	}
}

func TestManyThreadsFewSlotsThroughput(t *testing.T) {
	s := New(4, nil)
	var done atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		wg.Add(1)
		go func(id uint64) {
			defer wg.Done()
			task := &Task{ThreadID: id}
			for j := 0; j < 10; j++ {
				s.Acquire(task)
				done.Add(1)
				s.Release(task)
			}
		}(uint64(i))
	}
	wg.Wait()
	if done.Load() != 1000 {
		t.Fatalf("completed %d, want 1000", done.Load())
	}
	if s.Running() != 0 || s.Waiting() != 0 {
		t.Fatalf("Running=%d Waiting=%d after drain", s.Running(), s.Waiting())
	}
}
