package sim

import (
	"testing"
	"testing/quick"
)

func TestQueueFIFO(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	q := NewQueue[int](k)
	var got []int
	k.Spawn("producer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			q.Put(i)
			p.Sleep(Microsecond)
		}
	})
	k.Spawn("consumer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			got = append(got, q.Get(p))
		}
	})
	k.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("queue not FIFO: %v", got)
		}
	}
}

func TestQueueBlocksWhenEmpty(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	q := NewQueue[string](k)
	var gotAt Time
	k.Spawn("consumer", func(p *Proc) {
		if v := q.Get(p); v != "hello" {
			t.Errorf("got %q", v)
		}
		gotAt = p.Now()
	})
	k.Spawn("producer", func(p *Proc) {
		p.Sleep(42 * Microsecond)
		q.Put("hello")
	})
	k.Run()
	if gotAt != Time(42*Microsecond) {
		t.Errorf("consumer unblocked at %v, want 42µs", gotAt)
	}
}

func TestQueueMultipleConsumersNoLostItems(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	q := NewQueue[int](k)
	const items = 100
	var count int
	for c := 0; c < 4; c++ {
		k.Spawn("consumer", func(p *Proc) {
			for count < items {
				q.Get(p)
				count++
				p.Sleep(3 * Microsecond)
			}
		})
	}
	k.Spawn("producer", func(p *Proc) {
		for i := 0; i < items; i++ {
			q.Put(i)
			if i%7 == 0 {
				p.Sleep(Microsecond)
			}
		}
	})
	k.Run()
	if count != items {
		t.Errorf("consumed %d items, want %d", count, items)
	}
}

func TestCondSignalBroadcast(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	c := NewCond(k)
	woke := 0
	for i := 0; i < 3; i++ {
		k.Spawn("waiter", func(p *Proc) {
			c.Wait(p)
			woke++
		})
	}
	k.Spawn("signaler", func(p *Proc) {
		p.Sleep(10 * Microsecond)
		c.Signal()
		p.Sleep(10 * Microsecond)
		if woke != 1 {
			t.Errorf("after Signal woke = %d, want 1", woke)
		}
		c.Broadcast()
	})
	k.Run()
	if woke != 3 {
		t.Errorf("woke = %d, want 3", woke)
	}
}

func TestMutexLimitsConcurrency(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	mu := NewMutex(k)
	inside, maxInside := 0, 0
	for i := 0; i < 6; i++ {
		k.Spawn("worker", func(p *Proc) {
			mu.Lock(p)
			inside++
			if inside > maxInside {
				maxInside = inside
			}
			p.Sleep(10 * Microsecond)
			inside--
			mu.Unlock()
		})
	}
	k.Run()
	if maxInside != 1 {
		t.Errorf("max concurrent holders = %d, want 1", maxInside)
	}
}

func TestMutexFIFOFairnessEventually(t *testing.T) {
	// All lockers must eventually get the mutex (no starvation).
	k := NewKernel()
	defer k.Close()
	mu := NewMutex(k)
	served := 0
	const n = 20
	for i := 0; i < n; i++ {
		k.Spawn("w", func(p *Proc) {
			mu.Lock(p)
			p.Sleep(Microsecond)
			served++
			mu.Unlock()
		})
	}
	k.Run()
	if served != n {
		t.Errorf("served = %d, want %d", served, n)
	}
}

// Property: for any sequence of put/get interleavings, a queue delivers every
// item exactly once in FIFO order.
func TestQueueDeliveryProperty(t *testing.T) {
	prop := func(delays []uint8) bool {
		if len(delays) == 0 || len(delays) > 64 {
			return true
		}
		k := NewKernel()
		defer k.Close()
		q := NewQueue[int](k)
		var got []int
		k.Spawn("producer", func(p *Proc) {
			for i, d := range delays {
				p.Sleep(Duration(d) * Microsecond)
				q.Put(i)
			}
		})
		k.Spawn("consumer", func(p *Proc) {
			for range delays {
				got = append(got, q.Get(p))
			}
		})
		k.Run()
		if len(got) != len(delays) {
			return false
		}
		for i, v := range got {
			if v != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestTimeFormatting(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{500 * Nanosecond, "500ns"},
		{70 * Microsecond, "70.00µs"},
		{Duration(5.95 * float64(Millisecond)), "5.950ms"},
		{2 * Second, "2.000000s"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.d), got, c.want)
		}
	}
	if Time(1500).Add(500).Sub(Time(1000)) != 1000 {
		t.Error("Add/Sub arithmetic wrong")
	}
	if (10 * Millisecond).Scale(0.5) != 5*Millisecond {
		t.Error("Scale wrong")
	}
}

// TestMutexUnlockOfUnlockedPanics pins the one check a one-slot resource
// keeps: releasing what nobody holds is a caller bug.
func TestMutexUnlockOfUnlockedPanics(t *testing.T) {
	mu := NewMutex(NewKernel())
	defer func() {
		if recover() == nil {
			t.Fatal("Unlock of an unlocked mutex did not panic")
		}
	}()
	mu.Unlock()
}

// TestFIFOAcrossCompaction drives a FIFO that never empties past the point
// where it compacts the dead prefix, then drains it: order and Len must not
// notice, and the array is reused in place.
func TestFIFOAcrossCompaction(t *testing.T) {
	var f FIFO[int]
	next, want := 0, 0
	push := func(n int) {
		for ; n > 0; n-- {
			f.Push(next)
			next++
		}
	}
	pop := func(n int) {
		for ; n > 0; n-- {
			if got := f.Peek(); got != want {
				t.Fatalf("Peek = %d, want %d", got, want)
			}
			if got := f.Pop(); got != want {
				t.Fatalf("Pop = %d, want %d", got, want)
			}
			want++
			if got := f.Len(); got != next-want {
				t.Fatalf("after pop %d: Len %d, want %d", want, got, next-want)
			}
		}
	}
	push(100)
	pop(49)
	if f.head != 49 {
		t.Fatalf("head %d before the compaction boundary, want 49", f.head)
	}
	pop(1) // head 50 of 100: the dead half dominates
	if f.head != 0 || len(f.s) != 50 {
		t.Fatalf("no compaction at the boundary: head %d, len %d", f.head, len(f.s))
	}
	push(70)
	pop(100)
	push(5)
	pop(25)
	if f.Len() != 0 || f.head != 0 || len(f.s) != 0 {
		t.Fatalf("drained FIFO: Len %d head %d len %d, want all 0", f.Len(), f.head, len(f.s))
	}
	push(3)
	pop(3)
}

// TestFIFOZeroAllocSteadyState pins that a push/pop cycle reuses the array.
func TestFIFOZeroAllocSteadyState(t *testing.T) {
	var f FIFO[*Proc]
	p := &Proc{}
	for i := 0; i < 64; i++ {
		f.Push(p)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		for i := 0; i < 48; i++ {
			f.Push(p)
		}
		for i := 0; i < 48; i++ {
			f.Pop()
		}
	})
	if allocs != 0 {
		t.Fatalf("allocs per push/pop cycle = %v, want 0", allocs)
	}
}

// arriveAt spawns a proc that counts one arrival for p at virtual time at.
func arriveAt(k *Kernel, p *Proc, at Time) {
	k.Spawn("completion", func(c *Proc) {
		c.Sleep(at.Sub(c.Now()))
		p.Arrive()
	})
}

// TestAwaitOneWakeupForAll: a proc expecting N completions is woken once,
// by the last of them.
func TestAwaitOneWakeupForAll(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	const n = 4
	var blocked bool
	var woke Time
	var wakeups int64 = -1
	k.Spawn("waiter", func(p *Proc) {
		p.Expect(n)
		for i := 1; i <= n; i++ {
			arriveAt(k, p, Time(Duration(i)*Microsecond))
		}
		before := p.wakeups
		blocked = p.Await()
		woke, wakeups = p.Now(), p.wakeups-before
	})
	k.Run()
	if !blocked || woke != Time(n*Microsecond) || wakeups != 1 {
		t.Fatalf("Await blocked %v, returned at %v after %d wake-ups; want true, %v, 1",
			blocked, woke, wakeups, Time(n*Microsecond))
	}
}

// TestAwaitAfterAllArrivedDoesNotPark: when every expected completion came
// before the wait, Await returns at once, with no kernel event.
func TestAwaitAfterAllArrivedDoesNotPark(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	var blocked, done bool
	var wakeups int64 = -1
	k.Spawn("waiter", func(p *Proc) {
		p.Expect(2)
		arriveAt(k, p, Time(Microsecond))
		arriveAt(k, p, Time(2*Microsecond))
		p.Sleep(5 * Microsecond)
		before := p.wakeups
		blocked = p.Await()
		wakeups = p.wakeups - before
		done = true
	})
	k.Run()
	if !done || blocked || wakeups != 0 {
		t.Fatalf("Await after all arrivals: returned %v, blocked %v, %d wake-ups; want true, false, 0",
			done, blocked, wakeups)
	}
}

// TestArrivalWhileParkedElsewhereDoesNotResume is the congested-submit
// shape: the last completion lands while the proc is parked on something
// else. It must stay parked there until that wakes it, and its Await then
// returns without blocking.
func TestArrivalWhileParkedElsewhereDoesNotResume(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	congested := NewCond(k)
	var woke Time
	blocked := true
	k.Spawn("waiter", func(p *Proc) {
		p.Expect(1)
		arriveAt(k, p, Time(2*Microsecond))
		congested.Wait(p) // no loop: a stray Resume would end the wait early
		woke = p.Now()
		blocked = p.Await()
	})
	k.Spawn("uncongest", func(p *Proc) {
		p.Sleep(5 * Microsecond)
		congested.Signal()
	})
	k.Run()
	if woke != Time(5*Microsecond) || blocked {
		t.Fatalf("waiter left its congestion wait at %v (Await blocked %v); want 5µs, false", woke, blocked)
	}
}
