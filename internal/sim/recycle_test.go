package sim

import "testing"

// TestClosedKernelHandsOnEmptyQueue closes a kernel with wake-ups still
// queued in the wheel and the overflow heap, stale once Close retires their
// procs, and
// checks that the next NewKernel gets its arrays back empty: no event, no
// occupied slot, a cursor at zero, and no Proc left in any slot's spare
// capacity.
func TestClosedKernelHandsOnEmptyQueue(t *testing.T) {
	freeQueues.Lock()
	freeQueues.list = nil
	freeQueues.Unlock()

	k := NewKernel()
	for i, d := range []Duration{Microsecond, 50 * Microsecond, 2 * Millisecond, 40 * Millisecond, 2 * Second} {
		k.SpawnIdx("sleeper", i, func(p *Proc) {
			for {
				p.Sleep(d)
			}
		})
	}
	k.RunUntil(Time(100 * Microsecond))
	if k.q.len() == 0 || k.q.inWheel == 0 || len(k.q.overflow) == 0 {
		t.Fatalf("queue at close: %d events, %d in the wheel, %d in overflow; want some in each",
			k.q.len(), k.q.inWheel, len(k.q.overflow))
	}
	k.Close()

	k2 := NewKernel()
	defer k2.Close()
	q := &k2.q
	if cap(q.overflow) == 0 {
		t.Fatal("NewKernel did not take the closed kernel's queue")
	}
	if q.len() != 0 || q.inWheel != 0 || q.cursor != 0 || q.settled ||
		len(q.near) != 0 || len(q.overflow) != 0 || q.occupied != [wheelLevels]uint64{} {
		t.Fatalf("recycled queue not empty: %+v", *q)
	}
	spare := func(s []event) {
		for _, e := range s[:cap(s)] {
			if e != (event{}) {
				t.Fatalf("recycled queue array still holds %+v", e)
			}
		}
	}
	spare(q.near)
	spare(q.overflow)
	for l := range q.wheel {
		for _, s := range q.wheel[l] {
			if len(s) != 0 {
				t.Fatalf("recycled wheel slot holds %d events", len(s))
			}
			spare(s)
		}
	}
}

// TestRecycledQueueDispatchesAlike runs one seeded workload on a fresh
// queue and again on the queue the first run's kernel handed back: the
// dispatch traces must be identical.
func TestRecycledQueueDispatchesAlike(t *testing.T) {
	freeQueues.Lock()
	freeQueues.list = nil
	freeQueues.Unlock()
	fresh := traceWorkload()
	freeQueues.Lock()
	n := len(freeQueues.list)
	grown := n == 1 && cap(freeQueues.list[0].near) > 0
	freeQueues.Unlock()
	if !grown {
		t.Fatalf("closed kernel left %d queues on the free list, want 1 with grown arrays", n)
	}
	recycled := traceWorkload()
	if fresh.Len() != recycled.Len() || fresh.Hash() != recycled.Hash() {
		t.Fatalf("fresh queue (n=%d h=%x), recycled queue (n=%d h=%x)",
			fresh.Len(), fresh.Hash(), recycled.Len(), recycled.Hash())
	}
}

// TestProcIdxSurvivesName checks that a proc keeps its spawn index after
// its lazy name is rendered, which drops the name's own copy of it.
func TestProcIdxSurvivesName(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	p := k.SpawnIdx("worker", 7, func(*Proc) {})
	h := k.SpawnHandlerIdx("chip", 12, func(h *Proc) { h.Complete() })
	plain := k.Spawn("plain", func(*Proc) {})
	if p.Name() != "worker7" || h.Name() != "chip12" {
		t.Fatalf("names %q, %q", p.Name(), h.Name())
	}
	if p.nameIdx != -1 || h.nameIdx != -1 {
		t.Fatalf("rendered names keep nameIdx %d, %d; want -1", p.nameIdx, h.nameIdx)
	}
	if p.Idx() != 7 || h.Idx() != 12 || plain.Idx() != -1 {
		t.Fatalf("Idx = %d, %d, %d; want 7, 12, -1", p.Idx(), h.Idx(), plain.Idx())
	}
}

// TestSlabChunksGrow checks that a slab's chunks double from slabFirst to
// slabChunk entries, and that no entry is handed out twice.
func TestSlabChunksGrow(t *testing.T) {
	const n = 4 + 8 + 16 + 32 + 64 + 64 // six chunks
	allocs := testing.AllocsPerRun(10, func() {
		var s Slab[[2]int]
		for i := 0; i < n; i++ {
			s.New([2]int{})
		}
	})
	if allocs != 6 {
		t.Fatalf("carving %d entries took %v allocations, want 6", n, allocs)
	}
	var s Slab[int]
	seen := make(map[*int]bool)
	for i := 0; i < n; i++ {
		x := s.New(i)
		if seen[x] {
			t.Fatalf("entry %d handed out twice", i)
		}
		seen[x] = true
	}
	for x := range seen {
		if *x < 0 || *x >= n {
			t.Fatalf("entry overwritten: %d", *x)
		}
	}
}

// TestNewQueuesAreIndependent checks that queues sharing their first
// capacity do not overrun each other, and that building them costs three
// allocations however many there are.
func TestNewQueuesAreIndependent(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	qs := NewQueues[int](k, 3, 2)
	for i := 0; i < 5; i++ {
		qs[0].Put(i)
	}
	qs[1].Put(100)
	for i := 0; i < 5; i++ {
		if x, ok := qs[0].TryGet(); !ok || x != i {
			t.Fatalf("queue 0 item %d = %d, %v", i, x, ok)
		}
	}
	if x, ok := qs[1].TryGet(); !ok || x != 100 {
		t.Fatalf("queue 1 = %d, %v; want 100", x, ok)
	}
	if _, ok := qs[2].TryGet(); ok {
		t.Fatal("queue 2 not empty")
	}
	if a := testing.AllocsPerRun(10, func() { NewQueues[*Proc](k, 128, 4) }); a != 3 {
		t.Fatalf("NewQueues took %v allocations, want 3", a)
	}
}
