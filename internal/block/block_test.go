package block

import (
	"math/rand"
	"testing"

	"repro/internal/device"
	"repro/internal/sim"
)

func mkReq(lpa uint64, flags Flags) *Request {
	return &Request{Op: OpWrite, LPA: lpa, Data: lpa, Flags: flags}
}

func TestNOOPFIFO(t *testing.T) {
	s := NewNOOP()
	for i := 0; i < 5; i++ {
		s.Add(mkReq(uint64(i), 0))
	}
	for i := 0; i < 5; i++ {
		if r := s.Next(); r.LPA != uint64(i) {
			t.Fatalf("NOOP not FIFO: got %d at %d", r.LPA, i)
		}
	}
	if s.Next() != nil {
		t.Error("empty Next != nil")
	}
}

// TestFIFOAcrossCompaction drives a NOOP queue that never empties past the
// point where its fifo compacts the dead prefix: order and Pending must not
// notice.
func TestFIFOAcrossCompaction(t *testing.T) {
	s := NewNOOP()
	next, want := uint64(0), uint64(0)
	push := func(n int) {
		for ; n > 0; n-- {
			s.Add(mkReq(next, 0))
			next++
		}
	}
	pop := func(n int) {
		for ; n > 0; n-- {
			if r := s.Next(); r == nil || r.LPA != want {
				t.Fatalf("pop %d: got %v", want, r)
			}
			want++
			if got := s.Pending(); got != int(next-want) {
				t.Fatalf("after pop %d: Pending %d, want %d", want, got, next-want)
			}
		}
	}
	push(100)
	pop(49)
	if s.q.head != 49 {
		t.Fatalf("head %d before the compaction boundary, want 49", s.q.head)
	}
	pop(1) // head 50 of 100: the dead half dominates
	if s.q.head != 0 || len(s.q.s) != 50 {
		t.Fatalf("no compaction at the boundary: head %d, len %d", s.q.head, len(s.q.s))
	}
	push(70)
	pop(100)
	push(5)
	pop(25)
	if s.Next() != nil || s.Pending() != 0 {
		t.Error("drained queue not empty")
	}
}

func TestDeadlineReadsFirst(t *testing.T) {
	now := sim.Time(0)
	s := NewDeadline(func() sim.Time { return now }, 5*sim.Millisecond)
	w := mkReq(1, 0)
	s.Add(w)
	r := &Request{Op: OpRead, LPA: 2}
	s.Add(r)
	if got := s.Next(); got.Op != OpRead {
		t.Error("read not prioritized")
	}
	if got := s.Next(); got.Op != OpWrite {
		t.Error("write lost")
	}
}

func TestDeadlineWriteExpiry(t *testing.T) {
	now := sim.Time(0)
	s := NewDeadline(func() sim.Time { return now }, 5*sim.Millisecond)
	w := mkReq(1, 0)
	w.issued = 0
	s.Add(w)
	s.Add(&Request{Op: OpRead, LPA: 2})
	now = sim.Time(10 * sim.Millisecond) // write is past deadline
	if got := s.Next(); got.Op != OpWrite {
		t.Error("expired write not prioritized over read")
	}
}

func TestCFQRoundRobin(t *testing.T) {
	s := NewCFQ()
	for pid := 1; pid <= 3; pid++ {
		for j := 0; j < 2; j++ {
			r := mkReq(uint64(pid*10+j), 0)
			r.PID = pid
			s.Add(r)
		}
	}
	var got []uint64
	for r := s.Next(); r != nil; r = s.Next() {
		got = append(got, r.LPA)
	}
	want := []uint64{10, 20, 30, 11, 21, 31}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("CFQ order = %v, want %v", got, want)
		}
	}
	if s.Pending() != 0 {
		t.Error("pending != 0 after drain")
	}
}

func TestEpochBarrierReassignment(t *testing.T) {
	// Reproduces the Fig. 5 scenario: ordered w1,w2 then barrier w4 from
	// fsync; orderless w3 from pdflush; w4 enters as barrier; queue closes;
	// the last ordered request out carries the barrier.
	s := NewEpochScheduler(NewNOOP())
	w1 := mkReq(1, FlagOrdered)
	w2 := mkReq(2, FlagOrdered)
	w3 := mkReq(3, 0) // orderless
	w4 := mkReq(4, FlagOrdered|FlagBarrier)
	for _, r := range []*Request{w1, w2, w3} {
		if !s.Add(r) {
			t.Fatal("admission refused before barrier")
		}
	}
	if !s.Add(w4) {
		t.Fatal("barrier request refused")
	}
	if s.Accepting() {
		t.Error("still accepting after barrier entered")
	}
	w5 := mkReq(5, 0)
	if s.Add(w5) {
		t.Error("accepted request while epoch closed")
	}
	// Drain: NOOP yields w1,w2,w3,w4. The last *ordered* one (w4 here)
	// carries the barrier out.
	var barrierLPA uint64
	for r := s.Next(); r != nil; r = s.Next() {
		if r.Flags.Has(FlagBarrier) {
			barrierLPA = r.LPA
		}
	}
	if barrierLPA != 4 {
		t.Errorf("barrier on LPA %d, want 4", barrierLPA)
	}
	if !s.Accepting() {
		t.Error("not accepting after epoch drained")
	}
	if s.CurrentEpoch() != 1 {
		t.Errorf("epoch = %d, want 1", s.CurrentEpoch())
	}
}

func TestEpochBarrierMovesToLastOrdered(t *testing.T) {
	// With a CFQ base, the barrier-carrying request can leave early; the
	// tag must move to whichever ordered request leaves last (w1 in Fig. 5).
	s := NewEpochScheduler(NewCFQ())
	w1 := mkReq(1, FlagOrdered)
	w1.PID = 1
	w2 := mkReq(2, FlagOrdered)
	w2.PID = 1
	w4 := mkReq(4, FlagOrdered|FlagBarrier)
	w4.PID = 2
	s.Add(w1)
	s.Add(w2)
	s.Add(w4)
	// CFQ round-robin yields w1 (pid1), w4 (pid2), w2 (pid1): the barrier
	// carrier w4 leaves while ordered w2 is still queued.
	got := []*Request{s.Next(), s.Next(), s.Next()}
	if got[0].LPA != 1 || got[1].LPA != 4 || got[2].LPA != 2 {
		t.Fatalf("unexpected CFQ order: %d, %d, %d", got[0].LPA, got[1].LPA, got[2].LPA)
	}
	if got[1].Flags.Has(FlagBarrier) {
		t.Error("barrier left on original carrier despite later ordered request")
	}
	if !got[2].Flags.Has(FlagBarrier) {
		t.Error("barrier not reassigned to the last ordered request out")
	}
}

func TestEpochOrderlessFloatFree(t *testing.T) {
	// Orderless requests never carry or close epochs.
	s := NewEpochScheduler(NewNOOP())
	s.Add(mkReq(1, 0))
	s.Add(mkReq(2, FlagOrdered|FlagBarrier))
	s.Add(mkReq(3, 0)) // hmm: admission is closed; Add must fail
	if s.Accepting() {
		t.Fatal("epoch should be closed")
	}
	r1 := s.Next() // orderless w1
	if r1.Flags.Has(FlagBarrier) {
		t.Error("orderless request got the barrier")
	}
	r2 := s.Next()
	if !r2.Flags.Has(FlagBarrier) || r2.LPA != 2 {
		t.Errorf("barrier on %d", r2.LPA)
	}
}

func TestEpochSchedulerPropertyNoCrossEpochDispatch(t *testing.T) {
	// Property: the dispatch sequence never emits an ordered request of
	// epoch k+1 before the barrier of epoch k, for random workloads.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		s := NewEpochScheduler(NewCFQ())
		var staged []*Request
		submit := func(r *Request) {
			if len(staged) > 0 || !s.Add(r) {
				staged = append(staged, r)
			}
		}
		feed := func() {
			for len(staged) > 0 && s.Accepting() {
				if !s.Add(staged[0]) {
					break
				}
				staged = staged[1:]
			}
		}
		n := 30 + rng.Intn(40)
		for i := 0; i < n; i++ {
			fl := Flags(0)
			switch rng.Intn(4) {
			case 0:
				fl = FlagOrdered
			case 1:
				fl = FlagOrdered | FlagBarrier
			}
			r := mkReq(uint64(i), fl)
			r.PID = rng.Intn(4)
			submit(r)
			feed()
		}
		// Drain fully.
		lastEpoch := uint64(0)
		barrierSeen := map[uint64]bool{}
		for {
			feed()
			r := s.Next()
			if r == nil {
				if len(staged) == 0 {
					break
				}
				continue
			}
			if !r.Ordered() {
				continue
			}
			if r.Epoch() < lastEpoch {
				t.Fatalf("trial %d: ordered request of epoch %d after epoch %d started", trial, r.Epoch(), lastEpoch)
			}
			if r.Epoch() > lastEpoch {
				if !barrierSeen[lastEpoch] && lastEpoch != r.Epoch() {
					// Epoch can only advance after its barrier was emitted.
					t.Fatalf("trial %d: epoch advanced to %d without barrier of %d", trial, r.Epoch(), lastEpoch)
				}
				lastEpoch = r.Epoch()
			}
			if r.Flags.Has(FlagBarrier) {
				barrierSeen[r.Epoch()] = true
			}
		}
	}
}

// --- integrated layer tests (scheduler + dispatcher + device) ---

func newStack(k *sim.Kernel) (*Layer, *device.Device) {
	cfg := device.UFS()
	cfg.QueueDepth = 8
	cfg.DMAPerPage = 10 * sim.Microsecond
	cfg.CmdOverhead = 2 * sim.Microsecond
	d := device.New(k, cfg)
	l := NewLayer(k, d, NewEpochScheduler(NewNOOP()), LayerConfig{
		DispatchOverhead: sim.Microsecond,
		Trace:            true,
	})
	return l, d
}

func TestLayerWriteCompletion(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	l, _ := newStack(k)
	k.Spawn("host", func(p *sim.Proc) {
		r := mkReq(1, 0)
		l.SubmitAndWait(p, r)
		if !r.Completed() {
			t.Error("request not completed")
		}
	})
	k.Run()
	if l.Stats().Dispatched != 1 || l.Stats().Completed != 1 {
		t.Errorf("stats = %+v", l.Stats())
	}
}

func TestLayerBarrierBecomesOrderedCommand(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	l, d := newStack(k)
	k.Spawn("host", func(p *sim.Proc) {
		l.Submit(p, mkReq(1, FlagOrdered))
		l.Submit(p, mkReq(2, FlagOrdered|FlagBarrier))
		l.Submit(p, mkReq(3, FlagOrdered))
	})
	k.Run()
	if d.Stats().Barriers != 1 {
		t.Errorf("device barrier writes = %d, want 1", d.Stats().Barriers)
	}
	if d.CurEpoch() != 1 {
		t.Errorf("device epoch = %d", d.CurEpoch())
	}
	// Trace shows the barrier dispatched between epochs.
	log := l.DispatchLog()
	if len(log) != 3 {
		t.Fatalf("dispatch log %v", log)
	}
	if !log[1].Flags.Has(FlagBarrier) {
		t.Errorf("barrier not in middle of dispatch: %+v", log)
	}
	if log[2].Epoch != 1 {
		t.Errorf("third request epoch = %d, want 1", log[2].Epoch)
	}
}

func TestLayerTransferOrderAcrossBarrier(t *testing.T) {
	// D = C across the barrier: all epoch-0 writes complete transfer before
	// the barrier, the barrier before all epoch-1 writes.
	k := sim.NewKernel()
	defer k.Close()
	l, _ := newStack(k)
	var completions []uint64
	mk := func(lpa uint64, flags Flags) *Request {
		r := mkReq(lpa, flags)
		r.OnComplete = func(at sim.Time, rr *Request) { completions = append(completions, lpa) }
		return r
	}
	k.Spawn("host", func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			l.Submit(p, mk(uint64(i), FlagOrdered))
		}
		l.Submit(p, mk(100, FlagOrdered|FlagBarrier))
		for i := 5; i < 9; i++ {
			l.Submit(p, mk(uint64(i), FlagOrdered))
		}
	})
	k.Run()
	if len(completions) != 9 {
		t.Fatalf("completions = %v", completions)
	}
	barrierPos := -1
	for i, lpa := range completions {
		if lpa == 100 {
			barrierPos = i
		}
	}
	if barrierPos == -1 {
		t.Fatal("barrier never completed")
	}
	for i, lpa := range completions {
		if i < barrierPos && lpa >= 5 {
			t.Errorf("epoch-1 write %d transferred before barrier", lpa)
		}
		if i > barrierPos && lpa < 4 {
			t.Errorf("epoch-0 write %d transferred after barrier", lpa)
		}
	}
}

func TestLayerFlush(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	l, d := newStack(k)
	k.Spawn("host", func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			l.Submit(p, mkReq(uint64(i), 0))
		}
		l.Flush(p)
		for i := 0; i < 4; i++ {
			if _, ok := d.FTL().DurableData(uint64(i)); !ok {
				t.Errorf("page %d not durable after block-layer flush", i)
			}
		}
	})
	k.Run()
}

func TestLayerStagingUnderClosedEpoch(t *testing.T) {
	// Requests submitted while the epoch is closed are staged, then flow.
	k := sim.NewKernel()
	defer k.Close()
	l, _ := newStack(k)
	done := 0
	k.Spawn("host", func(p *sim.Proc) {
		var last *Request
		for i := 0; i < 20; i++ {
			fl := FlagOrdered
			if i%5 == 4 {
				fl |= FlagBarrier
			}
			r := mkReq(uint64(i), fl)
			r.OnComplete = func(at sim.Time, rr *Request) { done++ }
			l.Submit(p, r)
			last = r
		}
		last.Wait(p)
	})
	k.Run()
	if done != 20 {
		t.Errorf("completed %d/20 with staged epochs", done)
	}
	if l.Stats().StagedPeak == 0 {
		t.Error("expected some staging under closed epochs")
	}
}

func TestLayerReadRoundTrip(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	l, _ := newStack(k)
	k.Spawn("host", func(p *sim.Proc) {
		l.SubmitAndWait(p, &Request{Op: OpWrite, LPA: 42, Data: "v"})
		r := &Request{Op: OpRead, LPA: 42}
		l.SubmitAndWait(p, r)
		if r.Data != "v" {
			t.Errorf("read = %v", r.Data)
		}
	})
	k.Run()
}

func TestFlagsHas(t *testing.T) {
	f := FlagOrdered | FlagBarrier
	if !f.Has(FlagOrdered) || !f.Has(FlagBarrier) || f.Has(FlagFUA) {
		t.Error("flag logic")
	}
	if OpWrite.String() != "write" || OpRead.String() != "read" || OpFlush.String() != "flush" {
		t.Error("op strings")
	}
}
