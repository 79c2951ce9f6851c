package block

import (
	"math/rand"
	"testing"

	"repro/internal/device"
	"repro/internal/metrics"
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
// point where its sim.FIFO compacts the dead prefix: order and Pending must
// not notice.
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
	pop(50) // head 50 of 100: the dead half dominates
	push(70)
	pop(100)
	push(5)
	pop(25)
	if s.Next() != nil || s.Pending() != 0 {
		t.Error("drained queue not empty")
	}
}

// lifo is a reordering base scheduler for the epoch tests: it yields the
// newest queued request first, so an epoch leaves its queue in reverse.
type lifo struct{ q []*Request }

func (s *lifo) Name() string        { return "lifo" }
func (s *lifo) Add(r *Request) bool { s.q = append(s.q, r); return true }
func (s *lifo) Pending() int        { return len(s.q) }
func (s *lifo) Accepting() bool     { return true }
func (s *lifo) Next() *Request {
	n := len(s.q)
	if n == 0 {
		return nil
	}
	r := s.q[n-1]
	s.q = s.q[:n-1]
	return r
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
	if s.epoch != 1 {
		t.Errorf("epoch = %d, want 1", s.epoch)
	}
}

func TestEpochBarrierMovesToLastOrdered(t *testing.T) {
	// With a reordering base, the barrier-carrying request can leave early;
	// the tag must move to whichever ordered request leaves last (w1 in
	// Fig. 5).
	s := NewEpochScheduler(&lifo{})
	w1 := mkReq(1, FlagOrdered)
	w2 := mkReq(2, FlagOrdered)
	w4 := mkReq(4, FlagOrdered|FlagBarrier)
	s.Add(w1)
	s.Add(w2)
	s.Add(w4)
	// LIFO yields w4, w2, w1: the barrier carrier w4 leaves first, while
	// ordered w2 and w1 are still queued.
	got := []*Request{s.Next(), s.Next(), s.Next()}
	if got[0].LPA != 4 || got[1].LPA != 2 || got[2].LPA != 1 {
		t.Fatalf("unexpected LIFO order: %d, %d, %d", got[0].LPA, got[1].LPA, got[2].LPA)
	}
	if got[0].Flags.Has(FlagBarrier) || got[1].Flags.Has(FlagBarrier) {
		t.Error("barrier left before the last ordered request")
	}
	if !got[2].Flags.Has(FlagBarrier) {
		t.Error("barrier not reassigned to the last ordered request out (w1)")
	}
	if s.Reassigned() != 1 || s.EpochsClosed() != 1 || !s.Accepting() {
		t.Errorf("reassigned %d, epochs closed %d, accepting %v after the epoch drained",
			s.Reassigned(), s.EpochsClosed(), s.Accepting())
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
	// epoch k+1 before the barrier of epoch k, for random workloads. The
	// trials must close epochs, move barriers and refuse Adds, or the
	// property holds vacuously (every request in epoch 0).
	rng := rand.New(rand.NewSource(11))
	var closed, reassigned, refused int64
	for trial := 0; trial < 40; trial++ {
		s := NewEpochScheduler(&lifo{})
		var staged []*Request
		add := func(r *Request) bool {
			ok := s.Add(r)
			if !ok {
				refused++
			}
			return ok
		}
		submit := func(r *Request) {
			if len(staged) > 0 || !add(r) {
				staged = append(staged, r)
			}
		}
		feed := func() {
			for len(staged) > 0 && s.Accepting() {
				if !add(staged[0]) {
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
			submit(mkReq(uint64(i), fl))
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
		closed += s.EpochsClosed()
		reassigned += s.Reassigned()
	}
	if closed == 0 || reassigned == 0 || refused == 0 {
		t.Fatalf("the trials closed %d epochs, moved %d barriers and had %d Adds refused; want each above zero",
			closed, reassigned, refused)
	}
	t.Logf("%d epochs closed, %d barriers moved, %d Adds refused", closed, reassigned, refused)
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

// TestForegroundReadPassesWriteBacklog drives both shapes into the state a
// read finds behind a flush: the device's queue full of writes held behind
// an ordered flush, the dispatcher holding one more write the device
// refused, and the software queue at QueueLimit. A foreground read
// submitted then must not wait on congestion, must reach the device at the
// first slot that frees, and must dispatch ahead of every queued write. A
// background read keeps the FIFO path: it waits on congestion and
// dispatches after every write submitted before it.
func TestForegroundReadPassesWriteBacklog(t *testing.T) {
	const (
		tD    = sim.Microsecond
		limit = 4
		qd    = 8
		at    = sim.Time(100 * sim.Microsecond) // the flush is still programming
	)
	shapes := []struct {
		name  string
		build func(*sim.Kernel, *device.Device, LayerConfig) (*Layer, func() *swQueue)
	}{
		{"single", func(k *sim.Kernel, d *device.Device, cfg LayerConfig) (*Layer, func() *swQueue) {
			l := NewLayer(k, d, NewEpochScheduler(NewNOOP()), cfg)
			return l, func() *swQueue { return l.shared }
		}},
		{"per-stream", func(k *sim.Kernel, d *device.Device, cfg LayerConfig) (*Layer, func() *swQueue) {
			l := NewPerStreamLayer(k, d, PerStream{HWQueues: 1, Daemon: "mq/dispatch",
				OpenStream: func(uint64) Scheduler { return NewEpochScheduler(NewNOOP()) }}, cfg)
			return l, func() *swQueue { return l.queues[0] }
		}},
	}
	for _, sh := range shapes {
		for _, bg := range []bool{false, true} {
			name := sh.name + "/foreground"
			if bg {
				name = sh.name + "/background"
			}
			t.Run(name, func(t *testing.T) {
				k := sim.NewKernel()
				defer k.Close()
				dc := device.UFS()
				dc.QueueDepth, dc.DMAPerPage, dc.CmdOverhead = qd, 10*sim.Microsecond, 2*sim.Microsecond
				reg := metrics.NewRegistry()
				l, sw := sh.build(k, device.New(k, dc), LayerConfig{DispatchOverhead: tD, QueueLimit: limit, Trace: true, Metrics: reg})

				// Completion instants of everything written, to find the
				// first slot that frees after the read arrives.
				var done []sim.Time
				mk := func(op Op, lpa uint64) *Request {
					r := &Request{Op: op, LPA: lpa, Data: lpa}
					r.OnComplete = func(at sim.Time, _ *Request) { done = append(done, at) }
					return r
				}
				const writes = 2 + qd - 1 + 1 + limit // before the flush, in the device, held, queued
				k.Spawn("writer", func(p *sim.Proc) {
					l.Submit(p, mk(OpWrite, 0))
					l.Submit(p, mk(OpWrite, 1))
					l.Submit(p, mk(OpFlush, 0))
					for lpa := uint64(2); lpa < writes; lpa++ {
						l.Submit(p, mk(OpWrite, lpa))
					}
				})
				rd := &Request{Op: OpRead, LPA: 0}
				if bg {
					rd.Role = RoleBackground
				}
				var submitted, returned sim.Time
				k.Spawn("reader", func(p *sim.Proc) {
					p.Sleep(sim.Duration(at))
					st := l.Stats()
					if occ := st.Dispatched - st.Completed; occ != qd {
						t.Fatalf("device holds %d commands at the read, want %d", occ, qd)
					}
					if held := int64(len(l.DispatchLog())) - st.Dispatched; held != 1 {
						t.Fatalf("dispatcher holds %d refused commands at the read, want 1", held)
					}
					if n := sw().queued(); n != limit {
						t.Fatalf("software queue holds %d requests at the read, want QueueLimit %d", n, limit)
					}
					submitted = p.Now()
					l.Submit(p, rd)
					returned = p.Now()
					rd.Wait(p)
				})
				k.Run()

				if rd.Data != uint64(0) {
					t.Fatalf("read returned %v, want 0", rd.Data)
				}
				log := l.DispatchLog()
				ri := -1
				for i, rec := range log {
					if rec.Op == OpRead {
						ri = i
					}
				}
				congested := reg.Counter("block/read.congested").Value()
				queueNS := reg.Counter("block/read.queue_ns").Value()
				if bg {
					if returned == submitted || congested != 1 {
						t.Errorf("background read: Submit returned after %v with %d congested reads, want a congestion wait", returned.Sub(submitted), congested)
					}
					for i, rec := range log[ri+1:] {
						if rec.Op == OpWrite {
							t.Errorf("background read dispatched ahead of write %d (record %d)", rec.LPA, ri+1+i)
						}
					}
					if queueNS != 0 {
						t.Errorf("block/read.queue_ns = %d counts a background read", queueNS)
					}
					return
				}
				if returned != submitted || congested != 0 {
					t.Errorf("foreground read: Submit blocked %v with %d congested reads", returned.Sub(submitted), congested)
				}
				firstFree := sim.Time(-1)
				for _, c := range done {
					if c >= submitted && (firstFree < 0 || c < firstFree) {
						firstFree = c
					}
				}
				if got, want := submitted.Add(sim.Duration(queueNS)), firstFree.Add(tD); got != want {
					t.Errorf("read reached the device at %v, want %v: the first slot to free (%v) plus one dispatch", got, want, firstFree)
				}
				for _, rec := range log[ri+1:] {
					if rec.Op != OpWrite {
						t.Errorf("record after the read is a %v, want only writes", rec.Op)
					}
				}
				// The held write was logged before it met the full device; the
				// timing check above shows the read reached the device first.
				if after := writes - (ri - 1); after != limit { // ri-1 writes and the flush went before
					t.Errorf("read dispatched ahead of %d writes, want the %d queued ones", after, limit)
				}
			})
		}
	}
}

// TestIdleYieldsCongestion drives both shapes, through Submit and through a
// handler's SubmitOrPark, into the state compaction leaves behind: the
// device full behind an ordered flush, the dispatcher holding a refused
// write, and the software queue holding QueueLimit idle writes (RoleIdle).
// A submitter of one more idle write must wait, and is admitted as the
// first of them leaves the queue. Then a foreground ordered write and a
// plain background write must both be admitted at once: idle requests do
// not count against them. After the drain the queue counts no idle request.
// The per-stream shape runs it all on data stream 1, where compaction's idle
// writes meet the memtable flush's plain background writes once both are
// spread.
func TestIdleYieldsCongestion(t *testing.T) {
	const (
		tD    = sim.Microsecond
		limit = 4
		qd    = 8
		at    = sim.Time(100 * sim.Microsecond) // the flush is still programming
	)
	shapes := []struct {
		name   string
		stream uint64
		build  func(*sim.Kernel, *device.Device, LayerConfig) (*Layer, func() *swQueue)
	}{
		{"single", 0, func(k *sim.Kernel, d *device.Device, cfg LayerConfig) (*Layer, func() *swQueue) {
			l := NewLayer(k, d, NewEpochScheduler(NewNOOP()), cfg)
			return l, func() *swQueue { return l.shared }
		}},
		{"per-stream", 1, func(k *sim.Kernel, d *device.Device, cfg LayerConfig) (*Layer, func() *swQueue) {
			l := NewPerStreamLayer(k, d, PerStream{HWQueues: 1, Daemon: "mq/dispatch",
				OpenStream: func(uint64) Scheduler { return NewEpochScheduler(NewNOOP()) }}, cfg)
			return l, func() *swQueue { return l.queues[1] }
		}},
	}
	for _, sh := range shapes {
		for _, handler := range []bool{false, true} {
			name := sh.name + "/submit"
			if handler {
				name = sh.name + "/park"
			}
			t.Run(name, func(t *testing.T) {
				k := sim.NewKernel()
				defer k.Close()
				dc := device.UFS()
				dc.QueueDepth, dc.DMAPerPage, dc.CmdOverhead = qd, 10*sim.Microsecond, 2*sim.Microsecond
				reg := metrics.NewRegistry()
				l, sw := sh.build(k, device.New(k, dc), LayerConfig{DispatchOverhead: tD, QueueLimit: limit, Trace: true, Metrics: reg})
				idleWait := reg.Counter("block/congest.idle_wait_ns")
				wait := reg.Counter("block/congest.wait_ns")
				req := func(lpa uint64, flags Flags, role Role) *Request {
					r := mkReq(lpa, flags)
					r.Role, r.Stream = role, sh.stream
					return r
				}

				const plain = 2 + qd - 1 + 1 // before the flush, in the device, held
				k.Spawn("writer", func(p *sim.Proc) {
					l.Submit(p, req(0, 0, RoleSync))
					l.Submit(p, req(1, 0, RoleSync))
					l.Submit(p, &Request{Op: OpFlush, Stream: sh.stream})
					for lpa := uint64(2); lpa < plain; lpa++ {
						l.Submit(p, req(lpa, 0, RoleSync))
					}
					for lpa := uint64(plain); lpa < plain+limit; lpa++ {
						l.Submit(p, req(lpa, 0, RoleIdle))
					}
				})

				idle := req(100, 0, RoleIdle)
				fg := []*Request{req(101, FlagOrdered, RoleSync), req(102, 0, RoleBackground)}
				var dispatched int64
				var idleFrom, waitFrom int64
				state := func(when string, queued, idleN int) {
					t.Helper()
					if q := sw(); q.queued() != queued || q.idle != idleN {
						t.Fatalf("%s: software queue holds %d requests, %d idle; want %d, %d idle",
							when, q.queued(), q.idle, queued, idleN)
					}
				}
				start := func() {
					st := l.Stats()
					if occ := st.Dispatched - st.Completed; occ != qd {
						t.Fatalf("device holds %d commands, want %d", occ, qd)
					}
					if held := int64(len(l.DispatchLog())) - st.Dispatched; held != 1 {
						t.Fatalf("dispatcher holds %d refused commands, want 1", held)
					}
					state("before the idle write", limit, limit)
					dispatched = st.Dispatched
					idleFrom, waitFrom = idleWait.Value(), wait.Value()
				}
				admitted := func(p *sim.Proc) {
					// The held write reaching the device frees the daemon to take
					// the first queued idle write, which is what admits this one.
					if n := l.Stats().Dispatched - dispatched; n != 1 {
						t.Errorf("idle write admitted after %d dispatches, want 1", n)
					}
					if waited := idleWait.Value() - idleFrom; waited <= 0 || sim.Time(waited) != p.Now()-at {
						t.Errorf("block/congest.idle_wait_ns moved %d for a wait of %v", waited, p.Now().Sub(at))
					}
					state("after the idle write", limit, limit)
				}
				passed := func(p *sim.Proc) {
					state("after the foreground writes", limit+2, limit)
					if n := wait.Value() - waitFrom; n != 0 {
						t.Errorf("block/congest.wait_ns moved %d for writes that never waited", n)
					}
				}

				k.Spawn("submitter", func(p *sim.Proc) {
					p.Sleep(sim.Duration(at))
					start()
					if !handler {
						l.Submit(p, idle)
						admitted(p)
						now := p.Now()
						for _, r := range fg {
							if l.Submit(p, r); p.Now() != now {
								t.Fatalf("write %d waited %v at submission", r.LPA, p.Now().Sub(now))
							}
						}
						passed(p)
						return
					}
					k.SpawnHandler("parker", func(h *sim.Proc) {
						if !l.SubmitOrPark(h, idle) {
							return
						}
						admitted(h)
						for _, r := range fg {
							if !l.SubmitOrPark(h, r) {
								t.Fatalf("write %d parked on congestion", r.LPA)
							}
						}
						passed(h)
						h.Complete()
					})
				})
				k.Run()

				for _, r := range append(fg, idle) {
					if !r.Completed() {
						t.Errorf("write %d never completed", r.LPA)
					}
				}
				state("after the drain", 0, 0)
			})
		}
	}
}
