package blkmq

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/block"
	"repro/internal/device"
	"repro/internal/sim"
)

func testDevice(k *sim.Kernel) *device.Device {
	return device.New(k, device.NVMeSSD())
}

func newMQ(k *sim.Kernel, hwq int, trace bool) *MQ {
	return New(k, testDevice(k), Config{
		HWQueues:         hwq,
		DispatchOverhead: sim.Microsecond,
		Trace:            trace,
	})
}

func ordered(stream, lpa uint64) *block.Request {
	return &block.Request{Op: block.OpWrite, LPA: lpa, Data: lpa,
		Flags: block.FlagOrdered, Stream: stream}
}

func barrier(stream, lpa uint64) *block.Request {
	return &block.Request{Op: block.OpWrite, LPA: lpa, Data: lpa,
		Flags: block.FlagOrdered | block.FlagBarrier, Stream: stream}
}

func orderless(stream, lpa uint64) *block.Request {
	return &block.Request{Op: block.OpWrite, LPA: lpa, Data: lpa, Stream: stream}
}

func background(stream, lpa uint64) *block.Request {
	r := orderless(stream, lpa)
	r.Role = block.RoleBackground
	return r
}

// TestMQWriteReadRoundTrip exercises the basic Submitter surface: write,
// flush, read back.
func TestMQWriteReadRoundTrip(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	m := newMQ(k, 2, false)
	k.Spawn("host", func(p *sim.Proc) {
		m.SubmitAndWait(p, &block.Request{Op: block.OpWrite, LPA: 42, Data: "v", Stream: 1})
		m.Flush(p)
		if _, ok := m.Device().FTL().DurableData(42); !ok {
			t.Error("page not durable after flush")
		}
		r := &block.Request{Op: block.OpRead, LPA: 42, Stream: 1}
		m.SubmitAndWait(p, r)
		if r.Data != "v" {
			t.Errorf("read = %v", r.Data)
		}
	})
	k.Run()
	if m.Stats().Completed != 3 {
		t.Errorf("stats = %+v", m.Stats())
	}
}

// TestMQIntraStreamEpochOrdering drives several streams, each with its own
// barrier cadence, over multiple hardware queues, and checks acceptance
// criterion (a): the per-stream epoch invariants hold in the dispatch trace
// on every hardware queue, and in completion (transfer) order too.
func TestMQIntraStreamEpochOrdering(t *testing.T) {
	const streams = 4
	for _, hwq := range []int{1, 2, 4} {
		k := sim.NewKernel()
		m := newMQ(k, hwq, true)
		completions := make(map[uint64][]*block.Request)
		for s := 0; s < streams; s++ {
			s := s
			k.Spawn("submitter", func(p *sim.Proc) {
				rng := rand.New(rand.NewSource(int64(s)))
				lpa := uint64(s * 10000)
				for e := 0; e < 20; e++ {
					n := 1 + rng.Intn(6)
					for j := 0; j < n; j++ {
						var r *block.Request
						switch rng.Intn(3) {
						case 0:
							r = orderless(uint64(s), lpa)
						default:
							r = ordered(uint64(s), lpa)
						}
						lpa++
						r.OnComplete = func(at sim.Time, rr *block.Request) {
							completions[rr.Stream] = append(completions[rr.Stream], rr)
						}
						m.Submit(p, r)
					}
					b := barrier(uint64(s), lpa)
					lpa++
					b.OnComplete = func(at sim.Time, rr *block.Request) {
						completions[rr.Stream] = append(completions[rr.Stream], rr)
					}
					m.Submit(p, b)
				}
			})
		}
		k.Run()
		// (c) the dispatch trace verifier accepts the run.
		if err := m.Verify(); err != nil {
			t.Fatalf("hwq=%d: %v", hwq, err)
		}
		// Each hardware queue's own sub-trace must verify as well.
		for q := 0; q < hwq; q++ {
			var sub []block.DispatchRecord
			for _, rec := range m.DispatchLog() {
				if rec.HWQueue == q {
					sub = append(sub, rec)
				}
			}
			if err := VerifyTrace(sub); err != nil {
				t.Fatalf("hwq=%d queue %d sub-trace: %v", hwq, q, err)
			}
		}
		// Completion (transfer) order must respect per-stream epochs too.
		for s, reqs := range completions {
			lastEpoch := uint64(0)
			barrierSeen := false
			for i, r := range reqs {
				if !r.Ordered() {
					continue
				}
				switch {
				case r.Epoch() == lastEpoch:
					if barrierSeen {
						t.Fatalf("hwq=%d stream %d: completion %d of epoch %d after its barrier", hwq, s, i, lastEpoch)
					}
					barrierSeen = r.Flags.Has(block.FlagBarrier)
				case r.Epoch() == lastEpoch+1 && barrierSeen:
					lastEpoch = r.Epoch()
					barrierSeen = r.Flags.Has(block.FlagBarrier)
				default:
					t.Fatalf("hwq=%d stream %d: completion epoch %d after epoch %d (barrierSeen=%v)", hwq, s, i, lastEpoch, barrierSeen)
				}
			}
		}
		if m.EpochsClosed() != streams*20 {
			t.Errorf("hwq=%d: epochs closed = %d, want %d", hwq, m.EpochsClosed(), streams*20)
		}
		k.Close()
	}
}

// TestMQConcurrentSubmittersOneStream is the -race invariant test: many
// submitter processes (each a real goroutine under the sim kernel)
// interleave ordered, orderless and barrier submissions into ONE stream.
// No cross-epoch dispatch inversion may ever be observed.
func TestMQConcurrentSubmittersOneStream(t *testing.T) {
	const submitters = 8
	k := sim.NewKernel()
	defer k.Close()
	m := newMQ(k, 4, true)
	for g := 0; g < submitters; g++ {
		g := g
		k.Spawn("submitter", func(p *sim.Proc) {
			rng := rand.New(rand.NewSource(int64(100 + g)))
			lpa := uint64(g * 10000)
			for i := 0; i < 120; i++ {
				var r *block.Request
				switch rng.Intn(5) {
				case 0:
					r = barrier(0, lpa)
				case 1, 2:
					r = ordered(0, lpa)
				default:
					r = orderless(0, lpa)
				}
				lpa++
				m.Submit(p, r)
				if rng.Intn(4) == 0 {
					p.Advance(sim.Duration(rng.Intn(20)) * sim.Microsecond)
				}
			}
		})
	}
	k.Run()
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
	if m.Stats().Completed != submitters*120 {
		t.Errorf("completed %d/%d", m.Stats().Completed, submitters*120)
	}
}

// TestMQSpreadOrderless checks that background stream-0 writes scatter
// onto data streams while ordered and plain foreground traffic stays put.
func TestMQSpreadOrderless(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	m := New(k, testDevice(k), Config{HWQueues: 4, Trace: true})
	k.Spawn("host", func(p *sim.Proc) {
		for i := 0; i < 8; i++ {
			m.Submit(p, background(0, uint64(i)))
		}
		m.Submit(p, orderless(0, 50)) // foreground orderless: stays on 0
		m.Submit(p, ordered(0, 100))
		m.Submit(p, barrier(0, 101))
	})
	k.Run()
	if m.Stats().Spread != 8 {
		t.Errorf("spread = %d, want 8", m.Stats().Spread)
	}
	streams := map[uint64]bool{}
	for _, rec := range m.DispatchLog() {
		if rec.Role == block.RoleBackground {
			if rec.Stream == 0 {
				t.Error("background write left on stream 0")
			}
			streams[rec.Stream] = true
			continue
		}
		if rec.Stream != 0 {
			t.Errorf("foreground request moved to stream %d", rec.Stream)
		}
	}
	if len(streams) < 2 {
		t.Errorf("background writes landed on %d streams, want several", len(streams))
	}
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestRoleRules holds every role of block's role table to its rules, for
// journals on stream 0 and on per-shard order streams, on 1 to 64 hardware
// queues. It submits each kind of request in each role on each journal
// stream and reads the dispatch log:
//   - a role with a derived domain (RoleCheckpoint, RoleFlush) rides a
//     stream that is neither a data stream nor an order stream, congruent
//     to its journal stream (so it lands on that stream's hardware queue)
//     and distinct per (role, stream); every other role rides its stream;
//   - only orderless writes without FLUSH/FUA in a spreading role
//     (RoleBackground, RoleIdle) leave the ordering stream, for a data
//     stream;
//   - only RoleIdle yields the congestion limit: QueueLimit requests of its
//     role on a domain leave room for a sync submitter there.
func TestRoleRules(t *testing.T) {
	rules := []struct {
		role                     block.Role
		derived, spreads, yields bool
	}{
		{block.RoleSync, false, false, false},
		{block.RoleBackground, false, true, false},
		{block.RoleIdle, false, true, true},
		{block.RoleCheckpoint, true, false, false},
		{block.RoleFlush, true, false, false},
	}
	journals := []uint64{0, block.OrderStream(1), block.OrderStream(2), block.OrderStream(7)}
	kinds := []struct {
		op     block.Op
		flags  block.Flags
		leaves bool // in a spreading role
	}{
		{block.OpWrite, 0, true},
		{block.OpWrite, block.FlagOrdered, false},
		{block.OpWrite, block.FlagOrdered | block.FlagBarrier, false},
		{block.OpWrite, block.FlagFlush, false},
		{block.OpWrite, block.FlagFUA, false},
		{block.OpRead, 0, false},
		{block.OpFlush, 0, false},
	}
	type key struct {
		rule    int
		journal uint64
	}
	for _, hwq := range []int{1, 2, 4, 8, 16, 64} {
		k := sim.NewKernel()
		m := New(k, testDevice(k), Config{HWQueues: hwq, Trace: true})
		type sub struct {
			key
			kind int
		}
		var subs []sub // indexed by LPA
		k.Spawn("host", func(p *sim.Proc) {
			for ri, rule := range rules {
				for _, s := range journals {
					for ki, kind := range kinds {
						lpa := uint64(len(subs))
						subs = append(subs, sub{key{ri, s}, ki})
						m.Submit(p, &block.Request{Op: kind.op, LPA: lpa, Data: lpa,
							Flags: kind.flags, Role: rule.role, Stream: s})
					}
				}
			}
		})
		k.Run()
		k.Close()

		domain := map[key]uint64{} // the stream each (role, journal) rode off spreading
		owner := map[uint64]key{}  // which (role, journal) rode each derived domain
		var leaving int64
		for _, rec := range m.DispatchLog() {
			sb := subs[rec.LPA]
			rule, s, d := rules[sb.rule], sb.journal, rec.Stream
			if rec.Role != rule.role {
				t.Errorf("hwq %d: LPA %d dispatched in role %d, submitted in %d", hwq, rec.LPA, rec.Role, rule.role)
			}
			if rule.spreads && kinds[sb.kind].leaves {
				leaving++
				if d < 1 || d > uint64(max(hwq-1, 1)) || rec.HWQueue != int(d%uint64(hwq)) {
					t.Errorf("hwq %d: role %d LPA %d from stream %d rode stream %d on hardware queue %d, want a data stream's",
						hwq, rule.role, rec.LPA, s, d, rec.HWQueue)
				}
				continue
			}
			if rec.HWQueue != int(s%uint64(hwq)) {
				t.Errorf("hwq %d: role %d LPA %d on hardware queue %d, want its journal's %d",
					hwq, rule.role, rec.LPA, rec.HWQueue, s%uint64(hwq))
			}
			if prev, ok := domain[sb.key]; ok && prev != d {
				t.Errorf("hwq %d: role %d on journal %d rode both %d and %d", hwq, rule.role, s, prev, d)
			}
			domain[sb.key] = d
			if !rule.derived {
				if d != s {
					t.Errorf("hwq %d: role %d LPA %d moved from stream %d to %d", hwq, rule.role, rec.LPA, s, d)
				}
				continue
			}
			if d < 64 || slices.Contains(journals, d) {
				t.Errorf("hwq %d: role %d on journal %d rides stream %d: a data or journal stream", hwq, rule.role, s, d)
			}
			for i := 0; i < 1024; i++ {
				if d == block.OrderStream(i) {
					t.Errorf("hwq %d: role %d on journal %d rides OrderStream(%d)", hwq, rule.role, s, i)
				}
			}
			for _, n := range []uint64{1, 2, 4, 8, 16, 64} {
				if d%n != s%n {
					t.Errorf("hwq %d: role %d on journal %d rides stream %d, not congruent to it mod %d", hwq, rule.role, s, d, n)
				}
			}
			if o, ok := owner[d]; ok && o != sb.key {
				t.Errorf("hwq %d: stream %d derived for both %v and %v", hwq, d, o, sb.key)
			}
			owner[d] = sb.key
		}
		if n := m.Stats().Spread; n != leaving {
			t.Errorf("hwq %d: Stats().Spread = %d, want %d", hwq, n, leaving)
		}
		if err := m.Verify(); err != nil {
			t.Fatal(err)
		}

		// Congestion: with QueueLimit ordered writes of a role queued on its
		// domain, a sync submitter there waits unless the role yields.
		for ri, rule := range rules {
			k := sim.NewKernel()
			m := New(k, testDevice(k), Config{HWQueues: hwq, QueueLimit: 4, DispatchOverhead: sim.Microsecond})
			k.Spawn("host", func(p *sim.Proc) {
				for _, s := range journals {
					for i := uint64(0); i < 4; i++ {
						m.Submit(p, &block.Request{Op: block.OpWrite, LPA: i, Data: i,
							Flags: block.FlagOrdered, Role: rule.role, Stream: s})
					}
					t0 := p.Now()
					m.Submit(p, ordered(domain[key{ri, s}], 9))
					if waited := p.Now() != t0; waited == rule.yields {
						t.Errorf("hwq %d: a sync write behind 4 of role %d on journal %d waited %v",
							hwq, rule.role, s, p.Now().Sub(t0))
					}
				}
			})
			k.Run()
			k.Close()
		}
	}
}

// TestMQStreamsMatchesDeviceCapture spreads background writeback, then
// checks the streams the layer opened against both the dispatch trace and
// the device's crash-time constraint capture: every stream the device saw a
// volatile write on must be a stream the layer has open.
func TestMQStreamsMatchesDeviceCapture(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	m := New(k, testDevice(k), Config{HWQueues: 4, Trace: true})
	k.Spawn("host", func(p *sim.Proc) {
		for i := 0; i < 8; i++ {
			m.Submit(p, background(0, uint64(i)))
		}
		m.Submit(p, ordered(0, 100))
	})
	// Capture mid-flight — after the transfers, before the NAND programs
	// retire the cache — so the volatile set is non-empty and the
	// cross-check below is real.
	k.RunUntil(sim.Time(100 * sim.Microsecond))
	cons := m.Device().CaptureConstraints()
	if len(cons.Writes) == 0 {
		t.Fatal("expected volatile writes at the capture instant")
	}
	k.Run()
	open := func(id uint64) bool { _, ok := m.scheds[id]; return ok }
	if len(m.scheds) < 2 || !open(0) {
		t.Fatalf("%d streams open, want the ordered domain 0 plus data streams", len(m.scheds))
	}
	for _, rec := range m.DispatchLog() {
		if !open(rec.Stream) {
			t.Errorf("dispatched on stream %d, which the layer never opened", rec.Stream)
		}
	}
	captured := map[uint64]bool{}
	for _, w := range cons.Writes {
		captured[w.Stream] = true
		if !open(w.Stream) {
			t.Errorf("volatile write on stream %d, which the layer never opened", w.Stream)
		}
	}
	if len(captured) < 2 {
		t.Errorf("capture saw %d streams, want the spread data streams too", len(captured))
	}
}

// TestMQBarrierDoesNotStallOtherStream pins down the concurrency win
// structurally: while stream 0 is stalled behind a closed epoch, stream 1
// keeps dispatching.
func TestMQBarrierDoesNotStallOtherStream(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	m := newMQ(k, 2, true)
	k.Spawn("stream0", func(p *sim.Proc) {
		for e := 0; e < 10; e++ {
			m.Submit(p, ordered(0, uint64(e*10)))
			m.Submit(p, barrier(0, uint64(e*10+1)))
		}
	})
	k.Spawn("stream1", func(p *sim.Proc) {
		for i := 0; i < 50; i++ {
			m.Submit(p, ordered(1, uint64(5000+i)))
		}
	})
	k.Run()
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
	// Stream 1's 50 ordered writes carry no barrier, so they must all stay
	// in epoch 0 — and some must dispatch between stream-0 epochs.
	log := m.DispatchLog()
	var s1Between bool
	seenS0Epoch := uint64(0)
	for _, rec := range log {
		if rec.Stream == 0 && rec.Epoch > 0 {
			seenS0Epoch = rec.Epoch
		}
		if rec.Stream == 1 {
			if rec.Epoch != 0 {
				t.Fatalf("stream 1 advanced to epoch %d without barriers", rec.Epoch)
			}
			if seenS0Epoch > 0 {
				s1Between = true
			}
		}
	}
	if !s1Between {
		t.Error("stream 1 never dispatched after stream 0 closed an epoch")
	}
}

// TestVerifyTraceRejects feeds the verifier hand-built violating traces.
func TestVerifyTraceRejects(t *testing.T) {
	rec := func(stream, epoch uint64, fl block.Flags) block.DispatchRecord {
		return block.DispatchRecord{Op: block.OpWrite, Flags: fl, Epoch: epoch, Stream: stream}
	}
	cases := []struct {
		name  string
		trace []block.DispatchRecord
	}{
		{"inversion", []block.DispatchRecord{
			rec(0, 0, block.FlagOrdered|block.FlagBarrier),
			rec(0, 1, block.FlagOrdered),
			rec(0, 0, block.FlagOrdered),
		}},
		{"no-barrier", []block.DispatchRecord{
			rec(0, 0, block.FlagOrdered),
			rec(0, 1, block.FlagOrdered),
		}},
		{"ordered-after-barrier", []block.DispatchRecord{
			rec(0, 0, block.FlagOrdered|block.FlagBarrier),
			rec(0, 0, block.FlagOrdered),
		}},
		{"skipped-epoch", []block.DispatchRecord{
			rec(0, 0, block.FlagOrdered|block.FlagBarrier),
			rec(0, 2, block.FlagOrdered),
		}},
	}
	for _, c := range cases {
		if VerifyTrace(c.trace) == nil {
			t.Errorf("%s: verifier accepted a violating trace", c.name)
		}
	}
	// A good multi-stream trace passes, and orderless records are ignored.
	good := []block.DispatchRecord{
		rec(0, 0, block.FlagOrdered),
		rec(1, 0, block.FlagOrdered|block.FlagBarrier),
		rec(0, 0, 0), // orderless: free across epochs
		rec(0, 0, block.FlagOrdered|block.FlagBarrier),
		rec(1, 1, block.FlagOrdered),
		rec(0, 1, block.FlagOrdered),
	}
	if err := VerifyTrace(good); err != nil {
		t.Errorf("verifier rejected a valid trace: %v", err)
	}
}
