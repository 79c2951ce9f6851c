package blkmq

import (
	"math/rand"
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
	r.Flags |= block.FlagBackground
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
				r.PID = p.ID()
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
	m := New(k, testDevice(k), Config{
		HWQueues:        4,
		SpreadOrderless: true,
		Trace:           true,
	})
	k.Spawn("host", func(p *sim.Proc) {
		for i := 0; i < 8; i++ {
			r := background(0, uint64(i))
			r.PID = i
			m.Submit(p, r)
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
		if rec.Flags.Has(block.FlagBackground) {
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

// TestCheckpointStreamRules holds block.CheckpointStream to its three
// rules for journals on stream 0 and on per-shard order streams: it is no
// data stream and no order stream, it lands on its journal stream's
// hardware queue, and background spreading never moves its requests, even
// ones flagged as background writeback.
func TestCheckpointStreamRules(t *testing.T) {
	const hwq = 4
	k := sim.NewKernel()
	defer k.Close()
	m := New(k, testDevice(k), Config{HWQueues: hwq, SpreadOrderless: true, Trace: true})
	journals := []uint64{0, block.OrderStream(1), block.OrderStream(2), block.OrderStream(7)}
	for _, s := range journals {
		c := block.CheckpointStream(s)
		if c < hwq || block.IsOrderStream(c) || !block.IsCheckpointStream(c) {
			t.Errorf("CheckpointStream(%d) = %d: a data or order stream", s, c)
		}
		for i := 0; i < 1024; i++ {
			if c == block.OrderStream(i) {
				t.Errorf("CheckpointStream(%d) = OrderStream(%d)", s, i)
			}
		}
		for _, n := range []uint64{1, 2, 4, 8, 16, 64} {
			if c%n != s%n {
				t.Errorf("CheckpointStream(%d) = %d is not congruent to it mod %d", s, c, n)
			}
		}
	}
	k.Spawn("host", func(p *sim.Proc) {
		for i, s := range journals {
			m.Submit(p, background(block.CheckpointStream(s), uint64(i)))
			m.Submit(p, orderless(block.CheckpointStream(s), uint64(100+i)))
		}
	})
	k.Run()
	if m.Stats().Spread != 0 {
		t.Errorf("spread moved %d checkpoint-stream requests", m.Stats().Spread)
	}
	for _, rec := range m.DispatchLog() {
		if !block.IsCheckpointStream(rec.Stream) {
			t.Errorf("LPA %d dispatched on stream %d, off its checkpoint stream", rec.LPA, rec.Stream)
		}
		if want := int(rec.Stream % hwq); rec.HWQueue != want {
			t.Errorf("LPA %d on hardware queue %d, want its journal's %d", rec.LPA, rec.HWQueue, want)
		}
	}
	if err := m.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestMQStreamsMatchesDeviceCapture spreads background writeback, then
// checks the streams the layer opened against both the dispatch trace and
// the device's crash-time constraint capture: every stream the device saw a
// volatile write on must be a stream the layer has open.
func TestMQStreamsMatchesDeviceCapture(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	m := New(k, testDevice(k), Config{
		HWQueues:        4,
		SpreadOrderless: true,
		Trace:           true,
	})
	k.Spawn("host", func(p *sim.Proc) {
		for i := 0; i < 8; i++ {
			r := background(0, uint64(i))
			r.PID = i
			m.Submit(p, r)
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
