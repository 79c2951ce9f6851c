package device

import (
	"testing"

	"repro/internal/nand"
	"repro/internal/sim"
)

// tinyConfig is a fast, small device for unit tests.
func tinyConfig() Config {
	c := UFS()
	c.Name = "tiny"
	c.QueueDepth = 4
	c.CachePages = 32
	c.DMAPerPage = 10 * sim.Microsecond
	c.CmdOverhead = 2 * sim.Microsecond
	return c
}

// submitWait submits a command and blocks the process until it completes.
func submitWait(p *sim.Proc, d *Device, c *Command) {
	done := sim.NewCond(p.Kernel())
	fired := false
	c.Done = func(at sim.Time, cc *Command) {
		fired = true
		done.Broadcast()
	}
	for !d.Submit(c) {
		d.WaitSpace(p)
	}
	for !fired {
		done.Wait(p)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	d := New(k, tinyConfig())
	k.Spawn("host", func(p *sim.Proc) {
		submitWait(p, d, &Command{Kind: CmdWrite, LPA: 7, Data: "hello"})
		rd := &Command{Kind: CmdRead, LPA: 7}
		submitWait(p, d, rd)
		if rd.Data != "hello" {
			t.Errorf("read = %v", rd.Data)
		}
	})
	k.Run()
	if d.Stats().Writes != 1 || d.Stats().Reads != 1 {
		t.Errorf("stats = %+v", d.Stats())
	}
}

func TestWriteCompletesAtTransferNotPersist(t *testing.T) {
	// A plain write completes after DMA; it must not wait for NAND program.
	k := sim.NewKernel()
	defer k.Close()
	cfg := tinyConfig()
	d := New(k, cfg)
	var completedAt sim.Time
	k.Spawn("host", func(p *sim.Proc) {
		submitWait(p, d, &Command{Kind: CmdWrite, LPA: 1, Data: 1})
		completedAt = p.Now()
	})
	k.Run()
	maxHostVisible := sim.Time(cfg.CmdOverhead + cfg.DMAPerPage + 10*sim.Microsecond)
	if completedAt > maxHostVisible {
		t.Errorf("write completed at %v; looks like it waited for program (limit %v)", completedAt, maxHostVisible)
	}
}

func TestFUAWaitsForDurability(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	cfg := tinyConfig()
	d := New(k, cfg)
	var fuaDone sim.Time
	k.Spawn("host", func(p *sim.Proc) {
		submitWait(p, d, &Command{Kind: CmdWrite, LPA: 1, Data: 1, FUA: true})
		fuaDone = p.Now()
	})
	k.Run()
	// Must include at least one NAND program (500µs on the MLC timing).
	if fuaDone < sim.Time(cfg.Timing.Program) {
		t.Errorf("FUA completed at %v, before a NAND program could finish", fuaDone)
	}
	if d.Stats().FUAWrites != 1 {
		t.Errorf("FUA count = %d", d.Stats().FUAWrites)
	}
}

func TestFlushMakesEverythingDurable(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	d := New(k, tinyConfig())
	k.Spawn("host", func(p *sim.Proc) {
		for i := 0; i < 8; i++ {
			submitWait(p, d, &Command{Kind: CmdWrite, LPA: uint64(i), Data: i})
		}
		submitWait(p, d, &Command{Kind: CmdFlush, Prio: PrioHeadOfQueue})
		// After flush, everything must be on the NAND surface.
		for i := 0; i < 8; i++ {
			if got, ok := d.FTL().DurableData(uint64(i)); !ok || got != i {
				t.Errorf("page %d not durable after flush: %v,%v", i, got, ok)
			}
		}
	})
	k.Run()
	if d.Stats().Flushes == 0 {
		t.Error("flush not counted")
	}
}

func TestQueueFullRejects(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	d := New(k, tinyConfig()) // QD 4
	k.Spawn("host", func(p *sim.Proc) {
		accepted := 0
		for i := 0; i < 10; i++ {
			if d.Submit(&Command{Kind: CmdWrite, LPA: uint64(i), Data: i}) {
				accepted++
			}
		}
		if accepted != 4 {
			t.Errorf("accepted = %d, want 4 (queue depth)", accepted)
		}
		if d.Stats().BusyRejects != 6 {
			t.Errorf("rejects = %d", d.Stats().BusyRejects)
		}
		// Space frees up as commands complete.
		d.WaitSpace(p)
		if !d.Submit(&Command{Kind: CmdWrite, LPA: 99, Data: 99}) {
			t.Error("submit after WaitSpace failed")
		}
	})
	k.Run()
}

func TestBarrierEpochTagging(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	d := New(k, tinyConfig())
	k.Spawn("host", func(p *sim.Proc) {
		submitWait(p, d, &Command{Kind: CmdWrite, LPA: 1, Data: 1})
		submitWait(p, d, &Command{Kind: CmdWrite, LPA: 2, Data: 2, Barrier: true})
		submitWait(p, d, &Command{Kind: CmdWrite, LPA: 3, Data: 3})
	})
	k.Run()
	if d.CurEpoch() != 1 {
		t.Errorf("epoch = %d, want 1 after one barrier", d.CurEpoch())
	}
	if d.Stats().Barriers != 1 {
		t.Errorf("barriers = %d", d.Stats().Barriers)
	}
}

func TestBarrierPenaltyApplied(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	cfg := PlainSSD()
	cfg.QueueDepth = 4
	d := New(k, cfg)
	k.Spawn("host", func(p *sim.Proc) {
		submitWait(p, d, &Command{Kind: CmdWrite, LPA: 1, Data: 1, Barrier: true})
	})
	k.Run()
	if d.Array().ProgramScale != 1.05 {
		t.Errorf("program scale = %v, want 1.05", d.Array().ProgramScale)
	}
}

func TestOrderedPriorityBlocksLaterSimple(t *testing.T) {
	// A simple command submitted after an ordered command must not complete
	// before it.
	k := sim.NewKernel()
	defer k.Close()
	d := New(k, tinyConfig())
	var order []uint64
	mk := func(lpa uint64, prio Priority) *Command {
		return &Command{Kind: CmdWrite, LPA: lpa, Data: lpa, Prio: prio,
			Done: func(at sim.Time, c *Command) { order = append(order, lpa) }}
	}
	k.Spawn("host", func(p *sim.Proc) {
		d.Submit(mk(1, PrioSimple))
		d.Submit(mk(2, PrioOrdered))
		d.Submit(mk(3, PrioSimple))
	})
	k.Run()
	if len(order) != 3 {
		t.Fatalf("completions = %v", order)
	}
	// 1 before 2, 2 before 3.
	pos := map[uint64]int{}
	for i, l := range order {
		pos[l] = i
	}
	if pos[1] > pos[2] || pos[2] > pos[3] {
		t.Errorf("ordered priority violated: completion order %v", order)
	}
}

func TestReadPassesOrderedCommands(t *testing.T) {
	// On one stream: an ordered barrier write, then a flush, then a read and
	// a simple write. The read is eligible on arrival and completes while
	// the flush still drains; the simple write waits for the flush.
	k := sim.NewKernel()
	defer k.Close()
	d := New(k, tinyConfig())
	done := map[string]sim.Time{}
	mk := func(name string, c *Command) *Command {
		c.Done = func(at sim.Time, _ *Command) { done[name] = at }
		return c
	}
	k.Spawn("host", func(p *sim.Proc) {
		submitWait(p, d, &Command{Kind: CmdWrite, LPA: 9, Data: 9})
		d.Submit(mk("barrier", &Command{Kind: CmdWrite, LPA: 1, Data: 1, Prio: PrioOrdered, Barrier: true}))
		d.Submit(mk("flush", &Command{Kind: CmdFlush, Prio: PrioOrdered}))
		d.Submit(mk("read", &Command{Kind: CmdRead, LPA: 9}))
		d.Submit(mk("write", &Command{Kind: CmdWrite, LPA: 2, Data: 2}))
	})
	k.Run()
	if len(done) != 4 {
		t.Fatalf("completions = %v", done)
	}
	if done["read"] >= done["flush"] {
		t.Errorf("read completed at %v, not before the flush at %v", done["read"], done["flush"])
	}
	if done["write"] <= done["flush"] {
		t.Errorf("simple write completed at %v, not after the flush at %v", done["write"], done["flush"])
	}
}

func TestSimpleCommandsMayReorder(t *testing.T) {
	// With many simple commands in the queue the controller may pick any;
	// over many trials we should observe at least one out-of-submission-order
	// completion (this is the D != C arbitration of §2.1).
	k := sim.NewKernel()
	defer k.Close()
	cfg := tinyConfig()
	cfg.QueueDepth = 8
	d := New(k, cfg)
	var order []uint64
	k.Spawn("host", func(p *sim.Proc) {
		for i := 0; i < 8; i++ {
			d.Submit(&Command{Kind: CmdWrite, LPA: uint64(i), Data: i,
				Done: func(at sim.Time, c *Command) { order = append(order, c.LPA) }})
		}
	})
	k.Run()
	if len(order) != 8 {
		t.Fatalf("completions = %d", len(order))
	}
	inOrder := true
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			inOrder = false
		}
	}
	if inOrder {
		t.Log("note: simple commands completed in order this run (allowed but unexpected with seed)")
	}
}

func TestCrashLosesCacheWithoutPLP(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	d := New(k, tinyConfig())
	k.Spawn("host", func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			submitWait(p, d, &Command{Kind: CmdWrite, LPA: uint64(i), Data: i})
		}
		// Crash immediately: writeback has had no reason to run (below
		// low-water), so the data is only in cache.
		d.Crash()
		d2 := Recover(p, d)
		lost := 0
		for i := 0; i < 4; i++ {
			if _, ok := d2.DurableData(uint64(i)); !ok {
				lost++
			}
		}
		if lost != 4 {
			t.Errorf("lost %d of 4 cached pages; want all lost without PLP", lost)
		}
		// The recovered device works.
		submitWait(p, d2, &Command{Kind: CmdWrite, LPA: 100, Data: "new", FUA: true})
		if got, ok := d2.DurableData(100); !ok || got != "new" {
			t.Errorf("post-recovery write: %v,%v", got, ok)
		}
	})
	k.Run()
}

func TestCrashKeepsCacheWithPLP(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	cfg := SupercapSSD()
	cfg.QueueDepth = 4
	d := New(k, cfg)
	k.Spawn("host", func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			submitWait(p, d, &Command{Kind: CmdWrite, LPA: uint64(i), Data: i})
		}
		d.Crash()
		d2 := Recover(p, d)
		for i := 0; i < 4; i++ {
			if got, ok := d2.DurableData(uint64(i)); !ok || got != i {
				t.Errorf("PLP page %d = %v,%v", i, got, ok)
			}
		}
	})
	k.Run()
}

func TestPLPFlushIsCheap(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	plp := SupercapSSD()
	plp.QueueDepth = 4
	d := New(k, plp)
	var flushDone sim.Time
	k.Spawn("host", func(p *sim.Proc) {
		submitWait(p, d, &Command{Kind: CmdWrite, LPA: 1, Data: 1})
		t0 := p.Now()
		submitWait(p, d, &Command{Kind: CmdFlush, Prio: PrioHeadOfQueue})
		flushDone = p.Now() - t0
	})
	k.Run()
	if sim.Duration(flushDone) > 100*sim.Microsecond {
		t.Errorf("PLP flush took %v, should be ~command overhead", sim.Duration(flushDone))
	}
}

func TestBarrierWritebackPreservesTransferOrderAcrossCrash(t *testing.T) {
	// Writes w1..wN with a barrier between each: after a crash at an
	// arbitrary moment, the durable set must be an epoch prefix — if wk is
	// durable, all wj (j<k) are durable.
	for _, crashUs := range []int{100, 400, 900, 1600, 2500, 5000} {
		k := sim.NewKernel()
		cfg := UFS()
		cfg.QueueDepth = 8
		d := New(k, cfg)
		const n = 12
		k.Spawn("host", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				submitWait(p, d, &Command{Kind: CmdWrite, LPA: uint64(i), Data: i, Barrier: true})
			}
			// Ask for writeback so some epochs persist before the crash.
			d.Submit(&Command{Kind: CmdFlush, Prio: PrioHeadOfQueue})
		})
		k.RunUntil(sim.Time(sim.Duration(crashUs) * sim.Microsecond))
		d.Crash()
		var d2 *Device
		k.Spawn("recover", func(p *sim.Proc) { d2 = Recover(p, d) })
		k.Run()
		seenMissing := false
		for i := 0; i < n; i++ {
			_, ok := d2.DurableData(uint64(i))
			if !ok {
				seenMissing = true
			} else if seenMissing {
				t.Fatalf("crash@%dµs: epoch prefix violated: page %d durable after earlier hole", crashUs, i)
			}
		}
		k.Close()
	}
}

func TestLegacyDeviceCanViolateOrderWithoutFlush(t *testing.T) {
	// The motivation for transfer-and-flush: a device that ignores barriers
	// may persist later writes before earlier ones. With scrambled
	// writeback, at least one crash point should expose a violation.
	violated := false
	for _, crashUs := range []int{800, 1500, 2500, 4000, 6000, 9000, 14000} {
		k := sim.NewKernel()
		cfg := LegacySSD()
		cfg.QueueDepth = 32
		cfg.CachePages = 64
		d := New(k, cfg)
		const n = 48
		k.Spawn("host", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				submitWait(p, d, &Command{Kind: CmdWrite, LPA: uint64(i), Data: i})
			}
		})
		k.RunUntil(sim.Time(sim.Duration(crashUs) * sim.Microsecond))
		d.Crash()
		var d2 *Device
		k.Spawn("recover", func(p *sim.Proc) { d2 = Recover(p, d) })
		k.Run()
		seenMissing := false
		for i := 0; i < n; i++ {
			_, ok := d2.DurableData(uint64(i))
			if !ok {
				seenMissing = true
			} else if seenMissing {
				violated = true
			}
		}
		k.Close()
		if violated {
			break
		}
	}
	if !violated {
		t.Error("legacy device never violated write order across 7 crash points; scrambling is ineffective")
	}
}

func TestCachePressureBackpressure(t *testing.T) {
	// More writes than cache slots: the device must absorb them all anyway
	// (throttled by NAND bandwidth), not deadlock.
	k := sim.NewKernel()
	defer k.Close()
	cfg := tinyConfig()
	cfg.CachePages = 8
	d := New(k, cfg)
	completed := 0
	k.Spawn("host", func(p *sim.Proc) {
		for i := 0; i < 100; i++ {
			submitWait(p, d, &Command{Kind: CmdWrite, LPA: uint64(i % 10), Data: i})
			completed++
		}
	})
	k.Run()
	if completed != 100 {
		t.Errorf("completed = %d/100 under cache pressure", completed)
	}
}

func TestConfigPresetsValid(t *testing.T) {
	for _, cfg := range []Config{UFS(), PlainSSD(), SupercapSSD(), LegacySSD()} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", cfg.Name, err)
		}
	}
	for i := 0; i < NumFig1Devices; i++ {
		if err := defaults(Fig1Device(i)).Validate(); err != nil {
			t.Errorf("fig1[%d]: %v", i, err)
		}
	}
	if !PlainSSD().BarrierSupport || PlainSSD().BarrierPenalty != 0.05 {
		t.Error("plain-SSD preset lost its barrier settings")
	}
	if !SupercapSSD().PLP {
		t.Error("supercap preset lost PLP")
	}
	if LegacySSD().BarrierSupport {
		t.Error("legacy preset must not support barriers")
	}
}

func TestPriorityAndKindStrings(t *testing.T) {
	if CmdWrite.String() != "write" || CmdFlush.String() != "flush" || CmdRead.String() != "read" {
		t.Error("kind strings")
	}
	if PrioSimple.String() != "simple" || PrioOrdered.String() != "ordered" || PrioHeadOfQueue.String() != "head-of-queue" {
		t.Error("priority strings")
	}
}

func TestQDSeriesRecordsDepth(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	d := New(k, tinyConfig())
	qd := d.QDSeries() // recording starts when the handle is taken
	k.Spawn("host", func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			d.Submit(&Command{Kind: CmdWrite, LPA: uint64(i), Data: i})
		}
	})
	k.Run()
	if qd.Peak(0, k.Now()) < 2 {
		t.Errorf("QD peak = %v, want >= 2", qd.Peak(0, k.Now()))
	}
}

func TestCaptureConstraintsVolatileAbsentFromRecoveredBase(t *testing.T) {
	// Model soundness: every write CaptureConstraints reports as volatile
	// must be genuinely loseable — absent from the durable base the model
	// checker overlays candidate cuts on. Entries whose programs completed
	// inside the durable prefix (reaper lag) must be folded into the base,
	// not reported volatile: a cut "losing" them could not be materialized.
	k := sim.NewKernel()
	defer k.Close()
	d := New(k, tinyConfig()) // barrier device, eager writeback
	k.Spawn("host", func(p *sim.Proc) {
		for i := 0; i < 16; i++ {
			c := &Command{Kind: CmdWrite, LPA: uint64(100 + i), Data: i, Barrier: i%4 == 3}
			for !d.Submit(c) {
				d.WaitSpace(p)
			}
			p.Advance(20 * sim.Microsecond)
		}
	})
	k.RunUntil(sim.Time(400 * sim.Microsecond))
	cons := d.CaptureConstraints()
	if len(cons.Writes) == 0 {
		t.Fatal("expected volatile writes at the crash instant")
	}
	d.Crash()
	var d2 *Device
	k.Spawn("recover", func(p *sim.Proc) { d2 = Recover(p, d) })
	k.Run()
	for _, w := range cons.Writes {
		if data, ok := d2.DurableData(w.LPA); ok && data == w.Data {
			t.Errorf("write lpa=%d seq=%d modeled as volatile but present in the recovered base",
				w.LPA, w.Seq)
		}
	}
}

// TestBuildAllocations bounds what building an NVMe-class array and device
// costs the host, each on a fresh kernel that is closed again. Both must
// grow with the number of components, not with the 128 chips, 64 workers
// and 64 FTL segments: the chips' state, blocks and queues, the workers'
// state machines and the segments are flat arrays, and the procs are carved
// from the kernel's slab.
func TestBuildAllocations(t *testing.T) {
	cfg := defaults(NVMeSSD())
	for _, c := range []struct {
		name  string
		max   float64
		build func(k *sim.Kernel)
	}{
		{"nand.New", 50, func(k *sim.Kernel) { nand.New(k, cfg.Geometry, cfg.Timing) }},
		{"device.New", 80, func(k *sim.Kernel) { New(k, cfg) }},
	} {
		got := testing.AllocsPerRun(5, func() {
			k := sim.NewKernel()
			c.build(k)
			k.Close()
		})
		t.Logf("%s: %.0f allocations", c.name, got)
		if got > c.max {
			t.Errorf("%s took %.0f allocations, want <= %.0f", c.name, got, c.max)
		}
	}
}
