package nand

import (
	"runtime"
	"testing"

	"repro/internal/sim"
)

func testGeo() Geometry {
	return Geometry{Channels: 2, WaysPerChannel: 2, BlocksPerChip: 8, PagesPerBlock: 16, PageSize: 4096}
}

func testTiming() Timing {
	return Timing{
		Program: 800 * sim.Microsecond,
		Read:    60 * sim.Microsecond,
		Erase:   3 * sim.Millisecond,
		BusXfer: 20 * sim.Microsecond,
	}
}

func TestGeometryValidate(t *testing.T) {
	if err := testGeo().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := testGeo()
	bad.Channels = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero channels accepted")
	}
	g := testGeo()
	if g.Chips() != 4 || g.PagesPerChip() != 128 || g.TotalPages() != 512 {
		t.Errorf("derived sizes wrong: %d %d %d", g.Chips(), g.PagesPerChip(), g.TotalPages())
	}
}

func TestProgramAndRead(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	a := New(k, testGeo(), testTiming())
	var readBack PageMeta
	k.Spawn("host", func(p *sim.Proc) {
		done := sim.NewCond(k)
		a.Submit(&Request{
			Kind: OpProgram, Chip: 0, Block: 0, Page: 0,
			Meta: PageMeta{LPA: 42, Seq: 7}, Data: "payload",
			Done: func(at sim.Time, r *Request) { done.Signal() },
		})
		done.Wait(p)
		a.Submit(&Request{
			Kind: OpRead, Chip: 0, Block: 0, Page: 0,
			Done: func(at sim.Time, r *Request) {
				readBack = r.Meta
				if r.Data != "payload" {
					t.Errorf("data = %v", r.Data)
				}
				done.Signal()
			},
		})
		done.Wait(p)
	})
	k.Run()
	if readBack.LPA != 42 || readBack.Seq != 7 {
		t.Errorf("read meta = %+v", readBack)
	}
	if got := a.Stats(); got.Programs != 1 || got.Reads != 1 {
		t.Errorf("stats = %+v", got)
	}
}

func TestProgramTiming(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	tm := testTiming()
	a := New(k, testGeo(), tm)
	var doneAt sim.Time
	k.Spawn("host", func(p *sim.Proc) {
		a.Submit(&Request{Kind: OpProgram, Chip: 0, Block: 0, Page: 0,
			Done: func(at sim.Time, r *Request) { doneAt = at }})
	})
	k.Run()
	want := sim.Time(tm.BusXfer + tm.Program)
	if doneAt != want {
		t.Errorf("program completed at %v, want %v", doneAt, want)
	}
}

func TestChannelParallelism(t *testing.T) {
	// Two chips on different channels program fully in parallel; two chips
	// on the same channel serialize only the bus transfer.
	k := sim.NewKernel()
	defer k.Close()
	tm := testTiming()
	a := New(k, testGeo(), tm) // chips 0,2 on ch0; 1,3 on ch1 (id%channels)
	var last sim.Time
	count := 0
	done := func(at sim.Time, r *Request) {
		count++
		if at > last {
			last = at
		}
	}
	k.Spawn("host", func(p *sim.Proc) {
		// chips 0 and 1: different channels.
		a.Submit(&Request{Kind: OpProgram, Chip: 0, Block: 0, Page: 0, Done: done})
		a.Submit(&Request{Kind: OpProgram, Chip: 1, Block: 0, Page: 0, Done: done})
	})
	k.Run()
	if count != 2 {
		t.Fatalf("completions = %d", count)
	}
	want := sim.Time(tm.BusXfer + tm.Program)
	if last != want {
		t.Errorf("parallel programs finished at %v, want %v", last, want)
	}

	// Same channel: bus serializes, programs overlap.
	k2 := sim.NewKernel()
	defer k2.Close()
	a2 := New(k2, testGeo(), tm)
	last = 0
	k2.Spawn("host", func(p *sim.Proc) {
		a2.Submit(&Request{Kind: OpProgram, Chip: 0, Block: 0, Page: 0, Done: done})
		a2.Submit(&Request{Kind: OpProgram, Chip: 2, Block: 0, Page: 0, Done: done}) // ch0 too
	})
	k2.Run()
	want = sim.Time(2*tm.BusXfer + tm.Program)
	if last != want {
		t.Errorf("same-channel programs finished at %v, want %v (pipelined)", last, want)
	}
}

func TestInOrderProgramEnforced(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	a := New(k, testGeo(), testTiming())
	var gotErr error
	k.Spawn("host", func(p *sim.Proc) {
		a.Submit(&Request{Kind: OpProgram, Chip: 0, Block: 0, Page: 1, // skips page 0
			Done: func(at sim.Time, r *Request) { gotErr = r.Err }})
	})
	k.Run()
	if gotErr == nil {
		t.Fatal("out-of-order program not rejected")
	}
	if a.Stats().Faults != 1 {
		t.Errorf("faults = %d", a.Stats().Faults)
	}
	if ok, _, _ := a.PageInfo(0, 0, 1); ok {
		t.Error("violating program still wrote the page")
	}
}

func TestEraseResetsBlock(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	a := New(k, testGeo(), testTiming())
	k.Spawn("host", func(p *sim.Proc) {
		c := sim.NewCond(k)
		for pg := 0; pg < 3; pg++ {
			a.Submit(&Request{Kind: OpProgram, Chip: 0, Block: 0, Page: pg,
				Done: func(at sim.Time, r *Request) { c.Signal() }})
			c.Wait(p)
		}
		if a.NextPage(0, 0) != 3 {
			t.Errorf("next = %d, want 3", a.NextPage(0, 0))
		}
		a.Submit(&Request{Kind: OpErase, Chip: 0, Block: 0,
			Done: func(at sim.Time, r *Request) { c.Signal() }})
		c.Wait(p)
		if a.NextPage(0, 0) != 0 {
			t.Errorf("next after erase = %d", a.NextPage(0, 0))
		}
		if ok, _, _ := a.PageInfo(0, 0, 0); ok {
			t.Error("page survived erase")
		}
		if got := a.chips[0].blocks[0].erases; got != 1 {
			t.Errorf("erases = %d", got)
		}
		// Block is programmable again from page 0.
		a.Submit(&Request{Kind: OpProgram, Chip: 0, Block: 0, Page: 0,
			Done: func(at sim.Time, r *Request) { c.Signal() }})
		c.Wait(p)
	})
	k.Run()
}

// Every page's content lives in two slices shared by the whole array: a
// program must land in its own slot and an erase must wipe its own block
// only, at the corners of the index space as in the middle.
func TestPagesKeepToTheirSlots(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	g := testGeo()
	a := New(k, g, testTiming())
	type loc struct{ chip, block int }
	locs := []loc{{0, 0}, {0, 1}, {1, 0}, {2, 5}, {g.Chips() - 1, g.BlocksPerChip - 1}}
	k.Spawn("host", func(p *sim.Proc) {
		c := sim.NewCond(k)
		signal := func(sim.Time, *Request) { c.Signal() }
		for i, l := range locs {
			for pg := 0; pg < g.PagesPerBlock; pg++ {
				a.Submit(&Request{Kind: OpProgram, Chip: l.chip, Block: l.block, Page: pg,
					Meta: PageMeta{LPA: uint64(i), Seq: uint64(pg + 1)}, Data: i*100 + pg, Done: signal})
				c.Wait(p)
			}
		}
		a.Submit(&Request{Kind: OpErase, Chip: 0, Block: 1, Done: signal})
		c.Wait(p)
	})
	k.Run()
	for i, l := range locs {
		for pg := 0; pg < g.PagesPerBlock; pg++ {
			ok, meta, data := a.PageInfo(l.chip, l.block, pg)
			if l == (loc{0, 1}) {
				if ok || meta != (PageMeta{}) || data != nil {
					t.Fatalf("erased chip 0 block 1 page %d: %v %+v %v", pg, ok, meta, data)
				}
				continue
			}
			if want := (PageMeta{LPA: uint64(i), Seq: uint64(pg + 1)}); !ok || meta != want || data != i*100+pg {
				t.Fatalf("chip %d block %d page %d: %v %+v %v, want %+v %d", l.chip, l.block, pg, ok, meta, data, want, i*100+pg)
			}
		}
	}
	if ok, _, _ := a.PageInfo(1, 1, 0); ok {
		t.Error("a page nobody programmed reads as programmed")
	}
}

func TestPowerFailureLosesInflight(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	tm := testTiming()
	a := New(k, testGeo(), tm)
	completions := 0
	k.Spawn("host", func(p *sim.Proc) {
		// Three sequential pages on one chip: ~20µs bus + 800µs program each.
		for pg := 0; pg < 3; pg++ {
			a.Submit(&Request{Kind: OpProgram, Chip: 0, Block: 0, Page: pg,
				Done: func(at sim.Time, r *Request) { completions++ }})
		}
		// Cut power while page 1 is programming.
		p.Sleep(1 * sim.Millisecond)
		a.Fail()
	})
	k.Run()
	if completions != 1 {
		t.Fatalf("completions = %d, want 1 (page 0 only)", completions)
	}
	ok0, _, _ := a.PageInfo(0, 0, 0)
	ok1, _, _ := a.PageInfo(0, 0, 1)
	if !ok0 || ok1 {
		t.Errorf("durability after crash: page0=%v page1=%v, want true,false", ok0, ok1)
	}
	if a.Stats().LostJobs == 0 {
		t.Error("lost jobs not counted")
	}
}

func TestRestoreRecomputesProgramPointer(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	a := New(k, testGeo(), testTiming())
	k.Spawn("host", func(p *sim.Proc) {
		c := sim.NewCond(k)
		for pg := 0; pg < 2; pg++ {
			a.Submit(&Request{Kind: OpProgram, Chip: 1, Block: 3, Page: pg,
				Done: func(at sim.Time, r *Request) { c.Signal() }})
			c.Wait(p)
		}
		a.Fail()
		p.Sleep(sim.Millisecond)
		a.Restore()
		if a.NextPage(1, 3) != 2 {
			t.Errorf("next after restore = %d, want 2", a.NextPage(1, 3))
		}
		// Continue programming where we left off.
		a.Submit(&Request{Kind: OpProgram, Chip: 1, Block: 3, Page: 2,
			Done: func(at sim.Time, r *Request) { c.Signal() }})
		c.Wait(p)
	})
	k.Run()
	if a.Stats().Programs != 3 {
		t.Errorf("programs = %d, want 3", a.Stats().Programs)
	}
}

func TestSubmitWhileFailedDropped(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	a := New(k, testGeo(), testTiming())
	k.Spawn("host", func(p *sim.Proc) {
		a.Fail()
		a.Submit(&Request{Kind: OpProgram, Chip: 0, Block: 0, Page: 0,
			Done: func(at sim.Time, r *Request) { t.Error("completion fired on failed array") }})
	})
	k.Run()
	if a.Stats().LostJobs != 1 {
		t.Errorf("lost = %d", a.Stats().LostJobs)
	}
}

// TestPowerCycleDropsReadAndErase: a read or an erase in service when the
// power fails and comes back is dropped when its phase ends, by its stale
// generation alone (the array is powered again by then). It fires no
// completion, an erase wipes nothing, and the next job is served as usual.
func TestPowerCycleDropsReadAndErase(t *testing.T) {
	tm := testTiming()
	for _, tc := range []struct {
		kind OpKind
		at   sim.Duration // the power cut, inside the job's cell time
	}{
		{OpRead, tm.Read / 2},
		{OpErase, tm.Erase / 2},
	} {
		t.Run(tc.kind.String(), func(t *testing.T) {
			k := sim.NewKernel()
			defer k.Close()
			a := New(k, testGeo(), tm)
			var before, after Stats
			dropped := false
			k.Spawn("host", func(p *sim.Proc) {
				c := sim.NewCond(k)
				signal := func(sim.Time, *Request) { c.Signal() }
				a.Submit(&Request{Kind: OpProgram, Chip: 0, Block: 0, Page: 0, Data: "v", Done: signal})
				c.Wait(p)
				before = a.Stats()
				a.Submit(&Request{Kind: tc.kind, Chip: 0, Block: 0, Page: 0,
					Done: func(sim.Time, *Request) { dropped = true }})
				p.Sleep(tc.at)
				a.Fail()
				p.Sleep(sim.Microsecond)
				a.Restore()
				p.Sleep(tm.Erase) // past the end of the job's every phase
				after = a.Stats()
				var got any
				a.Submit(&Request{Kind: OpRead, Chip: 0, Block: 0, Page: 0,
					Done: func(_ sim.Time, r *Request) { got = r.Data; c.Signal() }})
				c.Wait(p)
				if got != "v" {
					t.Errorf("read after the power cycle = %v, want the programmed page", got)
				}
			})
			k.Run()
			if dropped {
				t.Errorf("%v completed across a power cycle", tc.kind)
			}
			if after.LostJobs-before.LostJobs != 1 || after.Reads != before.Reads || after.Erases != before.Erases {
				t.Errorf("stats across the power cycle: %+v -> %+v, want one lost job and nothing served", before, after)
			}
			if a.NextPage(0, 0) != 1 || a.chips[0].blocks[0].erases != 0 {
				t.Errorf("block 0: next page %d, %d erases; want the page kept", a.NextPage(0, 0), a.chips[0].blocks[0].erases)
			}
		})
	}
}

func TestProgramScaleSlowsPrograms(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	tm := testTiming()
	a := New(k, testGeo(), tm)
	a.ProgramScale = 1.05
	var doneAt sim.Time
	k.Spawn("host", func(p *sim.Proc) {
		a.Submit(&Request{Kind: OpProgram, Chip: 0, Block: 0, Page: 0,
			Done: func(at sim.Time, r *Request) { doneAt = at }})
	})
	k.Run()
	want := sim.Time(tm.BusXfer + tm.Program.Scale(1.05))
	if doneAt != want {
		t.Errorf("scaled program at %v, want %v", doneAt, want)
	}
}

// A closed kernel's array hands its page store to the next New of the same
// size, which must find it blank — after programs across blocks, an erase
// and a program lost to power failure — and must not allocate a second one.
func TestRecycledArrayIsBlank(t *testing.T) {
	// The NVMe-class size: 128 chips × 64 blocks × 64 pages, 16.8 MB of store.
	g := Geometry{Channels: 16, WaysPerChannel: 8, BlocksPerChip: 64, PagesPerBlock: 64, PageSize: 4096}
	k := sim.NewKernel()
	a := New(k, g, testTiming())
	k.Spawn("host", func(p *sim.Proc) {
		c := sim.NewCond(k)
		signal := func(sim.Time, *Request) { c.Signal() }
		for i, l := range []struct{ chip, block, pages int }{
			{0, 0, 3}, {5, 2, 7}, {g.Chips() - 1, g.BlocksPerChip - 1, g.PagesPerBlock},
		} {
			for pg := 0; pg < l.pages; pg++ {
				a.Submit(&Request{Kind: OpProgram, Chip: l.chip, Block: l.block, Page: pg,
					Meta: PageMeta{LPA: uint64(i + 1), Seq: uint64(pg + 1)}, Data: pg, Done: signal})
				c.Wait(p)
			}
		}
		a.Submit(&Request{Kind: OpErase, Chip: 5, Block: 2, Done: signal})
		c.Wait(p)
		a.Submit(&Request{Kind: OpProgram, Chip: 3, Block: 1, Page: 0,
			Meta: PageMeta{LPA: 9, Seq: 9}, Data: "lost", Done: signal})
		p.Sleep(testTiming().BusXfer + testTiming().Program/2) // mid-program
		a.Fail()
	})
	k.Run()
	if got := a.Stats(); got.Programs != 3+7+64 || got.Erases != 1 || got.LostJobs != 1 {
		t.Fatalf("stats = %+v", got)
	}
	k.Close()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	k2 := sim.NewKernel()
	defer k2.Close()
	b := New(k2, g, testTiming())
	runtime.ReadMemStats(&after)
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Errorf("second New allocated %d B, want < 1 MB (the store is recycled)", d)
	}
	for chip := 0; chip < g.Chips(); chip++ {
		for blk := 0; blk < g.BlocksPerChip; blk++ {
			if n := b.NextPage(chip, blk); n != 0 {
				t.Fatalf("chip %d block %d: next = %d", chip, blk, n)
			}
			for pg := 0; pg < g.PagesPerBlock; pg++ {
				if ok, meta, data := b.PageInfo(chip, blk, pg); ok || meta != (PageMeta{}) || data != nil {
					t.Fatalf("chip %d block %d page %d: %v %+v %v", chip, blk, pg, ok, meta, data)
				}
			}
		}
	}
	// PageInfo answers unprogrammed from the program pointer alone; the
	// store behind it must be blank too, or the next program would be the
	// only thing hiding the last device's pages.
	for i := range b.meta {
		if b.meta[i] != (PageMeta{}) || b.data[i] != nil {
			t.Fatalf("slot %d holds %+v %v", i, b.meta[i], b.data[i])
		}
	}

	defer func() {
		if recover() == nil {
			t.Error("PageInfo on a closed array did not panic")
		}
	}()
	a.PageInfo(0, 0, 0)
}

func TestOpKindString(t *testing.T) {
	if OpProgram.String() != "program" || OpRead.String() != "read" || OpErase.String() != "erase" {
		t.Error("OpKind strings wrong")
	}
}
