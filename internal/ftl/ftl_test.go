package ftl

import (
	"math/rand"
	"testing"

	"repro/internal/fault"
	"repro/internal/nand"
	"repro/internal/sim"
)

func smallGeo() nand.Geometry {
	return nand.Geometry{Channels: 2, WaysPerChannel: 2, BlocksPerChip: 16, PagesPerBlock: 8, PageSize: 4096}
}

func fastTiming() nand.Timing {
	return nand.Timing{
		Program: 100 * sim.Microsecond,
		Read:    20 * sim.Microsecond,
		Erase:   500 * sim.Microsecond,
		BusXfer: 5 * sim.Microsecond,
	}
}

// run spins up a kernel+array+FTL, executes body as a host process, and runs
// the simulation to completion.
func run(t *testing.T, body func(p *sim.Proc, f *FTL, arr *nand.Array)) {
	t.Helper()
	k := sim.NewKernel()
	defer k.Close()
	arr := nand.New(k, smallGeo(), fastTiming())
	f := New(k, arr, DefaultConfig())
	k.Spawn("host", func(p *sim.Proc) { body(p, f, arr) })
	k.Run()
}

// read is the tests' blocking page read: ReadStart from a host proc that
// suspends until the read completes. Tests arm no fault plan, so the read
// cannot fail.
func (f *FTL) read(p *sim.Proc, lpa uint64) (data any, ok bool) {
	var err error
	if !f.ReadStart(p, lpa, &data, &err) {
		return nil, false
	}
	p.Suspend()
	return data, true
}

func TestAppendReadBack(t *testing.T) {
	run(t, func(p *sim.Proc, f *FTL, arr *nand.Array) {
		f.Append(p, 10, "ten")
		f.Append(p, 20, "twenty")
		f.Sync(p)
		if d, ok := f.read(p, 10); !ok || d != "ten" {
			t.Errorf("Read(10) = %v,%v", d, ok)
		}
		if d, ok := f.read(p, 20); !ok || d != "twenty" {
			t.Errorf("Read(20) = %v,%v", d, ok)
		}
		if _, ok := f.read(p, 99); ok {
			t.Error("unmapped LPA readable")
		}
	})
}

func TestOverwriteInvalidatesOld(t *testing.T) {
	run(t, func(p *sim.Proc, f *FTL, arr *nand.Array) {
		f.Append(p, 5, "v1")
		f.Append(p, 5, "v2")
		f.Sync(p)
		if d, _ := f.read(p, 5); d != "v2" {
			t.Errorf("Read = %v, want v2", d)
		}
		if f.mapping.count() != 1 {
			t.Errorf("mapped = %d, want 1", f.mapping.count())
		}
	})
}

func TestWaitDurable(t *testing.T) {
	run(t, func(p *sim.Proc, f *FTL, arr *nand.Array) {
		idx := f.Append(p, 1, "x")
		if f.DurableIdx() > idx {
			t.Error("durable before program completes")
		}
		f.WaitDurable(p, idx+1)
		if f.DurableIdx() < idx+1 {
			t.Error("WaitDurable returned early")
		}
		if d, ok := f.DurableData(1); !ok || d != "x" {
			t.Errorf("DurableData = %v,%v", d, ok)
		}
	})
}

func TestSegmentRollAndSealBarrier(t *testing.T) {
	run(t, func(p *sim.Proc, f *FTL, arr *nand.Array) {
		slots := f.caps // 4 chips * 8 pages = 32
		// Fill two data segments worth (each has slots-1 data pages).
		n := 2 * (slots - 1)
		for i := 0; i < n; i++ {
			f.Append(p, uint64(i), i)
		}
		f.Sync(p)
		for i := 0; i < n; i++ {
			if d, ok := f.read(p, uint64(i)); !ok || d != i {
				t.Fatalf("Read(%d) = %v,%v", i, d, ok)
			}
		}
		if f.Stats().HostAppends != int64(n) {
			t.Errorf("host appends = %d, want %d", f.Stats().HostAppends, n)
		}
	})
}

// Two appenders meet at the seal barrier: the one that wakes second must
// append to the segment the first opened, not open another and leave the
// first partially appended (unsealed, so GC never reclaims it).
func TestAppendersWokenAtSealShareOneSegment(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	arr := nand.New(k, smallGeo(), fastTiming())
	f := New(k, arr, DefaultConfig())
	pages := f.caps // 32: one appender alone fills the first segment
	for w := 0; w < 2; w++ {
		base := uint64(w * pages)
		k.Spawn("appender", func(p *sim.Proc) {
			for i := 0; i < pages; i++ {
				f.Append(p, base+uint64(i), i)
			}
		})
	}
	k.Run()
	// 64 pages plus one summary per segment need three segments.
	if f.allocSeq != 3 {
		t.Errorf("segments allocated = %d, want 3", f.allocSeq)
	}
	for i := range f.segs {
		s := &f.segs[i]
		if s.done != nil && !s.sealed && s != f.active {
			t.Errorf("segment %d left unsealed with %d of %d slots appended", s.id, s.nextSlot, f.caps)
		}
	}
	if got := f.mapping.count(); got != 2*pages {
		t.Errorf("mapped = %d, want %d", got, 2*pages)
	}
}

// GC relocation reads are exempt from media-error injection: on an array
// where every injected read fails, moving a page must still copy its data.
func TestGCRelocationIgnoresMediaErrors(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	arr := nand.New(k, smallGeo(), fastTiming())
	arr.SetFault(fault.New(&fault.Plan{Seed: 1, ReadUNCProb: 1}))
	f := New(k, arr, DefaultConfig())
	// Every eighth append writes a page never overwritten, so each segment
	// GC reclaims still holds valid pages it must move.
	const total = 13 * 32
	k.Spawn("host", func(p *sim.Proc) {
		for i := 0; i < total; i++ {
			lpa := uint64(i % 4)
			if i%8 == 0 {
				lpa = uint64(1000 + i)
			}
			f.Append(p, lpa, i)
		}
		f.Sync(p)
	})
	k.Run()
	if f.Stats().GCAppends == 0 {
		t.Fatal("GC moved no page")
	}
	for i := 0; i < total; i += 8 {
		if d, ok := f.DurableData(uint64(1000 + i)); !ok || d != i {
			t.Fatalf("cold page %d = %v,%v after GC", 1000+i, d, ok)
		}
	}
}

func TestGCReclaimsSpace(t *testing.T) {
	run(t, func(p *sim.Proc, f *FTL, arr *nand.Array) {
		slots := f.caps
		// Working set of 8 LPAs, overwritten many times: most segments
		// become garbage and must be reclaimed for the writes to finish.
		total := 14 * slots
		for i := 0; i < total; i++ {
			f.Append(p, uint64(i%8), i)
		}
		f.Sync(p)
		for lpa := 0; lpa < 8; lpa++ {
			want := total - 8 + lpa
			if d, ok := f.read(p, uint64(lpa)); !ok || d != want {
				t.Fatalf("Read(%d) = %v,%v, want %d", lpa, d, ok, want)
			}
		}
		if f.Stats().GCRuns == 0 {
			t.Error("GC never ran despite log pressure")
		}
		if f.Stats().SegsErased == 0 {
			t.Error("no segments erased")
		}
	})
}

// On a log full of live pages GC has nothing to reclaim: the append after
// the last free slot waits for a free segment instead of opening one.
func TestAppendWaitsForFreeSegment(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	arr := nand.New(k, smallGeo(), fastTiming())
	f := New(k, arr, DefaultConfig())
	fits := smallGeo().BlocksPerChip * (f.caps - 1) // every slot but the summaries
	appended := 0
	k.Spawn("host", func(p *sim.Proc) {
		for i := 0; i <= fits; i++ {
			f.Append(p, uint64(i), i)
			appended++
		}
	})
	k.Run()
	if appended != fits || f.free.Len() != 0 || f.spaceCond.Waiters() != 1 {
		t.Fatalf("appended %d of %d, %d free segments, %d waiting for space; want %d, 0, 1",
			appended, fits+1, f.free.Len(), f.spaceCond.Waiters(), fits)
	}
	if f.Stats().GCRuns != 0 {
		t.Errorf("GC ran %d times on a log with no garbage", f.Stats().GCRuns)
	}
}

// Stats.Stalls counts each append that blocked once, however often it is
// woken: one appender writing ten segments stalls at the nine seal barriers
// between them, on both the blocking and the handler path, while each
// program of the sealed segment wakes it again.
func TestStallsCountBlockedAppendsOnce(t *testing.T) {
	for _, handler := range []bool{false, true} {
		k := sim.NewKernel()
		arr := nand.New(k, smallGeo(), fastTiming())
		f := New(k, arr, DefaultConfig())
		n := 10 * (f.caps - 1) // ten segments' data slots
		if handler {
			i, again := 0, false
			k.SpawnHandler("appender", func(h *sim.Proc) {
				for ; i < n; i++ {
					if _, ok := f.AppendStep(h, uint64(i), i, again); !ok {
						again = true
						return
					}
					again = false
				}
				h.Complete()
			})
		} else {
			k.Spawn("appender", func(p *sim.Proc) {
				for i := 0; i < n; i++ {
					f.Append(p, uint64(i), i)
				}
			})
		}
		k.Run()
		k.Close()
		st := f.Stats()
		if st.HostAppends != int64(n) || f.allocSeq != 10 {
			t.Fatalf("handler=%v: %d of %d appends in %d segments, want 10", handler, st.HostAppends, n, f.allocSeq)
		}
		if st.Stalls != 9 {
			t.Errorf("handler=%v: %d stalls, want 9 (one per seal barrier)", handler, st.Stalls)
		}
	}
}

func TestGCPreservesColdData(t *testing.T) {
	run(t, func(p *sim.Proc, f *FTL, arr *nand.Array) {
		// Cold data written once, then heavy overwrite traffic elsewhere.
		for i := 0; i < 20; i++ {
			f.Append(p, uint64(1000+i), 1000+i)
		}
		slots := f.caps
		for i := 0; i < 13*slots; i++ {
			f.Append(p, uint64(i%4), i)
		}
		f.Sync(p)
		for i := 0; i < 20; i++ {
			if d, ok := f.read(p, uint64(1000+i)); !ok || d != 1000+i {
				t.Fatalf("cold page %d = %v,%v after GC", 1000+i, d, ok)
			}
		}
	})
}

func TestMountEmptyArray(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	arr := nand.New(k, smallGeo(), fastTiming())
	k.Spawn("host", func(p *sim.Proc) {
		f := Mount(p, arr, DefaultConfig())
		if f.mapping.count() != 0 || f.free.Len() != smallGeo().BlocksPerChip {
			t.Errorf("mount of empty array: mapped=%d free=%d", f.mapping.count(), f.free.Len())
		}
		f.Append(p, 3, "post-mount")
		f.Sync(p)
		if d, _ := f.read(p, 3); d != "post-mount" {
			t.Error("append after empty mount failed")
		}
	})
	k.Run()
}

func TestRemountAfterCleanSync(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	arr := nand.New(k, smallGeo(), fastTiming())
	f := New(k, arr, DefaultConfig())
	k.Spawn("host", func(p *sim.Proc) {
		for i := 0; i < 50; i++ {
			f.Append(p, uint64(i), i*i)
		}
		f.Sync(p)
		// Simulate clean power-off and remount.
		arr.Fail()
		p.Sleep(sim.Millisecond)
		arr.Restore()
		f2 := Mount(p, arr, DefaultConfig())
		for i := 0; i < 50; i++ {
			if d, ok := f2.DurableData(uint64(i)); !ok || d != i*i {
				t.Fatalf("after remount, page %d = %v,%v want %d", i, d, ok, i*i)
			}
		}
		if f2.Stats().RecoveryDrop != 0 {
			t.Errorf("clean remount dropped %d pages", f2.Stats().RecoveryDrop)
		}
	})
	k.Run()
}

// The core invariant: after a crash at an arbitrary instant, the recovered
// state is a prefix of the append order. If append i survived, every append
// j < i survived too (overwrites considered: the surviving version of each
// LPA is consistent with some prefix cut).
func TestCrashRecoveryPrefixProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		k := sim.NewKernel()
		arr := nand.New(k, smallGeo(), fastTiming())
		f := New(k, arr, DefaultConfig())
		const writes = 120
		crashAt := sim.Time(sim.Duration(rng.Intn(4000)) * sim.Microsecond)
		// appendLog[i] = (lpa, version) in append order.
		type rec struct {
			lpa uint64
			ver int
		}
		var appendLog []rec
		k.Spawn("writer", func(p *sim.Proc) {
			for i := 0; i < writes; i++ {
				lpa := uint64(rng.Intn(16))
				appendLog = append(appendLog, rec{lpa, i})
				f.Append(p, lpa, i)
				if rng.Intn(3) == 0 {
					p.Sleep(sim.Duration(rng.Intn(50)) * sim.Microsecond)
				}
			}
		})
		k.RunUntil(crashAt)
		arr.Fail()
		k.RunUntil(crashAt.Add(10 * sim.Millisecond))
		arr.Restore()

		var f2 *FTL
		k.Spawn("mounter", func(p *sim.Proc) {
			f2 = Mount(p, arr, DefaultConfig())
		})
		k.Run()

		// Find the longest prefix of appendLog consistent with what
		// survived: walk the log, computing expected state after each cut.
		state := map[uint64]int{}
		consistentAt := func() bool {
			for lpa, ver := range state {
				d, ok := f2.DurableData(lpa)
				if !ok || d != ver {
					return false
				}
			}
			// Nothing beyond the cut may be visible either: checked by the
			// caller via exact match at the chosen cut.
			return true
		}
		matched := false
		if f2.mapping.count() == 0 && len(state) == 0 {
			matched = true // empty prefix
		}
		for i := 0; i < len(appendLog) && !matched; i++ {
			state[appendLog[i].lpa] = appendLog[i].ver
			if f2.mapping.count() == countKeys(state) && consistentAt() {
				matched = true
			}
		}
		if !matched {
			t.Fatalf("trial %d (crash@%v): recovered state is not a prefix of the append order", trial, crashAt)
		}
		k.Close()
	}
}

func countKeys(m map[uint64]int) int { return len(m) }

func TestCrashMidGCLosesNothingDurable(t *testing.T) {
	// Data that was durable before GC started must survive a crash at any
	// point during GC activity.
	k := sim.NewKernel()
	arr := nand.New(k, smallGeo(), fastTiming())
	f := New(k, arr, DefaultConfig())
	written := map[uint64]int{}
	k.Spawn("writer", func(p *sim.Proc) {
		slots := f.caps
		for i := 0; i < 13*slots; i++ {
			lpa := uint64(i % 24)
			f.Append(p, lpa, i)
			written[lpa] = i
			if i%32 == 0 {
				f.Sync(p)
			}
		}
		f.Sync(p)
	})
	// Crash somewhere in the middle of the workload (GC will be active).
	k.RunUntil(sim.Time(30 * sim.Millisecond))
	durableBefore := map[uint64]any{}
	for lpa := range f.mapping.all() {
		if d, ok := f.DurableData(lpa); ok {
			durableBefore[lpa] = d
		}
	}
	arr.Fail()
	k.RunUntil(sim.Time(40 * sim.Millisecond))
	arr.Restore()
	var f2 *FTL
	k.Spawn("mounter", func(p *sim.Proc) { f2 = Mount(p, arr, DefaultConfig()) })
	k.Run()
	defer k.Close()
	// Every LPA that had any durable version must still have *some* version
	// at least as new... we settle for: still present. (Exact versions are
	// covered by the prefix property test.)
	for lpa := range durableBefore {
		if _, ok := f2.DurableData(lpa); !ok {
			t.Errorf("LPA %d lost across crash during GC", lpa)
		}
	}
}

func TestRecoveryDropCountsTail(t *testing.T) {
	// Crash with programs in flight: recovery must report dropped pages
	// when later slots were programmed past a hole.
	k := sim.NewKernel()
	arr := nand.New(k, smallGeo(), fastTiming())
	f := New(k, arr, DefaultConfig())
	k.Spawn("writer", func(p *sim.Proc) {
		for i := 0; i < 40; i++ {
			f.Append(p, uint64(i), i)
		}
	})
	// Crash almost immediately: many in-flight programs.
	k.RunUntil(sim.Time(150 * sim.Microsecond))
	arr.Fail()
	k.RunUntil(sim.Time(1 * sim.Millisecond))
	arr.Restore()
	var f2 *FTL
	k.Spawn("mounter", func(p *sim.Proc) { f2 = Mount(p, arr, DefaultConfig()) })
	k.Run()
	defer k.Close()
	// Whatever survived must be the 0..n-1 prefix.
	for lpa := range f2.mapping.all() {
		d, _ := f2.DurableData(lpa)
		if d != int(lpa) {
			t.Errorf("LPA %d has value %v", lpa, d)
		}
	}
	n := f2.mapping.count()
	for i := 0; i < n; i++ {
		if _, ok := f2.DurableData(uint64(i)); !ok {
			t.Errorf("hole in recovered prefix at %d (recovered %d pages)", i, n)
		}
	}
}

func TestAppendAfterCrashRecovery(t *testing.T) {
	k := sim.NewKernel()
	arr := nand.New(k, smallGeo(), fastTiming())
	f := New(k, arr, DefaultConfig())
	k.Spawn("writer", func(p *sim.Proc) {
		for i := 0; i < 20; i++ {
			f.Append(p, uint64(i), "old")
		}
	})
	k.RunUntil(sim.Time(200 * sim.Microsecond))
	arr.Fail()
	k.RunUntil(sim.Time(1 * sim.Millisecond))
	arr.Restore()
	k.Spawn("mounter", func(p *sim.Proc) {
		f2 := Mount(p, arr, DefaultConfig())
		for i := 100; i < 140; i++ {
			f2.Append(p, uint64(i), "new")
		}
		f2.Sync(p)
		for i := 100; i < 140; i++ {
			if d, ok := f2.DurableData(uint64(i)); !ok || d != "new" {
				t.Fatalf("post-recovery write %d = %v,%v", i, d, ok)
			}
		}
	})
	k.Run()
	defer k.Close()
}

func TestDoubleCrash(t *testing.T) {
	// Crash, recover, write, crash again, recover again.
	k := sim.NewKernel()
	arr := nand.New(k, smallGeo(), fastTiming())
	f := New(k, arr, DefaultConfig())
	k.Spawn("w1", func(p *sim.Proc) {
		for i := 0; i < 30; i++ {
			f.Append(p, uint64(i), 1)
		}
	})
	k.RunUntil(sim.Time(180 * sim.Microsecond))
	arr.Fail()
	k.RunUntil(sim.Time(1 * sim.Millisecond))
	arr.Restore()
	var f2 *FTL
	k.Spawn("m1", func(p *sim.Proc) {
		f2 = Mount(p, arr, DefaultConfig())
		for i := 0; i < 30; i++ {
			f2.Append(p, uint64(i), 2)
		}
	})
	k.RunUntil(sim.Time(1500 * sim.Microsecond))
	arr.Fail()
	k.RunUntil(sim.Time(3 * sim.Millisecond))
	arr.Restore()
	k.Spawn("m2", func(p *sim.Proc) {
		f3 := Mount(p, arr, DefaultConfig())
		// All surviving values must be 1 or 2, with v2 forming a prefix of
		// the second write sequence.
		seen2 := -1
		for i := 29; i >= 0; i-- {
			if d, ok := f3.DurableData(uint64(i)); ok {
				if d == 2 {
					if seen2 == -1 {
						seen2 = i
					}
				} else if d != 1 {
					t.Errorf("LPA %d = %v", i, d)
				}
			}
		}
		_ = seen2
	})
	k.Run()
	defer k.Close()
	_ = f2
}
