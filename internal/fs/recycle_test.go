package fs

import (
	"runtime"
	"testing"

	"repro/internal/block"
	"repro/internal/device"
	"repro/internal/jbd"
	"repro/internal/sim"
)

// TestFdatawaitReturnsAtLastCompletion pins filemap_fdatawait: Fdatawait
// returns at the instant the inode's last in-flight writeback completes, and
// charges nothing of its own.
func TestFdatawaitReturnsAtLastCompletion(t *testing.T) {
	e := newEnv(jbd.ModeDual, true)
	defer e.close()
	e.run(func(p *sim.Proc) {
		f, _ := e.fs.Create(p, e.fs.Root(), "f")
		for i := int64(0); i < 8; i++ {
			e.fs.Write(p, f, i)
		}
		e.fs.WritebackAsync(p, f)
		if len(f.inflight) != 8 {
			t.Fatalf("%d requests in flight after WritebackAsync, want 8", len(f.inflight))
		}
		var last sim.Time
		for _, r := range f.inflight {
			prev := r.OnComplete
			r.OnComplete = func(at sim.Time, rr *block.Request) {
				last = at
				prev(at, rr)
			}
		}
		e.fs.Fdatawait(p, f)
		if len(f.inflight) != 0 {
			t.Errorf("%d requests still in flight after Fdatawait", len(f.inflight))
		}
		if last == 0 || p.Now() != last {
			t.Errorf("Fdatawait returned at %v, last writeback completed at %v", p.Now(), last)
		}
	})
}

// TestFdatawaitIdle: with nothing in flight Fdatawait returns at once,
// without a kernel event.
func TestFdatawaitIdle(t *testing.T) {
	e := newEnv(jbd.ModeDual, true)
	defer e.close()
	ks := &sim.KernelStats{}
	e.k.AttachStats(ks)
	e.run(func(p *sim.Proc) {
		f, _ := e.fs.Create(p, e.fs.Root(), "f")
		e.fs.Write(p, f, 0)
		e.fs.Fsync(p, f)
		events := func() int64 { return ks.GoroutineDispatches.Load() + ks.HandlerDispatches.Load() }
		at, switches, ev := p.Now(), p.VoluntarySwitches(), events()
		e.fs.Fdatawait(p, f)
		if p.Now() != at || p.VoluntarySwitches() != switches || events() != ev {
			t.Errorf("idle Fdatawait: time %v -> %v, switches %d -> %d, events %d -> %d",
				at, p.Now(), switches, p.VoluntarySwitches(), ev, events())
		}
	})
}

// TestWritebackAsyncRecyclesRequests: WritebackAsync hands its requests to
// the block layer, which recycles them at completion, so a second round of
// background writeback allocates no request, no plan slice and no waiter
// array — well under one object per page. The mount journals no data
// ordering (in ordered mode the running transaction would hold every request
// until it commits), and an fsync between the rounds drains the device cache
// so the device's own pools are warm too.
func TestWritebackAsyncRecyclesRequests(t *testing.T) {
	const pages = 64
	e := newEnvOpts(jbd.ModeDual, true, func(o *Options) { o.Mode = Writeback })
	defer e.close()
	e.run(func(p *sim.Proc) {
		f, _ := e.fs.Create(p, e.fs.Root(), "f")
		round := func() {
			for i := int64(0); i < pages; i++ {
				e.fs.Write(p, f, i)
			}
			e.fs.WritebackAsync(p, f)
			e.fs.Fdatawait(p, f)
		}
		round()
		e.fs.Fsync(p, f)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		round()
		runtime.ReadMemStats(&after)
		if n := after.Mallocs - before.Mallocs; n >= pages {
			t.Errorf("a second %d-page WritebackAsync+Fdatawait round allocated %d objects", pages, n)
		} else {
			t.Logf("second round: %d objects", n)
		}
	})
}

// TestStampImmutable: the content stamp a write hands to the device is never
// written again. Rewriting the page carves a new stamp; the device's copy
// keeps its version, and a crash before the rewrite is flushed recovers the
// older version.
func TestStampImmutable(t *testing.T) {
	e := newEnv(jbd.ModeDual, true)
	var held *PageData
	var v1 int64
	var lpa uint64
	e.run(func(p *sim.Proc) {
		f, _ := e.fs.Create(p, e.fs.Root(), "f")
		e.fs.Write(p, f, 0)
		v1, _ = e.fs.PageVer(f, 0)
		lpa = f.blocks[0]
		e.fs.WritebackAsync(p, f)
		held = f.inflight[0].Data.(*PageData)
		e.fs.Fdatawait(p, f)
		e.fs.Fsync(p, f) // v1 and the allocation durable
		e.fs.Write(p, f, 0)
		e.fs.WritebackAsync(p, f)
		e.fs.Fdatawait(p, f) // v2 in the device cache, not flushed
		if v2, _ := e.fs.PageVer(f, 0); v2 == v1 {
			t.Fatalf("rewrite kept version %d", v1)
		}
		if held.Ver != v1 {
			t.Errorf("the device's stamp changed from version %d to %d", v1, held.Ver)
		}
		e.k.Stop()
	})
	e.dev.Crash()
	var view *View
	var durable any
	e.k.Spawn("rec", func(p *sim.Proc) {
		d2 := device.Recover(p, e.dev)
		durable, _ = d2.DurableData(lpa)
		view = Recover(d2.DurableData, e.fs.opts.Journal)
	})
	e.k.Run()
	defer e.close()
	if durable != held {
		t.Errorf("the durable copy is %v, not the stamp written first (%v)", durable, held)
	}
	root, _ := view.Root(e.fs)
	meta, ok := view.Lookup(root, "f")
	if !ok {
		t.Fatal("fsync'd file lost")
	}
	if got, ok := view.PageVersion(meta, 0); !ok || got != v1 {
		t.Errorf("recovered page version %d,%v, want the older %d", got, ok, v1)
	}
}
