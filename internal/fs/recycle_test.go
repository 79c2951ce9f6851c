package fs

import (
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/block"
	"repro/internal/device"
	"repro/internal/jbd"
	"repro/internal/sim"
)

// TestFdatawaitReturnsAtLastCompletion pins filemap_fdatawait: Fdatawait
// returns at the instant the inode's last in-flight writeback completes, and
// charges nothing of its own.
func TestFdatawaitReturnsAtLastCompletion(t *testing.T) {
	e := newEnv(jbd.ModeDual)
	defer e.close()
	e.run(func(p *sim.Proc) {
		f, _ := e.fs.Create(p, e.fs.Root(), "f")
		for i := int64(0); i < 8; i++ {
			e.fs.Write(p, f, i)
		}
		e.fs.WritebackAsync(p, f, block.RoleBackground)
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
	e := newEnv(jbd.ModeDual)
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

// TestWritebackAsyncRefusesSync: background writeback is never sync IO, so
// WritebackAsync panics on block.RoleSync — what a literal 0 role would
// silently compile to — before it writes anything back.
func TestWritebackAsyncRefusesSync(t *testing.T) {
	e := newEnv(jbd.ModeDual)
	defer e.close()
	e.run(func(p *sim.Proc) {
		f, _ := e.fs.Create(p, e.fs.Root(), "f")
		e.fs.Write(p, f, 0)
		func() {
			defer func() {
				if recover() == nil {
					t.Error("WritebackAsync in block.RoleSync did not panic")
				}
			}()
			e.fs.WritebackAsync(p, f, block.RoleSync)
		}()
		if n := f.DirtyPages(); n != 1 {
			t.Errorf("%d dirty pages after the refused writeback, want 1", n)
		}
	})
}

// TestWritebackAsyncRecyclesRequests: WritebackAsync hands its requests to
// the block layer, which recycles them at completion, so a second round of
// background writeback allocates no request, no plan slice and no waiter
// array — well under one object per page. The second round overwrites pages
// already allocated, so no metadata is pending and no request joins a
// transaction's ordered data; an fsync between the rounds drains the device
// cache so the device's own pools are warm too.
func TestWritebackAsyncRecyclesRequests(t *testing.T) {
	const pages = 64
	e := newEnv(jbd.ModeDual)
	defer e.close()
	e.run(func(p *sim.Proc) {
		f, _ := e.fs.Create(p, e.fs.Root(), "f")
		round := func() {
			for i := int64(0); i < pages; i++ {
				e.fs.Write(p, f, i)
			}
			e.fs.WritebackAsync(p, f, block.RoleBackground)
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
	e := newEnv(jbd.ModeDual)
	var held *PageData
	var v1 int64
	var lpa uint64
	e.run(func(p *sim.Proc) {
		f, _ := e.fs.Create(p, e.fs.Root(), "f")
		e.fs.Write(p, f, 0)
		v1, _ = e.fs.PageVer(f, 0)
		lpa = f.blocks[0]
		e.fs.WritebackAsync(p, f, block.RoleBackground)
		held = f.inflight[0].Data.(*PageData)
		e.fs.Fdatawait(p, f)
		e.fs.Fsync(p, f) // v1 and the allocation durable
		e.fs.Write(p, f, 0)
		e.fs.WritebackAsync(p, f, block.RoleBackground)
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

// TestUnlinkHandsScratchToNextCreate: a file unlinked with no writeback in
// flight hands its page-cache and writeback arrays to the next file created,
// emptied, so a re-created file does not regrow them page by page.
func TestUnlinkHandsScratchToNextCreate(t *testing.T) {
	const pages = 64
	e := newEnv(jbd.ModeJBD2)
	defer e.close()
	e.run(func(p *sim.Proc) {
		old, _ := e.fs.Create(p, e.fs.Root(), "old")
		for i := int64(0); i < pages; i++ {
			e.fs.Write(p, old, i)
		}
		e.fs.Fsync(p, old)
		arr := unsafe.SliceData(old.pages)
		if err := e.fs.Unlink(p, e.fs.Root(), "old"); err != nil {
			t.Fatal(err)
		}
		if old.pages != nil || old.dirtyPg != nil || old.inflight != nil {
			t.Errorf("the unlinked inode kept its scratch")
		}
		nu, _ := e.fs.Create(p, e.fs.Root(), "new")
		if len(nu.pages) != 0 || cap(nu.pages) < pages || unsafe.SliceData(nu.pages) != arr {
			t.Fatalf("new file's page cache: len %d cap %d, not the unlinked file's array", len(nu.pages), cap(nu.pages))
		}
		for i := int64(0); i < pages; i++ {
			if _, ok := e.fs.PageVer(nu, i); ok {
				t.Fatalf("new file caches page %d before any write", i)
			}
			e.fs.Write(p, nu, i)
		}
		if unsafe.SliceData(nu.pages) != arr {
			t.Error("writing the new file regrew its page cache")
		}
	})
}

// TestUnlinkDuringWritebackKeepsLists: a file unlinked while its writeback
// is in flight keeps its lists, and a file created after it starts empty.
// Its completions never touch the new file's lists: Fdatawait on the old
// file returns once the old writes have completed, and on the new file
// once the new writes have, with only the new file's requests on its list.
func TestUnlinkDuringWritebackKeepsLists(t *testing.T) {
	const pages = 8
	e := newEnv(jbd.ModeDual)
	defer e.close()
	e.run(func(p *sim.Proc) {
		// track counts f's in-flight writes as they complete and records
		// the last completion instant.
		track := func(f *Inode) (done *int, last *sim.Time) {
			done, last = new(int), new(sim.Time)
			for _, r := range f.inflight {
				prev := r.OnComplete
				r.OnComplete = func(at sim.Time, rr *block.Request) {
					*done++
					*last = at
					prev(at, rr)
				}
			}
			return done, last
		}
		// own reports whether every request on f's list writes f's pages.
		own := func(f *Inode) bool {
			for _, r := range f.inflight {
				if r.Data.(*PageData).Ino != f.ino {
					return false
				}
			}
			return true
		}
		old, _ := e.fs.Create(p, e.fs.Root(), "old")
		for i := int64(0); i < pages; i++ {
			e.fs.Write(p, old, i)
		}
		e.fs.WritebackAsync(p, old, block.RoleBackground)
		oldDone, oldLast := track(old)
		if err := e.fs.Unlink(p, e.fs.Root(), "old"); err != nil {
			t.Fatal(err)
		}
		nu, _ := e.fs.Create(p, e.fs.Root(), "new")
		if len(nu.inflight) != 0 || len(nu.pages) != 0 || len(nu.dirtyPg) != 0 {
			t.Fatalf("new file starts with %d in flight, %d cached, %d dirty",
				len(nu.inflight), len(nu.pages), len(nu.dirtyPg))
		}
		for i := int64(0); i < pages; i++ {
			e.fs.Write(p, nu, i)
		}
		e.fs.WritebackAsync(p, nu, block.RoleBackground)
		if len(nu.inflight) != pages || !own(nu) {
			t.Fatalf("new file's in-flight list holds %d requests, not only its own %d", len(nu.inflight), pages)
		}
		nuDone, nuLast := track(nu)
		if *oldDone == pages {
			t.Fatal("the old file's writeback completed before the new file's was submitted")
		}
		e.fs.Fdatawait(p, old)
		if *oldDone != pages || p.Now() != *oldLast {
			t.Errorf("Fdatawait on the unlinked file returned at %v with %d of %d writes done (last at %v)",
				p.Now(), *oldDone, pages, *oldLast)
		}
		if !own(nu) {
			t.Error("the old file's completions edited the new file's list")
		}
		e.fs.Fdatawait(p, nu)
		if *nuDone != pages || p.Now() != *nuLast {
			t.Errorf("Fdatawait on the new file returned at %v with %d of %d writes done (last at %v)",
				p.Now(), *nuDone, pages, *nuLast)
		}
	})
}

// onFreeList reports whether pg is on the filesystem's page free list.
func (f *FS) onFreeList(pg *page) bool {
	return f.freePages.Contains(pg)
}

// TestUnlinkRecyclesPages: the pages of a file unlinked with no writeback in
// flight, and the pages EvictClean drops, serve the next newPage instead of
// new slab entries.
func TestUnlinkRecyclesPages(t *testing.T) {
	const pages = 8
	e := newEnv(jbd.ModeJBD2)
	defer e.close()
	e.run(func(p *sim.Proc) {
		old, _ := e.fs.Create(p, e.fs.Root(), "old")
		evicted, _ := e.fs.Create(p, e.fs.Root(), "evicted")
		for i := int64(0); i < pages; i++ {
			e.fs.Write(p, old, i)
			e.fs.Write(p, evicted, i)
		}
		e.fs.Fsync(p, old)
		e.fs.Fsync(p, evicted)
		held := slices.Clone(old.pages)
		held = append(held, evicted.pages...)
		if err := e.fs.Unlink(p, e.fs.Root(), "old"); err != nil {
			t.Fatal(err)
		}
		if n := e.fs.EvictClean(evicted); n != pages {
			t.Fatalf("EvictClean dropped %d of %d clean pages", n, pages)
		}
		for _, pg := range held {
			if !e.fs.onFreeList(pg) {
				t.Fatalf("page %d of the unlinked or evicted file is not on the free list", pg.idx)
			}
		}
		nu, _ := e.fs.Create(p, e.fs.Root(), "new")
		for i := int64(0); i < 2*pages; i++ {
			e.fs.Write(p, nu, i)
		}
		if e.fs.freePages.Len() != 0 {
			t.Errorf("%d pages left on the free list after %d new pages", e.fs.freePages.Len(), 2*pages)
		}
		for idx, pg := range nu.pages {
			if !slices.Contains(held, pg) {
				t.Errorf("new page %d was carved, not recycled", idx)
			}
			if pg.idx != int64(idx) || !pg.dirty || pg.everSynced || pg.buf != nil {
				t.Errorf("recycled page %d kept stale state: %+v", idx, *pg)
			}
		}
	})
}

// TestUnlinkKeepsPagesOfParkedWriteback: on OptFS a writeback walk journals
// overwrites of synced pages, and it parks when a page's journal buffer is
// still held by a committing transaction. A file unlinked meanwhile, with no
// writeback in flight, recycles the pages the walk has passed, never the
// ones it has not reached: those are still dirty, and the walk cleans them
// when it resumes.
func TestUnlinkKeepsPagesOfParkedWriteback(t *testing.T) {
	const pages = 8
	e := newEnv(jbd.ModeOptFS)
	defer e.close()
	e.run(func(p *sim.Proc) {
		f, _ := e.fs.Create(p, e.fs.Root(), "f")
		for i := int64(0); i < pages; i++ {
			e.fs.Write(p, f, i)
		}
		e.fs.Fsync(p, f)
		// Journal overwrites of pages 2.. in a commit another proc waits on.
		for i := int64(2); i < pages; i++ {
			e.fs.Write(p, f, i)
		}
		e.k.Spawn("barrier", func(p *sim.Proc) { e.fs.Fdatabarrier(p, f) })
		for f.pages[2].buf == nil || f.pages[2].buf.Frozen() == nil {
			p.Sleep(sim.Microsecond)
		}
		for i := int64(0); i < pages; i++ {
			e.fs.Write(p, f, i)
		}
		walked := slices.Clone(f.pages)
		blocks := e.fs.Journal().Stats().ConflictBlocks
		done := false
		e.k.Spawn("writeback", func(p *sim.Proc) {
			e.fs.WritebackAsync(p, f, block.RoleBackground)
			done = true
		})
		for e.fs.Journal().Stats().ConflictBlocks == blocks && !done {
			p.Sleep(sim.Microsecond)
		}
		reached := 0
		for _, pg := range walked {
			if !pg.dirty {
				reached++
			}
		}
		if done || len(f.inflight) != 0 || reached == 0 || reached == pages {
			t.Fatalf("the walk did not park at a committing page with nothing in flight: done %v, %d in flight, %d of %d pages reached",
				done, len(f.inflight), reached, pages)
		}
		if err := e.fs.Unlink(p, e.fs.Root(), "f"); err != nil {
			t.Fatal(err)
		}
		unreached := 0
		for _, pg := range walked {
			if pg.dirty {
				unreached++
			}
			if recycled := e.fs.onFreeList(pg); recycled == pg.dirty {
				t.Errorf("page %d (dirty %v): on the free list %v", pg.idx, pg.dirty, recycled)
			}
		}
		if unreached == 0 {
			t.Fatal("the walk resumed during Unlink")
		}
		for !done {
			p.Sleep(100 * sim.Microsecond)
		}
		for _, pg := range walked {
			if pg.dirty {
				t.Errorf("page %d still dirty after the walk resumed", pg.idx)
			}
		}
	})
}

// TestUnlinkDuringParkedWalkKeepsInode: a writeback walk builds the in-place
// requests of the pages it passes and tracks them only at its end. A file
// unlinked while the walk is parked, with nothing tracked yet, stays in
// FS.inodes until the walk has ended and its writes have landed: their
// completions look the inode up there. A walk that journaled every page
// tracks nothing, and its end drops the inode.
func TestUnlinkDuringParkedWalkKeepsInode(t *testing.T) {
	const pages = 8
	for _, inPlace := range []bool{true, false} {
		name := "journaled"
		if inPlace {
			name = "in-place"
		}
		t.Run(name, func(t *testing.T) {
			e := newEnv(jbd.ModeOptFS)
			defer e.close()
			e.run(func(p *sim.Proc) {
				f, _ := e.fs.Create(p, e.fs.Root(), "f")
				// A page never synced is written in place, a synced one journaled.
				first := int64(0)
				if inPlace {
					first = 1
				}
				for i := first; i < pages; i++ {
					e.fs.Write(p, f, i)
				}
				e.fs.Fsync(p, f)
				for i := int64(2); i < pages; i++ {
					e.fs.Write(p, f, i)
				}
				e.k.Spawn("barrier", func(p *sim.Proc) { e.fs.Fdatabarrier(p, f) })
				for f.pages[2].buf == nil || f.pages[2].buf.Frozen() == nil {
					p.Sleep(sim.Microsecond)
				}
				for i := int64(0); i < pages; i++ {
					e.fs.Write(p, f, i)
				}
				blocks := e.fs.Journal().Stats().ConflictBlocks
				done := false
				e.k.Spawn("writeback", func(p *sim.Proc) {
					e.fs.WritebackAsync(p, f, block.RoleBackground)
					done = true
				})
				for e.fs.Journal().Stats().ConflictBlocks == blocks && !done {
					p.Sleep(sim.Microsecond)
				}
				if done || len(f.inflight) != 0 || f.pages[0].dirty {
					t.Fatalf("the walk did not park past page 0 with nothing tracked: done %v, %d in flight, page 0 dirty %v",
						done, len(f.inflight), f.pages[0].dirty)
				}
				if err := e.fs.Unlink(p, e.fs.Root(), "f"); err != nil {
					t.Fatal(err)
				}
				if e.fs.inodes[f.ino] != f {
					t.Error("Unlink dropped the inode while a writeback walk was parked on it")
				}
				for !done {
					p.Sleep(100 * sim.Microsecond)
				}
				e.fs.Fdatawait(p, f)
				if _, ok := e.fs.inodes[f.ino]; ok {
					t.Error("the unlinked inode outlived its walk and its last writeback")
				}
			})
		})
	}
}
