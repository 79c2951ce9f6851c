package fs

import (
	"repro/internal/block"
	"repro/internal/jbd"
	"repro/internal/reqtrace"
	"repro/internal/sim"
)

// PageSize is the filesystem block size in bytes.
const PageSize = 4096

// Write dirties one 4KB page of the file at page index idx (a buffered
// write: page cache only, no IO). It allocates a block on first touch,
// updates the size, and — at jiffy granularity — the timestamp, dirtying
// the inode's metadata accordingly.
func (f *FS) Write(p *sim.Proc, i *Inode, idx int64) {
	f.cpu(p)
	f.writeVer++
	pg := i.cached(idx)
	if pg == nil {
		pg = f.newPage(i, page{idx: idx})
	}
	pg.ver = f.writeVer
	if !pg.dirty {
		pg.dirty = true
		i.dirtyPg = append(i.dirtyPg, pg)
		f.obs.dirtyPages.Inc()
	}
	f.stats.Writes++
	if f.pdflushCond != nil && f.pdflushCond.Waiters() > 0 {
		f.pdflushCond.Broadcast()
	}

	metaDirty := false
	// Block allocation (allocating write).
	if i.blocks == nil && i.blocksCap > 0 {
		i.blocks = make([]uint64, 0, i.blocksCap)
	}
	for int64(len(i.blocks)) <= idx {
		i.blocks = append(i.blocks, 0)
	}
	if i.blocks[idx] == 0 {
		if idx < int64(i.frozenLen) {
			// A hole fill under a frozen snapshot: copy on write.
			i.blocks, i.frozenLen = append([]uint64(nil), i.blocks...), 0
		}
		i.blocks[idx] = f.allocLPARaw()
		f.j.DirtyBuffer(p, f.allocBufFor(i.ino), nil)
		i.allocDirty = true
		metaDirty = true
	}
	// Size extension.
	if end := (idx + 1) * PageSize; end > i.size {
		i.size = end
		i.allocDirty = true
		metaDirty = true
	}
	// Timestamp at jiffy granularity: the Fig. 11 mechanism.
	if jf := f.jiffies(p); jf != i.mtimeJiffy {
		i.mtimeJiffy = jf
		metaDirty = true
	}
	if metaDirty {
		f.touchMeta(p, i)
	}
}

// PageVer returns the in-cache content version of a page without issuing
// IO or charging syscall cost. Instrumentation for applications that keep
// host-side shadows of what they wrote (e.g. internal/kvwal); a cache miss
// reports false rather than reading the device.
func (f *FS) PageVer(i *Inode, idx int64) (int64, bool) {
	if pg := i.cached(idx); pg != nil {
		return pg.ver, true
	}
	return 0, false
}

// Read returns the version of a page, fetching it from the device on a cache
// miss; a hole reads as absent. role is the read request's: block.RoleSync
// for a read its caller waits on, which passes queued writes in the block
// layer, or block.RoleIdle for idle-class IO such as compaction input,
// which queues behind them. When the
// device fails the page read hard (uncorrectable sector with the block
// layer's retry budget exhausted, block.Request.Err), Read caches nothing
// and returns the error so the application can fail over to a replica. The
// read request is pooled: Read copies its result out and releases it.
func (f *FS) Read(p *sim.Proc, i *Inode, idx int64, role block.Role) (int64, bool, error) {
	f.cpu(p)
	f.stats.Reads++
	if pg := i.cached(idx); pg != nil {
		return pg.ver, true, nil
	}
	if idx >= int64(len(i.blocks)) || i.blocks[idx] == 0 {
		return 0, false, nil
	}
	r := f.reqPool.Get()
	r.Op, r.LPA, r.Role, r.Stream = block.OpRead, i.blocks[idx], role, f.stream
	f.layer.SubmitAndWait(p, r)
	err, data := r.Err, r.Data
	r.Release()
	f.wake(p)
	if err != nil {
		f.stats.ReadErrors++
		return 0, false, err
	}
	ver := int64(0)
	if pd, ok := data.(*PageData); ok {
		ver = pd.Ver
	}
	f.newPage(i, page{idx: idx, ver: ver, everSynced: true})
	return ver, true, nil
}

// EvictClean drops the inode's clean pages from the page cache, so later
// reads fetch them from the device again — fadvise(DONTNEED) for files the
// application streams once (e.g. kvwal segments, which are immutable after
// their closing fdatasync). Dirty pages, journal-pinned pages, and inodes
// with writeback still in flight are left alone: eviction is only legal
// once the device provably holds the page. The evicted entries are
// recycled. Returns the number of pages evicted.
func (f *FS) EvictClean(i *Inode) int {
	if len(i.inflight) > 0 {
		return 0
	}
	n := 0
	for idx, pg := range i.pages {
		if pg == nil || pg.dirty || (pg.buf != nil && pg.buf.Pending()) {
			continue
		}
		i.pages[idx] = nil
		f.recyclePage(pg)
		n++
	}
	return n
}

// writebackPlan is the set of in-place data writes produced by writeback,
// and whether it journaled a page instead (only a commit carries that).
type writebackPlan struct {
	reqs      []*block.Request
	journaled bool
}

// writeback turns the file's dirty pages into block requests with the given
// flags and role, journaling pages instead where OptFS's selective data
// journaling applies (an overwrite of a page synced before). The requests are
// submitted; the caller decides whether to wait. The plan owns the hold
// dataRequest drew each request with until the caller releases it (release,
// waitAll). The calling proc's trace context (reqtrace.Of) tags each
// submitted request, so the block layer's queue/dispatch stamps land on the
// originating sync call's trace record.
func (f *FS) writeback(p *sim.Proc, i *Inode, flags block.Flags, role block.Role, barrierLast bool) writebackPlan {
	i.walks++
	plan := writebackPlan{reqs: i.wbReqs[:0]}
	i.wbReqs = nil
	dirty := i.takeDirty()
	f.obs.dirtyPages.Add(-int64(len(dirty)))
	for _, pg := range dirty {
		if pg.everSynced && f.j.JournalsOverwrites() {
			// The page goes through the journal as a logged block, paying
			// the scan/checksum CPU this costs (OptFS's §6.5 penalty).
			p.Advance(journalScanCPU)
			if pg.buf == nil {
				pg.buf = &jbd.Buffer{Home: i.blocks[pg.idx], Name: "data"}
			}
			f.j.DirtyBuffer(p, pg.buf, f.stamp(i, pg))
			pg.dirty = false
			pg.everSynced = true
			f.stats.DataJournaled++
			plan.journaled = true
			continue
		}
		plan.reqs = append(plan.reqs, f.dataRequest(i, pg, flags, role))
	}
	i.keepDirty(dirty)
	if barrierLast && len(plan.reqs) > 0 {
		plan.reqs[len(plan.reqs)-1].Flags |= block.FlagBarrier | block.FlagOrdered
	}
	tc := reqtrace.Of(p)
	for _, r := range plan.reqs {
		r.Trace = tc
		// Ordered mode: the journal must not commit the inode before the
		// data lands (EXT4's ordered-mode rule).
		if i.MetaPending() {
			f.j.RegisterOrderedData(r)
		}
		i.trackInflight(r)
		f.layer.Submit(p, r)
		i.offStream = i.offStream || r.Stream != f.stream
	}
	i.walks--
	f.forget(i)
	return plan
}

// release drops the plan's hold on its requests and hands the plan's slice
// back to the inode.
func (f *FS) release(i *Inode, plan writebackPlan) {
	for _, r := range plan.reqs {
		r.Release()
	}
	i.wbReqs = plan.reqs[:0]
}

// takeDirty removes and returns the inode's dirty pages in page-index
// order. Every dirty page is on the inode's dirty list; writeback cleans
// them all, so the list resets wholesale. The caller returns the array with
// keepDirty once it has walked it.
func (i *Inode) takeDirty() []*page {
	dirty := i.dirtyPg
	// Deterministic order: by page index.
	for a := 1; a < len(dirty); a++ {
		for b := a; b > 0 && dirty[b-1].idx > dirty[b].idx; b-- {
			dirty[b-1], dirty[b] = dirty[b], dirty[b-1]
		}
	}
	i.dirtyPg = nil
	return dirty
}

// keepDirty reuses a walked takeDirty array as the dirty list, unless a
// write dirtied a page meanwhile (a journaling writeback can block).
func (i *Inode) keepDirty(dirty []*page) {
	if i.dirtyPg == nil {
		i.dirtyPg = dirty[:0]
	}
}

// dataRequest builds the in-place write request for one dirty page,
// marking the page clean.
func (f *FS) dataRequest(i *Inode, pg *page, flags block.Flags, role block.Role) *block.Request {
	r := f.reqPool.Get()
	r.Op, r.LPA, r.Flags, r.Role, r.Stream = block.OpWrite, i.blocks[pg.idx], flags, role, f.stream
	r.Data = f.stamp(i, pg)
	pg.dirty = false
	pg.everSynced = true
	f.stats.PagesWritten++
	return r
}

// trackInflight records a writeback request about to be submitted on the
// inode until it completes, so sync calls can wait on it (see
// waitCrossStream, Fdatawait). Its creator, then the block layer, hold it
// meanwhile.
func (i *Inode) trackInflight(r *block.Request) {
	i.inflight = append(i.inflight, r)
	r.OnComplete = i.fs.onDone
}

// writebackDone is every data write's OnComplete (bound once, as FS.onDone):
// the request's page stamp names the inode whose in-flight list it leaves.
func (f *FS) writebackDone(_ sim.Time, r *block.Request) {
	i := f.inodes[r.Data.(*PageData).Ino]
	for n, o := range i.inflight {
		if o == r {
			i.inflight = append(i.inflight[:n], i.inflight[n+1:]...)
			break
		}
	}
	f.forget(i)
}

// forget drops an unlinked inode from FS.inodes once no writeback walk is in
// progress on it and none of its writeback is in flight: until then a
// completion still looks it up there.
func (f *FS) forget(i *Inode) {
	if i.nlink == 0 && len(i.inflight) == 0 && i.walks == 0 {
		delete(f.inodes, i.ino)
	}
}

// waitCrossStream blocks until every in-flight writeback request of the
// inode that rides a stream other than the filesystem's own has
// transferred. The multi-queue layer scatters background writeback onto
// data streams, where neither the foreground stream's barriers nor its
// flush command can order or cover it — so the sync calls fall back to
// Wait-on-Transfer for exactly those requests, like the kernel's
// filemap_fdatawait. On the single-queue layer every request is on the
// filesystem's stream and this is a no-op.
func (f *FS) waitCrossStream(p *sim.Proc, i *Inode) {
	for {
		var pending *block.Request
		for _, r := range i.inflight {
			if r.Stream != f.stream && !r.Completed() {
				pending = r
				break
			}
		}
		if pending == nil {
			return
		}
		pending.Wait(p)
		f.wake(p)
	}
}

// WritebackAsync pushes the file's dirty pages to the device as orderless
// background writes without waiting. It models pdflush-style background
// writeback (the paper's buffered-write baseline); backpressure comes from
// the block layer's queue limit. role is block.RoleBackground, or
// block.RoleIdle for idle-class IO such as compaction output; it panics on
// block.RoleSync. It releases its plan at submission: the block layer holds
// each request until it completes and then recycles it, so a caller that
// must see the writes land waits with Fdatawait.
func (f *FS) WritebackAsync(p *sim.Proc, i *Inode, role block.Role) {
	if role == block.RoleSync {
		panic("fs: WritebackAsync of sync IO")
	}
	f.release(i, f.writeback(p, i, 0, role, false))
}

// Fdatawait blocks until the inode has no writeback in flight, waiting on
// the oldest request first — the kernel's filemap_fdatawait. It charges no
// syscall CPU and no wake-up latency, and with nothing in flight it returns
// without a kernel event. Unlike waitCrossStream it waits on every stream.
func (f *FS) Fdatawait(p *sim.Proc, i *Inode) {
	for len(i.inflight) > 0 {
		i.inflight[0].Wait(p)
	}
}

// waitAll blocks until every request in the plan completes, charging one
// wake-up, and releases the plan.
func (f *FS) waitAll(p *sim.Proc, i *Inode, plan writebackPlan) {
	defer f.release(i, plan)
	n := 0
	for _, r := range plan.reqs {
		if !r.Completed() {
			n++
		}
	}
	if n == 0 {
		return
	}
	waiting := false
	for _, r := range plan.reqs {
		if r.Completed() {
			continue
		}
		prev := r.OnComplete
		r.OnComplete = func(at sim.Time, rr *block.Request) {
			if prev != nil {
				prev(at, rr)
			}
			n--
			if n == 0 && waiting {
				f.k.Resume(p)
			}
		}
	}
	if n > 0 {
		waiting = true
		p.Suspend()
		f.wake(p)
	}
}
