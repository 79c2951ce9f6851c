// Package fs implements the filesystem layer of the barrier-enabled IO
// stack: an EXT4-like filesystem (page cache, inodes, directories, block
// allocator) whose journaling engine is pluggable (internal/jbd). With the
// JBD2 engine it behaves like EXT4; with the Dual-Mode engine it is
// BarrierFS (§4), exposing fbarrier() and fdatabarrier() alongside fsync()
// and fdatasync(); with the OptFS engine, fbarrier() behaves as osync().
//
// Data page contents are modelled as PageData{Ino, Idx, Ver} version stamps
// rather than byte payloads: every behaviour the paper measures (ordering,
// durability, latency, context switches) depends only on identity and
// recency, which the stamps capture exactly and cheaply. A file page's
// stamp travels as a *PageData — in block.Request.Data, in the journal's
// log blocks, in the device cache and the NAND array — and is immutable: a
// rewrite carves a new one, so a stamp handed to the device is never written
// again.
//
// Journaled metadata travels the same way, as the *InodeMeta and *AllocMeta
// records a journal freeze carves. Stamps, records and page-cache entries
// come from per-filesystem slabs (sim.Slab): one allocation per 64 entries.
// Stamps and records are never reused. Their retention bound is one slab
// per live entry: a stamp or record the NAND array still holds, or one
// cached page, keeps its whole slab reachable. Page-cache entries are
// recycled: the clean pages of a file unlinked with no writeback in flight
// (when it hands its scratch on), and the pages EvictClean drops, go on a
// free list that newPage pops before it carves. A dirty page is never recycled: a writeback walk that
// yields (OptFS journaling an overwrite) still holds the pages it has not
// reached, and they are still dirty.
//
// Data-writeback requests are pooled (block.ReqPool). WritebackAsync hands
// its holds to the block layer, which recycles each request at completion;
// a caller that must see the writes land waits with Fdatawait. A pooled
// request is never read after its last Release.
//
// A page is read with one call, Read, which returns a hard media error
// instead of reporting the page absent; each caller handles the error or
// says at the call site why it cannot occur. Read and WritebackAsync take
// the requests' block.Role. A read its caller waits on (block.RoleSync)
// passes queued writes in the block layer and the device, while a
// background read queues behind them. Passing is safe because a page whose
// write is queued or in flight never leaves the page cache (EvictClean), so
// no read can overtake the write it would observe. block.RoleIdle makes the
// IO idle-class, as an LSM store's compaction is.
package fs

import (
	"fmt"
	"slices"
	"strconv"

	"repro/internal/block"
	"repro/internal/jbd"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// Ino is an inode number.
type Ino uint64

// RootIno is the root directory's inode number.
const RootIno Ino = 1

// Options configures a filesystem instance.
type Options struct {
	// Journal configures the journaling engine (mode and layout). Its
	// WakeLatency is charged after the filesystem's own blocking waits too.
	Journal jbd.Config
	// SyscallCPU is the on-CPU cost charged per filesystem call.
	SyscallCPU sim.Duration
	// PdflushInterval enables a background dirty-page flusher with the
	// given period (0 = off). Its writes are orderless, so they interleave
	// with epochs exactly as the pdflush traffic in the paper's Fig. 5.
	PdflushInterval sim.Duration
	// Metrics is an explicit observability registry; nil falls back to the
	// process-wide live registry, and a nil resolution disables the
	// filesystem's instruments. It is forwarded to the journal unless the
	// journal names its own.
	Metrics *metrics.Registry
}

// jiffy is the timer-interrupt granularity of inode timestamps; writes
// within one jiffy do not re-dirty the inode (the effect behind the paper's
// Fig. 11 fsync-degrades-to-fdatasync behaviour).
const jiffy = 10 * sim.Millisecond

// journalScanCPU is the per-page CPU cost of routing a data page through
// the journal under selective data journaling (checksum + dirty-page scan).
// The paper blames exactly this for OptFS's poor showing on flash (§6.5).
const journalScanCPU = 25 * sim.Microsecond

// DefaultOptions returns the standard configuration for an engine.
func DefaultOptions(mode jbd.Mode) Options {
	return Options{Journal: jbd.DefaultConfig(mode), SyscallCPU: 2 * sim.Microsecond}
}

// PageData is the content stamp stored for a file data page. It travels as
// an immutable *PageData (see the package comment).
type PageData struct {
	Ino Ino
	Idx int64
	Ver int64
}

// InodeMeta is the on-disk snapshot of an inode (the journaled metadata
// block). Blocks and Entries are read-only views: every snapshot of one
// generation of a file's block map aliases the same array, from the journal
// through the device cache and NAND page contents to jbd.Scan and View.
type InodeMeta struct {
	Ino        Ino
	Dir        bool
	Size       int64
	MTimeJiffy int64
	Blocks     []uint64          // page index -> LPA (0 = hole); read-only
	Entries    map[string]uint64 // dir: name -> child inode home LPA; read-only
}

// AllocMeta is the on-disk snapshot of the block allocator.
type AllocMeta struct {
	NextLPA uint64
	NFree   int
}

// page is one page-cache entry. The word-sized fields come first, so the
// two flags share one word and an entry is 32 B.
type page struct {
	idx   int64
	ver   int64
	buf   *jbd.Buffer // set when the page itself is journaled (data mode / selective)
	dirty bool
	// everSynced marks pages that have reached the device at least once;
	// OptFS journals overwrites of such pages (selective data journaling).
	everSynced bool
}

// Inode is an in-memory inode.
type Inode struct {
	fs         *FS
	ino        Ino
	dir        bool
	home       uint64 // metadata home LPA
	size       int64
	mtimeJiffy int64
	blocks     []uint64
	// frozenLen is the longest prefix of blocks a snapshot aliases. Entries
	// below it are immutable; Write clones the map before filling a hole
	// there, and appends land beyond it.
	frozenLen int
	inodeScratch
	entries map[string]uint64 // dirs: name -> child home LPA
	buf     jbd.Buffer
	// allocDirty marks metadata changes that fdatasync must commit (size or
	// block allocation), as opposed to timestamp-only changes.
	allocDirty bool
	nlink      int
	// offStream marks writeback moved off the order stream since the last
	// durable sync: no barrier orders it (see Fdatabarrier).
	offStream bool
	// walks counts writeback walks in progress. A walk tracks the requests
	// it built only at its end, and an OptFS walk can park before that.
	walks int
}

// inodeScratch is an inode's page-cache and writeback slice storage. Unlink
// hands it to the next newInode when the unlinked inode has no writeback in
// flight, so a re-created file does not regrow its arrays page by page.
// blocks stays out: journal snapshots alias it (see frozenLen); only its
// capacity is carried over, as blocksCap.
type inodeScratch struct {
	// blocksCap is the block-map capacity of the unlinked inode that left
	// the scratch: the next file's first allocating Write starts its map
	// there.
	blocksCap int
	// pages is the page cache, indexed by page number; nil: not cached.
	pages []*page
	// dirtyPg lists the dirty pages (append-on-dirty), so writeback and the
	// dirty counters never re-scan the whole page cache.
	dirtyPg []*page
	// inflight holds submitted-but-incomplete writeback requests. Pages are
	// marked clean at submission, so the sync calls must be able to wait on
	// writeback they did not plan themselves (filemap_fdatawait).
	inflight []*block.Request
	// wbReqs is the spare writeback-plan slice; a writeback takes it and
	// release hands it back, so concurrent sync calls never share one.
	wbReqs []*block.Request
}

// maxSpareScratch bounds the scratch unlinked inodes leave for newInode. A
// kvwal compaction unlinks five segments at once; each of them serves a
// later file.
const maxSpareScratch = 8

// DirtyPages returns the number of dirty page-cache entries.
func (i *Inode) DirtyPages() int { return len(i.dirtyPg) }

// snapshotInode is every inode buffer's Snapshot: the inode records itself
// as the buffer's Data (see touchMeta).
func snapshotInode(data any) any { return data.(*Inode).snapshot() }

// snapshot freezes the inode for the journal in O(1): the block map is shared
// (see frozenLen), cap-clamped so a holder's append cannot reach the live tail.
func (i *Inode) snapshot() any {
	i.frozenLen = len(i.blocks)
	m := i.fs.metas.New(InodeMeta{
		Ino: i.ino, Dir: i.dir, Size: i.size, MTimeJiffy: i.mtimeJiffy,
		Blocks: i.blocks[:i.frozenLen:i.frozenLen],
	})
	if i.entries != nil {
		m.Entries = make(map[string]uint64, len(i.entries))
		for k, v := range i.entries {
			m.Entries[k] = v
		}
	}
	return m
}

// Stats are cumulative filesystem statistics.
type Stats struct {
	Writes        int64
	Reads         int64
	Fsyncs        int64
	Fdatasyncs    int64
	Fbarriers     int64
	Fdatabarriers int64
	Creates       int64
	Unlinks       int64
	PagesWritten  int64
	DataJournaled int64 // pages routed through the journal (OptFS overwrites)
	PdflushRuns   int64
	ReadErrors    int64 // page reads failed hard (retry budget exhausted)
}

// FS is a mounted filesystem.
type FS struct {
	k     *sim.Kernel
	layer block.Submitter
	j     *jbd.Journal
	opts  Options

	// stream is the filesystem's order stream (opts.Journal.Stream): every
	// foreground data write and read it issues is tagged with it, keeping a
	// multi-tenant stack's shards in disjoint ordering domains.
	stream uint64

	// inodes holds every linked inode, and an unlinked one until its last
	// writeback completes: writebackDone finds its inode here.
	inodes      map[Ino]*Inode
	inodeList   []*Inode // ascending ino; deterministic whole-FS iteration
	pdflushCond *sim.Cond
	byHome      map[uint64]*Inode
	root        *Inode
	nextIno     Ino
	nextLPA     uint64
	nFree       int
	allocGrps   [allocGroups]jbd.Buffer
	writeVer    int64

	// reqPool recycles data-writeback and page-read requests, each when the
	// last of {sync call's plan or reader, transaction's ordered data, the
	// block layer} releases it.
	reqPool block.ReqPool
	// The slabs carve content stamps and frozen metadata.
	stamps sim.Slab[PageData]
	metas  sim.Slab[InodeMeta]
	allocs sim.Slab[AllocMeta]
	// freePages recycles page-cache entries, for newPage.
	freePages sim.Pool[page]
	// spare is the scratch of unlinked inodes, for newInode.
	spare []inodeScratch
	// onDone is writebackDone, bound once: every data write's OnComplete.
	onDone func(sim.Time, *block.Request)

	stats Stats
	obs   fsObs
}

// fsObs holds the filesystem's registry instruments; all nil when disabled.
type fsObs struct {
	dirtyPages  *metrics.Gauge
	pdflushRuns *metrics.Counter
	syncSeq     uint64 // span correlation id for sync-call spans
}

// New formats and mounts a filesystem over a block-layer front-end (the
// single-queue block.Layer or the multi-queue blkmq.MQ).
func New(k *sim.Kernel, layer block.Submitter, opts Options) *FS {
	f := &FS{
		k: k, layer: layer, opts: opts,
		stream:  opts.Journal.Stream,
		inodes:  make(map[Ino]*Inode),
		byHome:  make(map[uint64]*Inode),
		nextIno: RootIno + 1,
		nextLPA: opts.Journal.Start + uint64(opts.Journal.Pages) + 1,
	}
	if reg := metrics.Resolve(opts.Metrics); reg != nil {
		f.obs.dirtyPages = reg.Gauge("fs/dirty.pages")
		f.obs.pdflushRuns = reg.Counter("fs/pdflush.runs")
	}
	if opts.Journal.Metrics == nil {
		opts.Journal.Metrics = opts.Metrics
	}
	f.j = jbd.New(k, layer, opts.Journal)
	f.onDone = f.writebackDone
	// Allocation metadata is sharded into groups like EXT4's block-group
	// bitmaps; concurrent writers dirty different group buffers instead of
	// contending on one global block (which would serialize every commit
	// through the multi-transaction page-conflict machinery).
	snap := func(any) any { return f.allocSnapshot() }
	for g := range f.allocGrps {
		f.allocGrps[g] = jbd.Buffer{Home: f.allocLPARaw(), Name: "alloc-group-" + strconv.Itoa(g), Snapshot: snap}
	}
	f.root = f.newInode(RootIno, true)
	if opts.PdflushInterval > 0 {
		f.pdflushCond = sim.NewCond(k)
		k.Spawn("fs/pdflush", f.pdflush)
	}
	return f
}

// pdflush periodically writes back dirty pages of every inode as orderless
// requests. It sleeps only while dirty pages exist, so an idle filesystem
// generates no events. A blocking proc on every kernel: it wakes once per
// PdflushInterval, and on OptFS, writeback of overwritten pages blocks in
// the journal's conflict rules, which only a blocking body can follow.
func (f *FS) pdflush(p *sim.Proc) {
	for {
		if !f.anyDirty() {
			f.pdflushCond.Wait(p)
			continue
		}
		p.Sleep(f.opts.PdflushInterval)
		// inodeList, not the inode map: map iteration order would leak
		// run-to-run nondeterminism into the writeback submission order.
		for _, i := range f.inodeList {
			if i.DirtyPages() > 0 {
				f.release(i, f.writeback(p, i, 0, block.RoleBackground, false))
				f.stats.PdflushRuns++
				f.obs.pdflushRuns.Inc()
			}
		}
	}
}

func (f *FS) anyDirty() bool {
	for _, i := range f.inodeList {
		if len(i.dirtyPg) > 0 {
			return true
		}
	}
	return false
}

// allocGroups is the number of allocation-bitmap shards.
const allocGroups = 16

// allocSnapshot freezes the allocator for an allocation-group buffer.
func (f *FS) allocSnapshot() any { return f.allocs.New(AllocMeta{NextLPA: f.nextLPA, NFree: f.nFree}) }

// allocBufFor returns the allocation-group buffer covering an inode.
func (f *FS) allocBufFor(ino Ino) *jbd.Buffer {
	return &f.allocGrps[uint64(ino)%allocGroups]
}

// Journal exposes the journal (instrumentation).
func (f *FS) Journal() *jbd.Journal { return f.j }

// Stats returns cumulative statistics.
func (f *FS) Stats() Stats { return f.stats }

// Root returns the root directory inode.
func (f *FS) Root() *Inode { return f.root }

func (f *FS) allocLPARaw() uint64 {
	lpa := f.nextLPA
	f.nextLPA++
	return lpa
}

func (f *FS) newInode(ino Ino, dir bool) *Inode {
	i := &Inode{
		fs: f, ino: ino, dir: dir,
		home:  f.allocLPARaw(),
		nlink: 1,
	}
	if dir {
		i.entries = make(map[string]uint64)
	}
	if n := len(f.spare); n > 0 {
		i.inodeScratch, f.spare = f.spare[n-1], f.spare[:n-1]
	}
	i.buf = jbd.Buffer{Home: i.home, Snapshot: snapshotInode}
	f.inodes[ino] = i
	f.inodeList = append(f.inodeList, i) // ino is monotonic: stays sorted
	f.byHome[i.home] = i
	return i
}

// newPage caches pg as page pg.idx of i, in a recycled entry when there is
// one and in a newly carved one otherwise.
func (f *FS) newPage(i *Inode, pg page) *page {
	e, _ := f.freePages.Get()
	*e = pg
	if old := int64(len(i.pages)); pg.idx >= old {
		// Grow in place when capacity allows: append(make) allocates the
		// temporary under -race instrumentation, once per new page.
		i.pages = slices.Grow(i.pages, int(pg.idx+1-old))[:pg.idx+1]
		clear(i.pages[old:])
	}
	i.pages[pg.idx] = e
	return e
}

// recyclePage puts a page-cache entry no inode caches any longer on the
// free list, unless it is dirty: a writeback walk that has not reached it
// yet still holds it.
func (f *FS) recyclePage(pg *page) {
	if pg != nil && !pg.dirty {
		f.freePages.Put(pg)
	}
}

// cached returns page idx of i's page cache, nil if it is not cached.
func (i *Inode) cached(idx int64) *page {
	if idx < int64(len(i.pages)) {
		return i.pages[idx]
	}
	return nil
}

// stamp carves the immutable content stamp of pg's current version.
func (f *FS) stamp(i *Inode, pg *page) *PageData {
	return f.stamps.New(PageData{Ino: i.ino, Idx: pg.idx, Ver: pg.ver})
}

func (f *FS) cpu(p *sim.Proc) {
	if f.opts.SyscallCPU > 0 {
		p.Advance(f.opts.SyscallCPU)
	}
}

func (f *FS) wake(p *sim.Proc) {
	if f.opts.Journal.WakeLatency > 0 {
		p.Advance(f.opts.Journal.WakeLatency)
	}
}

// jiffies returns the current time in jiffy units.
func (f *FS) jiffies(p *sim.Proc) int64 {
	return int64(p.Now() / sim.Time(jiffy))
}

// touchMeta marks the inode's metadata dirty in the running transaction.
func (f *FS) touchMeta(p *sim.Proc, i *Inode) {
	f.j.DirtyBuffer(p, &i.buf, i)
}

// MetaPending reports whether the inode has uncommitted metadata.
func (i *Inode) MetaPending() bool { return i.buf.Pending() }

// MetaParked reports whether the inode's uncommitted metadata waits on the
// journal's conflict-page list: a committing transaction still holds its
// previous version, so the running transaction does not carry it yet.
func (i *Inode) MetaParked() bool { return i.buf.Parked() }

// --- namespace operations ---

// Create makes a new regular file under dir. It dirties the directory, the
// new inode and the allocator — the metadata footprint of a varmail-style
// create.
func (f *FS) Create(p *sim.Proc, dir *Inode, name string) (*Inode, error) {
	f.cpu(p)
	if !dir.dir {
		return nil, fmt.Errorf("fs: create %q: not a directory", name)
	}
	if _, exists := dir.entries[name]; exists {
		return nil, fmt.Errorf("fs: create %q: exists", name)
	}
	ino := f.nextIno
	f.nextIno++
	child := f.newInode(ino, false)
	child.mtimeJiffy = f.jiffies(p)
	dir.entries[name] = child.home
	dir.mtimeJiffy = f.jiffies(p)
	f.touchMeta(p, dir)
	f.touchMeta(p, child)
	f.j.DirtyBuffer(p, f.allocBufFor(ino), nil)
	child.allocDirty = true
	f.stats.Creates++
	return child, nil
}

// Mkdir makes a new directory under dir.
func (f *FS) Mkdir(p *sim.Proc, dir *Inode, name string) (*Inode, error) {
	f.cpu(p)
	if _, exists := dir.entries[name]; exists {
		return nil, fmt.Errorf("fs: mkdir %q: exists", name)
	}
	ino := f.nextIno
	f.nextIno++
	child := f.newInode(ino, true)
	dir.entries[name] = child.home
	f.touchMeta(p, dir)
	f.touchMeta(p, child)
	f.j.DirtyBuffer(p, f.allocBufFor(ino), nil)
	return child, nil
}

// Lookup resolves name in dir.
func (f *FS) Lookup(dir *Inode, name string) (*Inode, bool) {
	home, ok := dir.entries[name]
	if !ok {
		return nil, false
	}
	i, ok := f.byHome[home]
	return i, ok
}

// Unlink removes name from dir, freeing the inode when the link count
// drops to zero.
func (f *FS) Unlink(p *sim.Proc, dir *Inode, name string) error {
	f.cpu(p)
	home, ok := dir.entries[name]
	if !ok {
		return fmt.Errorf("fs: unlink %q: no such file", name)
	}
	delete(dir.entries, name)
	dir.mtimeJiffy = f.jiffies(p)
	f.touchMeta(p, dir)
	if child, ok := f.byHome[home]; ok {
		child.nlink--
		if child.nlink == 0 {
			for _, lpa := range child.blocks {
				if lpa != 0 { // holes were never allocated
					f.nFree++
				}
			}
			// Truncate semantics: pdflush never visits the inode again, so
			// its dirty pages are discarded rather than left counted.
			f.obs.dirtyPages.Add(-int64(len(child.dirtyPg)))
			for _, pg := range child.dirtyPg {
				pg.dirty = false
			}
			child.dirtyPg = child.dirtyPg[:0]
			// Writeback in flight still edits the inode's inflight list as
			// it completes, and Fdatawait on the inode waits on it: the
			// scratch stays with the inode then.
			if len(child.inflight) == 0 && len(f.spare) < maxSpareScratch {
				for _, pg := range child.pages {
					f.recyclePage(pg)
				}
				clear(child.pages)
				child.pages = child.pages[:0]
				child.blocksCap = cap(child.blocks)
				f.spare = append(f.spare, child.inodeScratch)
				child.inodeScratch = inodeScratch{}
			}
			f.j.DirtyBuffer(p, f.allocBufFor(child.ino), nil)
			f.forget(child)
			delete(f.byHome, child.home)
			for n, o := range f.inodeList {
				if o == child {
					f.inodeList = append(f.inodeList[:n], f.inodeList[n+1:]...)
					break
				}
			}
		}
	}
	f.stats.Unlinks++
	return nil
}
