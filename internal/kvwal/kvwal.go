// Package kvwal is a write-ahead-logged key-value store — memtable plus
// sorted segments, a miniature LSM tree — built directly on core.Stack. It
// is the "millions of concurrent clients" application model of the stack:
// many clients enqueue Put/Delete batches, a single group-commit leader
// appends their WAL records and persists the whole group with one
// durability call, amortizing the sync across every queued client exactly
// like InnoDB/RocksDB group commit.
//
// The store asks the filesystem for ordering and reads the answer, which
// is the paper's application-level thesis in one helper (order). Each
// ordering point — a group commit, a segment, a manifest publish — calls
// fdatabarrier, and fs says what it delivered:
//
//   - Durable on EXT4 (JBD2), which serves it as fdatasync: the leader
//     stalls for the full Transfer-and-Flush round trip;
//   - Ordered on BarrierFS (Dual): the group is ordered at dispatch cost,
//     clients are released immediately, and a periodic fdatasync checkpoint
//     bounds the durability window. The checkpoint runs on its own proc
//     (kv/sync), so the leader never waits on its flush: commit and flush
//     are split the way Dual-Mode journaling splits them;
//   - Transferred on OptFS, whose osync order a volatile cache may break:
//     the store adds an fdatasync, and the point is durable.
//
// Memtable flushes, compactions and ingests land a segment and publish the
// manifest the same way. On BarrierFS the segment's pages, a forced
// ordering-only journal commit carrying its allocation, the manifest and
// the WAL slots the manifest frees persist in that order, durable at the
// next checkpoint like any group. On the multi-queue block layer a
// segment's background writeback rides data streams no barrier orders, so
// fs serves the segment's fdatabarrier as fdatasync.
//
// Ordering makes recovery prefix-consistent: because every group is
// separated from the next by a barrier or a durable sync, the WAL records
// that survive a crash are always a prefix of the committed history (at
// group granularity), so replay never observes a later group without its
// predecessors.
//
// Background work — memtable flushes into sorted segments, and compaction,
// a k-way merge of their sorted runs — runs as separate sim.Procs whose
// writes are submitted as REQ_BACKGROUND writeback: on the multi-queue
// profiles they scatter onto data streams and never queue in front of the
// commit stream's barriers (the blkmq scenario, end to end).
//
// Clients mutate through Apply (or ApplyAsync, to drive several stores at
// once) and read through GetE, which returns a hard media error so the
// caller can fail over to a replica.
//
// Page contents are modelled as version stamps (see internal/fs), so the
// store keeps a host-side shadow of what each WAL slot and segment page
// holds; recovery reads the *versions* that survived on the device and
// maps them back through the shadow, the same technique internal/crashmc's
// checkers use.
package kvwal

import (
	"fmt"
	"strconv"

	"repro/internal/core"
	"repro/internal/fs"
	"repro/internal/metrics"
	"repro/internal/reqtrace"
	"repro/internal/sim"
)

// OpKind is the type of a logged mutation.
type OpKind int

// Mutation kinds.
const (
	Put OpKind = iota
	Delete
)

func (k OpKind) String() string {
	if k == Delete {
		return "delete"
	}
	return "put"
}

// Op is one mutation submitted by a client. Values are not modelled (page
// contents are version stamps); a key's value is identified by the sequence
// number of its newest Put.
type Op struct {
	Kind OpKind
	Key  string
}

// Config parameterizes a store.
type Config struct {
	// WALPages is the capacity of the WAL ring in pages (one record per
	// page). The leader blocks when the ring is full until a memtable flush
	// checkpoints old records into segments.
	WALPages int
	// MemtableCap freezes the memtable for flushing once it holds this many
	// distinct keys.
	MemtableCap int
	// CompactFanIn triggers compaction when more than this many segments are
	// live: all live segments merge into one.
	CompactFanIn int
	// CheckpointEvery bounds the durability window of ordered group
	// commits: after this many the leader wakes the checkpointer, whose one
	// fdatasync also makes the segments and manifest published before it
	// durable. The leader does not wait for it, so the window is at most
	// CheckpointEvery groups plus those ordered during one in-flight
	// checkpoint. Unused where fs answers Durable (every group commit
	// already is).
	CheckpointEvery int
	// Metrics is an explicit observability registry; nil falls back to the
	// process-wide live registry, and a nil resolution disables the store's
	// instruments.
	Metrics *metrics.Registry
	// EvictSegments drops a segment's clean pages from the page cache once
	// the segment is durable, so segment reads hit the device instead of
	// the cache — fadvise(DONTNEED) on the write path. Off by default (the
	// bench configurations keep the cache-warm behaviour); the fault
	// campaign turns it on so injected media errors are reachable.
	EvictSegments bool
}

// DefaultConfig returns a small, flush-happy configuration that exercises
// every path (group commit, WAL wrap, flush, compaction) in short runs.
func DefaultConfig() Config {
	return Config{
		WALPages:        256,
		MemtableCap:     128,
		CompactFanIn:    4,
		CheckpointEvery: 32,
	}
}

// Stats are cumulative store statistics.
type Stats struct {
	Puts, Deletes, Gets int64
	Batches             int64 // client batches acknowledged
	GroupCommits        int64 // durability/ordering calls issued by the leader
	WALRecords          int64
	Flushes             int64
	Compactions         int64
	CheckpointSyncs     int64 // ForceCheckpoint fdatasyncs, kv/sync's and callers': ordered segments' only durability points
	Ingests             int64 // bulk-copied segments landed by rebalancing
	SegmentsLive        int
}

// memEnt is one memtable entry: the newest mutation of a key.
type memEnt struct {
	seq uint64
	del bool
}

// walRec is the host-side shadow of one WAL record, walHist.at(seq) in ring
// slot (seq-1) % WALPages: its page version and the group that covered it.
type walRec struct {
	group uint64
	kind  OpKind
	key   string
	ver   int64
}

// walChunk is the number of records one walHist chunk holds.
const walChunk = 4096

// walHist is the shadow of every WAL record ever appended, indexed by
// sequence number. It grows in fixed chunks, so an append never copies the
// records already held.
type walHist struct {
	chunks []*[walChunk]walRec
	n      uint64 // records held: sequence numbers 1..n
}

func (h *walHist) append(r walRec) {
	if h.n%walChunk == 0 {
		h.chunks = append(h.chunks, new([walChunk]walRec))
	}
	h.chunks[h.n/walChunk][h.n%walChunk] = r
	h.n++
}

// at returns the record of sequence number seq, 1 <= seq <= h.n.
func (h *walHist) at(seq uint64) *walRec {
	return &h.chunks[(seq-1)/walChunk][(seq-1)%walChunk]
}

// segEnt is the host-side shadow of one segment page.
type segEnt struct {
	key  string
	seq  uint64
	del  bool
	page int64
	ver  int64
}

// segment is one sorted, immutable on-disk run.
type segment struct {
	id      int
	name    string
	entries []segEnt // sorted by key; nil once retired (its array recycled)
	keep    bool     // retire's mark: a retained manifest, segs or compIn names it
}

// segRef locates one segment entry: seg.entries[n].
type segRef struct {
	seg *segment
	n   int
}

// manifestState is the shadow of one manifest page version: the durable
// segment set and the WAL checkpoint at the time it was written.
type manifestState struct {
	checkpoint uint64
	segs       []*segment
}

// kvObs holds the store's registry instruments; all nil when disabled.
type kvObs struct {
	groupCommits *metrics.Counter
	walBytes     *metrics.Counter
	compactions  *metrics.Counter
	ringStallNS  *metrics.Counter // virtual ns the leader waited for WAL ring space
	groupSize    *metrics.Hist
}

// batch is one client submission waiting for the group-commit leader.
type batch struct {
	ops      []Op  // the batch's own copy of the caller's ops
	one      [1]Op // ops' storage when the batch holds a single op
	buf      []Op  // ops' storage for a multi-op batch, kept across reuse
	enqueued sim.Time
	trace    reqtrace.Ctx // request-trace context (zero when untraced)
	lastSeq  uint64       // sequence number of the batch's final op, set at commit
	done     bool
	waiter   *sim.Proc
}

// Store is one open key-value store.
type Store struct {
	fs  *fs.FS
	k   *sim.Kernel
	cfg Config
	obs kvObs

	wal      *fs.Inode
	manifest *fs.Inode

	q           *sim.Queue[*batch]
	spaceCond   *sim.Cond // leader waits here for WAL ring space
	ckptCond    *sim.Cond // the checkpointer waits here for CheckpointEvery groups
	flushCond   *sim.Cond
	compactCond *sim.Cond
	manifestMu  *sim.Mutex // serializes manifest publication

	free    sim.Pool[Batch] // waited batches, for ApplyAsync
	mem     map[string]memEnt
	imm     map[string]memEnt // frozen memtable being flushed (nil when idle)
	spare   map[string]memEnt // the last flushed memtable, cleared for reuse
	segs    []*segment        // live segments, oldest first
	index   map[string]segRef // key -> its entry in the newest live segment holding it
	compIn  []*segment        // compaction scratch: the merged inputs
	compPos []int             // compaction scratch: each input's merge position

	// The recovery shadow, bounded at the durable manifest (see retire):
	// shadow holds every segment a retained manifest, segs or compIn
	// names, and manifestHist every manifest version from durableVer on.
	// freeRuns holds the entry arrays of retired segments.
	shadow       []*segment
	manifestHist map[int64]manifestState // manifest page ver -> state
	orderedVer   int64                   // newest manifest version whose ordering point returned
	durableVer   int64                   // newest manifest version known durable
	freeRuns     [][]segEnt
	walHist      walHist // every WAL record, by sequence number

	nextSeq       uint64 // next op sequence number (1-based)
	committedSeq  uint64 // newest op covered by a group commit (ordering ack)
	durableSeq    uint64 // newest op known durable (durability ack)
	checkpointSeq uint64 // ops <= this are captured in durable segments
	groupID       uint64
	groupsSince   int // group commits since the last durability checkpoint
	nextSegID     int
	stats         Stats
}

// File names within the filesystem root.
const (
	walName      = "kv.wal"
	manifestName = "kv.manifest"
)

func segName(id int) string {
	var b [32]byte
	return string(strconv.AppendInt(append(b[:0], "kv.seg-"...), int64(id), 10))
}

// Open creates the store's files on the stack and starts the group-commit
// leader, checkpointer, flusher and compactor daemons.
func Open(p *sim.Proc, s *core.Stack, cfg Config) (*Store, error) {
	return OpenFS(p, s.FS, cfg)
}

// OpenFS opens a store directly on a mounted filesystem. It needs nothing
// else of the stack: every ordering point asks fs and reads the answer
// (order). Multi-tenant stacks (internal/kvcluster's MQ-streams mode) mount
// several filesystems on one device and open one store per mount.
func OpenFS(p *sim.Proc, fsys *fs.FS, cfg Config) (*Store, error) {
	if cfg.WALPages <= 0 || cfg.MemtableCap <= 0 || cfg.CompactFanIn <= 0 {
		return nil, fmt.Errorf("kvwal: non-positive config %+v", cfg)
	}
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = 32
	}
	st := &Store{
		fs: fsys, k: p.Kernel(), cfg: cfg,
		q:            sim.NewQueue[*batch](p.Kernel()),
		spaceCond:    sim.NewCond(p.Kernel()),
		ckptCond:     sim.NewCond(p.Kernel()),
		flushCond:    sim.NewCond(p.Kernel()),
		compactCond:  sim.NewCond(p.Kernel()),
		manifestMu:   sim.NewMutex(p.Kernel()),
		mem:          make(map[string]memEnt),
		spare:        make(map[string]memEnt),
		index:        make(map[string]segRef),
		manifestHist: make(map[int64]manifestState),
		nextSeq:      1,
	}
	if reg := metrics.Resolve(cfg.Metrics); reg != nil {
		st.obs = kvObs{
			groupCommits: reg.Counter("kvwal/group.commits"),
			walBytes:     reg.Counter("kvwal/wal.bytes"),
			compactions:  reg.Counter("kvwal/compactions"),
			ringStallNS:  reg.Counter("kvwal/ring.stall_ns"),
			groupSize:    reg.Hist("kvwal/group.size"),
		}
	}
	var err error
	if st.wal, err = fsys.Create(p, fsys.Root(), walName); err != nil {
		return nil, err
	}
	if st.manifest, err = fsys.Create(p, fsys.Root(), manifestName); err != nil {
		return nil, err
	}
	// Preallocate the WAL ring and the manifest page so steady-state commits
	// are pure overwrites: no allocating metadata, which is what lets the
	// Dual engine service them on the cheap fdatabarrier path.
	for i := 0; i < cfg.WALPages; i++ {
		fsys.Write(p, st.wal, int64(i))
	}
	fsys.Write(p, st.manifest, 0)
	fsys.SyncFS(p)
	st.k.Spawn("kv/commit", st.committer)
	st.k.Spawn("kv/sync", st.checkpointer)
	st.k.Spawn("kv/flush", st.flusher)
	st.k.Spawn("kv/compact", st.compactor)
	return st, nil
}

// Stats returns cumulative statistics (with SegmentsLive refreshed).
func (st *Store) Stats() Stats {
	out := st.stats
	out.SegmentsLive = len(st.segs)
	return out
}

// CommittedSeq returns the newest sequence number covered by a group commit
// (ordering acknowledgement).
func (st *Store) CommittedSeq() uint64 { return st.committedSeq }

// DurableSeq returns the newest sequence number the store has acknowledged
// as durable. It advances to CommittedSeq when fs answers a group commit
// Durable, to the freeze point when it answers a memtable flush's segment
// Durable, and at ForceCheckpoint's fdatasync; an ordered group or segment
// moves it only at the next checkpoint. It is not the WAL checkpoint.
func (st *Store) DurableSeq() uint64 { return st.durableSeq }

// Apply submits a batch of mutations and blocks until the group-commit
// leader has committed it: the batch is then durable, or, where fs only
// ordered the group, durable no later than the first checkpoint that starts
// after it returns (see ForceCheckpoint). It returns the sequence number of the batch's
// last operation.
func (st *Store) Apply(p *sim.Proc, ops []Op) uint64 {
	return st.ApplyAsync(p, ops).Wait(p)
}

// Batch is an in-flight ApplyAsync submission, recycled: call Wait exactly
// once, after which it belongs to the store; an unwaited batch is dropped.
type Batch struct {
	st *Store
	batch
}

// ApplyAsync enqueues a batch for the group-commit leader without waiting.
// It lets one client drive several stores at once — a replicated write
// submits to every replica's leader and then waits on all the batches, so
// the replicas commit in parallel instead of serially (internal/kvcluster's
// write-both path). The batch is the caller's until its one Wait returns.
// It carries p's trace context (reqtrace.Of): stamped at enqueue here, and
// over the durability window by the leader.
//
// The batch copies ops, so the caller may reuse its slice as soon as the
// call returns. A single op lands in the batch's inline slot; a multi-op
// batch copies into an array it keeps across reuse.
func (st *Store) ApplyAsync(p *sim.Proc, ops []Op) *Batch {
	now, tc := p.Now(), reqtrace.Of(p)
	bt, fresh := st.free.Get()
	if fresh {
		bt.st = st
	}
	b := &bt.batch
	*b = batch{buf: b.buf, enqueued: now, trace: tc}
	switch len(ops) {
	case 0:
		b.done = true
		return bt
	case 1:
		b.one[0] = ops[0]
		b.ops = b.one[:]
	default:
		b.buf = append(b.buf[:0], ops...)
		b.ops = b.buf
	}
	tc.Stamp(reqtrace.StageGCEnqueue, now)
	st.q.Put(b)
	return bt
}

// Wait blocks until the batch's group commit and returns the sequence
// number of its last operation (the store's committed sequence for an
// empty batch). Call it once: on return the batch is the store's again.
func (bt *Batch) Wait(p *sim.Proc) uint64 {
	b := &bt.batch
	for !b.done {
		b.waiter = p
		p.Suspend()
	}
	seq := b.lastSeq
	if len(b.ops) == 0 {
		seq = bt.st.committedSeq
	}
	bt.st.free.Put(bt)
	return seq
}

// GetE returns the sequence number of the newest committed Put for key, or
// false if the key is absent or deleted. Lookups try the memtable, the
// frozen memtable, then the segment index, which names the newest live
// segment holding the key; a segment hit charges the read IO of its page.
// When that page fails hard (uncorrectable sector, retry budget exhausted),
// GetE returns the error so the caller can fail over to a replica. It is
// the store's one read; the name keeps the E that bench/ calls it by.
func (st *Store) GetE(p *sim.Proc, key string) (uint64, bool, error) {
	st.stats.Gets++
	if e, ok := st.mem[key]; ok {
		return e.seq, !e.del, nil
	}
	if st.imm != nil {
		if e, ok := st.imm[key]; ok {
			return e.seq, !e.del, nil
		}
	}
	r, ok := st.index[key]
	if !ok {
		return 0, false, nil
	}
	e := r.seg.entries[r.n]
	if _, _, err := st.fs.Read(p, st.fileOf(r.seg), e.page, 0); err != nil {
		return 0, false, err
	}
	return e.seq, !e.del, nil
}

// indexSegment points every key of seg, just appended as the newest live
// segment, at its entry there.
func (st *Store) indexSegment(seg *segment) {
	for i := range seg.entries {
		st.index[seg.entries[i].key] = segRef{seg, i}
	}
}

// fileOf resolves a segment's inode by name (segments can be recreated by
// lookup because unlinked ones are never read again).
func (st *Store) fileOf(seg *segment) *fs.Inode {
	f, ok := st.fs.Lookup(st.fs.Root(), seg.name)
	if !ok {
		panic("kvwal: live segment file missing: " + seg.name)
	}
	return f
}

// ForceCheckpoint makes everything committed when it is called durable: one
// fdatasync on the WAL, synchronous for the caller. It is the checkpointer's
// body too. DurableSeq advances to the CommittedSeq read at the call, never
// to one read on return: groups the leader orders while the fdatasync is in
// flight may have dispatched after its flush, so they wait for the next
// checkpoint. The durable manifest watermark advances the same way, to the
// newest manifest whose ordering point had returned at the call. Clients
// that need read-your-durability semantics where fs only orders call this
// explicitly; where group commits are durable it is a cheap no-op-ish
// extra sync. It is also where ordered segments and the
// manifest that names them become durable: on a clean WAL the fdatasync is
// a forced journal commit waited durably, and on a WAL with a group
// mid-append it flushes the cache once the dirty slots, which follow the
// publish in dispatch order, have transferred. Either way the flush covers
// everything dispatched before the fdatasync: the journal's flush waits
// for the forced commit's JC, which follows it all on the order stream.
func (st *Store) ForceCheckpoint(p *sim.Proc) {
	target, manifest := st.committedSeq, st.orderedVer
	st.groupsSince = 0
	st.fs.Fdatasync(p, st.wal)
	st.stats.CheckpointSyncs++
	if target > st.durableSeq {
		st.durableSeq = target
	}
	st.retire(manifest)
}

// checkpointer is the periodic durability checkpoint of ordered groups, on
// its own proc so the leader never waits on its flush: the application
// twin of the Dual-Mode journal's flush thread. The leader signals it
// once CheckpointEvery groups are ordered and goes on ordering the next.
func (st *Store) checkpointer(p *sim.Proc) {
	for {
		if st.groupsSince < st.cfg.CheckpointEvery {
			st.ckptCond.Wait(p)
			continue
		}
		st.ForceCheckpoint(p)
	}
}

// order is the store's one ordering point: it asks fs to order f's writes
// before everything that follows (fdatabarrier) and reports whether they are
// also durable. Transferred writes reached the device in transfer order,
// but a volatile cache may persist them in any order, so there it adds the
// fdatasync.
func (st *Store) order(p *sim.Proc, f *fs.Inode) (durable bool) {
	switch st.fs.Fdatabarrier(p, f) {
	case fs.Ordered:
		return false
	case fs.Transferred:
		st.fs.Fdatasync(p, f)
	}
	return true
}

// maxGroupOps bounds one group commit so it can never occupy the whole WAL
// ring (the flusher needs the rest to make space).
func (st *Store) maxGroupOps() int {
	n := st.cfg.WALPages / 4
	if n < 1 {
		n = 1
	}
	return n
}

// committer is the group-commit leader: it drains every waiting batch,
// appends their WAL records, issues one durability/ordering call for the
// whole group, applies the mutations to the memtable and releases the
// clients. One group slice serves every group.
func (st *Store) committer(p *sim.Proc) {
	var group []*batch
	for {
		b := st.q.Get(p)
		group = append(group[:0], b)
		groupOps := len(b.ops)
		for groupOps < st.maxGroupOps() {
			b2, ok := st.q.TryGet()
			if !ok {
				break
			}
			group = append(group, b2)
			groupOps += len(b2.ops)
		}
		st.groupID++
		st.k.SpanBegin("kvwal", "group-commit", st.groupID)
		for _, b := range group {
			for i := range b.ops {
				st.appendWAL(p, b.ops[i])
			}
		}
		// Chain the group's trace contexts behind one head: the whole group
		// shares a single durability call, so one set of group-wide stamps
		// (recorded through the head's chain) describes every traced member.
		var tch reqtrace.Ctx
		for _, b := range group {
			tch = reqtrace.Chain(tch, b.trace)
		}
		// One sync for the whole group: the amortization that makes group
		// commit worth it. The DurIssue→DurDone window brackets the leader's
		// stall — the full transfer-and-flush round trip where fs serves it
		// durably, dispatch cost only where it orders.
		tch.StampChain(reqtrace.StageDurIssue, p.Now())
		prev := reqtrace.With(p, tch)
		durable := st.order(p, st.wal)
		reqtrace.With(p, prev)
		tch.StampChain(reqtrace.StageDurDone, p.Now())
		st.stats.GroupCommits++
		st.obs.groupCommits.Inc()
		st.obs.groupSize.Observe(int64(groupOps))
		st.k.SpanEnd("kvwal", "group-commit", st.groupID)
		st.committedSeq = st.nextSeq - 1
		if durable {
			st.durableSeq = st.committedSeq
		} else if st.groupsSince++; st.groupsSince >= st.cfg.CheckpointEvery {
			st.ckptCond.Signal()
		}
		// Apply to the memtable (the ops' sequence numbers were assigned in
		// appendWAL in this same order) and ack the clients.
		seqTail := st.committedSeq - uint64(groupOps) + 1
		for _, b := range group {
			for _, op := range b.ops {
				st.mem[op.Key] = memEnt{seq: seqTail, del: op.Kind == Delete}
				seqTail++
				if op.Kind == Delete {
					st.stats.Deletes++
				} else {
					st.stats.Puts++
				}
			}
			b.lastSeq = seqTail - 1
			b.done = true
			st.stats.Batches++
			if b.waiter != nil {
				st.k.Resume(b.waiter)
			}
		}
		clear(group) // before any yield: the acked batches are their waiters' now
		if st.needFlush() {
			st.flushCond.Signal()
		}
	}
}

// appendWAL writes one record into the next ring slot, blocking while the
// slot still holds a live (un-checkpointed) record.
func (st *Store) appendWAL(p *sim.Proc, op Op) {
	seq := st.nextSeq
	if seq > st.checkpointSeq+uint64(st.cfg.WALPages) {
		from := p.Now()
		for seq > st.checkpointSeq+uint64(st.cfg.WALPages) {
			// Ring full: the record seq-WALPages in this slot is not yet
			// captured in a segment. Kick the flusher and wait.
			st.flushCond.Signal()
			st.spaceCond.Wait(p)
		}
		st.obs.ringStallNS.Add(int64(p.Now().Sub(from)))
	}
	st.nextSeq++
	slot := int64((seq - 1) % uint64(st.cfg.WALPages))
	st.fs.Write(p, st.wal, slot)
	ver, _ := st.fs.PageVer(st.wal, slot)
	st.walHist.append(walRec{group: st.groupID, kind: op.Kind, key: op.Key, ver: ver})
	st.stats.WALRecords++
	st.obs.walBytes.Add(4096)
}

// needFlush reports whether the memtable should be frozen: it is full, or
// the WAL ring is more than half occupied by live records.
func (st *Store) needFlush() bool {
	if st.imm != nil {
		return false // a flush is already running
	}
	if len(st.mem) >= st.cfg.MemtableCap {
		return true
	}
	return len(st.mem) > 0 &&
		st.committedSeq > st.checkpointSeq+uint64(st.cfg.WALPages)/2
}
