// Package jbd implements filesystem journaling over the order-preserving
// block layer. One control plane, a commit thread, serves the paper's four
// engines, one per mount: it freezes each transaction, waits for its
// ordered-mode data, reserves journal space and dispatches JD and JC. The
// engines differ only in that dispatch rule and in the data plane that makes
// a committed transaction durable. New fixes the engine's decisions from
// Config.Mode once, and nothing reads the mode after it:
//
//   - ModeJBD2: the EXT4 baseline (§2.3). Wait-on-Transfer for D, JD and JC
//     (Eq. 2: D→xfer→JD→xfer→flush→JC(FLUSH|FUA)), one transaction at a
//     time; JC's FLUSH|FUA makes it durable at completion, so there is no
//     data plane.
//   - ModeNobarrier: ModeJBD2 mounted nobarrier (EXT4-OD). It drops the
//     FLUSH|FUA, and a durability wait returns at commit completion.
//   - ModeDual: BarrierFS Dual-Mode journaling (§4.2). JD and JC go as
//     ordered barrier writes nothing waits on, so several transactions
//     commit concurrently and the conflict-page list resolves their page
//     conflicts (§4.3) as each JC is transferred. A flush thread flushes
//     for durability-seeking ones and never gates the next commit: its
//     flush rides a domain of its own (block.RoleFlush), so the device
//     does not hold the next JD and JC behind it.
//   - ModeOptFS: OptFS's osync() (§7), plus selective data journaling.
//     Wait-on-Transfer without a flush; a delayed flush, or a dsync-style
//     waiter's own, makes committed transactions durable.
//
// The journal occupies a fixed LPA window [Start, Start+Pages) used as a
// circular log; a superblock at LPA SuperLPA records the checkpoint tail
// for recovery. The checkpointer writes the logged blocks home and the
// superblock on an ordering domain of its own (block.RoleCheckpoint), so
// its flushes never hold back the next commit.
package jbd

import (
	"repro/internal/block"
	"repro/internal/metrics"
	"repro/internal/reqtrace"
	"repro/internal/sim"
)

// Mode selects the journaling engine.
type Mode int

// Journaling engines: the four mounts core's profiles run. The zero Mode is
// a barrier-mounted JBD2.
const (
	ModeJBD2      Mode = iota // EXT4-DR: transfer-and-flush commit
	ModeDual                  // BarrierFS: Dual-Mode journaling
	ModeOptFS                 // OptFS: osync and delayed durability
	ModeNobarrier             // EXT4-OD: JBD2 without flush or FUA
)

// modeNames names the engines in Mode order.
var modeNames = [...]string{"jbd2", "dual", "optfs", "nobarrier"}

func (m Mode) valid() bool { return m >= 0 && int(m) < len(modeNames) }

func (m Mode) String() string {
	if !m.valid() {
		return "invalid"
	}
	return modeNames[m]
}

// Config tunes a journal instance. A zero Config (with a layout) is a
// barrier-mounted JBD2 journal.
type Config struct {
	// Mode is the journaling engine, one of the four, fixed at New.
	Mode Mode
	// SuperLPA, Start and Pages define the on-disk layout.
	SuperLPA uint64
	Start    uint64
	Pages    int
	// CheckpointLow triggers checkpointing when free journal pages drop
	// below this count.
	CheckpointLow int
	// WakeLatency is charged after every blocking wake-up (scheduler
	// latency).
	WakeLatency sim.Duration
	// FlushInterval, for ModeOptFS, is the delayed-durability flush period.
	FlushInterval sim.Duration
	// Stream is the block-layer ordering domain every commit-path request
	// rides (block.Request.Stream); checkpoint IO and retire's durability
	// flushes ride the domains the block layer derives from it for their
	// roles (block.RoleCheckpoint, block.RoleFlush). 0 — the default — is
	// the global ordering domain of the single-queue layer. A multi-tenant
	// stack on one multi-queue device gives each mounted filesystem its own
	// order stream (block.OrderStream) so the tenants' barriers never drain
	// each other's traffic; the filesystem layer tags its foreground data
	// and reads with the same stream (see fs.Options).
	Stream uint64
	// Metrics is an explicit observability registry; nil falls back to the
	// process-wide live registry, and a nil resolution disables the
	// journal's instruments.
	Metrics *metrics.Registry
}

// DefaultConfig returns a journal layout for the standard stack geometry.
func DefaultConfig(mode Mode) Config {
	return Config{
		Mode:          mode,
		SuperLPA:      0,
		Start:         1,
		Pages:         8192,
		CheckpointLow: 2048,
		WakeLatency:   15 * sim.Microsecond,
		FlushInterval: 500 * sim.Millisecond,
	}
}

// TxnState is the lifecycle of a transaction.
type TxnState int

// Transaction states.
const (
	StateRunning    TxnState = iota
	StateCommitting          // handed to the commit machinery
	StateCommitted           // JD and JC transferred (ordering established)
	StateDurable             // on the storage surface
)

func (s TxnState) String() string {
	switch s {
	case StateRunning:
		return "running"
	case StateCommitting:
		return "committing"
	case StateCommitted:
		return "committed"
	case StateDurable:
		return "durable"
	}
	return "invalid"
}

// Buffer is a journaled metadata block handle. The filesystem owns it and
// calls DirtyBuffer with a fresh immutable snapshot whenever the block
// changes.
type Buffer struct {
	Home uint64 // in-place LPA
	Data any    // latest snapshot
	Name string // for diagnostics

	// Snapshot, if set, is called once when the buffer is frozen into a
	// committing transaction, with the Data the last DirtyBuffer recorded
	// (an owner can record itself there, so one function serves all its
	// buffers). It returns the block's current contents as a pointer the
	// device may hold forever, and nothing writes through it again. Like
	// JBD2's frozen-buffer copy, it spares owners a snapshot on every
	// dirtying write.
	Snapshot func(data any) any

	owner     *Txn // committing transaction holding it: on Dual until its JC transfer, else until finishTxn
	inRunning bool
	conflict  bool // parked on the conflict-page list
}

// Pending reports whether the buffer has uncommitted changes (it sits in
// the running transaction or on the conflict-page list).
func (b *Buffer) Pending() bool { return b.inRunning || b.conflict }

// Parked reports whether the buffer waits on the conflict-page list for the
// committing transaction that holds it to transfer its JC (Dual-Mode, §4.3).
func (b *Buffer) Parked() bool { return b.conflict }

// Frozen returns the committing transaction that holds the buffer, nil if
// none: the buffer's last changes are no longer pending, and not durable
// either. A Dual-Mode transaction holds its buffers until its JC is
// transferred, not until it is durable, so a caller that must wait for the
// commit captures the transaction when it decides to, not when it waits.
func (b *Buffer) Frozen() *Txn { return b.owner }

// txnScratch is a transaction's slice storage: finishTxn hands it to newTxn
// when the transaction retires, so a steady-state commit grows no slice.
// Nothing reads the lists after retirement; the checkpointer reads only
// Txn.frozen.
type txnScratch struct {
	buffers []*Buffer
	// dataDeps are ordered-mode data writes that must be on their way to
	// the device before JD is written; held (Request.Hold) until the commit
	// has waited for them, or until RegisterOrderedData finds them completed.
	dataDeps []*block.Request
	jd       []*block.Request // buildJD's descriptor+log chunk
}

// Txn is a journal transaction.
type Txn struct {
	id uint64
	txnScratch
	// frozen is the log blocks, one run carved by freeze. JD requests carry
	// pointers into it: it lives on as journal page contents, never reused.
	frozen []LogBlock
	state  TxnState

	forced bool // committed even if empty (epoch delimiter)

	// commitRequested marks a Dual-Mode running transaction already queued
	// to the commit thread, which freezes it after the conflict-page list
	// drains.
	commitRequested bool

	wantDurable   bool
	preflushed    bool // JC went out with FLUSH|FUA (a barrier-mounted JBD2)
	jcTransferred bool
	retired       bool // removed from the committing list (finishTxn ran)
	pagesUsed     int

	// trace is the causal trace context of the first traced caller that
	// committed this transaction (the chain head of its group). buildJD
	// stamps StageJournalDispatch through it and tags the JD/JC block
	// requests with it.
	trace reqtrace.Ctx
}

// attachTrace attaches p's trace context (reqtrace.Of) to the transaction
// the caller waits on, first-wins, so the commit engine's dispatch stamps
// land on the caller's trace.
func (t *Txn) attachTrace(p *sim.Proc) {
	if !t.trace.Active() {
		t.trace = reqtrace.Of(p)
	}
}

// Empty reports whether the transaction has no frozen buffers and is not a
// forced epoch delimiter.
func (t *Txn) Empty() bool { return len(t.buffers) == 0 && len(t.frozen) == 0 && !t.forced }

// waiter is a proc parked until transaction t reaches state s
// (StateCommitted or StateDurable).
type waiter struct {
	t *Txn
	s TxnState
	p *sim.Proc
}

// reach moves t to state s and resumes, in park order, the procs waiting
// for it. Resume only schedules a waiter, so the list does not grow while
// it is walked.
func (j *Journal) reach(t *Txn, s TxnState) {
	t.state = s
	kept := j.waiters[:0]
	for _, w := range j.waiters {
		if w.t == t && w.s <= s {
			j.k.Resume(w.p)
			continue
		}
		kept = append(kept, w)
	}
	clear(j.waiters[len(kept):])
	j.waiters = kept
}

// Stats are cumulative journal statistics.
type Stats struct {
	Commits         int64
	EmptyCommits    int64
	PagesLogged     int64
	Checkpoints     int64
	ConflictBlocks  int64 // JBD2, nobarrier, OptFS: times a writer blocked on a committing txn
	ConflictParked  int64 // Dual: buffers parked on the conflict-page list
	Flushes         int64
	MaxCommitting   int   // high-water mark of concurrently committing txns
	CheckpointForce int64 // commits that had to wait for journal space
}

// Journal is one mounted journal.
type Journal struct {
	k     *sim.Kernel
	layer block.Submitter
	cfg   Config

	running    *Txn
	committing []*Txn // in commit order
	nextTxnID  uint64

	conflictList []*Buffer
	spare        []txnScratch // from retired transactions, for newTxn
	// waiters are the procs parked on any transaction, in park order. They
	// live on the journal, not in the transaction's scratch: a transaction
	// can retire before it is durable (a Dual-Mode ordering-only one a
	// caller later waits on, any nobarrier one until its checkpoint), and
	// its scratch is recycled at retirement.
	waiters []waiter

	commitQ   *sim.Queue[*Txn]
	flushQ    *sim.Queue[*Txn]
	ckptQ     []*Txn
	ckptCond  *sim.Cond
	spaceCond *sim.Cond
	confCond  *sim.Cond
	optfsCond *sim.Cond
	jcCond    *sim.Cond // a JC was transferred (retire's wait)

	// reqPool recycles the journal's own block requests (JD/JC chunks,
	// checkpoint writes).
	reqPool block.ReqPool
	// The slabs carve transactions, the records their JD/JC chunks write
	// and the checkpointer's superblocks.
	// A Txn is never recycled, so a caller may hold one across WaitTxn.
	txns    sim.Slab[Txn]
	logs    sim.Slab[LogBlock]
	descs   sim.Slab[DescBlock]
	commits sim.Slab[CommitBlock]
	supers  sim.Slab[SuperBlock]

	head      uint64 // next journal slot sequence number
	freePages int
	short     int    // pages a commit waits for in reserve (0: none waits)
	tailTxn   uint64 // oldest un-checkpointed txn id

	// ackedDurable is the newest transaction id a durability wait has
	// acknowledged to a caller — the journal-level fsync contract the
	// crash-state model checker audits. Under a nobarrier mount the wait
	// returns at StateCommitted, so the ack can outrun what is actually on
	// the storage surface: recording the *claim* rather than the physical
	// state is the point (internal/crashmc reproduces EXT4-nobarrier's
	// false ack as a positive finding).
	ackedDurable uint64

	// ckptBusy is set from a checkpoint's first flush to its superblock
	// write's completion; only the jbd/ckpt.behind and jbd/ckpt.beside
	// counters read it.
	ckptBusy bool

	// The engine's decisions, fixed by New; nothing reads cfg.Mode after it.
	dual      bool     // Dual-Mode: JD and JC as epochs nothing waits on, conflicting buffers park (§4.3)
	fuaCommit bool     // barrier JBD2: JC's FLUSH|FUA makes a commit durable at completion
	lazy      bool     // OptFS: committed transactions retire lazily (delayed flush, dsync waiters, space pressure)
	ackAt     TxnState // what a durability wait acknowledges: StateCommitted on a nobarrier mount

	stats Stats
	obs   jbdObs
}

// jbdObs holds the journal's registry instruments; all nil when disabled.
type jbdObs struct {
	commits, checkpoints          *metrics.Counter
	ckptTxns                      *metrics.Counter // transactions checkpointed
	ckptForce                     *metrics.Counter // commits that waited for journal space
	conflictParks, conflictBlocks *metrics.Counter
	conflictWait                  *metrics.Counter // ns the commit thread waited for the conflict-page list
	ckptBacklog                   *metrics.Gauge

	// Flushes by trigger: retire (the Dual flush thread and OptFS's
	// retirers), WaitTxn on a retired Dual transaction, a barrier-mounted
	// JBD2 commit's FLUSH|FUA JC, CommitAndWait's flush after a preflushed
	// commit, and the checkpointer's two per batch.
	flushRetire, flushWaitTxn, flushCommit, flushFsync, flushCkpt *metrics.Counter
	ckptFlushWait                                                 *metrics.Counter // ns the checkpointer spent in its flushes
	// Commit-path requests (JCs and flushes) issued while checkpoint IO
	// was in flight: behind it on its own stream, or beside it on another.
	behindCkpt, besideCkpt *metrics.Counter
	// retire's wait for the JC transfers its flush covers (virtual ns), and
	// the transactions its flushes make durable; per flush, divide by
	// jbd/flush.retire + jbd/flush.waittxn.
	retireWait, retireTxns *metrics.Counter
}

// New creates a journal and starts its engine threads.
func New(k *sim.Kernel, layer block.Submitter, cfg Config) *Journal {
	if cfg.Pages < 8 {
		panic("jbd: journal too small")
	}
	if !cfg.Mode.valid() {
		panic("jbd: invalid mode")
	}
	j := &Journal{
		k: k, layer: layer, cfg: cfg,
		commitQ:   sim.NewQueue[*Txn](k),
		flushQ:    sim.NewQueue[*Txn](k),
		ckptCond:  sim.NewCond(k),
		spaceCond: sim.NewCond(k),
		confCond:  sim.NewCond(k),
		optfsCond: sim.NewCond(k),
		jcCond:    sim.NewCond(k),
		freePages: cfg.Pages,
		nextTxnID: 1,
		tailTxn:   1,
		dual:      cfg.Mode == ModeDual,
		fuaCommit: cfg.Mode == ModeJBD2,
		lazy:      cfg.Mode == ModeOptFS,
		ackAt:     StateDurable,
	}
	if cfg.Mode == ModeNobarrier {
		j.ackAt = StateCommitted
	}
	if reg := metrics.Resolve(cfg.Metrics); reg != nil {
		j.obs = jbdObs{
			commits:        reg.Counter("jbd/commits"),
			checkpoints:    reg.Counter("jbd/checkpoints"),
			ckptTxns:       reg.Counter("jbd/ckpt.txns"),
			ckptForce:      reg.Counter("jbd/ckpt.force"),
			conflictParks:  reg.Counter("jbd/conflict.parks"),
			conflictBlocks: reg.Counter("jbd/conflict.blocks"),
			conflictWait:   reg.Counter("jbd/conflict.wait_ns"),
			ckptBacklog:    reg.Gauge("jbd/ckpt.backlog"),
			flushRetire:    reg.Counter("jbd/flush.retire"),
			flushWaitTxn:   reg.Counter("jbd/flush.waittxn"),
			flushCommit:    reg.Counter("jbd/flush.commit"),
			flushFsync:     reg.Counter("jbd/flush.fsync"),
			flushCkpt:      reg.Counter("jbd/flush.checkpoint"),
			ckptFlushWait:  reg.Counter("jbd/ckpt.flush_ns"),
			behindCkpt:     reg.Counter("jbd/ckpt.behind"),
			besideCkpt:     reg.Counter("jbd/ckpt.beside"),
			retireWait:     reg.Counter("jbd/retire.wait_ns"),
			retireTxns:     reg.Counter("jbd/retire.txns"),
		}
	}
	j.running = j.newTxn()
	switch {
	case j.dual:
		k.Spawn("jbd/commit", j.commitThread)
		k.Spawn("jbd/flush", j.dualFlushThread)
	case j.lazy:
		k.Spawn("jbd/commit", j.commitThread)
		k.Spawn("jbd/delayflush", j.optfsDelayedFlush)
	default:
		k.Spawn("jbd/jbd2", j.commitThread)
	}
	k.Spawn("jbd/checkpoint", j.checkpointThread)
	return j
}

// Stats returns cumulative statistics.
func (j *Journal) Stats() Stats { return j.stats }

// JournalsOverwrites reports whether the engine routes an overwrite of a
// page already on the device through the journal: OptFS's selective data
// journaling, which goes with its lazy retirement.
func (j *Journal) JournalsOverwrites() bool { return j.lazy }

// FreePages returns the free journal slots.
func (j *Journal) FreePages() int { return j.freePages }

func (j *Journal) newTxn() *Txn {
	t := j.txns.New(Txn{id: j.nextTxnID, state: StateRunning})
	j.nextTxnID++
	if n := len(j.spare); n > 0 {
		t.txnScratch, j.spare = j.spare[n-1], j.spare[:n-1]
	}
	return t
}

func (j *Journal) wake(p *sim.Proc) {
	if j.cfg.WakeLatency > 0 {
		p.Advance(j.cfg.WakeLatency)
	}
}

// DirtyBuffer records a new snapshot of buf into the running transaction.
// It implements the page-conflict rules of §4.3: if the buffer belongs to a
// committing transaction, a Dual-Mode writer parks the buffer on the
// conflict-page list and continues; the parked buffer joins the running
// transaction when the holder's JC is transferred, before the holder's
// flush. On the other engines the writer blocks until the holder releases
// the buffer: a barrier JBD2 at its durable commit (its commit *is*
// transfer-and-flush), nobarrier and OptFS at commit completion.
func (j *Journal) DirtyBuffer(p *sim.Proc, buf *Buffer, snapshot any) {
	buf.Data = snapshot
	if buf.inRunning || buf.conflict {
		return
	}
	if buf.owner != nil {
		if j.dual {
			j.stats.ConflictParked++
			j.obs.conflictParks.Inc()
			buf.conflict = true
			j.conflictList = append(j.conflictList, buf)
			return
		}
		j.stats.ConflictBlocks++
		j.obs.conflictBlocks.Inc()
		target := StateCommitted
		if j.fuaCommit {
			target = StateDurable
		}
		for t := buf.owner; t != nil && t.state < target; t = buf.owner {
			j.await(p, t, target)
		}
	}
	buf.owner = nil
	buf.inRunning = true
	j.running.buffers = append(j.running.buffers, buf)
}

// RegisterOrderedData attaches an ordered-mode data write to the running
// transaction: the commit must not write JD until this request has been
// transferred (JBD2) or has been dispatched in an earlier epoch (Dual).
// Before the list would grow, it drops the writes already transferred: no
// commit waits on a completed request, so a transaction holds only the
// ordered data still in flight, not every page it ever covered.
func (j *Journal) RegisterOrderedData(r *block.Request) {
	deps := j.running.dataDeps
	if len(deps) == cap(deps) {
		kept := deps[:0]
		for _, d := range deps {
			if d.Completed() {
				d.Release()
				continue
			}
			kept = append(kept, d)
		}
		deps = kept
	}
	r.Hold()
	j.running.dataDeps = append(deps, r)
}

// freeze snapshots the running transaction's buffers and replaces the
// running transaction. The caller must have ensured the conflict-page list
// is empty, so every buffer destined for this transaction has joined it.
func (j *Journal) freeze(t *Txn) {
	t.state = StateCommitting
	t.frozen = j.logs.Take(len(t.buffers))
	for i, b := range t.buffers {
		data := b.Data
		if b.Snapshot != nil {
			data = b.Snapshot(data)
		}
		t.frozen[i] = LogBlock{TxnID: t.id, Index: i, Home: b.Home, Snapshot: data}
		b.owner = t
		b.inRunning = false
	}
	j.running = j.newTxn()
	j.committing = append(j.committing, t)
	if len(j.committing) > j.stats.MaxCommitting {
		j.stats.MaxCommitting = len(j.committing)
	}
}

// closeRunning hands the running transaction to the commit engine. force
// commits even an empty transaction (epoch delimiter). Returns nil if there
// was nothing to commit.
//
// The blocking engines freeze immediately: their conflict rule blocks
// writers, so the conflict list is always empty here. Dual mode only
// *requests* the commit; the commit thread freezes after the conflict-page
// list drains (§4.3), so parked buffers — including the caller's own
// metadata — always land in the transaction the caller waits on.
func (j *Journal) closeRunning(p *sim.Proc, force bool) *Txn {
	t := j.running
	if t.Empty() && !force {
		return nil
	}
	t.forced = t.forced || force
	if j.dual {
		if !t.commitRequested {
			t.commitRequested = true
			j.commitQ.Put(t)
		}
		return t
	}
	j.freeze(t)
	j.commitQ.Put(t)
	return t
}

// CommitAndWait closes the running transaction and blocks until it is
// durable (or merely committed, on ModeNobarrier). This is the fsync()
// journal path.
//
// A durability caller must commit even when the running transaction is
// empty but the Dual-Mode conflict-page list is not: the caller's newest
// metadata snapshot may live only on that list (parked behind a committing
// transaction, §4.3), and skipping the commit would let fsync return with
// the snapshot never journaled — it would wait on the *older* committing
// transaction instead. The forced commit absorbs the parked buffers when
// the commit thread drains the list before freezing. Ordering-only callers
// (CommitOrdering) deliberately keep the lazy path: their parked pages ride
// a later commit, which preserves the deep fbarrier commit pipeline
// (Fig. 12) at no durability cost.
func (j *Journal) CommitAndWait(p *sim.Proc) *Txn {
	t := j.closeRunning(p, len(j.conflictList) > 0)
	if t == nil {
		// Nothing dirty: wait on the newest in-flight transaction, if any,
		// for EXT4's "fsync finds committed txn" semantics.
		if len(j.committing) == 0 {
			return nil
		}
		t = j.committing[len(j.committing)-1]
	}
	// ext4's jbd2_trans_will_send_data_barrier: the caller's data was
	// transferred before this call, so a commit that has already sent its
	// preflush does not cover it, and a cache that writes back out of order
	// may persist JC without it. Flush once that commit is durable.
	flush := t.preflushed
	j.WaitTxn(p, t)
	if flush {
		j.flush(p, block.RoleSync, j.obs.flushFsync)
	}
	return t
}

// AckedDurable returns the newest transaction id a durability wait
// (WaitTxn / CommitAndWait) has acknowledged. After a crash, journal
// replay must reach at least this id — anything less means a caller was
// told its transaction was durable when it was not.
func (j *Journal) AckedDurable() uint64 { return j.ackedDurable }

// WaitTxn blocks until t reaches the mount's durability target. When the
// transaction is committed but no engine path will flush it (OptFS's
// delayed-durability window, or a Dual-Mode ordering transaction that
// already left the committing list), the caller issues the flush itself —
// the dsync behaviour. fdatasync waits here for the commit that froze its
// allocation (ext4's i_datasync_tid).
func (j *Journal) WaitTxn(p *sim.Proc, t *Txn) {
	t.attachTrace(p)
	t.wantDurable = true
	if j.lazy {
		// OptFS: durability waiters first wait for the commit (osync's
		// transfer wait), then flush directly below rather than stalling on
		// the delayed-durability timer.
		j.await(p, t, StateCommitted)
	}
	if t.state == StateCommitted && j.ackAt == StateDurable && (j.lazy || t.retired) {
		if t.retired {
			// Dual-Mode ordering-only: off the committing list, so only the
			// caller's own flush covers it.
			j.retire(p, t.id, j.obs.flushWaitTxn)
		} else {
			j.retireCommitted(p)
		}
		if t.state < StateDurable {
			j.reach(t, StateDurable)
			j.obs.retireTxns.Inc()
		}
	}
	j.await(p, t, j.ackAt)
	j.ackedDurable = max(j.ackedDurable, t.id)
}

// await parks p until t reaches state s (StateCommitted or StateDurable),
// charging a wake-up after each park.
func (j *Journal) await(p *sim.Proc, t *Txn, s TxnState) {
	for t.state < s {
		j.waiters = append(j.waiters, waiter{t, s, p})
		p.Suspend()
		j.wake(p)
	}
}

// CommitOrdering closes the running transaction for an ordering-only caller
// (fbarrier / osync). In Dual mode it returns once the commit thread has
// dispatched the transaction; in OptFS mode once JD/JC are transferred.
// force commits an empty transaction as an epoch delimiter.
func (j *Journal) CommitOrdering(p *sim.Proc, force bool) *Txn {
	t := j.closeRunning(p, force)
	if t == nil {
		// OptFS: the caller's metadata rides an in-flight commit; osync
		// still waits for that commit's transfers (Wait-on-Transfer, §7).
		if !j.lazy || len(j.committing) == 0 {
			return nil
		}
		t = j.committing[len(j.committing)-1]
	}
	t.attachTrace(p)
	j.await(p, t, StateCommitted)
	return t
}

// slotLPA maps a journal sequence number to its on-disk LPA.
func (j *Journal) slotLPA(seq uint64) uint64 {
	return j.cfg.Start + seq%uint64(j.cfg.Pages)
}

// reserve takes n journal pages. Dropping below the checkpoint low-water
// kicks the checkpointer early; the reservation itself only blocks when the
// journal is actually out of space, and then the checkpointer runs until it
// is not, even above the low-water mark (see checkpointThread).
func (j *Journal) reserve(p *sim.Proc, n int) {
	if j.freePages-n < j.cfg.CheckpointLow {
		j.ckptCond.Broadcast()
	}
	if j.freePages < n {
		j.stats.CheckpointForce++
		j.obs.ckptForce.Inc()
	}
	for j.freePages < n {
		if j.lazy {
			// OptFS retires transactions lazily; under space pressure the
			// reserver forces the retirement so the checkpointer has work.
			j.retireCommitted(p)
		}
		j.short = n
		j.ckptCond.Broadcast()
		j.spaceCond.Wait(p)
		j.wake(p)
	}
	j.short = 0
	j.freePages -= n
}
