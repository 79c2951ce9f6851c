package jbd

import (
	"repro/internal/block"
	"repro/internal/metrics"
	"repro/internal/reqtrace"
	"repro/internal/sim"
)

// On-disk journal record payloads (stored as page data). Journal pages hold
// DescBlock, LogBlock and CommitBlock by pointer, and the superblock page a
// SuperBlock, all carved and never rewritten.

// DescBlock is a journal descriptor block.
type DescBlock struct {
	TxnID uint64
	N     int // number of log blocks
}

// LogBlock is one journaled metadata block copy. Journal pages hold it as a
// *LogBlock into the owning transaction's frozen run.
type LogBlock struct {
	TxnID    uint64
	Index    int
	Home     uint64
	Snapshot any
}

// CommitBlock is a journal commit record.
type CommitBlock struct {
	TxnID uint64
	N     int
}

// SuperBlock records the checkpoint tail. The superblock page holds it as a
// *SuperBlock.
type SuperBlock struct {
	TailTxn uint64
}

// chunkWaiter returns p's submitWaitAll, which submits every request and
// blocks until all complete, costing p a single wake-up (the requests form
// one logical chunk, like JBD2's coalesced descriptor+logs write). Each proc
// owns its counter: the commit engine and the checkpointer can both wait.
func (j *Journal) chunkWaiter(p *sim.Proc) func([]*block.Request) {
	n := 0
	done := func(sim.Time, *block.Request) {
		if n--; n == 0 {
			j.k.Resume(p)
		}
	}
	return func(reqs []*block.Request) {
		n = len(reqs) + 1 // p's own count, dropped once all are submitted
		for _, r := range reqs {
			r.OnComplete = done
			j.layer.Submit(p, r)
		}
		if n--; n > 0 {
			p.Suspend()
			j.wake(p)
		}
	}
}

// req draws a pooled request on the journal's stream in role: RoleSync for
// JD and JC, RoleCheckpoint for checkpoint IO (see checkpointThread),
// RoleFlush for retire's flushes. The block layer derives the latter two's
// ordering domains from the stream.
func (j *Journal) req(role block.Role) *block.Request {
	r := j.reqPool.Get()
	r.Stream, r.Role = j.cfg.Stream, role
	return r
}

// flush issues a cache flush in role and waits for it, charging the
// wake-up; it counts in Stats.Flushes, and why counts it by trigger.
func (j *Journal) flush(p *sim.Proc, role block.Role, why *metrics.Counter) {
	r := j.req(role)
	j.countBesideCkpt()
	block.FlushOn(p, j.layer, r)
	j.stats.Flushes++
	why.Inc()
	j.wake(p)
}

// ckptFlush is one of the checkpointer's two flushes per batch, timed into
// jbd/ckpt.flush_ns.
func (j *Journal) ckptFlush(p *sim.Proc) {
	t0 := p.Now()
	block.FlushOn(p, j.layer, j.req(block.RoleCheckpoint))
	j.wake(p)
	j.obs.flushCkpt.Inc()
	j.obs.ckptFlushWait.Add(int64(p.Now().Sub(t0)))
}

// countBesideCkpt tallies a commit-path request, a JC or a flush, issued
// while the checkpointer has IO in flight. Commit-path requests ride the
// sync or flush domain, never the checkpoint's, so each goes beside that IO
// and the device does not hold it behind it.
func (j *Journal) countBesideCkpt() {
	if j.ckptBusy {
		j.obs.besideCkpt.Inc()
	}
}

// buildJD allocates journal slots and builds the descriptor+log requests
// (the paper's JD chunk) and the commit request (JC) for t, tagged with t's
// trace, whose journal-dispatch stage starts now. The requests come from
// the journal's pool; the engine releases them at its last use (after the
// commit wait, or at completion for Dual-Mode's unwaited writes).
func (j *Journal) buildJD(p *sim.Proc, t *Txn) (jd []*block.Request, jc *block.Request) {
	n := len(t.frozen)
	t.trace.StampChain(reqtrace.StageJournalDispatch, p.Now())
	desc := j.req(block.RoleSync)
	desc.Op, desc.LPA = block.OpWrite, j.slotLPA(j.head)
	desc.Data = j.descs.New(DescBlock{TxnID: t.id, N: n})
	j.head++
	jd = append(t.jd[:0], desc)
	for i := range t.frozen {
		r := j.req(block.RoleSync)
		r.Op, r.LPA = block.OpWrite, j.slotLPA(j.head)
		r.Data = &t.frozen[i]
		jd = append(jd, r)
		j.head++
	}
	t.jd = jd
	jc = j.req(block.RoleSync)
	jc.Op, jc.LPA = block.OpWrite, j.slotLPA(j.head)
	jc.Data = j.commits.New(CommitBlock{TxnID: t.id, N: n})
	j.head++
	for _, r := range jd {
		r.Trace = t.trace
	}
	jc.Trace = t.trace
	j.stats.PagesLogged += int64(n + 2)
	return jd, jc
}

// releaseReqs drops the journal's hold on fully waited-on requests.
func (j *Journal) releaseReqs(reqs []*block.Request) {
	for _, r := range reqs {
		r.Release()
	}
}

// releaseDone is the OnComplete of a request nothing waits on: completion
// ends the journal's use of it.
func releaseDone(_ sim.Time, r *block.Request) { r.Release() }

// jcDone is every Dual-Mode JC's OnComplete. Its commit record names the
// transaction, which releases its frozen buffers now and stays committing
// until the flush thread, which this queues it for, retires it. The
// release is safe before the flush: freeze copied every buffer into the
// JD, and the next transaction's JD and JC are epoch-ordered after this JC.
func (j *Journal) jcDone(_ sim.Time, r *block.Request) {
	id := r.Data.(*CommitBlock).TxnID
	for _, t := range j.committing {
		if t.id == id {
			t.jcTransferred = true
			j.releaseBuffers(t)
			j.flushQ.Put(t)
		}
	}
	j.jcCond.Broadcast()
	r.Release()
}

// --- the control plane: one commit loop for every engine ---

// commitThread commits transactions in queue order. Everything but the
// dispatch of JD and JC is the same for every engine: freeze, the
// ordered-mode data wait, the journal-space reservation and the Committed
// transition. The engine then decides when a committed transaction becomes
// durable: a barrier-mounted JBD2 at once, Dual-Mode at its flush thread's
// flush, OptFS at its delayed flush or a dsync-style waiter's, a nobarrier
// mount never (it retires at commit completion).
func (j *Journal) commitThread(p *sim.Proc) {
	submitWaitAll := j.chunkWaiter(p)
	onJC := j.jcDone // every Dual-Mode JC's OnComplete, bound once
	for {
		t := j.commitQ.Get(p)
		j.k.SpanBegin("jbd", "commit", t.id)
		j.wake(p)
		if t.state == StateRunning {
			// Dual-Mode freezes here, not in closeRunning: the transaction
			// may not commit while the conflict-page list is non-empty
			// (§4.3), and resolved buffers join it while we wait.
			t0 := p.Now()
			for len(j.conflictList) > 0 {
				j.confCond.Wait(p)
				j.wake(p)
			}
			j.obs.conflictWait.Add(int64(p.Now().Sub(t0)))
			j.freeze(t)
		}
		// Ordered mode: D must be transferred before JD is issued. Dual-Mode
		// needs no wait for data on the journal's own stream, which the
		// {D, JD} epoch orders (Eq. 3); data the multi-queue layer spread to
		// another stream is outside that epoch and is waited on like JBD2's.
		for _, d := range t.dataDeps {
			if !d.Completed() && !(j.dual && d.Stream == j.cfg.Stream) {
				d.Wait(p)
				j.wake(p)
			}
		}
		// Nothing reads the list past this wait: the block layer holds
		// what is still in flight, so the transaction lets go of it now.
		j.releaseReqs(t.dataDeps)
		t.dataDeps = t.dataDeps[:0]
		t.pagesUsed = len(t.frozen) + 2
		j.reserve(p, t.pagesUsed)
		jd, jc := j.buildJD(p, t)
		if j.dual {
			// {D, JD} form one epoch and {JC} the next, as ordered barrier
			// writes nothing waits on: completion is their last reference.
			// Ordering is established at dispatch, so fbarrier callers
			// resume before any DMA completes.
			jd[len(jd)-1].Flags |= block.FlagBarrier
			for _, r := range jd {
				r.Flags |= block.FlagOrdered
				r.OnComplete = releaseDone
				j.layer.Submit(p, r)
			}
			jc.Flags |= block.FlagOrdered | block.FlagBarrier
			jc.OnComplete = onJC
			j.countBesideCkpt()
			j.layer.Submit(p, jc)
		} else {
			// Wait-on-Transfer orders JD before JC. A barrier-mounted JBD2
			// sends JC with FLUSH|FUA, compressing flush→JC→flush (§2.3), so
			// its completion means durable; under nobarrier and on OptFS it
			// only means transferred, and nothing flushes on this path.
			submitWaitAll(jd)
			if j.fuaCommit {
				jc.Flags |= block.FlagFlush | block.FlagFUA
				j.stats.Flushes++
				j.obs.flushCommit.Inc()
				t.preflushed = true
			}
			j.countBesideCkpt()
			submitWaitAll([]*block.Request{jc})
			j.releaseReqs(jd)
			jc.Release()
			t.jcTransferred = true
			j.jcCond.Broadcast()
		}
		j.reach(t, StateCommitted)
		if j.fuaCommit {
			j.reach(t, StateDurable)
		}
		j.stats.Commits++
		j.obs.commits.Inc()
		j.k.SpanEnd("jbd", "commit", t.id)
		if t.forced && len(t.frozen) == 0 {
			j.stats.EmptyCommits++
		}
		switch {
		case j.lazy:
			j.optfsCond.Broadcast()
		case !j.dual:
			j.finishTxn(t)
		}
	}
}

// --- the data planes: when a committed transaction becomes durable ---

// retire makes durable the committed transactions up to last, with one
// flush: the Dual-Mode flush thread's, WaitTxn's on a retired transaction
// and OptFS's retirers'. Its coverage is fixed when it is called: last
// drops to the newest transaction committed by then (a Dual-Mode one is
// committed once its JC is submitted). It waits until every committing
// transaction up to last has its JC transferred, then flushes on the
// journal's flush domain (block.RoleFlush), so the flush never holds
// back the next commit's JD and JC or the application's ordered writes
// while the cache drains. A JC that transfers during the flush rides
// beside it, maybe not covered, so retire credits exactly the transactions
// up to last. why counts the flush by trigger.
func (j *Journal) retire(p *sim.Proc, last uint64, why *metrics.Counter) {
	last = min(last, j.newestCommitted())
	t0 := p.Now()
	for j.jcPending(last) {
		j.jcCond.Wait(p)
		j.wake(p)
	}
	j.obs.retireWait.Add(int64(p.Now().Sub(t0)))
	j.flush(p, block.RoleFlush, why)
	// finishTxn unlinks c: step only past those left. Re-check each: another
	// retirer (reserve, a dsync waiter, the delayed-flush daemon) may have
	// retired c during the flush, and finishing it twice would double-credit
	// its pages.
	for n := 0; n < len(j.committing); {
		c := j.committing[n]
		if c.state != StateCommitted || c.id > last {
			n++
			continue
		}
		j.reach(c, StateDurable)
		j.finishTxn(c)
		j.obs.retireTxns.Inc()
	}
}

// jcPending reports whether a committing transaction up to last still
// waits for its JC's transfer.
func (j *Journal) jcPending(last uint64) bool {
	for _, c := range j.committing {
		if c.id <= last && !c.jcTransferred {
			return true
		}
	}
	return false
}

// dualFlushThread is Dual-Mode's data plane, triggered as each JC finishes
// its transfer. A durability-seeking transaction gets a flush (retire),
// which makes durable every transaction committed when it was issued; an
// ordering-only one leaves the committing list without a flush. Neither
// gates the next commit: jcDone already resolved their page conflicts
// (§4.3), and the flush rides a stream of its own.
func (j *Journal) dualFlushThread(p *sim.Proc) {
	for {
		t := j.flushQ.Get(p)
		j.wake(p)
		if t.state >= StateDurable {
			continue
		}
		if !t.wantDurable {
			j.finishTxn(t)
			continue
		}
		prev := reqtrace.With(p, t.trace)
		j.retire(p, ^uint64(0), j.obs.flushRetire)
		reqtrace.With(p, prev)
	}
}

// optfsDelayedFlush provides OptFS's delayed durability: committed
// transactions are made durable by a flush no later than FlushInterval
// after they commit. The timer is armed only while work is pending, so an
// idle journal generates no events. A blocking proc on every kernel: it
// fires once per FlushInterval by design.
func (j *Journal) optfsDelayedFlush(p *sim.Proc) {
	for {
		if j.newestCommitted() == 0 {
			j.optfsCond.Wait(p)
			continue
		}
		p.Sleep(j.cfg.FlushInterval)
		j.retireCommitted(p)
	}
}

// retireCommitted retires every transaction committed so far, the
// delayed-durability step of OptFS, also invoked directly under
// journal-space pressure and by dsync-style waiters. One that commits
// during the flush is not covered by it.
func (j *Journal) retireCommitted(p *sim.Proc) {
	if last := j.newestCommitted(); last != 0 {
		j.retire(p, last, j.obs.flushRetire)
	}
}

// newestCommitted returns the newest committed, not durable transaction id
// (0: none). Commits go in id order, so a flush now covers those up to it.
func (j *Journal) newestCommitted() (id uint64) {
	for _, c := range j.committing {
		if c.state == StateCommitted {
			id = c.id
		}
	}
	return id
}

// --- shared transaction retirement and checkpointing ---

// finishTxn removes t from the committing list, releases its frozen
// buffers, hands its scratch to the next transaction and queues it for
// checkpointing. Dual-Mode already released the buffers at its JC transfer
// (jcDone), so its flush thread does not gate the next commit (§4.3) and
// the release here finds nothing left to do. t may not be durable yet; its
// waiters stay parked on the journal.
func (j *Journal) finishTxn(t *Txn) {
	t.retired = true
	for i, c := range j.committing {
		if c == t {
			j.committing = append(j.committing[:i], j.committing[i+1:]...)
			break
		}
	}
	j.releaseBuffers(t)
	t.buffers, t.jd = t.buffers[:0], t.jd[:0]
	j.spare = append(j.spare, t.txnScratch)
	t.txnScratch = txnScratch{}
	j.ckptQ = append(j.ckptQ, t)
	j.obs.ckptBacklog.Set(int64(len(j.ckptQ)))
	j.ckptCond.Broadcast()
}

// releaseBuffers ends t's hold on its frozen buffers and moves the buffers
// parked on the conflict-page list while t held them to the running
// transaction (§4.3).
func (j *Journal) releaseBuffers(t *Txn) {
	for _, b := range t.buffers {
		if b.owner == t {
			b.owner = nil
		}
	}
	if len(j.conflictList) > 0 {
		kept := j.conflictList[:0]
		for _, b := range j.conflictList {
			if b.owner == nil || b.owner == t {
				b.owner = nil
				b.conflict = false
				b.inRunning = true
				j.running.buffers = append(j.running.buffers, b)
				continue
			}
			kept = append(kept, b)
		}
		j.conflictList = kept
		if len(j.conflictList) == 0 {
			j.confCond.Broadcast()
		}
	}
}

// checkpointThread writes committed metadata to its home location and
// advances the journal tail, reclaiming journal space. As in jbd2, it runs
// only when the journal runs short of space: a reservation that takes free
// pages below CheckpointLow, or a commit waiting in reserve for more than
// is free, wakes it, and each run writes home every transaction retired by
// then. A run costs two cache flushes, the home writes and a FUA
// superblock, and on a device whose flush programs the cache it sets the
// fsync tail; on the default journal one comes every 2 048 single-block
// commits (TestCheckpointOnlyUnderSpacePressure). All its IO rides the
// domain derived from the journal's stream (block.RoleCheckpoint): on the
// journal's stream its flushes and FUA superblock write would hold back
// every later commit-path write for up to a whole program. No phase relies
// on stream order: each waits for the one before it, the batch's JD and JC
// completed before the checkpoint began, and a flush covers the whole
// cache whatever its stream.
func (j *Journal) checkpointThread(p *sim.Proc) {
	submitWaitAll := j.chunkWaiter(p)
	// Reused by every batch: the queue alternates between batch and spare.
	homes := make(map[uint64]*block.Request)
	var spare []*Txn
	var reqs []*block.Request
	for {
		// Sleep while free space clears the low-water mark and any waiting
		// reservation (see reserve).
		for len(j.ckptQ) == 0 || j.freePages >= max(j.cfg.CheckpointLow, j.short) {
			j.ckptCond.Wait(p)
			j.wake(p)
		}
		batch := j.ckptQ
		j.ckptQ = spare
		j.obs.ckptBacklog.Set(0)
		// 1. The journal copies must be durable before homes are
		//    overwritten, or a crash could destroy the only good copy.
		j.ckptBusy = true
		j.ckptFlush(p)
		for _, t := range batch {
			if t.state < StateDurable {
				j.reach(t, StateDurable)
			}
		}
		// 2. In-place writes: one per home, newest snapshot wins.
		clear(homes)
		reqs = reqs[:0]
		for _, t := range batch {
			for _, l := range t.frozen {
				r := homes[l.Home]
				if r == nil {
					r = j.req(block.RoleCheckpoint)
					r.Op, r.LPA = block.OpWrite, l.Home
					homes[l.Home] = r
					reqs = append(reqs, r)
				}
				r.Data = l.Snapshot
			}
		}
		submitWaitAll(reqs)
		j.releaseReqs(reqs)
		// 3. Make the in-place copies durable, then advance the tail.
		j.ckptFlush(p)
		j.tailTxn = batch[len(batch)-1].id + 1
		sb := j.req(block.RoleCheckpoint)
		sb.Op, sb.LPA = block.OpWrite, j.cfg.SuperLPA
		sb.Data = j.supers.New(SuperBlock{TailTxn: j.tailTxn})
		sb.Flags = block.FlagFUA
		submitWaitAll([]*block.Request{sb})
		sb.Release()
		j.ckptBusy = false
		for _, t := range batch {
			j.freePages += t.pagesUsed
		}
		spare = batch[:0]
		j.stats.Checkpoints++
		j.obs.checkpoints.Inc()
		j.obs.ckptTxns.Add(int64(len(batch)))
		j.spaceCond.Broadcast()
	}
}
