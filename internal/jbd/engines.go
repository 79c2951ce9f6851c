package jbd

import (
	"repro/internal/block"
	"repro/internal/reqtrace"
	"repro/internal/sim"
)

// On-disk journal record payloads (stored as page data). Journal pages hold
// DescBlock, LogBlock and CommitBlock by pointer, carved and never rewritten.

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

// SuperBlock records the checkpoint tail.
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

// newReq draws a pooled request tagged with the journal's order stream.
// Every request the journal issues goes through here so the whole journal
// (JD/JC, delayed flushes, checkpoint copies, superblock) stays inside its
// configured ordering domain.
func (j *Journal) newReq() *block.Request {
	r := j.reqPool.Get()
	r.Stream = j.cfg.Stream
	return r
}

// buildJD allocates journal slots and builds the descriptor+log requests
// (the paper's JD chunk) and the commit request (JC) for t. The requests
// come from the journal's pool; each engine releases them at its last use
// (after the commit wait, or at completion for Dual-Mode's unwaited JD).
func (j *Journal) buildJD(t *Txn) (jd []*block.Request, jc *block.Request) {
	n := len(t.frozen)
	desc := j.newReq()
	desc.Op, desc.LPA = block.OpWrite, j.slotLPA(j.head)
	desc.Data = j.descs.New(DescBlock{TxnID: t.id, N: n})
	j.head++
	jd = append(t.jd[:0], desc)
	for i := range t.frozen {
		r := j.newReq()
		r.Op, r.LPA = block.OpWrite, j.slotLPA(j.head)
		r.Data = &t.frozen[i]
		jd = append(jd, r)
		j.head++
	}
	t.jd = jd
	jc = j.newReq()
	jc.Op, jc.LPA = block.OpWrite, j.slotLPA(j.head)
	jc.Data = j.commits.New(CommitBlock{TxnID: t.id, N: n})
	j.head++
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
// transaction, which stays committing until the flush this queues it for.
func (j *Journal) jcDone(_ sim.Time, r *block.Request) {
	id := r.Data.(*CommitBlock).TxnID
	for _, t := range j.committing {
		if t.id == id {
			t.jcTransferred = true
			j.flushQ.Put(t)
		}
	}
	r.Release()
}

// --- JBD2: the EXT4 transfer-and-flush engine (§2.3) ---

func (j *Journal) jbd2Thread(p *sim.Proc) {
	submitWaitAll := j.chunkWaiter(p)
	for {
		t := j.commitQ.Get(p)
		j.k.SpanBegin("jbd", "commit", t.id)
		j.wake(p)
		// Ordered mode: D must be fully transferred before JD is issued.
		for _, d := range t.dataDeps {
			if !d.Completed() {
				d.Wait(p)
				j.wake(p)
			}
		}
		t.pagesUsed = len(t.frozen) + 2
		j.reserve(p, t.pagesUsed)
		jd, jc := j.buildJD(t)
		t.trace.StampChain(reqtrace.StageJournalDispatch, p.Now())
		for _, r := range jd {
			r.Trace = t.trace
		}
		jc.Trace = t.trace
		// JD: write and Wait-on-Transfer.
		submitWaitAll(jd)
		// JC: FLUSH|FUA compresses flush→JC→flush (§2.3); completion means
		// the transaction is durable. Under nobarrier, a plain write whose
		// completion only means "transferred".
		if j.cfg.BarrierMount {
			jc.Flags |= block.FlagFlush | block.FlagFUA
			j.stats.Flushes++
		}
		submitWaitAll([]*block.Request{jc})
		j.releaseReqs(jd)
		jc.Release()
		t.jcTransferred = true
		t.state = StateCommitted
		t.wakeCommitted()
		if j.cfg.BarrierMount {
			t.state = StateDurable
			t.wakeDurable()
		}
		j.stats.Commits++
		j.obs.commits.Inc()
		j.k.SpanEnd("jbd", "commit", t.id)
		if t.forced && len(t.frozen) == 0 {
			j.stats.EmptyCommits++
		}
		j.finishTxn(t)
	}
}

// --- Dual-Mode journaling: BarrierFS (§4.2) ---

// dualCommitThread is the control plane: it dispatches JD and JC as ordered
// barrier writes and immediately moves on, so multiple transactions commit
// concurrently. {D, JD} form one epoch; {JC} forms the next (Eq. 3).
func (j *Journal) dualCommitThread(p *sim.Proc) {
	onJC := j.jcDone // every JC's OnComplete, bound once
	for {
		t := j.commitQ.Get(p)
		j.k.SpanBegin("jbd", "commit", t.id)
		j.wake(p)
		// The running transaction may not commit while the conflict-page
		// list is non-empty (§4.3); resolved buffers join t while we wait.
		for len(j.conflictList) > 0 {
			j.confCond.Wait(p)
			j.wake(p)
		}
		j.freeze(t)
		// Ordered-mode data riding another stream (background writeback the
		// multi-queue layer spread off the journal's stream) is outside this
		// journal's ordering domain: the {D, JD} epoch cannot cover it, so
		// fall back to Wait-on-Transfer for exactly those requests. Data on
		// the journal's own stream stays wait-free — the JD barrier orders
		// it (Eq. 3), which is the single-queue behaviour unchanged.
		for _, d := range t.dataDeps {
			if d.Stream != j.cfg.Stream && !d.Completed() {
				d.Wait(p)
				j.wake(p)
			}
		}
		t.pagesUsed = len(t.frozen) + 2
		j.reserve(p, t.pagesUsed)
		jd, jc := j.buildJD(t)
		t.trace.StampChain(reqtrace.StageJournalDispatch, p.Now())
		jc.Trace = t.trace
		for i, r := range jd {
			r.Trace = t.trace
			r.Flags |= block.FlagOrdered
			if i == len(jd)-1 {
				// The tail of the JD chunk closes the {D, JD} epoch.
				r.Flags |= block.FlagBarrier
			}
			// Nothing waits on a Dual-Mode JD write: completion is its last
			// reference, so it recycles itself there.
			r.OnComplete = releaseDone
			j.layer.Submit(p, r)
		}
		jc.Flags |= block.FlagOrdered | block.FlagBarrier
		jc.OnComplete = onJC
		j.layer.Submit(p, jc)
		// Ordering is established at dispatch: fbarrier callers resume here,
		// before any DMA completes.
		t.state = StateCommitted
		t.wakeCommitted()
		j.stats.Commits++
		j.obs.commits.Inc()
		j.k.SpanEnd("jbd", "commit", t.id)
		if t.forced && len(t.frozen) == 0 {
			j.stats.EmptyCommits++
		}
	}
}

// dualFlushThread is the data plane: triggered as each JC finishes its
// transfer. It issues the flush for durability-seeking transactions and
// resolves page conflicts (§4.3). Ordering-only transactions pass through
// without a flush.
func (j *Journal) dualFlushThread(p *sim.Proc) {
	for {
		t := j.flushQ.Get(p)
		j.wake(p)
		if t.state >= StateDurable {
			continue
		}
		if t.wantDurable {
			prev := reqtrace.With(p, t.trace)
			j.layer.Flush(p)
			reqtrace.With(p, prev)
			j.wake(p)
			j.stats.Flushes++
			// The flush persisted every transfer before it: all transactions
			// whose JC was transferred are now durable. finishTxn unlinks c
			// from the committing list: step only past those left there.
			for n := 0; n < len(j.committing); {
				c := j.committing[n]
				if !c.jcTransferred || c.state >= StateDurable {
					n++
					continue
				}
				c.state = StateDurable
				c.wakeDurable()
				j.finishTxn(c)
			}
		} else {
			// fbarrier: remove from the committing list without flushing.
			j.finishTxn(t)
		}
	}
}

// --- OptFS: osync() via Wait-on-Transfer (§7) ---

func (j *Journal) optfsCommitThread(p *sim.Proc) {
	submitWaitAll := j.chunkWaiter(p)
	for {
		t := j.commitQ.Get(p)
		j.k.SpanBegin("jbd", "commit", t.id)
		j.wake(p)
		for _, d := range t.dataDeps {
			if !d.Completed() {
				d.Wait(p)
				j.wake(p)
			}
		}
		t.pagesUsed = len(t.frozen) + 2
		j.reserve(p, t.pagesUsed)
		jd, jc := j.buildJD(t)
		t.trace.StampChain(reqtrace.StageJournalDispatch, p.Now())
		for _, r := range jd {
			r.Trace = t.trace
		}
		jc.Trace = t.trace
		// OptFS preserves the JD→JC order with Wait-on-Transfer, not
		// barriers, and never flushes on the commit path.
		submitWaitAll(jd)
		submitWaitAll([]*block.Request{jc})
		j.releaseReqs(jd)
		jc.Release()
		t.jcTransferred = true
		t.state = StateCommitted
		t.wakeCommitted()
		j.stats.Commits++
		j.obs.commits.Inc()
		j.k.SpanEnd("jbd", "commit", t.id)
		j.optfsCond.Broadcast()
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

// retireCommitted flushes the device and retires every committed
// transaction: the delayed-durability step of OptFS, also invoked directly
// under journal-space pressure and by dsync-style waiters.
func (j *Journal) retireCommitted(p *sim.Proc) {
	last := j.newestCommitted()
	if last == 0 {
		return
	}
	j.layer.Flush(p)
	j.wake(p)
	j.stats.Flushes++
	// finishTxn unlinks c: step only past those left. Re-check each: another
	// retirer (reserve, a dsync waiter, the delayed-flush daemon) may have
	// retired c during the flush, and finishing it twice would double-credit
	// its pages; one that committed during the flush is not covered by it.
	for n := 0; n < len(j.committing); {
		c := j.committing[n]
		if c.state != StateCommitted || c.id > last {
			n++
			continue
		}
		c.state = StateDurable
		c.wakeDurable()
		j.finishTxn(c)
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
// buffers (resolving Dual-Mode conflict pages into the running
// transaction), and queues it for checkpointing.
func (j *Journal) finishTxn(t *Txn) {
	t.retired = true
	for i, c := range j.committing {
		if c == t {
			j.committing = append(j.committing[:i], j.committing[i+1:]...)
			break
		}
	}
	for _, b := range t.buffers {
		if b.owner == t {
			b.owner = nil
		}
	}
	for _, d := range t.dataDeps {
		d.Release()
	}
	// Conflict-page list: buffers parked while t held them move to the
	// running transaction now (§4.3).
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
	j.ckptQ = append(j.ckptQ, t)
	j.obs.ckptBacklog.Set(int64(len(j.ckptQ)))
	j.ckptCond.Broadcast()
}

// checkpointThread writes committed metadata to its home location and
// advances the journal tail, reclaiming journal space.
func (j *Journal) checkpointThread(p *sim.Proc) {
	submitWaitAll := j.chunkWaiter(p)
	// Reused by every batch: the queue alternates between batch and spare.
	homes := make(map[uint64]*block.Request)
	var spare []*Txn
	var reqs []*block.Request
	for {
		// Sleep while free space clears the low-water mark and any waiting
		// reservation (see reserve).
		for len(j.ckptQ) == 0 || (j.freePages >= max(j.cfg.CheckpointLow, j.short) && len(j.ckptQ) < 64) {
			j.ckptCond.Wait(p)
			j.wake(p)
		}
		batch := j.ckptQ
		j.ckptQ = spare
		j.obs.ckptBacklog.Set(0)
		// 1. The journal copies must be durable before homes are
		//    overwritten, or a crash could destroy the only good copy.
		j.layer.Flush(p)
		j.wake(p)
		for _, t := range batch {
			if t.state < StateDurable {
				t.state = StateDurable
				t.wakeDurable()
			}
		}
		// 2. In-place writes: one per home, newest snapshot wins.
		clear(homes)
		reqs = reqs[:0]
		for _, t := range batch {
			for _, l := range t.frozen {
				r := homes[l.Home]
				if r == nil {
					r = j.newReq()
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
		j.layer.Flush(p)
		j.wake(p)
		j.tailTxn = batch[len(batch)-1].id + 1
		sb := j.newReq()
		sb.Op, sb.LPA = block.OpWrite, j.cfg.SuperLPA
		sb.Data = SuperBlock{TailTxn: j.tailTxn}
		sb.Flags = block.FlagFUA
		submitWaitAll([]*block.Request{sb})
		sb.Release()
		for _, t := range batch {
			j.freePages += t.pagesUsed
			// Nothing reads a checkpointed transaction's lists again.
			t.buffers, t.dataDeps, t.jd = t.buffers[:0], t.dataDeps[:0], t.jd[:0]
			j.spare = append(j.spare, t.txnScratch)
			t.txnScratch = txnScratch{}
		}
		spare = batch[:0]
		j.stats.Checkpoints++
		j.obs.checkpoints.Inc()
		j.spaceCond.Broadcast()
	}
}
