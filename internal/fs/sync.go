package fs

import (
	"repro/internal/block"
	"repro/internal/jbd"
	"repro/internal/reqtrace"
	"repro/internal/sim"
)

// noopSpanEnd is the shared free closer syncSpan hands out with spans off,
// so the disabled path allocates nothing.
var noopSpanEnd = func() {}

// syncSpan opens a trace span for one sync-family call and returns its
// closer, correlating begin and end through a per-FS call sequence.
func (f *FS) syncSpan(name string) func() {
	if f.k.Spans() == nil {
		return noopSpanEnd
	}
	f.obs.syncSeq++
	id := f.obs.syncSeq
	f.k.SpanBegin("fs", name, id)
	return func() { f.k.SpanEnd("fs", name, id) }
}

// Fsync makes the file durable: data, then the journal transaction that
// covers its metadata. The blocking structure differs per engine exactly as
// in the paper's Fig. 7:
//
//   - EXT4/JBD2: wait for D's transfer, then wait for the JBD thread's
//     transfer-and-flush commit (two application wake-ups);
//   - BarrierFS/Dual: dispatch D as order-preserving writes without
//     waiting, then wait once for the flush thread (one wake-up);
//   - when the inode has no uncommitted metadata, fsync degrades to
//     fdatasync (the Fig. 11 jiffy effect).
func (f *FS) Fsync(p *sim.Proc, i *Inode) {
	f.cpu(p)
	f.stats.Fsyncs++
	defer f.syncSpan("fsync")()
	f.sync(p, i, i.MetaPending(), reqtrace.Ctx{})
}

// Fdatasync is fsync without the timestamp-only metadata commit: it commits
// the journal only when block allocation or size changed.
func (f *FS) Fdatasync(p *sim.Proc, i *Inode) { f.FdatasyncT(p, i, reqtrace.Ctx{}) }

// FdatasyncT is Fdatasync carrying a request-trace context: the context
// rides the data writes, the journal transaction and any flush so the
// durability window can be attributed stage by stage. A zero context makes
// this identical to Fdatasync.
func (f *FS) FdatasyncT(p *sim.Proc, i *Inode, tc reqtrace.Ctx) {
	f.cpu(p)
	f.stats.Fdatasyncs++
	defer f.syncSpan("fdatasync")()
	f.sync(p, i, i.allocDirty && i.MetaPending(), tc)
}

func (f *FS) sync(p *sim.Proc, i *Inode, commitMeta bool, tc reqtrace.Ctx) {
	// Background writeback that the multi-queue layer moved off stream 0 is
	// outside the flush/barrier ordering domain: wait on it explicitly.
	f.waitCrossStream(p, i)
	switch f.opts.Journal.Mode {
	case jbd.ModeDual:
		if commitMeta {
			// D as ordered writes — no Wait-on-Transfer. The commit thread's
			// JD closes the {D, JD} epoch (Eq. 3).
			f.release(i, f.writeback(p, i, block.FlagOrdered, false, tc))
			f.j.CommitAndWaitT(p, tc)
			i.allocDirty = false
			return
		}
		// fdatasync path: D closed by a barrier, then a device flush. If
		// there is nothing dirty at all, force an (empty) journal commit to
		// delimit an epoch (§4.2) and wait for it durably.
		plan := f.writeback(p, i, block.FlagOrdered, true, tc)
		if len(plan.reqs) == 0 {
			f.release(i, plan)
			t := f.j.CommitOrderingT(p, true, tc)
			if t != nil {
				f.j.WaitTxn(p, t)
			}
			return
		}
		f.waitAll(p, i, plan)
		f.layer.FlushT(p, tc)
		f.wake(p)
	case jbd.ModeOptFS:
		plan := f.writeback(p, i, 0, false, tc)
		f.waitAll(p, i, plan)
		if commitMeta {
			f.j.CommitOrderingT(p, false, tc)
			i.allocDirty = false
		}
		// Durability on OptFS: an explicit flush (dsync-like).
		f.layer.FlushT(p, tc)
		f.wake(p)
	default: // JBD2 / EXT4
		plan := f.writeback(p, i, 0, false, tc)
		f.waitAll(p, i, plan) // Wait-on-Transfer (wake-up #1)
		if commitMeta {
			f.j.CommitAndWaitT(p, tc) // transfer-and-flush commit (wake-up #2)
			i.allocDirty = false
			return
		}
		if f.opts.Journal.BarrierMount {
			f.layer.FlushT(p, tc) // wake-up #2
			f.wake(p)
		}
	}
}

// Fbarrier is the ordering-guarantee-only fsync (§4.1): it writes dirty
// pages, triggers a journal commit and returns without persisting anything.
// On the OptFS engine this is osync(). On a JBD2 mount it falls back to
// fsync with the mount's durability semantics.
func (f *FS) Fbarrier(p *sim.Proc, i *Inode) {
	f.cpu(p)
	f.stats.Fbarriers++
	defer f.syncSpan("fbarrier")()
	f.waitCrossStream(p, i)
	switch f.opts.Journal.Mode {
	case jbd.ModeDual:
		if i.MetaPending() {
			f.release(i, f.writeback(p, i, block.FlagOrdered, false, reqtrace.Ctx{}))
			f.j.CommitOrdering(p, false) // returns at JC dispatch
			i.allocDirty = false
			return
		}
		// No metadata: serviced as fdatabarrier (usually zero wake-ups).
		f.fdatabarrierDual(p, i, reqtrace.Ctx{})
	case jbd.ModeOptFS:
		// osync(): ordering via Wait-on-Transfer, no flush.
		plan := f.writeback(p, i, 0, false, reqtrace.Ctx{})
		f.waitAll(p, i, plan)
		if i.MetaPending() {
			f.j.CommitOrdering(p, false)
			i.allocDirty = false
		}
	default:
		f.sync(p, i, i.MetaPending(), reqtrace.Ctx{})
	}
}

// Fdatabarrier enforces the storage order between preceding and following
// writes with no durability wait, no flush, and no Wait-on-Transfer — the
// storage analogue of a memory barrier (§4.1). Only meaningful on the
// Dual-Mode engine; other engines approximate it with their strongest
// cheap primitive.
func (f *FS) Fdatabarrier(p *sim.Proc, i *Inode) { f.FdatabarrierT(p, i, reqtrace.Ctx{}) }

// FdatabarrierT is Fdatabarrier carrying a request-trace context. On the
// Dual-Mode engine the call returns at dispatch, so the context's
// device-side stamps land later, when the order-preserving writes are
// serviced. A zero context makes this identical to Fdatabarrier.
func (f *FS) FdatabarrierT(p *sim.Proc, i *Inode, tc reqtrace.Ctx) {
	f.cpu(p)
	f.stats.Fdatabarriers++
	defer f.syncSpan("fdatabarrier")()
	f.waitCrossStream(p, i)
	switch f.opts.Journal.Mode {
	case jbd.ModeDual:
		f.fdatabarrierDual(p, i, tc)
	case jbd.ModeOptFS:
		// osync: write data (Wait-on-Transfer) and commit the journal —
		// journaled pages (selective data journaling) only reach the device
		// through the commit.
		plan := f.writeback(p, i, 0, false, tc)
		f.waitAll(p, i, plan)
		f.j.CommitOrderingT(p, false, tc)
	default:
		// fdatasync's semantics under this call's one syscall charge and span.
		f.sync(p, i, i.allocDirty && i.MetaPending(), tc)
	}
}

func (f *FS) fdatabarrierDual(p *sim.Proc, i *Inode, tc reqtrace.Ctx) {
	plan := f.writeback(p, i, block.FlagOrdered, true, tc)
	if len(plan.reqs) == 0 {
		// Delimit the epoch through a forced (possibly empty) commit; do
		// not wait for anything beyond the commit dispatch.
		f.j.CommitOrderingT(p, true, tc)
	}
	f.release(i, plan)
}

// SyncFS flushes everything: all dirty files, a journal commit and a device
// flush. Used by tests and orderly shutdown.
func (f *FS) SyncFS(p *sim.Proc) {
	// inodeList, not the inode map: map iteration order would make the
	// writeback order — and the whole dispatch trace — nondeterministic.
	for _, i := range f.inodeList {
		f.waitCrossStream(p, i)
		plan := f.writeback(p, i, 0, false, reqtrace.Ctx{})
		f.waitAll(p, i, plan)
	}
	f.j.CommitAndWait(p)
	f.layer.Flush(p)
	f.wake(p)
}
