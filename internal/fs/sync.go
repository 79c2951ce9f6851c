package fs

import (
	"repro/internal/block"
	"repro/internal/jbd"
	"repro/internal/sim"
)

// noopSpanEnd is the shared free closer syncCall hands out with spans off,
// so the disabled path allocates nothing.
var noopSpanEnd = func() {}

// syncCall charges one sync-family syscall, counts it in *n, and opens its
// trace span, returning the span's closer; a per-FS call sequence
// correlates begin and end.
func (f *FS) syncCall(p *sim.Proc, n *int64, name string) func() {
	f.cpu(p)
	*n++
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
	defer f.syncCall(p, &f.stats.Fsyncs, "fsync")()
	f.sync(p, i, false)
}

// Fdatasync is fsync without the timestamp-only metadata commit: it commits
// the journal only when block allocation or size changed.
func (f *FS) Fdatasync(p *sim.Proc, i *Inode) {
	defer f.syncCall(p, &f.stats.Fdatasyncs, "fdatasync")()
	f.sync(p, i, true)
}

// sync is the durability path of the sync calls; datasync skips a commit of
// timestamp-only metadata. The caller's trace context (reqtrace.Of) rides
// its data writes, journal transaction and flush.
func (f *FS) sync(p *sim.Proc, i *Inode, datasync bool) {
	// The one commit decision. An allocation frozen into another caller's
	// commit is no longer pending, but that commit may not have reached the
	// device yet: wait for it too (ext4's wait on i_datasync_tid).
	commitMeta := (i.MetaPending() && (!datasync || i.allocDirty)) || (i.allocDirty && i.buf.Frozen())
	// Background writeback that the multi-queue layer moved off stream 0 is
	// outside the flush/barrier ordering domain: wait on it explicitly.
	f.waitCrossStream(p, i)
	switch f.opts.Journal.Mode {
	case jbd.ModeDual:
		if commitMeta && i.MetaPending() {
			// D as ordered writes — no Wait-on-Transfer. The JD of the
			// transaction this commits closes the {D, JD} epoch (Eq. 3).
			f.release(i, f.writeback(p, i, block.FlagOrdered, false))
			f.j.CommitAndWait(p)
			i.allocDirty = false
			return
		}
		// fdatasync path: D closed by a barrier, then a device flush. If
		// there is nothing dirty at all, force an (empty) journal commit to
		// delimit an epoch (§4.2) and wait for it durably.
		plan := f.writeback(p, i, block.FlagOrdered, true)
		if len(plan.reqs) == 0 {
			f.release(i, plan)
			if t := f.j.CommitOrdering(p, true); t != nil {
				f.j.WaitTxn(p, t)
			}
		} else {
			f.waitAll(p, i, plan)
			f.layer.Flush(p)
			f.wake(p)
		}
		if commitMeta {
			// The allocation rides a commit that may already be past its JD
			// and flush, so neither covers D: D took the path above, and
			// the sync waits for that commit on top.
			f.j.WaitFrozen(p, i.buf)
			i.allocDirty = false
		}
	case jbd.ModeOptFS:
		plan := f.writeback(p, i, 0, false)
		f.waitAll(p, i, plan)
		if commitMeta {
			f.j.CommitOrdering(p, false)
			i.allocDirty = false
		}
		// Durability on OptFS: an explicit flush (dsync-like).
		f.layer.Flush(p)
		f.wake(p)
	default: // JBD2 / EXT4
		plan := f.writeback(p, i, 0, false)
		f.waitAll(p, i, plan) // Wait-on-Transfer (wake-up #1)
		if commitMeta {
			f.j.CommitAndWait(p) // transfer-and-flush commit (wake-up #2)
			i.allocDirty = false
			return
		}
		if f.opts.Journal.BarrierMount {
			f.layer.Flush(p) // wake-up #2
			f.wake(p)
		}
	}
}

// Fbarrier is the ordering-guarantee-only fsync (§4.1): it writes dirty
// pages, triggers a journal commit and returns without persisting anything.
// On the OptFS engine this is osync(). On a JBD2 mount it falls back to
// fsync with the mount's durability semantics.
func (f *FS) Fbarrier(p *sim.Proc, i *Inode) {
	defer f.syncCall(p, &f.stats.Fbarriers, "fbarrier")()
	f.waitCrossStream(p, i)
	switch f.opts.Journal.Mode {
	case jbd.ModeDual:
		if i.MetaPending() {
			f.release(i, f.writeback(p, i, block.FlagOrdered, false))
			f.j.CommitOrdering(p, false) // returns at JC dispatch
			i.allocDirty = false
			return
		}
		// No metadata: serviced as fdatabarrier (usually zero wake-ups).
		f.fdatabarrierDual(p, i)
	case jbd.ModeOptFS:
		// osync(): ordering via Wait-on-Transfer, no flush.
		plan := f.writeback(p, i, 0, false)
		f.waitAll(p, i, plan)
		if i.MetaPending() {
			f.j.CommitOrdering(p, false)
			i.allocDirty = false
		}
	default:
		f.sync(p, i, false)
	}
}

// Fdatabarrier enforces the storage order between preceding and following
// writes with no durability wait, no flush, and no Wait-on-Transfer — the
// storage analogue of a memory barrier (§4.1). Only meaningful on the
// Dual-Mode engine; other engines approximate it with their strongest
// cheap primitive.
func (f *FS) Fdatabarrier(p *sim.Proc, i *Inode) {
	defer f.syncCall(p, &f.stats.Fdatabarriers, "fdatabarrier")()
	f.waitCrossStream(p, i)
	switch f.opts.Journal.Mode {
	case jbd.ModeDual:
		f.fdatabarrierDual(p, i)
	case jbd.ModeOptFS:
		// osync: write data (Wait-on-Transfer) and commit the journal —
		// journaled pages (selective data journaling) only reach the device
		// through the commit.
		plan := f.writeback(p, i, 0, false)
		f.waitAll(p, i, plan)
		f.j.CommitOrdering(p, false)
	default:
		// fdatasync's semantics under this call's one syscall charge and span.
		f.sync(p, i, true)
	}
}

func (f *FS) fdatabarrierDual(p *sim.Proc, i *Inode) {
	plan := f.writeback(p, i, block.FlagOrdered, true)
	if len(plan.reqs) == 0 {
		// Delimit the epoch through a forced (possibly empty) commit; do
		// not wait for anything beyond the commit dispatch.
		f.j.CommitOrdering(p, true)
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
		plan := f.writeback(p, i, 0, false)
		f.waitAll(p, i, plan)
	}
	f.j.CommitAndWait(p)
	f.layer.Flush(p)
	f.wake(p)
}
