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

// Delivered is what a sync call guaranteed for the file's writes when it
// returned: Durable (served as fdatasync or fsync, with the mount's
// durability), Ordered (they persist before anything submitted after the
// call, and are durable at a later durable sync) or Transferred (they
// reached the device in transfer order, but a volatile cache may persist
// them in any order: OptFS's osync).
type Delivered int

// What a sync call delivered.
const (
	Durable Delivered = iota
	Ordered
	Transferred
)

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
	f.sync(p, i, true, false)
}

// Fdatasync is fsync without the timestamp-only metadata commit: it commits
// the journal only when block allocation or size changed.
func (f *FS) Fdatasync(p *sim.Proc, i *Inode) {
	defer f.syncCall(p, &f.stats.Fdatasyncs, "fdatasync")()
	f.sync(p, i, false, false)
}

// Fbarrier is the ordering-guarantee-only fsync (§4.1): it writes dirty
// pages, triggers a journal commit and returns without persisting anything.
// On the OptFS engine this is osync(). On a JBD2 mount it falls back to
// fsync with the mount's durability semantics.
func (f *FS) Fbarrier(p *sim.Proc, i *Inode) {
	defer f.syncCall(p, &f.stats.Fbarriers, "fbarrier")()
	f.sync(p, i, true, true)
}

// Fdatabarrier enforces the storage order between preceding and following
// writes with no durability wait, no flush, and no Wait-on-Transfer — the
// storage analogue of a memory barrier (§4.1) — and returns what it
// delivered. Only BarrierFS delivers Ordered, and only while the file's
// writes since its last durable sync stayed on the filesystem's order
// stream: writeback the multi-queue layer moved to a data stream is
// outside every barrier, so the call is then served as fdatasync. JBD2
// serves it as fdatasync too, and OptFS as osync.
func (f *FS) Fdatabarrier(p *sim.Proc, i *Inode) Delivered {
	defer f.syncCall(p, &f.stats.Fdatabarriers, "fdatabarrier")()
	return f.sync(p, i, false, true)
}

// sync is the one body of the four sync calls and the one place the
// engine is picked: meta also commits timestamp-only metadata (fsync,
// fbarrier), ordered asks for ordering alone (fbarrier, fdatabarrier). The
// caller's trace context (reqtrace.Of) rides its data writes, journal
// transaction and flush.
func (f *FS) sync(p *sim.Proc, i *Inode, meta, ordered bool) Delivered {
	// Background writeback that the multi-queue layer moved off the order
	// stream is outside the flush/barrier ordering domain: wait on it
	// explicitly. The wait blocks, and another caller's commit may freeze
	// the metadata meanwhile, so it comes before the decision below.
	f.waitCrossStream(p, i)
	// The one commit decision. An allocation frozen into another caller's
	// commit is no longer pending, but that commit may not have reached the
	// device yet: wait for it too (ext4's wait on i_datasync_tid). The
	// commit is captured now: a Dual-Mode one lets go of the buffer at its
	// JC transfer, which may come after this call's own flush was queued.
	// Nothing blocks between here and the Dual-Mode branch's MetaPending
	// test, so the two agree.
	held := i.buf.Frozen()
	commitMeta := (i.MetaPending() && (meta || i.allocDirty)) || (i.allocDirty && held != nil)
	switch mode := f.opts.Journal.Mode; mode {
	case jbd.ModeDual:
		ordered = ordered && !i.offStream
		got := Ordered
		if !ordered {
			got, i.offStream = Durable, false
		}
		if i.MetaPending() && (ordered && meta || !ordered && commitMeta) {
			// D as ordered writes — no Wait-on-Transfer. The JD of the
			// transaction this commits closes the {D, JD} epoch (Eq. 3).
			f.release(i, f.writeback(p, i, block.FlagOrdered, block.RoleSync, false))
			if ordered {
				f.j.CommitOrdering(p, false) // returns at JC dispatch
			} else {
				f.j.CommitAndWait(p)
			}
			i.allocDirty = false
			return got
		}
		// D closed by a barrier; a durable sync then flushes. With nothing
		// dirty at all, a forced (possibly empty) journal commit delimits
		// the epoch (§4.2), waited durably by a durable sync.
		plan := f.writeback(p, i, block.FlagOrdered, block.RoleSync, true)
		switch {
		case len(plan.reqs) == 0:
			f.release(i, plan)
			if t := f.j.CommitOrdering(p, true); t != nil && !ordered {
				f.j.WaitTxn(p, t)
			}
		case ordered:
			f.release(i, plan)
		default:
			f.waitAll(p, i, plan)
			f.flush(p)
		}
		if !ordered && commitMeta {
			// The allocation rides a commit that may already be past its JD
			// and flush, so neither covers D: D took the path above, and
			// the sync waits for that commit on top.
			f.j.WaitTxn(p, held)
			i.allocDirty = false
		}
		return got
	case jbd.ModeOptFS:
		// osync orders by Wait-on-Transfer; a durable sync adds an explicit
		// flush (dsync-like).
		plan := f.writeback(p, i, 0, block.RoleSync, false)
		f.waitAll(p, i, plan)
		// A journaled overwrite reaches the device only through a commit:
		// fdatabarrier always commits, fbarrier only pending metadata.
		if ordered && (!meta || i.MetaPending()) || !ordered && (commitMeta || plan.journaled) {
			f.j.CommitOrdering(p, false)
			i.allocDirty = false
		}
		if ordered {
			return Transferred
		}
		f.flush(p)
		return Durable
	default: // JBD2 / EXT4, barrier or nobarrier: every call is served durably
		plan := f.writeback(p, i, 0, block.RoleSync, false)
		f.waitAll(p, i, plan) // Wait-on-Transfer (wake-up #1)
		if commitMeta {
			f.j.CommitAndWait(p) // transfer-and-flush commit (wake-up #2)
			i.allocDirty = false
		} else if mode == jbd.ModeJBD2 {
			f.flush(p) // wake-up #2; a nobarrier mount never flushes
		}
		return Durable
	}
}

// SyncFS flushes everything: all dirty files, a journal commit and a device
// flush. Used by tests and orderly shutdown.
func (f *FS) SyncFS(p *sim.Proc) {
	// inodeList, not the inode map: map iteration order would make the
	// writeback order — and the whole dispatch trace — nondeterministic.
	for _, i := range f.inodeList {
		f.waitCrossStream(p, i)
		plan := f.writeback(p, i, 0, block.RoleSync, false)
		f.waitAll(p, i, plan)
	}
	f.j.CommitAndWait(p)
	f.flush(p)
}

// flush issues a cache flush on the filesystem's order stream and waits for
// it, charging the wake-up: the flush waits behind the caller's own ordered
// commands, not stream 0's.
func (f *FS) flush(p *sim.Proc) {
	r := f.reqPool.Get()
	r.Stream = f.stream
	block.FlushOn(p, f.layer, r)
	f.wake(p)
}
