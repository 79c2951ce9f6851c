package ftl

import (
	"repro/internal/nand"
	"repro/internal/sim"
)

// This file holds the FTL's entry points for run-to-completion handlers and
// the decisions they share with blocking procs. The device's writeback,
// reaper and worker handlers carry the traffic; the GC daemon (a blocking
// proc on every kernel, see gcLoop) and device.Recover use the blocking
// forms. appendWait decides every append wait once: Append loops on it,
// AppendStep parks on it once per activation. DurableOrPark is one Mesa
// iteration of WaitDurable. Every page read goes through readSlot; the host
// calls it through ReadStart.

// appendWait returns nil once the active segment has a free slot, opening a
// segment only when the seal barrier and the free list allow it. Otherwise
// it returns the condition to wait on: durableCond while the full active
// segment is still programming, spaceCond (with a GC kick) while no segment
// is free. A woken appender calls it again, and the active segment is
// re-checked first: another appender may have opened one meanwhile, and
// opening a second would leave the first partially appended. The caller
// counts the stall, once per append however often it wakes.
func (f *FTL) appendWait() *sim.Cond {
	if f.active != nil {
		if f.active.nextSlot < f.caps {
			return nil
		}
		if f.active.prefixOK < f.active.nextSlot {
			return f.durableCond
		}
	}
	if f.free.Len() == 0 {
		f.maybeTriggerGC()
		return f.spaceCond
	}
	f.openSegment()
	return nil
}

// AppendStep is the handler form of Append: it appends lpa and returns the
// global append index and true, or parks h on the condition appendWait
// names and returns false; the caller calls it again on its next activation,
// with again set, so the append counts as one stall however often it parks.
func (f *FTL) AppendStep(h *sim.Proc, lpa uint64, data any, again bool) (uint64, bool) {
	if c := f.appendWait(); c != nil {
		if !again {
			f.stats.Stalls++
		}
		c.Park(h)
		return 0, false
	}
	return f.hostAppend(lpa, data), true
}

// DurableOrPark is the handler analogue of one WaitDurable Mesa iteration:
// true when every append below idx is durable, otherwise it parks h on the
// durability condition.
func (f *FTL) DurableOrPark(h *sim.Proc, idx uint64) bool {
	if f.durableIdx < idx {
		f.durableCond.Park(h)
		return false
	}
	return true
}

// readCtx is a pooled page read: the NAND request plus completion plumbing,
// Done bound once at allocation.
type readCtx struct {
	f      *FTL
	h      *sim.Proc
	out    *any
	errOut *error
	req    nand.Request
}

func (c *readCtx) done(at sim.Time, r *nand.Request) {
	*c.out, *c.errOut = r.Data, r.Err
	h := c.h
	f := c.f
	c.h, c.out, c.errOut = nil, nil, nil
	c.req.Data = nil
	c.req.Meta = nand.PageMeta{}
	f.reads.Put(c)
	// One wake-up per read: the reader suspended after issuing it.
	f.k.Resume(h)
}

// ReadStart is the host read: it reports false for an unmapped page (no IO,
// no wait), or issues the NAND read of the data most recently appended for
// lpa and arranges for h to be resumed with the result stored in *out and
// the attempt's media error (if any) in *errOut. The caller parks after a
// true return. The read takes part in media-error injection, so *errOut is
// fault.ErrUNC when the device's read-retry ladder could not correct the
// page. Reads lost to a power failure never resume the handler.
func (f *FTL) ReadStart(h *sim.Proc, lpa uint64, out *any, errOut *error) bool {
	ref, mapped := f.mapping.Get(lpa)
	if !mapped {
		return false
	}
	f.readSlot(h, ref, out, errOut, false)
	return true
}

// readSlot issues the NAND read of ref and resumes h with its result: the
// one read path, behind ReadStart and GC relocation. noFault exempts the
// read from media-error injection.
func (f *FTL) readSlot(h *sim.Proc, ref slotRef, out *any, errOut *error, noFault bool) {
	c, fresh := f.reads.Get()
	if fresh {
		c.f = f
		c.req.Done = c.done
	}
	c.h, c.out, c.errOut = h, out, errOut
	c.req.Kind = nand.OpRead
	c.req.Chip, c.req.Block, c.req.Page = f.chipOf(ref.slot), ref.seg, f.pageOf(ref.slot)
	c.req.NoFault = noFault
	c.req.Err = nil
	f.arr.Submit(&c.req)
}
