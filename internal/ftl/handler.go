package ftl

import (
	"repro/internal/nand"
	"repro/internal/sim"
)

// This file holds the run-to-completion (handler) form of the FTL's
// blocking entry points: step-wise append and read primitives for handler
// clients (the device's writeback and worker handlers, which carry the
// traffic). Each function mirrors its blocking original statement for
// statement — one Mesa-loop iteration per activation, identical stat bumps
// and waitlist appends — so the dispatch trace is byte-identical to the
// blocking code the reference kernel runs. The GC daemon has no handler
// form: it is a blocking proc on every kernel (see gcLoop).

// ensureSM tracks progress through the handler form of ensureActive.
type ensureSM int

const (
	esStart ensureSM = iota // fast path / classify which wait applies
	esSeal                  // seal barrier: previous segment still programming
	esSpace                 // free-segment wait
)

// ensureStep is the handler analogue of ensureActive: it reports true when
// the active segment has a free slot, or parks h on the same condition the
// blocking version would wait on and reports false. The caller re-invokes
// it with the same state on its next activation.
func (f *FTL) ensureStep(h *sim.Proc, s *ensureSM) bool {
	for {
		switch *s {
		case esStart:
			if f.active != nil && f.active.nextSlot < f.caps {
				return true
			}
			if f.active != nil {
				*s = esSeal
				continue
			}
			*s = esSpace
		case esSeal:
			// Seal barrier: wait for the full segment to finish programming.
			if f.active.prefixOK < f.active.nextSlot {
				f.stats.Stalls++
				f.durableCond.Park(h)
				return false
			}
			*s = esSpace
		case esSpace:
			if len(f.free) == 0 {
				f.stats.Stalls++
				f.maybeTriggerGC()
				f.spaceCond.Park(h)
				return false
			}
			f.openSegment()
			return true
		}
	}
}

// AppendOp is an in-progress handler append — the run-to-completion
// analogue of Append. Arm it with Start, then call FTL.AppendStep on every
// activation until it reports done; Idx then holds the global append index.
type AppendOp struct {
	lpa  uint64
	data any
	es   ensureSM

	// Idx is the global append index, valid once AppendStep returned true.
	Idx uint64
}

// Start arms the op for one logical-page append.
func (op *AppendOp) Start(lpa uint64, data any) {
	if lpa >= SealLPA {
		panic("ftl: logical page address collides with reserved markers")
	}
	op.lpa, op.data, op.es = lpa, data, esStart
}

// AppendStep advances a handler append: it either completes the append
// (true, op.Idx valid) or parks h exactly where the blocking Append would
// have blocked (false; re-invoke on the next activation).
func (f *FTL) AppendStep(h *sim.Proc, op *AppendOp) bool {
	if !f.ensureStep(h, &op.es) {
		return false
	}
	op.Idx = f.appendSlot(op.lpa, op.data)
	op.data = nil
	f.maybeTriggerGC()
	return true
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

// readCtx is a pooled handler read: the NAND request plus completion
// plumbing, Done bound once at allocation.
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
	f.readFree = append(f.readFree, c)
	// Same single wake-up the blocking Read's done.Signal would issue.
	f.k.Resume(h)
}

// ReadStart is the handler analogue of ReadE: it reports false for an
// unmapped page (no IO, no wait), or issues the NAND read and arranges for
// h to be resumed with the result stored in *out and the attempt's media
// error (if any) in *errOut. The caller parks after a true return. Reads
// lost to a power failure never resume the handler, matching the blocking
// Read's lost wake-up.
func (f *FTL) ReadStart(h *sim.Proc, lpa uint64, out *any, errOut *error) bool {
	ref, mapped := f.mapping[lpa]
	if !mapped {
		return false
	}
	var c *readCtx
	if n := len(f.readFree); n > 0 {
		c = f.readFree[n-1]
		f.readFree = f.readFree[:n-1]
	} else {
		c = &readCtx{f: f}
		c.req.Done = c.done
	}
	c.h, c.out, c.errOut = h, out, errOut
	c.req.Kind = nand.OpRead
	c.req.Chip, c.req.Block, c.req.Page = f.chipOf(ref.slot), ref.seg, f.pageOf(ref.slot)
	c.req.Err = nil
	f.arr.Submit(&c.req)
	return true
}
