// Package ftl implements the log-structured flash translation layer the
// paper builds its barrier-compliant UFS device on (§3.2): the entire device
// is treated as a single log, incoming blocks are appended to an active
// segment in transfer order and striped across chips, and crash recovery
// scans the most recent segment from its beginning, discarding everything
// from the first unprogrammed page onward. Because the durable state is
// always a prefix of the append order, the device can flush its cache with
// full parallelism and still honor barrier ordering — the core trick that
// makes "cache barrier" cheap.
//
// Every page read goes through one pooled NAND read (handler.go). The host's
// call, ReadStart, takes part in media-error injection and hands back the
// error; GC relocation issues the same read exempt from injection, like reads
// protected by on-die parity, and suspends its proc on it.
package ftl

import (
	"fmt"
	"sort"

	"repro/internal/nand"
	"repro/internal/sim"
)

// SummaryLPA is the reserved logical address marking segment-summary pages.
const SummaryLPA = ^uint64(0)

// SealLPA is the reserved logical address of crash-seal pages written by
// recovery to terminate a partially programmed segment.
const SealLPA = ^uint64(0) - 1

// Config tunes the FTL.
type Config struct {
	// GCLowWater triggers garbage collection when the number of free
	// segments drops to or below it. Must be >= 1.
	GCLowWater int
}

// DefaultConfig returns sensible defaults.
func DefaultConfig() Config { return Config{GCLowWater: 2} }

type slotRef struct {
	seg  int
	slot int
}

type segment struct {
	id        int
	allocSeq  uint64 // segment allocation number (stored in the summary page)
	nextSlot  int    // next slot to append
	prefixOK  int    // slots [0, prefixOK) are programmed (durable prefix)
	done      []bool // per-slot program completion
	valid     int    // live data pages (mapping points here)
	sealed    bool   // fully appended (or crash-sealed)
	lpas      []uint64
	baseIdx   uint64 // global append index of slot 0
	crashSeal bool   // sealed by recovery rather than by filling up
}

// Stats are cumulative FTL statistics.
type Stats struct {
	HostAppends  int64
	GCAppends    int64
	GCRuns       int64
	SegsErased   int64
	Stalls       int64 // appends that blocked waiting for space or seal
	RecoveryDrop int64 // pages discarded by the last recovery scan
}

// FTL is the translation layer. All methods taking a *sim.Proc may block.
type FTL struct {
	k    *sim.Kernel
	arr  *nand.Array
	cfg  Config
	geo  nand.Geometry
	caps int // slots per segment (chips * pagesPerBlock)

	mapping Table[slotRef]
	segs    []segment // one per block index, in one array
	free    sim.FIFO[int]
	active  *segment

	appendSeq  uint64 // per-page log sequence number
	allocSeq   uint64 // segment allocation counter
	appendIdx  uint64 // global append index (next to assign)
	durableIdx uint64 // appends [0, durableIdx) are durable

	durableCond *sim.Cond
	spaceCond   *sim.Cond
	gcCond      *sim.Cond
	gcBusy      bool

	progFree []*progCtx // free list of pooled program ops (kernel-single-threaded)
	progSlab sim.Slab[progCtx]
	readFree []*readCtx // free list of pooled read ops

	stats Stats
}

// New formats the array (assumed erased) and returns a mounted FTL with a
// running GC daemon.
func New(k *sim.Kernel, arr *nand.Array, cfg Config) *FTL {
	if cfg.GCLowWater < 1 {
		cfg.GCLowWater = 1
	}
	f := &FTL{
		k: k, arr: arr, cfg: cfg, geo: arr.Geometry(),
		caps: arr.Geometry().Chips() * arr.Geometry().PagesPerBlock,
	}
	f.segs = make([]segment, f.geo.BlocksPerChip)
	for s := range f.segs {
		f.segs[s].id = s
		f.free.Push(s)
	}
	f.durableCond = sim.NewCond(k)
	f.spaceCond = sim.NewCond(k)
	f.gcCond = sim.NewCond(k)
	k.Spawn("ftl/gc", f.gcLoop)
	return f
}

// Stats returns cumulative statistics.
func (f *FTL) Stats() Stats { return f.stats }

// DurableIdx returns the current durable watermark: all appends with index
// < DurableIdx are on the storage surface.
func (f *FTL) DurableIdx() uint64 { return f.durableIdx }

func (f *FTL) chipOf(slot int) int { return slot % f.geo.Chips() }
func (f *FTL) pageOf(slot int) int { return slot / f.geo.Chips() }

// Append writes one logical page to the log and returns its global append
// index. It blocks while the log has no usable space or while the segment
// seal barrier is in effect; it returns as soon as the program command is
// issued (durability comes later — see WaitDurable).
func (f *FTL) Append(p *sim.Proc, lpa uint64, data any) uint64 {
	f.ensureActive(p)
	return f.hostAppend(lpa, data)
}

// hostAppend appends a host page once the active segment has a free slot.
func (f *FTL) hostAppend(lpa uint64, data any) uint64 {
	if lpa >= SealLPA {
		panic("ftl: logical page address collides with reserved markers")
	}
	idx := f.appendSlot(lpa, data)
	f.stats.HostAppends++
	f.maybeTriggerGC()
	return idx
}

// appendSlot is the one append body, for host appends and GC relocation
// alike: it maps lpa to the next slot of the active segment, which the
// caller must have ensured is free, issues the program and returns the
// global append index. The caller counts the append.
func (f *FTL) appendSlot(lpa uint64, data any) uint64 {
	seg := f.active
	slot := seg.nextSlot
	idx := f.appendIdx
	f.appendIdx++
	f.appendSeq++
	seg.nextSlot++
	seg.lpas[slot] = lpa
	if seg.nextSlot == f.caps {
		seg.sealed = true
	}
	f.invalidate(lpa)
	f.mapping.Set(lpa, slotRef{seg: seg.id, slot: slot})
	seg.valid++
	f.program(seg, slot, nand.PageMeta{LPA: lpa, Seq: f.appendSeq}, data)
	return idx
}

// ensureActive blocks until the active segment has a free slot (see
// appendWait), counting one stall if it waits at all.
func (f *FTL) ensureActive(p *sim.Proc) {
	c := f.appendWait()
	if c != nil {
		f.stats.Stalls++
	}
	for ; c != nil; c = f.appendWait() {
		c.Wait(p)
	}
}

// openSegment takes the head free segment as the new active segment and
// programs its summary page. The caller must have ensured the free list is
// non-empty. It panics unless the active segment is full and fully
// programmed: the seal barrier, which keeps every segment but the active one
// sealed and at most one segment partially programmed.
func (f *FTL) openSegment() {
	if a := f.active; a != nil && (a.nextSlot < f.caps || a.prefixOK < a.nextSlot) {
		panic(fmt.Sprintf("ftl: segment opened while active segment %d has %d of %d slots appended, %d programmed",
			a.id, a.nextSlot, f.caps, a.prefixOK))
	}
	id := f.free.Pop()
	f.allocSeq++
	seg := &f.segs[id]
	*seg = segment{
		id:       id,
		allocSeq: f.allocSeq,
		done:     make([]bool, f.caps),
		lpas:     make([]uint64, f.caps),
		baseIdx:  f.appendIdx,
	}
	f.active = seg
	// Slot 0 is the segment summary (allocation number in its metadata);
	// recovery uses it to order segments.
	slot := seg.nextSlot
	seg.nextSlot++
	f.appendIdx++ // summary consumes an append index so watermarks stay aligned
	f.appendSeq++
	seg.lpas[slot] = SummaryLPA
	f.program(seg, slot, nand.PageMeta{LPA: SummaryLPA, Seq: seg.allocSeq}, nil)
}

// progCtx is a pooled program operation: the NAND request plus its
// completion context, with the Done closure bound once at allocation. The
// free list is owned by the (single-threaded) kernel's FTL, so steady-state
// programs — every host write and GC move — allocate nothing; a dry list
// carves its next op from progSlab.
type progCtx struct {
	f    *FTL
	seg  *segment
	slot int
	req  nand.Request
}

func (c *progCtx) done(at sim.Time, r *nand.Request) {
	if r.Err != nil {
		panic(fmt.Sprintf("ftl: program failed: %v", r.Err))
	}
	f := c.f
	f.programDone(c.seg, c.slot)
	c.seg = nil
	c.req.Data = nil
	c.req.Meta = nand.PageMeta{}
	f.progFree = append(f.progFree, c)
}

func (f *FTL) program(seg *segment, slot int, meta nand.PageMeta, data any) {
	var c *progCtx
	if n := len(f.progFree); n > 0 {
		c = f.progFree[n-1]
		f.progFree = f.progFree[:n-1]
	} else {
		c = f.progSlab.New(progCtx{f: f})
		c.req.Done = c.done // one bound closure per pooled ctx, ever
	}
	c.seg, c.slot = seg, slot
	c.req.Kind = nand.OpProgram
	c.req.Chip, c.req.Block, c.req.Page = f.chipOf(slot), seg.id, f.pageOf(slot)
	c.req.Meta, c.req.Data = meta, data
	c.req.Err = nil
	// Requests lost to a power failure never fire Done and simply fall out
	// of the pool; only completed ops are recycled.
	f.arr.Submit(&c.req)
}

func (f *FTL) programDone(seg *segment, slot int) {
	seg.done[slot] = true
	for seg.prefixOK < f.caps && seg.done[seg.prefixOK] {
		seg.prefixOK++
	}
	if seg == f.active {
		f.durableIdx = seg.baseIdx + uint64(seg.prefixOK)
		f.durableCond.Broadcast()
	} else if seg.prefixOK == seg.nextSlot {
		// Final program of a sealed previous segment; the active segment's
		// watermark already covers it.
		f.durableCond.Broadcast()
	}
}

// invalidate drops the current mapping for lpa, if any, decrementing the
// owning segment's valid count.
func (f *FTL) invalidate(lpa uint64) {
	if ref, ok := f.mapping.Get(lpa); ok {
		f.segs[ref.seg].valid--
		f.mapping.Delete(lpa)
	}
}

// WaitDurable blocks until every append with index < idx is durable.
func (f *FTL) WaitDurable(p *sim.Proc, idx uint64) {
	for f.durableIdx < idx {
		f.durableCond.Wait(p)
	}
}

// Sync blocks until everything appended so far is durable.
func (f *FTL) Sync(p *sim.Proc) { f.WaitDurable(p, f.appendIdx) }

// --- garbage collection ---

func (f *FTL) maybeTriggerGC() {
	if f.free.Len() <= f.cfg.GCLowWater && !f.gcBusy {
		f.gcCond.Broadcast()
	}
}

// gcLoop is the GC daemon, a blocking proc on every kernel: it wakes once
// per reclaimed segment (96 erases in a full-scale `repro all`, none in any
// benchmark workload), so a run-to-completion state machine would have no
// events to save.
func (f *FTL) gcLoop(p *sim.Proc) {
	for {
		for f.free.Len() > f.cfg.GCLowWater {
			f.gcCond.Wait(p)
		}
		victim := f.pickVictim()
		if victim == nil {
			// Nothing reclaimable; wait for invalidations.
			f.gcCond.Wait(p)
			continue
		}
		f.gcBusy = true
		f.collect(p, victim)
		f.gcBusy = false
		f.stats.GCRuns++
		f.spaceCond.Broadcast()
	}
}

// pickVictim returns the sealed segment with the fewest valid pages, or nil
// if no sealed segment can be reclaimed profitably.
func (f *FTL) pickVictim() *segment {
	var best *segment
	for i := range f.segs {
		s := &f.segs[i]
		if s == f.active || !s.sealed || s.done == nil {
			continue
		}
		if s.valid >= f.caps-1 { // only the summary would be reclaimed
			continue
		}
		if best == nil || s.valid < best.valid {
			best = s
		}
	}
	return best
}

func (f *FTL) collect(p *sim.Proc, victim *segment) {
	// Move every still-valid page to the head of the log.
	var lastIdx uint64
	for slot := 0; slot < victim.nextSlot; slot++ {
		lpa := victim.lpas[slot]
		if lpa >= SealLPA {
			continue
		}
		ref, ok := f.mapping.Get(lpa)
		if !ok || ref.seg != victim.id || ref.slot != slot {
			continue // overwritten since; garbage
		}
		// Read the page, then re-append.
		var data any
		var err error
		f.readSlot(p, ref, &data, &err, true)
		p.Suspend()
		// Re-check validity: the host may have overwritten during the read.
		ref, ok = f.mapping.Get(lpa)
		if !ok || ref.seg != victim.id || ref.slot != slot {
			continue
		}
		f.ensureActive(p)
		lastIdx = f.appendSlot(lpa, data) + 1
		f.stats.GCAppends++
	}
	// The copies must be durable before the originals are destroyed,
	// otherwise a crash between erase and program would lose data.
	f.WaitDurable(p, lastIdx)
	f.eraseSegment(p, victim)
}

func (f *FTL) eraseSegment(p *sim.Proc, seg *segment) {
	pending := f.geo.Chips()
	done := sim.NewCond(f.k)
	for chip := 0; chip < f.geo.Chips(); chip++ {
		f.arr.Submit(&nand.Request{
			Kind: nand.OpErase, Chip: chip, Block: seg.id,
			Done: func(at sim.Time, r *nand.Request) {
				pending--
				if pending == 0 {
					done.Broadcast()
				}
			},
		})
	}
	for pending > 0 {
		done.Wait(p)
	}
	*seg = segment{id: seg.id}
	f.free.Push(seg.id)
	f.stats.SegsErased++
}

// sortSegmentsByAlloc is used by recovery (see recovery.go) but lives here
// to keep the segment type private.
func (f *FTL) sortedByAlloc(ids []int, alloc map[int]uint64) {
	sort.Slice(ids, func(i, j int) bool { return alloc[ids[i]] < alloc[ids[j]] })
}
