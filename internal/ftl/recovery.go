package ftl

import (
	"fmt"

	"repro/internal/nand"
	"repro/internal/sim"
)

// Mount scans a (possibly crashed) array and rebuilds a consistent FTL,
// implementing the paper's LFS-style in-order recovery: segments are ordered
// by their summary pages; within the most recent segment, pages are scanned
// from the beginning and everything from the first unprogrammed page onward
// is discarded — even pages that were physically programmed after the hole.
// A seal page is programmed at the hole so a future mount stops at the same
// place, then a fresh active segment takes over.
//
// Mount blocks the calling process for the scan reads, the seal program and
// any cleanup erases, like a real mount-time recovery pass.
func Mount(p *sim.Proc, arr *nand.Array, cfg Config) *FTL {
	if arr.Failed() {
		panic("ftl: Mount on failed array; call Restore first")
	}
	if cfg.GCLowWater < 1 {
		cfg.GCLowWater = 1
	}
	k := p.Kernel()
	f := &FTL{
		k: k, arr: arr, cfg: cfg, geo: arr.Geometry(),
		caps: arr.Geometry().Chips() * arr.Geometry().PagesPerBlock,
	}
	f.durableCond = sim.NewCond(k)
	f.spaceCond = sim.NewCond(k)
	f.gcCond = sim.NewCond(k)

	// Phase 1: classify segments by their summary page.
	alloc := make(map[int]uint64)
	var withSummary []int
	var garbage []int
	f.segs = make([]segment, f.geo.BlocksPerChip)
	for s := range f.segs {
		f.segs[s].id = s
		ok, meta, _ := arr.PageInfo(0, s, 0)
		switch {
		case ok && meta.LPA == SummaryLPA:
			withSummary = append(withSummary, s)
			alloc[s] = meta.Seq
		case f.segmentHasAnyPage(s):
			garbage = append(garbage, s) // data without a summary: crashed before the summary landed
		default:
			f.free.Push(s)
		}
	}
	f.sortedByAlloc(withSummary, alloc)

	// Phase 2: replay segments in allocation order, building the mapping.
	for _, id := range withSummary {
		f.replaySegment(p, id, alloc[id])
	}

	// Phase 3: erase summary-less garbage so the segments are reusable.
	for _, id := range garbage {
		seg := &f.segs[id]
		seg.done = make([]bool, f.caps) // mark as in-use so eraseSegment resets cleanly
		f.eraseSegment(p, seg)
		f.stats.SegsErased-- // mount cleanup is not a GC erase
	}

	f.durableIdx = f.appendIdx
	k.Spawn("ftl/gc", f.gcLoop)
	return f
}

func (f *FTL) segmentHasAnyPage(id int) bool {
	for chip := 0; chip < f.geo.Chips(); chip++ {
		if f.arr.NextPage(chip, id) > 0 {
			return true
		}
	}
	return false
}

// replaySegment scans one segment in slot order, applying surviving pages to
// the mapping. Only the newest segment may legitimately contain a hole; it
// is crash-sealed there.
func (f *FTL) replaySegment(p *sim.Proc, id int, allocSeq uint64) {
	seg := &f.segs[id]
	*seg = segment{
		id: id, allocSeq: allocSeq,
		done: make([]bool, f.caps),
		lpas: make([]uint64, f.caps),
	}
	if allocSeq > f.allocSeq {
		f.allocSeq = allocSeq
	}
	seg.done[0] = true
	seg.lpas[0] = SummaryLPA
	seg.nextSlot = 1
	seg.prefixOK = 1
	f.appendIdx++

	sealedAt := -1
	for slot := 1; slot < f.caps; slot++ {
		ok, meta, _ := f.arr.PageInfo(f.chipOf(slot), id, f.pageOf(slot))
		if !ok {
			sealedAt = slot
			break
		}
		if meta.LPA == SealLPA {
			seg.crashSeal = true
			seg.sealed = true
			seg.done[slot] = true
			seg.lpas[slot] = SealLPA
			seg.nextSlot = slot + 1
			seg.prefixOK = slot + 1
			f.appendIdx++
			f.countDroppedTail(id, slot+1)
			return
		}
		seg.done[slot] = true
		seg.lpas[slot] = meta.LPA
		seg.nextSlot = slot + 1
		seg.prefixOK = slot + 1
		f.appendIdx++
		if meta.Seq > f.appendSeq {
			f.appendSeq = meta.Seq
		}
		f.invalidate(meta.LPA)
		f.mapping.Set(meta.LPA, slotRef{seg: id, slot: slot})
		seg.valid++
	}

	if sealedAt < 0 {
		// Fully programmed segment.
		seg.sealed = true
		return
	}
	// The segment has a hole, the crash signature of the newest segment.
	// An older one has none: openSegment panics unless the active segment
	// is full and fully programmed, so at most one segment is ever
	// partially programmed, and prior mounts seal it. Discard the tail and
	// seal. A cleanly-stopped partial segment is indistinguishable from a
	// crashed one at scan time, so it too is sealed conservatively.
	f.countDroppedTail(id, sealedAt)
	f.writeSeal(p, seg, sealedAt)
}

// countDroppedTail counts physically programmed pages at or after slot from,
// which recovery discards to preserve the prefix property.
func (f *FTL) countDroppedTail(id, from int) {
	for slot := from; slot < f.caps; slot++ {
		if ok, _, _ := f.arr.PageInfo(f.chipOf(slot), id, f.pageOf(slot)); ok {
			f.stats.RecoveryDrop++
		}
	}
}

func (f *FTL) writeSeal(p *sim.Proc, seg *segment, slot int) {
	r := &nand.Request{
		Kind: nand.OpProgram,
		Chip: f.chipOf(slot), Block: seg.id, Page: f.pageOf(slot),
		Meta:    nand.PageMeta{LPA: SealLPA, Seq: uint64(slot)},
		Awaiter: p,
	}
	p.Expect(1)
	f.arr.Submit(r)
	p.Await()
	if r.Err != nil {
		panic(fmt.Sprintf("ftl: seal program failed: %v", r.Err))
	}
	seg.done[slot] = true
	seg.lpas[slot] = SealLPA
	seg.nextSlot = slot + 1
	seg.prefixOK = slot + 1
	seg.sealed = true
	seg.crashSeal = true
	f.appendIdx++
}

// DurableData returns the data for lpa as it exists on the storage surface,
// without simulated latency. It is a verification hook for crash tests, not
// part of the host-visible device interface.
func (f *FTL) DurableData(lpa uint64) (any, bool) {
	ref, ok := f.mapping.Get(lpa)
	if !ok {
		return nil, false
	}
	programmed, _, data := f.arr.PageInfo(f.chipOf(ref.slot), ref.seg, f.pageOf(ref.slot))
	if !programmed {
		return nil, false
	}
	return data, true
}
