package fs

import (
	"repro/internal/block"
	"repro/internal/sim"
)

// Run-to-completion form of the pdflush daemon (see FS.pdflush for the
// blocking original). It covers the Ordered and Writeback journal modes,
// where background writeback never routes pages through the journal and the
// only blocking points are the idle wait, the interval sleep, and the block
// layer's congestion limit. The state machine mirrors the blocking loop
// statement for statement so the golden trace tests hold.

// pdflush handler phases.
const (
	pdIdle  = iota // no dirty pages: parked on pdflushCond
	pdSleep        // interval timer armed
	pdWrite        // walking inodes / submitting writeback requests
)

type pdflushSM struct {
	phase   int
	list    []*Inode // inode-list snapshot, as the blocking loop's range takes
	ino     int      // next index in list
	cur     *Inode   // inode whose plan is being submitted
	reqs    []*block.Request
	ri      int  // next request to submit
	prepped bool // reqs[ri] already registered/tracked (congestion retry)
}

func (f *FS) pdflushStep(h *sim.Proc) {
	s := &f.pd
	for {
		switch s.phase {
		case pdIdle:
			if !f.anyDirty() {
				f.pdflushCond.Park(h)
				return
			}
			s.phase = pdSleep
			h.WakeAt(h.Now().Add(f.opts.PdflushInterval))
			return
		case pdSleep:
			// Same snapshot semantics as `range f.inodeList` in the blocking
			// loop: the slice header is captured once per pass.
			s.list = f.inodeList
			s.ino = 0
			s.phase = pdWrite
		case pdWrite:
			if s.cur == nil {
				for s.ino < len(s.list) {
					i := s.list[s.ino]
					s.ino++
					if i.DirtyPages() > 0 {
						s.cur = i
						s.reqs = f.pdflushPlan(h, i)
						s.ri = 0
						s.prepped = false
						break
					}
				}
				if s.cur == nil {
					s.list = nil
					s.phase = pdIdle
					continue
				}
			}
			for s.ri < len(s.reqs) {
				r := s.reqs[s.ri]
				if !s.prepped {
					// Ordered mode: the journal must not commit the inode
					// before the data lands.
					if f.opts.Mode == Ordered && s.cur.MetaPending() {
						f.j.RegisterOrderedData(r)
					}
					s.cur.trackInflight(r)
					s.prepped = true
				}
				if !f.layer.SubmitOrPark(h, r) {
					return // parked on the congestion limit
				}
				r.Release() // in flight: the layer (and the transaction) hold it
				s.ri++
				s.prepped = false
			}
			s.cur = nil
			s.reqs = nil
			f.stats.PdflushRuns++
			f.obs.pdflushRuns.Inc()
		}
	}
}

// pdflushPlan builds the background-writeback requests for one inode — the
// plan-building half of writeback for the non-journaling path, built from
// the same takeDirty/dataRequest helpers so the two stay identical.
func (f *FS) pdflushPlan(h *sim.Proc, i *Inode) []*block.Request {
	var reqs []*block.Request
	dirty := i.takeDirty()
	f.obs.dirtyPages.Add(-int64(len(dirty)))
	for _, pg := range dirty {
		reqs = append(reqs, f.dataRequest(i, pg, block.FlagBackground, h.ID()))
	}
	i.keepDirty(dirty)
	return reqs
}
