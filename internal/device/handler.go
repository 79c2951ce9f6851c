package device

import (
	"repro/internal/ftl"
	"repro/internal/reqtrace"
	"repro/internal/sim"
)

// This file holds the run-to-completion (handler) form of the device's
// service processes: the SCSI command workers, the writeback daemon and the
// durability reaper. Each state machine mirrors its blocking original
// (worker/service, writebackLoop, reaperLoop) blocking point for blocking
// point — same Mesa-loop iterations, same waitlist appends, same stat
// bumps, same RNG call sites — so its dispatch trace is byte-identical to
// the goroutine code the reference kernel runs, while dispatching with zero
// goroutine switches.

// Worker phases. Each value names the continuation the worker armed before
// yielding; everything between two phases runs inline in one activation.
const (
	wPick      = iota // pick loop / parked on pickCond
	wOverhead         // CmdOverhead elapsed → route by command kind
	wFlushPLP         // PLP flush latency elapsed
	wFlushWait        // waiting for the cache to drain to flushTarget
	wWrite            // doWrite admission loop
	wWriteDMA         // acquiring the DMA bus (after any barrier cost)
	wWriteXfer        // DMA transfer elapsed → cache insertion
	wWriteFUA         // FUA durability wait
	wRead             // doRead entry
	wReadWait         // FTL read in flight
	wReadDMA          // acquiring the DMA bus for the read-out
	wReadXfer         // read-out DMA elapsed
	wTail             // common service tail: dead check, complete
)

// workerSM is one worker's state between activations.
type workerSM struct {
	phase       int
	parked      bool // last left the pick loop by parking on pickCond
	c           *Command
	e           *cacheEntry // FUA wait target
	rdata       any         // read result
	rerr        error       // read media error
	flushTarget uint64
	preflush    bool // current flush is a write's PreFlush half
}

// abort drops the in-service command without completing it (device died
// mid-service) and returns the worker to the pick loop, mirroring the early
// returns of the blocking service path.
func (w *workerSM) abort() {
	w.c = nil
	w.e = nil
	w.rdata = nil
	w.rerr = nil
	w.phase = wPick
}

// flushEnter begins doFlush for the current command. It reports true when
// the worker yielded (slept on the PLP latency or parked on the drain
// wait); false when the flush finished inline.
func (w *workerSM) flushEnter(h *sim.Proc, d *Device) bool {
	if d.cfg.PLP {
		if d.cfg.PLPFlushLatency > 0 {
			w.phase = wFlushPLP
			h.WakeIn(d.cfg.PLPFlushLatency)
			return true
		}
		return false
	}
	w.flushTarget = d.entrySeq
	d.wantDrain = true
	d.wbCond.Broadcast()
	if !d.dead && d.oldestPending() <= w.flushTarget {
		w.phase = wFlushWait
		d.doneCond.Park(h)
		return true
	}
	return false
}

// flushDone routes control after a finished flush: a standalone CmdFlush
// falls to the service tail; a PreFlush continues into the write path after
// the same dead check the blocking code performs.
func (w *workerSM) flushDone(d *Device) {
	if !w.preflush {
		w.phase = wTail
		return
	}
	if d.dead {
		w.abort()
		return
	}
	w.phase = wWrite
}

func (d *Device) workerStep(h *sim.Proc, w *workerSM) {
	for {
		switch w.phase {
		case wPick:
			c := d.pick(w.parked)
			if c == nil {
				w.parked = true
				d.pickCond.Park(h)
				return
			}
			w.parked = false
			w.c = c
			w.phase = wOverhead
			if d.cfg.CmdOverhead > 0 {
				h.WakeIn(d.cfg.CmdOverhead)
				return
			}

		case wOverhead:
			if d.dead {
				w.abort()
				continue
			}
			c := w.c
			c.Trace.StampChain(reqtrace.StageDevStart, h.Now())
			switch c.Kind {
			case CmdFlush:
				d.stats.Flushes++
				w.preflush = false
				if w.flushEnter(h, d) {
					return
				}
				w.flushDone(d)
			case CmdBarrier:
				d.barrierAdvance(c.Stream)
				w.phase = wTail
			case CmdWrite:
				if c.PreFlush {
					d.stats.Flushes++
					w.preflush = true
					if w.flushEnter(h, d) {
						return
					}
					w.flushDone(d)
					continue
				}
				w.phase = wWrite
			case CmdRead:
				w.phase = wRead
			}

		case wFlushPLP:
			w.flushDone(d)
		case wFlushWait:
			if !d.dead && d.oldestPending() <= w.flushTarget {
				d.doneCond.Park(h)
				return
			}
			w.flushDone(d)

		case wWrite:
			// Cache admission: wait for a free page slot.
			if !d.dead && d.cachePages >= d.cfg.CachePages {
				d.wantDrain = true
				d.wbCond.Broadcast()
				d.doneCond.Park(h)
				return
			}
			if d.dead {
				w.abort()
				continue
			}
			w.phase = wWriteDMA
			if w.c.Barrier && d.cfg.BarrierCmdCost > 0 {
				h.WakeIn(d.cfg.BarrierCmdCost)
				return
			}
		case wWriteDMA:
			if !d.dmaBus.AcquireOrPark(h, 1) {
				return
			}
			w.phase = wWriteXfer
			if d.cfg.DMAPerPage > 0 {
				h.WakeIn(d.cfg.DMAPerPage)
				return
			}
		case wWriteXfer:
			d.dmaBus.Release(1)
			if d.dead {
				w.abort()
				continue
			}
			w.phase = wTail
			if w.e = d.cacheInsert(w.c); w.e != nil {
				w.phase = wWriteFUA
			}
		case wWriteFUA:
			if !d.dead && !w.e.durable {
				d.doneCond.Park(h)
				return
			}
			d.fuaRelease(w.e)
			w.e = nil
			w.phase = wTail

		case wRead:
			c := w.c
			if data, hit := d.readMap[c.LPA]; hit &&
				(d.cfg.Fault == nil || d.cacheLive(c.LPA)) {
				d.stats.CacheHits++
				w.rdata = data
				w.phase = wReadDMA
				continue
			}
			if d.f.ReadStart(h, c.LPA, &w.rdata, &w.rerr) {
				w.phase = wReadWait
				h.Park()
				return
			}
			w.rdata = nil // unmapped page: reads as zero
			w.phase = wReadDMA
		case wReadWait:
			if d.dead {
				w.abort()
				continue
			}
			if w.rerr != nil {
				// Uncorrectable media error: complete with the error and
				// skip the read-out DMA, mirroring the blocking doRead.
				w.c.Err = w.rerr
				w.rerr = nil
				w.rdata = nil
				d.stats.Reads++
				d.stats.ReadErrors++
				d.obs.readErrs.Inc()
				w.phase = wTail
				continue
			}
			w.phase = wReadDMA
		case wReadDMA:
			if !d.dmaBus.AcquireOrPark(h, 1) {
				return
			}
			w.phase = wReadXfer
			if d.cfg.DMAPerPage > 0 {
				h.WakeIn(d.cfg.DMAPerPage)
				return
			}
		case wReadXfer:
			d.dmaBus.Release(1)
			w.c.Data = w.rdata
			w.rdata = nil
			d.stats.Reads++
			w.phase = wTail

		case wTail:
			if d.dead {
				w.abort()
				continue
			}
			c := w.c
			w.c = nil
			w.phase = wPick
			d.complete(h, c)
		}
	}
}

// Writeback daemon phases.
const (
	wbCheck  = iota // waiting for work / choosing the next entry
	wbAppend        // FTL append in progress (may park on seal/space)
)

type wbSM struct {
	phase int
	e     *cacheEntry
	op    ftl.AppendOp
}

func (d *Device) writebackStep(h *sim.Proc) {
	for {
		switch d.wb.phase {
		case wbCheck:
			if d.dead || !d.shouldWriteback() {
				if !d.dead && d.dirtyN == 0 {
					d.wantDrain = false
				}
				d.wbCond.Park(h)
				return
			}
			e := d.nextWriteback()
			d.startWriteback(e)
			d.wb.e = e
			d.wb.op.Start(e.lpa, e.data)
			d.wb.phase = wbAppend
		case wbAppend:
			if !d.f.AppendStep(h, &d.wb.op) {
				return // parked on FTL seal barrier or free-segment wait
			}
			e := d.wb.e
			d.wb.e = nil
			if d.dead {
				h.Complete() // the blocking loop returns (dies) here too
				return
			}
			d.appended(e, d.wb.op.Idx)
			d.wb.phase = wbCheck
		}
	}
}

// Reaper phases.
const (
	reapScan = iota // scanning for the oldest outstanding append
	reapWait        // waiting for the FTL durability watermark
)

type reapSM struct {
	phase  int
	target uint64
}

func (d *Device) reaperStep(h *sim.Proc) {
	for {
		switch d.reap.phase {
		case reapScan:
			e := d.flightHead // the oldest outstanding append
			if e == nil {
				d.reapCond.Park(h)
				return
			}
			d.reap.target = e.idx + 1
			d.reap.phase = reapWait
		case reapWait:
			if !d.f.DurableOrPark(h, d.reap.target) {
				return
			}
			if d.dead {
				h.Complete() // the blocking loop returns (dies) here too
				return
			}
			d.retireDurable()
			d.reap.phase = reapScan
		}
	}
}
