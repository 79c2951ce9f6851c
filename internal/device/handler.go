package device

import (
	"repro/internal/ftl"
	"repro/internal/reqtrace"
	"repro/internal/sim"
)

// This file holds the device's service processes, each a run-to-completion
// handler: the SCSI command workers, the writeback daemon and the
// durability reaper. A state machine's phase names the one continuation it
// armed before yielding, and every wait is a Mesa loop that runs one
// iteration per activation, so the processes dispatch with zero goroutine
// switches. The frozen dispatch-trace goldens pin every phase boundary,
// waitlist append, stat bump and RNG call site across commits.

// Worker phases. Each value names the continuation the worker armed before
// yielding; everything between two phases runs inline in one activation.
const (
	wPick      = iota // pick loop / parked on pickCond
	wOverhead         // CmdOverhead elapsed → route by command kind
	wFlushPLP         // PLP flush latency elapsed
	wFlushWait        // waiting for the cache to drain to flushTarget
	wWrite            // cache admission loop
	wWriteDMA         // acquiring the DMA bus (after any barrier cost)
	wWriteXfer        // DMA transfer elapsed → cache insertion
	wWriteFUA         // FUA durability wait
	wRead             // read entry: cache hit or FTL read
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
// mid-service) and returns the worker to the pick loop.
func (w *workerSM) abort() {
	w.c = nil
	w.e = nil
	w.rdata = nil
	w.rerr = nil
	w.phase = wPick
}

// flushEnter begins a cache flush for the current command. With PLP the
// cache is already durable, so only the command round trip is charged (the
// paper's tε); otherwise the writeback daemon drains every page cached so
// far and the worker waits for them. It reports true when
// the worker yielded (slept on the PLP latency or parked on the drain
// wait); false when the flush finished inline.
func (w *workerSM) flushEnter(h *sim.Proc, d *Device) bool {
	if d.cfg.PLP {
		w.phase = wFlushPLP
		h.WakeIn(plpFlushLatency)
		return true
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
// falls to the service tail; a PreFlush continues into the write path
// unless the device died during the flush.
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
			if w.c.Barrier && d.cfg.BarrierSupport {
				h.WakeIn(barrierCmdCost)
				return
			}
		case wWriteDMA:
			if !d.dmaBus.LockOrPark(h) {
				return
			}
			w.phase = wWriteXfer
			if d.cfg.DMAPerPage > 0 {
				h.WakeIn(d.cfg.DMAPerPage)
				return
			}
		case wWriteXfer:
			d.dmaBus.Unlock()
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
			// In a fault campaign a page that left the cache is read from
			// the medium (and its injected errors), not the DRAM shadow.
			c := w.c
			if data, hit := d.readMap.Get(c.LPA); hit &&
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
				// skip the read-out DMA. The host may retry: a later
				// attempt re-enters the device's read-retry ladder.
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
			if !d.dmaBus.LockOrPark(h) {
				return
			}
			w.phase = wReadXfer
			if d.cfg.DMAPerPage > 0 {
				h.WakeIn(d.cfg.DMAPerPage)
				return
			}
		case wReadXfer:
			d.dmaBus.Unlock()
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
				h.Complete() // a dead device's daemon stands down for good
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
				h.Complete() // a dead device's daemon stands down for good
				return
			}
			d.retireDurable()
			d.reap.phase = reapScan
		}
	}
}
