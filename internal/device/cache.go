package device

// The writeback cache. Pages live here from DMA completion until their NAND
// program completes (or forever, under power failure, if the device has
// PLP). Three intrusive structures thread the entries so that no path scans
// the cache:
//
//   - the cache list, every not-yet-durable page in transfer order, which
//     flush waits, crash snapshots and constraint capture read from the head;
//   - wbNext, the oldest entry not yet handed to the FTL appender — the
//     writeback daemon's cursor into that list;
//   - the flight list, the entries whose append has been issued, in append
//     order. The FTL's durability watermark covers a prefix of it, so the
//     reaper waits on its head and retires from its head.
//
// Entries are pooled: the reaper returns a retired entry to the free list
// unless a FUA writer is still waiting on it, in which case that writer
// frees it once it has seen durable.

// noIdx marks an entry whose FTL append has not been issued yet: it compares
// above every durability watermark, so a page the appender is still blocked
// on is never mistaken for a programmed one.
const noIdx = ^uint64(0)

type cacheEntry struct {
	seq     uint64 // cache arrival order == transfer order
	lpa     uint64
	data    any
	stream  uint64
	epoch   uint64 // write epoch within the stream
	idx     uint64 // FTL append index; noIdx until the append is issued
	urgent  bool   // FUA: write back immediately
	started bool   // handed to the FTL appender
	waited  bool   // a FUA writer waits on durable and frees the entry
	durable bool

	prev, next *cacheEntry // cache list; next doubles as the free-list link
	flight     *cacheEntry // next entry in the flight list
}

// cacheInsert puts the page write command c transferred into the cache and
// does the bookkeeping that follows a transfer: epoch advance for a barrier
// write, writeback kick, FUA accounting. It returns the entry when the
// command must wait for it to become durable (FUA without PLP; the caller
// hands it to fuaRelease afterwards), nil otherwise.
func (d *Device) cacheInsert(c *Command) *cacheEntry {
	e := d.freeEntries
	if e != nil {
		d.freeEntries = e.next
	} else {
		e = d.entrySlab.New(cacheEntry{})
	}
	d.entrySeq++
	*e = cacheEntry{seq: d.entrySeq, lpa: c.LPA, data: c.Data, stream: c.Stream,
		epoch: d.epochs[c.Stream], idx: noIdx, urgent: c.FUA, prev: d.cacheTail}
	if d.cacheTail != nil {
		d.cacheTail.next = e
	} else {
		d.cacheHead = e
	}
	d.cacheTail = e
	if d.wbNext == nil {
		d.wbNext = e
	}
	d.cachePages++
	d.dirtyN++
	if e.urgent {
		d.urgentN++
	}
	if d.live != nil {
		d.live[e.lpa]++
	}
	d.readMap.Set(c.LPA, c.Data)
	d.stats.Writes++
	d.obs.cache.Set(int64(d.cachePages))
	if c.Barrier {
		d.barrierAdvance(c.Stream)
	}
	if d.cfg.EagerWriteback || d.dirtyN >= d.highWater() || e.urgent {
		d.wbCond.Broadcast()
	}
	if !c.FUA {
		return nil
	}
	d.stats.FUAWrites++
	if d.cfg.PLP {
		// The powerfail-protected cache is as durable as the medium: FUA is
		// satisfied at transfer.
		return nil
	}
	e.waited = true
	return e
}

// fuaRelease ends a FUA writer's hold on its entry. A durable entry has left
// the cache and is free for reuse; one that is not (the device died first)
// stays where the crash snapshot and constraint capture can see it.
func (d *Device) fuaRelease(e *cacheEntry) {
	if e.durable {
		d.freeEntry(e)
	}
}

func (d *Device) freeEntry(e *cacheEntry) {
	*e = cacheEntry{next: d.freeEntries}
	d.freeEntries = e
}

// cacheLive reports whether lpa still has a not-yet-durable entry in the
// writeback cache. Only those reads are legitimately served from device
// DRAM; once the page is programmed and retired, a read touches the medium.
// The distinction is moot without fault injection (readMap doubles as the
// flash content shadow), so only fault-armed devices keep the per-page count.
func (d *Device) cacheLive(lpa uint64) bool { return d.live[lpa] > 0 }

// oldestPending returns the seq of the oldest non-durable cache entry, or
// MaxUint64 when the cache is clean.
func (d *Device) oldestPending() uint64 {
	if d.cacheHead == nil {
		return ^uint64(0)
	}
	return d.cacheHead.seq
}

// --- writeback path ---

func (d *Device) highWater() int {
	return int(float64(d.cfg.CachePages) * writebackHighWater)
}

func (d *Device) lowWater() int {
	return int(float64(d.cfg.CachePages) * writebackLowWater)
}

// nextWriteback chooses the next cache entry to append to the FTL. Barrier
// devices preserve transfer order (the paper's UFS FTL appends blocks in
// transfer order, which together with in-order recovery yields the epoch
// guarantee; an urgent entry pulls everything in front of it along). Legacy
// devices scramble within a window of the sixteen oldest dirty entries,
// modelling an arbitrary cache-eviction policy — exactly why they need
// transfer-and-flush.
func (d *Device) nextWriteback() *cacheEntry {
	e := d.wbNext
	if e == nil || d.cfg.BarrierSupport {
		return e
	}
	var window [16]*cacheEntry
	n := 0
	for ; e != nil && n < len(window); e = e.next {
		if e.started {
			continue
		}
		if e.urgent {
			return e
		}
		window[n] = e
		n++
	}
	return window[d.rng.Intn(n)]
}

func (d *Device) shouldWriteback() bool {
	if d.dirtyN == 0 {
		return false
	}
	if d.cfg.EagerWriteback {
		return true
	}
	return d.wantDrain || d.urgentN > 0 || d.dirtyN >= d.lowWater()
}

// startWriteback marks e as handed to the FTL appender and moves the
// writeback cursor past it.
func (d *Device) startWriteback(e *cacheEntry) {
	e.started = true
	d.dirtyN--
	if e.urgent {
		d.urgentN--
	}
	for d.wbNext != nil && d.wbNext.started {
		d.wbNext = d.wbNext.next
	}
}

// appended records the index the FTL issued e's program under, queues e for
// the reaper and kicks it.
func (d *Device) appended(e *cacheEntry, idx uint64) {
	e.idx = idx
	if d.flightTail != nil {
		d.flightTail.flight = e
	} else {
		d.flightHead = e
	}
	d.flightTail = e
	d.reapCond.Broadcast()
}

// retireDurable drops from the cache every entry the FTL's durability
// watermark has passed, freeing their slots and waking FUA, flush and
// cache-admission waiters. The reaper calls it after waiting for the flight
// list's head to become durable, so at least that entry retires.
func (d *Device) retireDurable() {
	durableTo := d.f.DurableIdx()
	for e := d.flightHead; e != nil && e.idx < durableTo; e = d.flightHead {
		d.flightHead = e.flight
		if d.flightHead == nil {
			d.flightTail = nil
		}
		if e.prev != nil {
			e.prev.next = e.next
		} else {
			d.cacheHead = e.next
		}
		if e.next != nil {
			e.next.prev = e.prev
		} else {
			d.cacheTail = e.prev
		}
		d.cachePages--
		if d.live != nil {
			if d.live[e.lpa]--; d.live[e.lpa] == 0 {
				delete(d.live, e.lpa)
			}
		}
		e.durable = true
		if !e.waited {
			d.freeEntry(e)
		}
	}
	d.obs.cache.Set(int64(d.cachePages))
	d.doneCond.Broadcast()
}
