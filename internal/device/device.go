package device

import (
	"math/rand"

	"repro/internal/fault"
	"repro/internal/ftl"
	"repro/internal/metrics"
	"repro/internal/nand"
	"repro/internal/reqtrace"
	"repro/internal/sim"
)

// Stats are cumulative device statistics.
type Stats struct {
	Writes      int64
	Reads       int64
	Flushes     int64
	Barriers    int64 // writes carrying the barrier flag
	FUAWrites   int64
	BusyRejects int64 // submissions rejected with a full queue
	FutileWakes int64 // workers woken for a command that found none to pick
	CacheHits   int64
	ReadErrors  int64 // reads completed with an uncorrectable media error
}

// Device is the simulated storage device.
type Device struct {
	k   *sim.Kernel
	cfg Config
	arr *nand.Array
	f   *ftl.FTL
	rng *rand.Rand
	inj *fault.Injector // nil unless cfg.Fault is set

	// Command queue (see queue.go).
	occupancy int // commands queued or in service
	cmdSeq    uint64
	order     map[uint64]*streamOrder // per-stream incomplete-command index
	order0    *streamOrder            // order[0]: the single-queue fast path
	ready     []*Command              // queued commands eligible for service, by seq
	readyHoQ  int                     // head-of-queue commands among them
	pickers   int                     // workers about to run pick (see wakePickers)

	// Writeback cache (see cache.go).
	cacheHead, cacheTail   *cacheEntry // not-yet-durable pages in transfer order
	wbNext                 *cacheEntry // oldest of them not yet handed to the FTL appender
	flightHead, flightTail *cacheEntry // appended entries awaiting durability, in append order
	freeEntries            *cacheEntry
	entrySlab              sim.Slab[cacheEntry] // where freeEntries grows from
	cachePages             int                  // entries in the cache list
	entrySeq               uint64
	dirtyN                 int               // entries not yet handed to the FTL appender
	urgentN                int               // dirty entries with FUA urgency
	live                   map[uint64]int32  // fault campaigns only: cache entries per LPA
	readMap                ftl.Table[any]    // newest data written per LPA
	epochs                 map[uint64]uint64 // per-stream write epoch (barrier count)

	dmaBus *sim.Mutex

	pickCond  *sim.Cond // workers: a command may have become eligible
	spaceCond *sim.Cond // host: a queue slot may have freed
	wbCond    *sim.Cond // writeback daemon kick
	reapCond  *sim.Cond // durability reaper kick
	doneCond  *sim.Cond // cache entries became durable (flush/FUA waits)

	wantDrain   bool // writeback daemon should drain everything
	barrierOn   bool // a barrier write has been seen; penalty active
	dead        bool
	plpSnapshot []plpPage // cache image the supercap saved at Crash

	// Service-process state machines (see handler.go): one per command
	// worker, in one array, and the writeback daemon's and reaper's.
	workers []workerSM
	wb      wbSM
	reap    reapSM

	qdSeries *metrics.Series // nil until QDSeries is first called
	stats    Stats
	obs      devObs
}

// plpPage is one cached page in a power-loss-protected device's crash image.
type plpPage struct {
	lpa  uint64
	data any
}

// devObs holds the device's registry instruments. With no registry every
// field is nil and the nil-safe instrument methods reduce each update to a
// branch; spans go through the kernel and are likewise nil-checked there.
type devObs struct {
	writes, reads, flushes *metrics.Counter
	barriers, fua          *metrics.Counter
	readErrs               *metrics.Counter
	qdepth, cache          *metrics.Gauge
	epochMax, epochStreams *metrics.Gauge
	maxEpoch               uint64 // deepest per-stream epoch seen
}

// cmdSpanName labels a command's trace span; begin and end must agree for
// Chrome's async pairing, so it depends only on immutable command fields.
func cmdSpanName(c *Command) string {
	switch c.Kind {
	case CmdFlush:
		return "flush"
	case CmdBarrier:
		return "barrier"
	case CmdRead:
		return "read"
	default:
		if c.Barrier {
			return "write+barrier"
		}
		return "write"
	}
}

// New builds a device with a freshly formatted FTL and starts its service
// processes.
func New(k *sim.Kernel, cfg Config) *Device {
	cfg = defaults(cfg)
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	arr := nand.New(k, cfg.Geometry, cfg.Timing)
	d := newDevice(k, cfg, arr)
	d.f = ftl.New(k, arr, cfg.FTL)
	d.start()
	return d
}

func newDevice(k *sim.Kernel, cfg Config, arr *nand.Array) *Device {
	d := &Device{
		k: k, cfg: cfg, arr: arr,
		rng:       rand.New(rand.NewSource(cfg.Seed ^ 0x5eed)),
		order:     make(map[uint64]*streamOrder),
		order0:    newStreamOrder(),
		epochs:    make(map[uint64]uint64),
		dmaBus:    sim.NewMutex(k),
		pickCond:  sim.NewCond(k),
		spaceCond: sim.NewCond(k),
		wbCond:    sim.NewCond(k),
		reapCond:  sim.NewCond(k),
		doneCond:  sim.NewCond(k),
	}
	d.inj = fault.New(cfg.Fault)
	if cfg.Fault != nil {
		d.live = make(map[uint64]int32)
	}
	arr.SetFault(d.inj)
	if reg := metrics.Resolve(cfg.Metrics); reg != nil {
		d.obs = devObs{
			writes:       reg.Counter("device/writes"),
			reads:        reg.Counter("device/reads"),
			flushes:      reg.Counter("device/flushes"),
			barriers:     reg.Counter("device/barriers"),
			fua:          reg.Counter("device/fua"),
			readErrs:     reg.Counter("device/read.errors"),
			qdepth:       reg.Gauge("device/queue.depth"),
			cache:        reg.Gauge("device/cache.pages"),
			epochMax:     reg.Gauge("device/epoch.max"),
			epochStreams: reg.Gauge("device/epoch.streams"),
		}
	}
	return d
}

// start spawns the device's service processes as run-to-completion
// handlers (handler.go): one command worker per queue slot, the writeback
// daemon and the durability reaper.
func (d *Device) start() {
	prefix := d.cfg.Name + "/worker"
	d.pickers = d.cfg.QueueDepth // every worker's first activation runs pick
	d.workers = make([]workerSM, d.cfg.QueueDepth)
	step := d.serveWorker
	for i := range d.workers {
		d.k.SpawnHandlerIdx(prefix, i, step)
	}
	d.k.SpawnHandler(d.cfg.Name+"/writeback", d.writebackStep)
	d.k.SpawnHandler(d.cfg.Name+"/reaper", d.reaperStep)
}

// Array exposes the NAND array (verification hooks).
func (d *Device) Array() *nand.Array { return d.arr }

// FTL exposes the translation layer (verification hooks).
func (d *Device) FTL() *ftl.FTL { return d.f }

// Stats returns cumulative statistics.
func (d *Device) Stats() Stats { return d.stats }

// QDSeries returns the queue-depth trace (Figs. 10, 12). Recording starts
// with the first call, at the occupancy of that instant, and costs nothing
// on a device nobody asked: take the handle before the window of interest.
func (d *Device) QDSeries() *metrics.Series {
	if d.qdSeries == nil {
		d.qdSeries = metrics.NewSeries(d.cfg.Name + "/qd")
		d.qdSeries.Record(d.k.Now(), float64(d.occupancy))
	}
	return d.qdSeries
}

// CurEpoch returns the write epoch of stream 0 (the only stream a
// single-queue host uses), i.e. the device-global barrier count.
func (d *Device) CurEpoch() uint64 { return d.epochs[0] }

// StreamEpoch returns the current write epoch of one stream.
func (d *Device) StreamEpoch(stream uint64) uint64 { return d.epochs[stream] }

// Dead reports whether the device has crashed.
func (d *Device) Dead() bool { return d.dead }

// Submit offers a command to the device. It returns false when the command
// queue is full or the device is dead; the host must retry (the block
// layer's dispatch module handles that, §3.4 Fig. 6b).
func (d *Device) Submit(c *Command) bool {
	if d.dead {
		return false
	}
	if d.occupancy >= d.cfg.QueueDepth {
		d.stats.BusyRejects++
		return false
	}
	d.cmdSeq++
	c.seq = d.cmdSeq
	c.Err = nil // commands are pooled; reset per admission
	d.occupancy++
	d.admit(c)
	d.qdSeries.Record(d.k.Now(), float64(d.occupancy))
	if d.obs.qdepth != nil {
		d.obs.qdepth.Set(int64(d.occupancy))
	}
	if d.k.Spans() != nil {
		d.k.SpanBegin("device", cmdSpanName(c), c.seq)
	}
	d.wakePickers()
	return true
}

// WaitSpace blocks until the queue has a free slot (or the device dies). A
// completion wakes one waiter per freed slot, so the caller is expected to
// follow up with Submit, as every `for !Submit(c) { WaitSpace(p) }` loop
// does: a waiter that walks away leaves the slot unannounced to the others.
func (d *Device) WaitSpace(p *sim.Proc) {
	for !d.dead && d.occupancy >= d.cfg.QueueDepth {
		d.spaceCond.Wait(p)
	}
}

// --- command servicing (the workers' state machine is in handler.go) ---

// barrierAdvance is the epoch-advance bookkeeping a barrier performs
// (standalone barrier command and barrier-flagged write alike).
func (d *Device) barrierAdvance(stream uint64) {
	d.stats.Barriers++
	d.epochs[stream]++
	if d.obs.barriers != nil {
		d.obs.barriers.Inc()
		d.obs.epochStreams.Set(int64(len(d.epochs)))
		if e := d.epochs[stream]; e > d.obs.maxEpoch {
			d.obs.maxEpoch = e
			d.obs.epochMax.Set(int64(e))
		}
	}
	if d.cfg.BarrierPenalty > 0 && !d.barrierOn {
		d.barrierOn = true
		d.arr.ProgramScale = 1 + d.cfg.BarrierPenalty
	}
}

func (d *Device) complete(p *sim.Proc, c *Command) {
	d.occupancy--
	d.retire(c)
	d.qdSeries.Record(p.Now(), float64(d.occupancy))
	if d.obs.writes != nil {
		d.obs.qdepth.Set(int64(d.occupancy))
		switch c.Kind {
		case CmdFlush:
			d.obs.flushes.Inc()
		case CmdWrite:
			d.obs.writes.Inc()
			if c.PreFlush {
				d.obs.flushes.Inc()
			}
			if c.FUA {
				d.obs.fua.Inc()
			}
		case CmdRead:
			d.obs.reads.Inc()
		}
	}
	if d.k.Spans() != nil {
		d.k.SpanEnd("device", cmdSpanName(c), c.seq)
	}
	c.Trace.StampChain(reqtrace.StageDevDone, p.Now())
	d.spaceCond.Signal() // one freed slot admits one waiting submitter
	d.pickers++          // this worker re-picks inline as soon as complete returns
	d.wakePickers()
	if c.Done != nil {
		c.Done(p.Now(), c)
	}
}

// --- crash & recovery ---

// Crash simulates power failure: in-flight commands vanish, the NAND array
// drops in-flight programs, and — unless the device has PLP — the writeback
// cache is lost. The device object is dead afterwards; use Recover to bring
// the storage back as a new Device.
func (d *Device) Crash() {
	if d.dead {
		return
	}
	d.dead = true
	// The supercap drains the cache to flash; equivalently, the cache image
	// survives and is replayed at next power-on. A dying supercap
	// (fault.Plan.PLPFailure) drains nothing here: the cache is lost exactly
	// as on an unprotected device, and CaptureConstraints hands the model
	// checker every transfer-order prefix it might have drained.
	if d.cfg.PLP && !d.inj.PLPFailure() {
		for e := d.cacheHead; e != nil; e = e.next {
			d.plpSnapshot = append(d.plpSnapshot, plpPage{e.lpa, e.data})
		}
	}
	d.occupancy = 0
	d.ready, d.readyHoQ = nil, 0
	d.order = make(map[uint64]*streamOrder)
	d.order0 = newStreamOrder()
	d.arr.Fail()
	// Wake every parked process so it can observe death and stand down.
	d.pickCond.Broadcast()
	d.spaceCond.Broadcast()
	d.wbCond.Broadcast()
	d.reapCond.Broadcast()
	d.doneCond.Broadcast()
}

// Recover powers the storage back on: it remounts the FTL from the NAND
// array (running the in-order recovery scan) and replays a PLP cache
// snapshot if one exists. It returns a fresh Device over the same array.
func Recover(p *sim.Proc, crashed *Device) *Device {
	if !crashed.dead {
		panic("device: Recover on a live device")
	}
	k := p.Kernel()
	crashed.arr.Restore()
	crashed.arr.ProgramScale = 1
	d := newDevice(k, crashed.cfg, crashed.arr)
	d.f = ftl.Mount(p, crashed.arr, crashed.cfg.FTL)
	for _, pg := range crashed.plpSnapshot {
		idx := d.f.Append(p, pg.lpa, pg.data)
		d.f.WaitDurable(p, idx+1)
	}
	crashed.plpSnapshot = nil
	d.start()
	return d
}

// DurableData returns the post-crash durable contents of a logical page
// (verification hook; use after Recover).
func (d *Device) DurableData(lpa uint64) (any, bool) { return d.f.DurableData(lpa) }
