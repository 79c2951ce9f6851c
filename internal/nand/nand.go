// Package nand models a multi-channel/multi-way NAND flash array at page
// granularity. Each chip services program/read/erase jobs from its own
// queue; chips on the same channel share the channel bus for data transfer,
// so programs on different chips overlap (the parallelism the paper's Fig. 1
// sweep exercises) while bus transfers serialize.
//
// Real NAND constraints that matter for the reproduction are enforced:
// pages within a block must be programmed strictly in order, a page cannot
// be reprogrammed without an erase, and a power failure loses any program
// operation that has not completed — the physical basis of the FTL's
// LFS-style in-order crash recovery (§3.2 of the paper).
package nand

import (
	"fmt"
	"sync"

	"repro/internal/fault"
	"repro/internal/sim"
)

// Geometry describes the physical shape of the array.
type Geometry struct {
	Channels       int // independent channel buses
	WaysPerChannel int // chips per channel
	BlocksPerChip  int
	PagesPerBlock  int
	PageSize       int // bytes, informational (the simulator moves metadata, not payloads)
}

// Chips returns the total chip count.
func (g Geometry) Chips() int { return g.Channels * g.WaysPerChannel }

// PagesPerChip returns the number of pages on one chip.
func (g Geometry) PagesPerChip() int { return g.BlocksPerChip * g.PagesPerBlock }

// TotalPages returns the number of pages in the whole array.
func (g Geometry) TotalPages() int { return g.Chips() * g.PagesPerChip() }

// Validate reports a descriptive error for nonsensical geometry.
func (g Geometry) Validate() error {
	if g.Channels <= 0 || g.WaysPerChannel <= 0 || g.BlocksPerChip <= 0 || g.PagesPerBlock <= 0 {
		return fmt.Errorf("nand: invalid geometry %+v", g)
	}
	return nil
}

// Timing holds the operation latencies of one page-sized unit.
type Timing struct {
	Program sim.Duration // cell program time (tPROG)
	Read    sim.Duration // array read time (tR)
	Erase   sim.Duration // block erase time (tBERS)
	BusXfer sim.Duration // channel bus transfer of one page
}

// PageMeta is the out-of-band metadata stored with every programmed page.
// The FTL uses it to rebuild the mapping table during recovery.
type PageMeta struct {
	LPA uint64 // logical page address
	Seq uint64 // monotonically increasing log sequence number
}

// OpKind selects the NAND operation.
type OpKind int

// NAND operations.
const (
	OpProgram OpKind = iota
	OpRead
	OpErase
)

func (o OpKind) String() string {
	switch o {
	case OpProgram:
		return "program"
	case OpRead:
		return "read"
	case OpErase:
		return "erase"
	}
	return "invalid"
}

// Request is one NAND job. Done, if non-nil, is invoked from the chip's
// process when the operation completes; it never fires for jobs lost to a
// power failure.
type Request struct {
	Kind  OpKind
	Chip  int
	Block int
	Page  int // ignored for erase
	Meta  PageMeta
	Data  any
	Done  func(at sim.Time, r *Request)
	// Awaiter, if set, is the process whose expected completions this job
	// counts in (sim.Proc.Expect/Await): completion counts one arrival for
	// it, after Done. Jobs lost to a power failure never arrive.
	Awaiter *sim.Proc

	// Err is set before Done fires when the operation violated a NAND
	// constraint (e.g. out-of-order program) or hit an injected media
	// error (fault.ErrUNC). Such operations return no data.
	Err error

	// NoFault exempts the request from media-error injection: device-
	// internal reads (GC relocation, recovery scans) are protected by
	// on-die parity in real drives and must never silently lose data.
	// GC-interference latency scaling still applies.
	NoFault bool

	gen uint64 // power-cycle generation at submit time
}

// finish delivers a completed job: Done, then the Awaiter's arrival.
func (r *Request) finish(at sim.Time) {
	if r.Done != nil {
		r.Done(at, r)
	}
	if p := r.Awaiter; p != nil {
		r.Awaiter = nil
		p.Arrive()
	}
}

// blockState is the per-block bookkeeping. Pages are programmed strictly in
// order and only an erase takes them back, so page i of a block is programmed
// exactly when i < next; what the pages hold lives in the Array's flat meta
// and data slices.
type blockState struct {
	next   int // next programmable page index
	erases int
}

// chip phases of the service state machine. Each phase names the one
// continuation the chip armed before yielding; everything between two
// phases executes run-to-completion inside a single activation.
const (
	chipIdle     = iota // fetching the next job from the queue
	chipPgmBus          // acquiring the channel bus for the data transfer
	chipPgmXfer         // bus transfer in progress
	chipPgmCell         // cell program (tPROG) in progress
	chipReadCell        // array read (tR) in progress
	chipReadBus         // acquiring the channel bus for the read-out
	chipReadXfer        // read-out bus transfer in progress
	chipErase           // block erase (tBERS) in progress
)

type chip struct {
	id     int
	ch     int
	q      *sim.Queue[*Request] // the chip's entry in Array.queues
	blocks []blockState         // the chip's run of Array.blocks

	phase int      // service state machine position
	cur   *Request // job in service
}

// Stats are cumulative operation counts.
type Stats struct {
	Programs int64
	Reads    int64
	Erases   int64
	LostJobs int64 // jobs dropped by power failure
	Faults   int64 // constraint violations (FTL bugs)
}

// Array is the flash array. All methods must be called from sim processes
// (or before the kernel runs).
type Array struct {
	k      *sim.Kernel
	geo    Geometry
	timing Timing
	buses  []*sim.Mutex
	gen    uint64 // incremented on every power failure
	failed bool

	// Every chip's state, block bookkeeping and job queue, each kind in one
	// flat array: a chip costs the host no allocation of its own.
	chips  []chip
	blocks []blockState
	queues []sim.Queue[*Request]

	// pageStore's meta and data hold every page's content, indexed by
	// slot(): two flat slices for the whole array, meta pointer-free so the
	// collector never scans it. A fresh array is most of a simulated
	// machine's heap; held as a pointer-bearing slice per block (8192 on the
	// NVMe geometry) it takes the collector tens of milliseconds to mark,
	// long enough to span one machine's tear-down and the next one's build,
	// count both as live, and make the peak memory of identical runs differ
	// by half. The pair is recycled through freeStores when the kernel
	// closes.
	pageStore

	// ProgramScale inflates program latency; the device layer uses it to
	// model the 5% barrier-overhead penalty of the paper's plain-SSD setup.
	ProgramScale float64

	// fault, when set, injects media read errors, read-retry latency,
	// transient program retries and GC-interference scaling. Nil (the
	// default) makes zero draws and changes nothing.
	fault *fault.Injector

	stats Stats
}

// SetFault installs a fault injector. Must be called before the kernel
// runs; nil disables injection.
func (a *Array) SetFault(in *fault.Injector) { a.fault = in }

// New builds the array and spawns one service process per chip. A device
// lives until its kernel closes: Close hands its page store to the next New
// of the same size, and any later use of the Array panics.
func New(k *sim.Kernel, geo Geometry, timing Timing) *Array {
	if err := geo.Validate(); err != nil {
		panic(err)
	}
	a := &Array{k: k, geo: geo, timing: timing, ProgramScale: 1.0}
	a.pageStore = takeStore(geo.TotalPages())
	k.OnClose(a.release)
	a.buses = make([]*sim.Mutex, geo.Channels)
	for i := range a.buses {
		a.buses[i] = sim.NewMutex(k)
	}
	n := geo.Chips()
	a.chips = make([]chip, n)
	a.blocks = make([]blockState, n*geo.BlocksPerChip)
	a.queues = sim.NewQueues[*Request](k, n, chipQueueCap)
	step := a.serveChip
	for id := range a.chips {
		a.chips[id] = chip{id: id, ch: id % geo.Channels, q: &a.queues[id],
			blocks: a.blocks[id*geo.BlocksPerChip : (id+1)*geo.BlocksPerChip]}
		k.SpawnHandlerIdx("nand/chip", id, step)
	}
	return a
}

// chipQueueCap is the room each chip queue has before its first growth.
const chipQueueCap = 4

// serveChip is the step of every chip handler: the handler's spawn index
// is its chip.
func (a *Array) serveChip(h *sim.Proc) { a.chipStep(h, &a.chips[h.Idx()]) }

// freeStores holds the page stores of closed arrays, as sim's freeQueues
// holds the event queues of closed kernels. An NVMe-class store is 16.8 MB
// (524 288 pages × 32 B) of which a run programs a few percent, so the next
// New of the same size clears far less by taking it than by allocating.
// Kernels close and build on several goroutines at once (par.For), hence
// the mutex; a sync.Pool would not do, since the collection between one run
// and the next empties it.
var freeStores struct {
	sync.Mutex
	list []pageStore
}

// pageStore is one array's page content, indexed by slot().
type pageStore struct {
	meta []PageMeta
	data []any
}

// takeStore returns a blank page store of n pages, recycled if one is free.
func takeStore(n int) pageStore {
	freeStores.Lock()
	for i, st := range freeStores.list {
		if len(st.meta) == n {
			last := len(freeStores.list) - 1
			freeStores.list[i] = freeStores.list[last]
			freeStores.list = freeStores.list[:last]
			freeStores.Unlock()
			return st
		}
	}
	freeStores.Unlock()
	return pageStore{make([]PageMeta, n), make([]any, n)}
}

// release ends the array's life when its kernel closes: it blanks the page
// store and frees it for the next New. Clearing each block's [0, next) is
// enough because a slot at or past its block's next is always zero — store
// writes only at next, an erase wipes the block, a lost program never stores
// — so pages no run touched stay untouched and non-resident. The Array's
// slices go nil, so a closed device panics on use rather than reading
// another device's pages.
func (a *Array) release() {
	for i, blk := range a.blocks {
		lo := i * a.geo.PagesPerBlock // a.slot of the block's page 0
		clear(a.meta[lo : lo+blk.next])
		clear(a.data[lo : lo+blk.next])
	}
	freeStores.Lock()
	freeStores.list = append(freeStores.list, a.pageStore)
	freeStores.Unlock()
	a.pageStore, a.chips, a.blocks = pageStore{}, nil, nil
}

// slot returns the index of a page in meta and data.
func (a *Array) slot(chipID, block, page int) int {
	return (chipID*a.geo.BlocksPerChip+block)*a.geo.PagesPerBlock + page
}

// store records a completed program; load returns what a page holds (zero
// values for an unprogrammed page); wipe is the erase of a block's pages.
func (a *Array) store(chipID int, r *Request) {
	i := a.slot(chipID, r.Block, r.Page)
	a.meta[i], a.data[i] = r.Meta, r.Data
}

func (a *Array) load(chipID, block, page int) (PageMeta, any) {
	i := a.slot(chipID, block, page)
	return a.meta[i], a.data[i]
}

func (a *Array) wipe(chipID, block int) {
	lo := a.slot(chipID, block, 0)
	clear(a.meta[lo : lo+a.geo.PagesPerBlock])
	clear(a.data[lo : lo+a.geo.PagesPerBlock])
}

// Geometry returns the array geometry.
func (a *Array) Geometry() Geometry { return a.geo }

// Stats returns cumulative operation counts.
func (a *Array) Stats() Stats { return a.stats }

// Submit enqueues a job on its chip. Submissions during a power failure are
// dropped silently, like DMA into a dead device.
func (a *Array) Submit(r *Request) {
	if r.Chip < 0 || r.Chip >= len(a.chips) {
		panic(fmt.Sprintf("nand: chip %d out of range", r.Chip))
	}
	if a.failed {
		a.stats.LostJobs++
		return
	}
	r.gen = a.gen
	a.chips[r.Chip].q.Put(r)
}

// programLatency returns the cell-program time for one attempt starting
// at now: the base tPROG (with the device's ProgramScale), inflated by
// injected GC interference and transient in-chip retries (each retry
// re-pays the cell time). With no injector this is exactly the base term.
func (a *Array) programLatency(now sim.Time) sim.Duration {
	d := a.timing.Program.Scale(a.ProgramScale)
	if a.fault != nil {
		d = d.Scale(a.fault.GCProgramScale(now))
		if n := a.fault.ProgramRetries(); n > 0 {
			d += d.Scale(float64(n))
		}
	}
	return d
}

// readLatency returns the array-read time for an attempt starting at now
// plus any injected read-retry ladder latency, and the attempt's media
// error (fault.ErrUNC) if the retries did not correct it. NoFault
// requests skip the error draws but still see GC-interference scaling.
func (a *Array) readLatency(now sim.Time, r *Request) (sim.Duration, error) {
	if a.fault == nil {
		return a.timing.Read, nil
	}
	var extra sim.Duration
	var err error
	if !r.NoFault {
		extra, err = a.fault.Read()
	}
	return (a.timing.Read + extra).Scale(a.fault.GCReadScale(now)), err
}

// chipStep is the run-to-completion chip service handler: it takes the
// next job from the chip's queue and serves it, one phase per wait (bus
// acquisition, bus transfer, cell time), everything in between executed
// inline on the dispatching goroutine. A job submitted before a power
// failure is dropped at whichever phase first sees the new generation.
func (a *Array) chipStep(h *sim.Proc, c *chip) {
	for {
		switch c.phase {
		case chipIdle:
			r, got := c.q.GetOrPark(h)
			if !got {
				return // parked on the queue
			}
			if r.gen != a.gen || a.failed {
				a.stats.LostJobs++
				continue
			}
			c.cur = r
			switch r.Kind {
			case OpProgram:
				blk := &c.blocks[r.Block]
				if r.Page != blk.next {
					r.Err = fmt.Errorf("nand: chip %d block %d: program page %d violates in-order rule (next=%d)",
						c.id, r.Block, r.Page, blk.next)
					a.stats.Faults++
					c.cur = nil
					r.finish(h.Now())
					continue
				}
				c.phase = chipPgmBus
			case OpRead:
				c.phase = chipReadCell
				d, ferr := a.readLatency(h.Now(), r)
				r.Err = ferr
				if d > 0 {
					h.WakeIn(d)
					return
				}
			case OpErase:
				c.phase = chipErase
				if d := a.timing.Erase; d > 0 {
					h.WakeIn(d)
					return
				}
			}

		case chipPgmBus:
			if !a.buses[c.ch].LockOrPark(h) {
				return // parked on the bus
			}
			c.phase = chipPgmXfer
			if d := a.timing.BusXfer; d > 0 {
				h.WakeIn(d)
				return
			}
		case chipPgmXfer:
			a.buses[c.ch].Unlock()
			c.phase = chipPgmCell
			if d := a.programLatency(h.Now()); d > 0 {
				h.WakeIn(d)
				return
			}
		case chipPgmCell:
			r := c.cur
			c.cur = nil
			c.phase = chipIdle
			if r.gen != a.gen || a.failed {
				// Power failed mid-program: the page is lost, not half-written
				// in any observable way (we model clean page loss; the
				// recovery scan treats it as unprogrammed).
				a.stats.LostJobs++
				continue
			}
			blk := &c.blocks[r.Block]
			a.store(c.id, r)
			blk.next++
			a.stats.Programs++
			r.finish(h.Now())

		case chipReadCell:
			c.phase = chipReadBus
		case chipReadBus:
			if !a.buses[c.ch].LockOrPark(h) {
				return
			}
			c.phase = chipReadXfer
			if d := a.timing.BusXfer; d > 0 {
				h.WakeIn(d)
				return
			}
		case chipReadXfer:
			a.buses[c.ch].Unlock()
			r := c.cur
			c.cur = nil
			c.phase = chipIdle
			if r.gen != a.gen || a.failed {
				a.stats.LostJobs++
				continue
			}
			if r.Err == nil {
				r.Meta, r.Data = a.load(c.id, r.Block, r.Page)
			}
			a.stats.Reads++
			r.finish(h.Now())

		case chipErase:
			r := c.cur
			c.cur = nil
			c.phase = chipIdle
			if r.gen != a.gen || a.failed {
				a.stats.LostJobs++
				continue
			}
			blk := &c.blocks[r.Block]
			blk.next = 0
			blk.erases++
			a.wipe(c.id, r.Block)
			a.stats.Erases++
			r.finish(h.Now())
		}
	}
}

// Fail simulates power loss: all queued and in-flight jobs are lost and no
// further completions fire until Restore.
func (a *Array) Fail() {
	a.failed = true
	a.gen++
}

// Restore re-energizes the array after Fail. Programmed state survives, and
// with it each block's in-order program pointer, which only a completed
// program advances: partially written blocks continue after their last
// programmed page (matching how the FTL's recovery reuses or seals partial
// segments).
func (a *Array) Restore() { a.failed = false }

// Failed reports whether the array is currently powered off.
func (a *Array) Failed() bool { return a.failed }

// PageInfo returns the durable state of a page for recovery scans and
// verification: whether it is programmed, and if so its metadata and data.
func (a *Array) PageInfo(chipID, block, page int) (programmed bool, meta PageMeta, data any) {
	if page >= a.chips[chipID].blocks[block].next {
		return false, PageMeta{}, nil
	}
	meta, data = a.load(chipID, block, page)
	return true, meta, data
}

// NextPage returns the in-order program pointer of a block.
func (a *Array) NextPage(chipID, block int) int {
	return a.chips[chipID].blocks[block].next
}
