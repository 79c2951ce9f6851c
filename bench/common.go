package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/block"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/fs"
	"repro/internal/ftl"
	"repro/internal/jbd"
	"repro/internal/metrics"
	"repro/internal/nand"
	"repro/internal/sim"
)

// passMode selects what one pass of a workload observes.
type passMode int

const (
	// passTimed runs the program with every observer off: no registry, no
	// request tracing, no spans, no dispatch log. Host metrics come from here.
	passTimed passMode = iota
	// passBaseline runs the same inputs on the legacy configuration the
	// paper compares against; only its simulated throughput is used.
	passBaseline
	// passTraced runs the timed configuration with the benchmark's observers
	// attached: registry, kernel stats, dispatch log, submitter shim, spans.
	passTraced
)

// pass is the outcome of one seeded pass of one workload.
type pass struct {
	setup  hostCost // building stacks, generating inputs, preloading, warm-up
	window hostCost // the measured virtual window
	// chunks is the window's CPU time split at fixed virtual instants. A
	// seeded run does identical work in chunk i of every repeat, so the
	// smallest reading of each chunk over the repeats is the one with the
	// least disturbance in it.
	chunks []time.Duration

	ops int64        // ops completed in the window: the denominator of every _per_op metric
	win sim.Duration // virtual length of the window
	lat latencies    // per-op latency samples taken in the window
	// p50, p99 and samples summarise lat; kv-service, whose samples stay
	// inside kvcluster.Run, sets them from the Result instead.
	p50, p99 float64
	samples  int64

	userPages    int64 // 4 KB pages the clients wrote in the window
	nandPrograms int64 // NAND pages programmed in the window

	attempted, failed int64
	ackedLost         int64
	errs              []string // failed correctness checks, by name

	dg     digest
	layers map[string]float64 // per-layer metrics; traced pass only

	// The traced pass's observers; both nil in every other pass, where their
	// nil-safe methods make each use a branch.
	tr  *tracer
	reg *metrics.Registry
}

// newPass starts a pass from a collected heap, so one pass's garbage is not
// collected on the next one's clock, and attaches the observers when traced.
func newPass(mode passMode, window sim.Duration) *pass {
	runtime.GC()
	ps := &pass{dg: newDigest(), win: window}
	if mode == passTraced {
		ps.tr, ps.reg = newTracer(), metrics.NewRegistry()
	}
	return ps
}

func (ps *pass) traced() bool { return ps.tr != nil }

func (ps *pass) fail(format string, args ...any) {
	ps.errs = append(ps.errs, fmt.Sprintf(format, args...))
}

func (ps *pass) opsPerS() float64 { return ratio(float64(ps.ops), ps.win.Seconds()) }

func (ps *pass) writeAmp() float64 { return ratio(float64(ps.nandPrograms), float64(ps.userPages)) }

// seal folds the pass's simulated results into its digest. Host costs stay
// out: they are the part that is allowed to differ between repeats.
func (ps *pass) seal() {
	if len(ps.lat) > 0 {
		ps.p50, ps.p99, ps.samples = ps.lat.pct(50), ps.lat.pct(99), int64(len(ps.lat))
	}
	ps.dg.i64(ps.ops, int64(ps.win), ps.attempted, ps.failed, ps.ackedLost)
	ps.dg.lat(ps.lat)
	// A run keeps every pass; with the samples kept too, host_peak_mb would
	// grow with the number of passes that fit in the run's time.
	ps.lat = nil
}

// newKernel builds a kernel; in the traced pass the registry's kernel stats
// are attached.
func (ps *pass) newKernel() *sim.Kernel {
	k := sim.NewKernel()
	k.AttachStats(ps.reg.KernelStats())
	return k
}

// buildStack wires a single-queue stack. Untraced it is core.NewStack; traced
// it is the same wiring with the block layer's dispatch log on and the shim
// between filesystem and block layer.
func (ps *pass) buildStack(k *sim.Kernel, prof core.Profile) *core.Stack {
	if !ps.traced() {
		return core.NewStack(k, prof)
	}
	if prof.MQQueues != 0 || prof.Sched != core.SchedNOOP {
		panic("bench: traced stacks are single-queue NOOP")
	}
	prof.Metrics, prof.Device.Metrics, prof.FS.Metrics = ps.reg, ps.reg, ps.reg
	dev := device.New(k, prof.Device)
	layer := block.NewLayer(k, dev, block.NewEpochScheduler(block.NewNOOP()), block.LayerConfig{
		DispatchOverhead: prof.DispatchOverhead,
		BarrierAsCommand: prof.BarrierAsCommand,
		Trace:            true,
		Metrics:          ps.reg,
		Retry:            prof.Retry,
	})
	front := &shim{inner: layer, tr: ps.tr}
	return &core.Stack{Profile: prof, K: k, Dev: dev, Layer: layer, Front: front,
		FS: fs.New(k, front, prof.FS)}
}

// devCounts is a reading of everything countable from a device handle down.
type devCounts struct {
	dev  device.Stats
	ftl  ftl.Stats
	nand nand.Stats
}

func countDevice(d *device.Device) devCounts {
	return devCounts{dev: d.Stats(), ftl: d.FTL().Stats(), nand: d.Array().Stats()}
}

// kernelCounts is a reading of the kernel's own work counters.
type kernelCounts struct {
	handler, goroutine, stale, poolMisses int64
}

func countKernel(ks *sim.KernelStats) kernelCounts {
	if ks == nil {
		return kernelCounts{}
	}
	return kernelCounts{
		handler:    ks.HandlerDispatches.Load(),
		goroutine:  ks.GoroutineDispatches.Load(),
		stale:      ks.StaleEvents.Load(),
		poolMisses: ks.PoolMisses.Load(),
	}
}

func (c kernelCounts) events() int64 { return c.handler + c.goroutine }

// deviceLayers fills the sim, nand, ftl and device count metrics from two
// readings taken at the window's edges.
func deviceLayers(m map[string]float64, a, b devCounts, ka, kb kernelCounts, ops int64) {
	n := float64(ops)
	m["sim.events_per_op"] = ratio(float64(kb.events()-ka.events()), n)
	m["sim.goroutine_dispatch_share"] = ratio(float64(kb.goroutine-ka.goroutine), float64(kb.events()-ka.events()))
	m["sim.stale_events_per_op"] = ratio(float64(kb.stale-ka.stale), n)
	m["sim.pool_misses"] = float64(kb.poolMisses - ka.poolMisses)
	m["nand.programs_per_op"] = ratio(float64(b.nand.Programs-a.nand.Programs), n)
	m["nand.reads_per_op"] = ratio(float64(b.nand.Reads-a.nand.Reads), n)
	m["nand.erases"] = float64(b.nand.Erases - a.nand.Erases)
	m["ftl.gc_appends_per_op"] = ratio(float64(b.ftl.GCAppends-a.ftl.GCAppends), n)
	m["ftl.stalls"] = float64(b.ftl.Stalls - a.ftl.Stalls)
	m["ftl.host_appends_per_op"] = ratio(float64(b.ftl.HostAppends-a.ftl.HostAppends), n)
	m["device.writes_per_op"] = ratio(float64(b.dev.Writes-a.dev.Writes), n)
	m["device.flushes_per_op"] = ratio(float64(b.dev.Flushes-a.dev.Flushes), n)
	m["device.barriers_per_op"] = ratio(float64(b.dev.Barriers-a.dev.Barriers), n)
	m["device.fua_per_op"] = ratio(float64(b.dev.FUAWrites-a.dev.FUAWrites), n)
	m["device.reads_per_op"] = ratio(float64(b.dev.Reads-a.dev.Reads), n)
	m["device.cache_hit_share"] = ratio(float64(b.dev.CacheHits-a.dev.CacheHits), float64(b.dev.Reads-a.dev.Reads))
	m["device.busy_rejects"] = float64(b.dev.BusyRejects - a.dev.BusyRejects)
}

// blockLayers fills the latency metrics the shim and the dispatch log give.
func blockLayers(m map[string]float64, tr *tracer, log []block.DispatchRecord, from, to sim.Time, ops int64) {
	queue, inflight, service, failed := tr.blockStats(log, from, to)
	m["block.requests_per_op"] = ratio(float64(len(inflight)), float64(ops))
	m["block.queue_us_p50"] = queue.pct(50)
	m["block.queue_us_p99"] = queue.pct(99)
	m["block.inflight_us_p50"] = inflight.pct(50)
	m["block.inflight_us_p99"] = inflight.pct(99)
	m["block.io_errors"] = float64(failed)
	m["device.service_us_p50"] = service.pct(50)
	m["device.service_us_p99"] = service.pct(99)
}

// journalLayers fills the jbd and fs count metrics from two readings taken at
// the window's edges.
func journalLayers(m map[string]float64, ja, jb jbd.Stats, fa, fb fs.Stats, ops int64) {
	n := float64(ops)
	m["jbd.commits_per_op"] = ratio(float64(jb.Commits-ja.Commits), n)
	m["jbd.pages_logged_per_commit"] = ratio(float64(jb.PagesLogged-ja.PagesLogged), float64(jb.Commits-ja.Commits))
	m["jbd.flushes_per_op"] = ratio(float64(jb.Flushes-ja.Flushes), n)
	m["jbd.checkpoints"] = float64(jb.Checkpoints - ja.Checkpoints)
	m["jbd.conflict_parks"] = float64(jb.ConflictParked - ja.ConflictParked)
	m["jbd.conflict_blocks"] = float64(jb.ConflictBlocks - ja.ConflictBlocks)
	m["jbd.max_committing"] = float64(jb.MaxCommitting)
	m["fs.pdflush_runs"] = float64(fb.PdflushRuns - fa.PdflushRuns)
	m["fs.pages_written_per_op"] = ratio(float64(fb.PagesWritten-fa.PagesWritten), n)
}

// epochsClosed reads the single-queue layer's epoch scheduler.
func epochsClosed(l *block.Layer) int64 {
	return l.Scheduler().(*block.EpochScheduler).EpochsClosed()
}

// windowChunks is how many pieces a measured window is timed in.
const windowChunks = 8

// measure runs kernel k to the end of the measured window, reading the host
// counters at its edges and the CPU clock at every chunk boundary.
func (ps *pass) measure(k *sim.Kernel, end sim.Time) {
	from := k.Now()
	w0 := readHost()
	last := w0.cpu
	for i := 1; i <= windowChunks; i++ {
		k.RunUntil(from.Add(end.Sub(from) * sim.Duration(i) / windowChunks))
		now := cpuNow()
		ps.chunks = append(ps.chunks, now-last)
		last = now
	}
	ps.window = readHost().since(w0)
}
