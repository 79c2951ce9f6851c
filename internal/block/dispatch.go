package block

import (
	"repro/internal/device"
	"repro/internal/metrics"
	"repro/internal/reqtrace"
	"repro/internal/sim"
)

// LayerConfig tunes the block layer.
type LayerConfig struct {
	// DispatchOverhead is the host-side cost of dispatching one command
	// (the paper's tD).
	DispatchOverhead sim.Duration
	// QueueLimit bounds the requests buffered in the layer (scheduler +
	// staging), like the kernel's nr_requests; submitters block beyond it.
	// 0 means the default of 128.
	QueueLimit int
	// BarrierAsCommand dispatches epoch boundaries as standalone barrier
	// commands instead of write flags — the §3.2 alternative the paper
	// rejects. Useful for the ablation benchmark.
	BarrierAsCommand bool
	// Trace records the dispatch order for verification.
	Trace bool
	// Retry, when non-nil, arms bounded per-class command retry with
	// backoff (see RetryPolicy). Nil — the default — propagates device
	// errors to Request.Err on first completion.
	Retry *RetryPolicy
	// Metrics resolves the registry for the retry counters; nil falls back
	// to the process-wide live registry.
	Metrics *metrics.Registry
}

// DispatchRecord is one entry of the dispatch trace.
type DispatchRecord struct {
	At     sim.Time
	LPA    uint64
	Op     Op
	Flags  Flags
	Epoch  uint64
	Stream uint64
	// HWQueue is the hardware dispatch queue that issued the command (always
	// 0 on the single-queue Layer).
	HWQueue int
}

// Submitter is the request-submission surface a filesystem stack builds on.
// It is satisfied by the single-queue *Layer and by the multi-queue
// blkmq.MQ front-end.
type Submitter interface {
	// Submit queues a request without waiting for it.
	Submit(p *sim.Proc, r *Request)
	// SubmitAndWait submits r and blocks until completion (Wait-on-Transfer).
	SubmitAndWait(p *sim.Proc, r *Request)
	// Flush issues a standalone cache flush and waits for it.
	Flush(p *sim.Proc)
	// FlushT is Flush carrying a trace context: the flush command's
	// completion is the real durability point on transfer-and-flush
	// stacks, so the context rides it into the device.
	FlushT(p *sim.Proc, tc reqtrace.Ctx)
	// SubmitOrPark is the handler analogue of Submit — one congestion Mesa
	// iteration: it either admits r (true) or parks the run-to-completion
	// handler h on the congestion condition exactly where Submit would have
	// blocked (false; re-invoke with the same request on the next
	// activation).
	SubmitOrPark(h *sim.Proc, r *Request) bool
}

// LayerStats are cumulative block-layer statistics.
type LayerStats struct {
	Submitted  int64
	Dispatched int64
	Completed  int64
	StagedPeak int // high-water mark of requests parked behind a closed epoch
}

// Layer is the order-preserving block device layer: submission front-end,
// an IO scheduler, and the dispatch daemon feeding the device. The daemon
// implements order-preserving dispatch (§3.4): barrier writes become
// ordered-priority barrier commands and the caller is never blocked on a
// transfer.
type Layer struct {
	k     *sim.Kernel
	dev   *device.Device
	sched Scheduler
	cfg   LayerConfig

	staged  []*Request
	kick    *sim.Cond
	congest *sim.Cond

	cmds    *CmdPool
	flushes ReqPool

	trace []DispatchRecord
	stats LayerStats
}

// NewLayer builds a block layer over dev using sched and starts its
// dispatch daemon.
func NewLayer(k *sim.Kernel, dev *device.Device, sched Scheduler, cfg LayerConfig) *Layer {
	if cfg.QueueLimit == 0 {
		cfg.QueueLimit = 128
	}
	l := &Layer{k: k, dev: dev, sched: sched, cfg: cfg,
		kick: sim.NewCond(k), congest: sim.NewCond(k)}
	l.cmds = NewCmdPool(func(sim.Time, *Request) { l.stats.Completed++ })
	if cfg.Retry != nil {
		l.cmds.EnableRetry(k, dev, *cfg.Retry, metrics.Resolve(cfg.Metrics))
	}
	k.Spawn("block/dispatch", l.dispatcher)
	return l
}

// queued returns the number of requests held in the layer.
func (l *Layer) queued() int { return l.sched.Pending() + len(l.staged) }

// Scheduler returns the layer's IO scheduler.
func (l *Layer) Scheduler() Scheduler { return l.sched }

// Device returns the underlying device.
func (l *Layer) Device() *device.Device { return l.dev }

// Stats returns cumulative statistics.
func (l *Layer) Stats() LayerStats { return l.stats }

// DispatchLog returns the recorded dispatch order (requires cfg.Trace).
func (l *Layer) DispatchLog() []DispatchRecord { return l.trace }

// Submit queues a request. Requests arriving while the epoch scheduler has
// admission closed are staged and fed in submission order once it reopens.
// When the layer holds QueueLimit requests (nr_requests congestion), Submit
// blocks the caller until the dispatcher drains — the only situation in
// which the barrier-enabled submission path blocks.
func (l *Layer) Submit(p *sim.Proc, r *Request) {
	for l.queued() >= l.cfg.QueueLimit {
		l.congest.Wait(p)
	}
	l.admit(r)
}

// SubmitOrPark is the handler-path Submit: one congestion Mesa iteration.
func (l *Layer) SubmitOrPark(h *sim.Proc, r *Request) bool {
	if l.queued() >= l.cfg.QueueLimit {
		l.congest.Park(h)
		return false
	}
	l.admit(r)
	return true
}

func (l *Layer) admit(r *Request) {
	r.Bind(l.k, l.k.Now())
	l.stats.Submitted++
	if len(l.staged) > 0 || !l.sched.Add(r) {
		l.staged = append(l.staged, r)
		if len(l.staged) > l.stats.StagedPeak {
			l.stats.StagedPeak = len(l.staged)
		}
	}
	l.kick.Broadcast()
}

// SubmitAndWait submits r and blocks until it completes (Wait-on-Transfer;
// the legacy stack's ordering primitive).
func (l *Layer) SubmitAndWait(p *sim.Proc, r *Request) {
	l.Submit(p, r)
	r.Wait(p)
}

// Flush issues a standalone cache-flush request and waits for it. The
// request is pooled: after SubmitAndWait returns nothing else can hold it.
func (l *Layer) Flush(p *sim.Proc) { l.FlushT(p, reqtrace.Ctx{}) }

// FlushT is Flush with a trace context attached to the flush request.
func (l *Layer) FlushT(p *sim.Proc, tc reqtrace.Ctx) {
	r := l.flushes.Get()
	r.Op = OpFlush
	r.Trace = tc
	l.SubmitAndWait(p, r)
	r.Release()
}

func (l *Layer) feedStaged() {
	for len(l.staged) > 0 && l.sched.Accepting() {
		r := l.staged[0]
		if !l.sched.Add(r) {
			break
		}
		l.staged = l.staged[1:]
	}
}

func (l *Layer) dispatcher(p *sim.Proc) {
	for {
		l.feedStaged()
		r := l.sched.Next()
		if r == nil {
			l.kick.Wait(p)
			continue
		}
		if l.cfg.DispatchOverhead > 0 {
			p.Advance(l.cfg.DispatchOverhead)
		}
		if l.cfg.Trace {
			l.trace = append(l.trace, DispatchRecord{
				At: p.Now(), LPA: r.LPA, Op: r.Op, Flags: r.Flags, Epoch: r.epoch,
				Stream: r.Stream,
			})
		}
		r.Trace.StampChain(reqtrace.StageBlockDispatch, p.Now())
		cmd := l.cmds.Get(r)
		var trailer *device.Command
		if l.cfg.BarrierAsCommand && cmd.Kind == device.CmdWrite && cmd.Barrier {
			// Strip the flag; an explicit barrier command follows the write,
			// paying one more queue slot and dispatch.
			cmd.Barrier = false
			trailer = &device.Command{Kind: device.CmdBarrier, Prio: device.PrioOrdered}
		}
		for !l.dev.Submit(cmd) {
			if l.dev.Dead() {
				return
			}
			l.dev.WaitSpace(p)
		}
		l.stats.Dispatched++
		if trailer != nil {
			if l.cfg.DispatchOverhead > 0 {
				p.Advance(l.cfg.DispatchOverhead)
			}
			for !l.dev.Submit(trailer) {
				if l.dev.Dead() {
					return
				}
				l.dev.WaitSpace(p)
			}
			l.stats.Dispatched++
		}
		l.congest.Broadcast()
	}
}
