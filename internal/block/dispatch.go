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
	// QueueLimit bounds the requests buffered per software queue (scheduler +
	// staging), like the kernel's nr_requests; that queue's submitters block
	// beyond it. 0 or less means the default of 128.
	QueueLimit int
	// BarrierAsCommand dispatches epoch boundaries as standalone barrier
	// commands instead of write flags — the §3.2 alternative the paper
	// rejects. Useful for the ablation benchmark.
	BarrierAsCommand bool
	// Trace records the dispatch order for verification.
	Trace bool
	// Retry arms bounded per-class command retry with backoff (see
	// retry.go). Off — the default — propagates device errors to
	// Request.Err on first completion.
	Retry bool
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
	// 0 on the single-queue shape).
	HWQueue int
}

// Submitter is the request-submission surface a filesystem stack builds on.
// It is satisfied by *Layer in either shape (blkmq.MQ embeds the per-stream
// one).
type Submitter interface {
	// Submit queues a request without waiting for it.
	Submit(p *sim.Proc, r *Request)
	// SubmitAndWait submits r and blocks until completion (Wait-on-Transfer).
	SubmitAndWait(p *sim.Proc, r *Request)
	// Flush issues a standalone cache flush and waits for it.
	Flush(p *sim.Proc)
	// FlushT is Flush; the layer ignores tc and takes the caller's trace
	// context from p. It stays while bench/trace.go's shim implements it.
	FlushT(p *sim.Proc, tc reqtrace.Ctx)
	// SubmitOrPark is the handler analogue of Submit — one congestion Mesa
	// iteration: it either admits r (true) or parks the run-to-completion
	// handler h on the congestion condition exactly where Submit would have
	// blocked (false; re-invoke with the same request on the next
	// activation). No proc in the stack is a handler that submits today;
	// it stays because the frozen bench/trace.go shim forwards it through
	// this interface and two dispatch_golden.json shapes submit through it.
	SubmitOrPark(h *sim.Proc, r *Request) bool
}

// LayerStats are cumulative block-layer statistics.
type LayerStats struct {
	Submitted  int64
	Dispatched int64
	Completed  int64
	StagedPeak int // high-water mark of requests parked behind a closed epoch
}

// PerStream describes the multi-queue shape of the layer (§8), which
// internal/blkmq builds: one software queue per stream, pinned to hardware
// dispatch queue stream mod HWQueues, so a stream's commands flow through a
// single daemon in order while independent streams dispatch concurrently.
type PerStream struct {
	// HWQueues is the number of hardware dispatch queues. Each is drained by
	// its own daemon, spawned under the name Daemon + its index.
	HWQueues int
	Daemon   string
	// OpenStream builds a stream's scheduler, at the stream's first request.
	OpenStream func(stream uint64) Scheduler
	// Route, if set, may move a request to another stream before it is
	// queued. A parked handler submits the same request again, so it must be
	// idempotent.
	Route func(r *Request)
	// Submitted and Dispatched count admitted requests and issued commands;
	// Depth, if non-nil, holds one gauge per hardware queue of the requests
	// buffered behind it. Nil instruments are off.
	Submitted, Dispatched *metrics.Counter
	Depth                 []*metrics.Gauge
}

// swQueue is one software queue, an ordering domain: a scheduler, staging
// for requests that arrive while its epoch is closed, and the congestion
// condition its submitters wait on.
type swQueue struct {
	sched   Scheduler
	staged  sim.FIFO[*Request]
	congest *sim.Cond
	hw      *hwQueue
}

func (q *swQueue) queued() int { return q.sched.Pending() + q.staged.Len() }

// hwQueue is one hardware dispatch context: a daemon draining its software
// queues round-robin into the device.
type hwQueue struct {
	id     int
	queues []*swQueue
	kick   *sim.Cond
	rr     int
}

// Layer is the order-preserving block device layer: submission front-end,
// software queues holding an IO scheduler each, and the dispatch daemons
// feeding the device. A daemon implements order-preserving dispatch (§3.4):
// barrier writes become ordered-priority barrier commands and the caller is
// never blocked on a transfer. It comes in two shapes: NewLayer, the paper's
// stack, has one queue shared by every stream and one daemon, so epochs are
// ordered device-wide; NewPerStreamLayer orders them within a stream only.
type Layer struct {
	k   *sim.Kernel
	dev *device.Device
	cfg LayerConfig
	ps  PerStream // zero on the single-queue shape

	shared *swQueue            // single-queue shape: the queue every stream rides
	queues map[uint64]*swQueue // per-stream shape: opened at first use
	hw     []*hwQueue
	staged int // total staged across queues, for StagedPeak

	cmds    *cmdPool
	flushes ReqPool

	trace []DispatchRecord
	stats LayerStats
}

// NewLayer builds a single-queue block layer over dev using sched and starts
// its dispatch daemon.
func NewLayer(k *sim.Kernel, dev *device.Device, sched Scheduler, cfg LayerConfig) *Layer {
	l := newLayer(k, dev, cfg, 1)
	l.shared = l.open(sched, l.hw[0])
	k.Spawn("block/dispatch", func(p *sim.Proc) { l.dispatcher(p, l.hw[0]) })
	return l
}

// NewPerStreamLayer builds the multi-queue shape ps describes over dev and
// starts one dispatch daemon per hardware queue.
func NewPerStreamLayer(k *sim.Kernel, dev *device.Device, ps PerStream, cfg LayerConfig) *Layer {
	l := newLayer(k, dev, cfg, ps.HWQueues)
	l.ps, l.queues = ps, make(map[uint64]*swQueue)
	for _, h := range l.hw {
		k.SpawnIdx(ps.Daemon, h.id, func(p *sim.Proc) { l.dispatcher(p, h) })
	}
	return l
}

func newLayer(k *sim.Kernel, dev *device.Device, cfg LayerConfig, hwQueues int) *Layer {
	if cfg.QueueLimit <= 0 {
		cfg.QueueLimit = 128
	}
	l := &Layer{k: k, dev: dev, cfg: cfg}
	l.cmds = &cmdPool{onDone: func(sim.Time, *Request) { l.stats.Completed++ }}
	if cfg.Retry {
		l.cmds.enableRetry(k, dev, metrics.Resolve(cfg.Metrics))
	}
	for i := 0; i < hwQueues; i++ {
		l.hw = append(l.hw, &hwQueue{id: i, kick: sim.NewCond(k)})
	}
	return l
}

// open adds a software queue over sched to hardware queue h.
func (l *Layer) open(sched Scheduler, h *hwQueue) *swQueue {
	q := &swQueue{sched: sched, congest: sim.NewCond(l.k), hw: h}
	h.queues = append(h.queues, q)
	return q
}

// route returns the software queue r rides: the shared one, or — after the
// shape's Route hook has had its say — its stream's, opened at first use.
func (l *Layer) route(r *Request) *swQueue {
	if l.shared != nil {
		return l.shared
	}
	if l.ps.Route != nil {
		l.ps.Route(r)
	}
	q, ok := l.queues[r.Stream]
	if !ok {
		q = l.open(l.ps.OpenStream(r.Stream), l.hw[r.Stream%uint64(len(l.hw))])
		l.queues[r.Stream] = q
	}
	return q
}

// Scheduler returns the single-queue shape's IO scheduler; nil on the
// per-stream shape, whose schedulers belong to whoever opened them.
func (l *Layer) Scheduler() Scheduler {
	if l.shared == nil {
		return nil
	}
	return l.shared.sched
}

// Device returns the underlying device.
func (l *Layer) Device() *device.Device { return l.dev }

// Stats returns cumulative statistics.
func (l *Layer) Stats() LayerStats { return l.stats }

// DispatchLog returns the recorded dispatch order (requires cfg.Trace).
func (l *Layer) DispatchLog() []DispatchRecord { return l.trace }

// Submit queues a request. Requests arriving while their queue's epoch
// scheduler has admission closed are staged and fed in submission order once
// it reopens. When the queue holds QueueLimit requests (nr_requests
// congestion), Submit blocks the caller until a dispatcher drains it — the
// only situation in which the barrier-enabled submission path blocks, and on
// the per-stream shape only that stream's submitters ever do.
func (l *Layer) Submit(p *sim.Proc, r *Request) {
	q := l.route(r)
	for q.queued() >= l.cfg.QueueLimit {
		q.congest.Wait(p)
	}
	l.admit(q, r)
}

// SubmitOrPark is the handler-path Submit: one congestion Mesa iteration.
func (l *Layer) SubmitOrPark(h *sim.Proc, r *Request) bool {
	q := l.route(r)
	if q.queued() >= l.cfg.QueueLimit {
		q.congest.Park(h)
		return false
	}
	l.admit(q, r)
	return true
}

func (l *Layer) admit(q *swQueue, r *Request) {
	r.bind(l.k, l.k.Now())
	l.stats.Submitted++
	l.ps.Submitted.Inc()
	if l.ps.Depth != nil {
		l.ps.Depth[q.hw.id].Inc()
	}
	if q.staged.Len() > 0 || !q.sched.Add(r) {
		q.staged.Push(r)
		l.staged++
		if l.staged > l.stats.StagedPeak {
			l.stats.StagedPeak = l.staged
		}
	}
	q.hw.kick.Broadcast()
}

// SubmitAndWait submits r and blocks until it completes (Wait-on-Transfer;
// the legacy stack's ordering primitive).
func (l *Layer) SubmitAndWait(p *sim.Proc, r *Request) {
	l.Submit(p, r)
	r.Wait(p)
}

// Flush issues a standalone cache-flush request on stream 0 and waits for
// it. The device flushes its whole cache regardless of stream, so pages a
// caller transferred (and waited for) on any stream are covered. The request
// is pooled: after SubmitAndWait returns nothing else can hold it. It carries
// the caller's trace context (reqtrace.Of) to the device.
func (l *Layer) Flush(p *sim.Proc) { FlushOn(p, l, l.flushes.Get()) }

// FlushOn issues r through s as a standalone cache flush and waits for it.
// The caller draws r from its own pool and tags its stream: the device
// flushes its whole cache whatever the stream, so the stream only decides
// which ordered commands the flush waits behind. r carries the caller's
// trace context (reqtrace.Of) and is released on return.
func FlushOn(p *sim.Proc, s Submitter, r *Request) {
	r.Op, r.Trace = OpFlush, reqtrace.Of(p)
	s.SubmitAndWait(p, r)
	r.Release()
}

// FlushT is Flush; its context argument is ignored, the caller's is taken
// from p. It stays while bench/trace.go's Submitter shim implements it.
func (l *Layer) FlushT(p *sim.Proc, _ reqtrace.Ctx) { l.Flush(p) }

// feedStaged moves a queue's staged requests into its scheduler in
// submission order while admission is open.
func (l *Layer) feedStaged(q *swQueue) {
	for q.staged.Len() > 0 && q.sched.Accepting() {
		if !q.sched.Add(q.staged.Peek()) {
			break
		}
		q.staged.Pop()
		l.staged--
	}
}

// next returns the next dispatchable request among h's software queues,
// round-robin so one busy stream cannot starve its neighbours.
func (l *Layer) next(h *hwQueue) (*Request, *swQueue) {
	n := len(h.queues)
	for i := 0; i < n; i++ {
		q := h.queues[(h.rr+i)%n]
		l.feedStaged(q)
		if r := q.sched.Next(); r != nil {
			h.rr = (h.rr + i + 1) % n
			return r, q
		}
	}
	return nil, nil
}

func (l *Layer) dispatcher(p *sim.Proc, h *hwQueue) {
	for {
		r, q := l.next(h)
		if r == nil {
			h.kick.Wait(p)
			continue
		}
		if l.ps.Depth != nil {
			l.ps.Depth[h.id].Dec()
		}
		p.Advance(l.cfg.DispatchOverhead)
		if l.cfg.Trace {
			l.trace = append(l.trace, DispatchRecord{
				At: p.Now(), LPA: r.LPA, Op: r.Op, Flags: r.Flags, Epoch: r.epoch,
				Stream: r.Stream, HWQueue: h.id,
			})
		}
		r.Trace.StampChain(reqtrace.StageBlockDispatch, p.Now())
		cmd := l.cmds.get(r)
		var trailer *device.Command
		if l.cfg.BarrierAsCommand && cmd.Kind == device.CmdWrite && cmd.Barrier {
			// §3.2 ablation: strip the flag; an explicit barrier command
			// follows the write on the same stream, paying one more queue
			// slot and dispatch.
			cmd.Barrier = false
			trailer = &device.Command{Kind: device.CmdBarrier,
				Prio: device.PrioOrdered, Stream: r.Stream}
		}
		if !l.issue(p, cmd) {
			return
		}
		if trailer != nil {
			p.Advance(l.cfg.DispatchOverhead)
			if !l.issue(p, trailer) {
				return
			}
		}
		q.congest.Broadcast()
	}
}

// issue feeds one command to the device and counts the dispatch.
func (l *Layer) issue(p *sim.Proc, cmd *device.Command) bool {
	if !feed(p, l.dev, cmd) {
		return false
	}
	l.stats.Dispatched++
	l.ps.Dispatched.Inc()
	return true
}

// feed hands cmd to dev, waiting for a slot while the command queue is full
// (§3.4, Fig. 6b). False means the device died first: a crash drops queued
// commands without completing them, and the calling daemon stands down.
func feed(p *sim.Proc, dev *device.Device, cmd *device.Command) bool {
	for !dev.Submit(cmd) {
		if dev.Dead() {
			return false
		}
		dev.WaitSpace(p)
	}
	return true
}
