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
	// beyond it, where idle requests (RoleIdle) count only against idle
	// submitters. 0 or less means the default of 128.
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
	// Metrics resolves the registry for the read-path and retry counters;
	// nil falls back to the process-wide live registry.
	Metrics *metrics.Registry
}

// DispatchRecord is one entry of the dispatch trace.
type DispatchRecord struct {
	At     sim.Time
	LPA    uint64
	Op     Op
	Flags  Flags
	Role   Role
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
	StagedPeak int   // high-water mark of requests parked behind a closed epoch
	Spread     int64 // background writes the per-stream shape moved to a data stream
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
	// Submitted, Dispatched and Spread count admitted requests, issued
	// commands and spread writes; Depth, if non-nil, holds one gauge per
	// hardware queue of the requests buffered behind it. Nil instruments
	// are off.
	Submitted, Dispatched, Spread *metrics.Counter
	Depth                         []*metrics.Gauge
}

// swQueue is one software queue, an ordering domain: a scheduler, staging
// for requests that arrive while its epoch is closed, and the congestion
// condition its submitters wait on.
type swQueue struct {
	sched   Scheduler
	staged  sim.FIFO[*Request]
	congest *sim.Cond
	hw      *hwQueue
	idle    int // queued requests whose role yields
}

func (q *swQueue) queued() int { return q.sched.Pending() + q.staged.Len() }

// full reports whether r's submitter must wait for q to drain: an idle
// request counts every queued request against limit, any other request
// only the non-idle ones.
func (q *swQueue) full(r *Request, limit int) bool {
	n := q.queued()
	if !r.yields() {
		n -= q.idle
	}
	return n >= limit
}

// hwQueue is one hardware dispatch context: a daemon draining its
// foreground reads and then its software queues, round-robin, into the
// device.
type hwQueue struct {
	id     int
	queues []*swQueue
	reads  sim.FIFO[*Request] // foreground reads, served before queues
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
//
// A foreground read (OpRead of RoleSync) is an orderless request,
// which the epoch rules let cross epochs freely (§3.3, rule 3), and a caller
// waits on it. It skips the software queues — scheduler, staging and the
// congestion limit — and waits in its hardware queue's read FIFO, which the
// daemon serves before the software queues; while the daemon holds a
// command the device refused, every slot that frees goes to queued reads
// first, as Linux blk-mq serves sync reads ahead of async writes. This is
// safe for the reason the device lets a read begin on arrival
// (device/queue.go): the fs never reads a page whose write is queued or in
// flight. Background reads (compaction input) keep the software queues.
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

	// readQueueNS counts the virtual ns foreground reads spent in the layer,
	// from submit until the device accepted their command; readCongested
	// counts the reads that waited on QueueLimit. congestWaitNS and
	// congestIdleWaitNS count the virtual ns non-idle and idle submitters
	// waited on QueueLimit (see congestWait). Nil without a registry.
	readQueueNS, readCongested       *metrics.Counter
	congestWaitNS, congestIdleWaitNS *metrics.Counter
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
	reg := metrics.Resolve(cfg.Metrics)
	l := &Layer{k: k, dev: dev, cfg: cfg,
		readQueueNS:       reg.Counter("block/read.queue_ns"),
		readCongested:     reg.Counter("block/read.congested"),
		congestWaitNS:     reg.Counter("block/congest.wait_ns"),
		congestIdleWaitNS: reg.Counter("block/congest.idle_wait_ns"),
	}
	l.cmds = &cmdPool{onDone: func(sim.Time, *Request) { l.stats.Completed++ }}
	if cfg.Retry {
		l.cmds.enableRetry(k, dev, reg)
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

// route applies r's role to its stream and returns the software queue r
// rides: the shared one, or its stream's, opened at first use. The role's
// domain tag is ORed in. On the per-stream shape a spreading role's
// orderless write without FLUSH/FUA on an ordering stream (0 or an order
// stream) moves by LPA to a data stream, 1..HWQueues-1 (1 on one hardware
// queue): nobody waits on it and it promises no order, so it bypasses the
// ordering stream's barriers and congestion limit, and one pdflush daemon
// spreads over every data stream, which all tenants share. Routing a request
// again, as a congested submitter's retry does, picks the same queue.
func (l *Layer) route(r *Request) *swQueue {
	rule := roles[r.Role]
	r.Stream |= rule.domain
	if l.shared != nil {
		return l.shared
	}
	if rule.spreads && r.Op == OpWrite && !r.Ordered() && r.Flags&(FlagFlush|FlagFUA) == 0 &&
		(r.Stream == 0 || r.Stream >= OrderStreamBase) {
		r.Stream = 1 + r.LPA%uint64(max(len(l.hw)-1, 1))
		l.stats.Spread++
		l.ps.Spread.Inc()
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
// it reopens. When the queue is full (nr_requests congestion), Submit blocks
// the caller until a dispatcher drains it; on the per-stream shape only that
// stream's submitters ever do. Full means QueueLimit requests of any role
// for an idle request (RoleIdle), and QueueLimit non-idle ones for every
// other, so idle IO never makes a commit wait: congestion by ordered and
// plain background IO is then the only situation in which the
// barrier-enabled submission path blocks. A foreground read never blocks:
// it joins its hardware queue's read FIFO.
func (l *Layer) Submit(p *sim.Proc, r *Request) {
	for c := l.tryAdmit(r, p.Now()); c != nil; c = l.tryAdmit(r, p.Now()) {
		c.Wait(p)
	}
}

// SubmitOrPark is the handler-path Submit: one congestion Mesa iteration.
func (l *Layer) SubmitOrPark(h *sim.Proc, r *Request) bool {
	if c := l.tryAdmit(r, h.Now()); c != nil {
		c.Park(h)
		return false
	}
	return true
}

// tryAdmit is the one admission decision of Submit and SubmitOrPark. It
// admits r and returns nil, or returns the congestion condition r's
// submitter waits on. The first refusal counts a congested read and starts
// the wait's clock; the admission after it adds the wait to its role's
// counter. A retry routes the same request again to the same queue.
func (l *Layer) tryAdmit(r *Request, now sim.Time) *sim.Cond {
	if foreground(r) {
		l.admitRead(r)
		return nil
	}
	q := l.route(r)
	if q.full(r, l.cfg.QueueLimit) {
		if !r.parked {
			if r.Op == OpRead {
				l.readCongested.Inc()
			}
			r.parked, r.parkedAt = true, now
		}
		return q.congest
	}
	if r.parked {
		r.parked = false
		l.congestWait(r).Add(int64(now.Sub(r.parkedAt)))
	}
	l.admit(q, r)
	return nil
}

// congestWait returns the counter of r's role for the ns its submitter
// waited on QueueLimit.
func (l *Layer) congestWait(r *Request) *metrics.Counter {
	if r.yields() {
		return l.congestIdleWaitNS
	}
	return l.congestWaitNS
}

// foreground reports whether r is a read a caller is waiting on: OpRead of
// RoleSync.
func foreground(r *Request) bool { return r.Op == OpRead && r.Role == RoleSync }

// yields reports whether r's role yields the congestion limit.
func (r *Request) yields() bool { return roles[r.Role].yields }

// enter takes r into the layer on hardware queue h.
func (l *Layer) enter(h *hwQueue, r *Request) {
	r.bind(l.k, l.k.Now())
	l.stats.Submitted++
	l.ps.Submitted.Inc()
	if l.ps.Depth != nil {
		l.ps.Depth[h.id].Inc()
	}
}

// admitRead queues foreground read r on the read FIFO of the hardware queue
// its stream's software queue drains into.
func (l *Layer) admitRead(r *Request) {
	h := l.hw[r.Stream%uint64(len(l.hw))]
	l.enter(h, r)
	h.reads.Push(r)
	h.kick.Broadcast()
}

func (l *Layer) admit(q *swQueue, r *Request) {
	l.enter(q.hw, r)
	if r.yields() {
		q.idle++
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
		if h.reads.Len() > 0 {
			if !l.dispatch(p, h, h.reads.Pop()) {
				return
			}
			continue
		}
		r, q := l.next(h)
		if r == nil {
			h.kick.Wait(p)
			continue
		}
		if r.yields() {
			q.idle--
		}
		if !l.dispatch(p, h, r) {
			return
		}
		q.congest.Broadcast()
	}
}

// dispatch hands r, taken off hardware queue h, to the device. False means
// the device died first and the daemon stands down.
func (l *Layer) dispatch(p *sim.Proc, h *hwQueue, r *Request) bool {
	if l.ps.Depth != nil {
		l.ps.Depth[h.id].Dec()
	}
	p.Advance(l.cfg.DispatchOverhead)
	if l.cfg.Trace {
		l.trace = append(l.trace, DispatchRecord{
			At: p.Now(), LPA: r.LPA, Op: r.Op, Flags: r.Flags, Role: r.Role, Epoch: r.epoch,
			Stream: r.Stream, HWQueue: h.id,
		})
	}
	r.Trace.StampChain(reqtrace.StageBlockDispatch, p.Now())
	read := foreground(r)
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
	if !l.issue(p, h, cmd, !read) {
		return false
	}
	if read {
		// r cannot have completed: the device completes in a later event.
		l.readQueueNS.Add(int64(p.Now().Sub(r.issued)))
	}
	if trailer != nil {
		p.Advance(l.cfg.DispatchOverhead)
		return l.issue(p, h, trailer, true)
	}
	return true
}

// issue feeds one command to the device and counts the dispatch. While the
// device refuses it (§3.4, Fig. 6b), each freed slot goes to h's queued
// foreground reads first when yield is set; a foreground read does not
// yield, so reads leave in arrival order.
func (l *Layer) issue(p *sim.Proc, h *hwQueue, cmd *device.Command, yield bool) bool {
	for !l.dev.Submit(cmd) {
		if l.dev.Dead() {
			return false
		}
		l.dev.WaitSpace(p)
		for yield && h.reads.Len() > 0 {
			if !l.dispatch(p, h, h.reads.Pop()) {
				return false
			}
		}
	}
	l.stats.Dispatched++
	l.ps.Dispatched.Inc()
	return true
}

// feed hands cmd to dev, waiting for a slot while the command queue is full
// (§3.4, Fig. 6b). False means the device died first: a crash drops queued
// commands without completing them, and the calling daemon stands down. The
// retry daemon feeds through it; the dispatch daemons through issue.
func feed(p *sim.Proc, dev *device.Device, cmd *device.Command) bool {
	for !dev.Submit(cmd) {
		if dev.Dead() {
			return false
		}
		dev.WaitSpace(p)
	}
	return true
}
