// Package blkmq implements a blk-mq-style multi-queue, order-preserving
// block layer: per-stream software queues feeding M hardware dispatch
// queues, with the paper's epoch-based barrier semantics (§3.3) tracked per
// *stream* instead of globally — the multi-queue scalability direction the
// paper names as future work (§8).
//
// Every request carries a stream ID (block.Request.Stream). Within one
// stream the §3.3 invariants hold exactly as in the single-queue layer: the
// partial order between epochs is preserved, requests inside an epoch and
// orderless requests reorder freely, and the barrier is reassigned to the
// last ordered request leaving the stream's queue. Across streams there is
// no ordering at all: each stream owns a private epoch scheduler, its
// commands are tagged with the stream at the device, and the device's SCSI
// ordering rules are scoped per stream — so a barrier in one stream never
// drains another stream's traffic.
//
// A stream is pinned to one hardware dispatch queue (stream mod M), which
// keeps a stream's commands flowing through a single dispatcher in order
// while independent streams dispatch concurrently from separate daemons.
package blkmq

import (
	"fmt"
	"sort"

	"repro/internal/block"
	"repro/internal/device"
	"repro/internal/metrics"
	"repro/internal/reqtrace"
	"repro/internal/sim"
)

// Config tunes the multi-queue layer.
type Config struct {
	// HWQueues is the number of hardware dispatch queues (M). Each runs its
	// own dispatch daemon. 0 means 1.
	HWQueues int
	// QueueLimit bounds the requests buffered per stream (scheduler +
	// staging), like the kernel's per-hctx nr_requests; submitters of that
	// stream block beyond it. 0 means 128.
	QueueLimit int
	// DispatchOverhead is the host-side cost of dispatching one command
	// (the paper's tD), charged on the owning hardware queue's daemon —
	// with M queues the cost parallelizes, the host half of the blk-mq win.
	DispatchOverhead sim.Duration
	// BaseSched builds the conventional scheduler each stream's epoch
	// scheduler wraps. nil means NOOP.
	BaseSched func() block.Scheduler
	// SpreadOrderless routes background writeback (FlagBackground, always
	// orderless) arriving on stream 0 onto per-PID data streams, so bulk
	// traffic never sits in front of foreground syncs and barriers.
	// Foreground requests — ordered, barrier, or simply awaited — are never
	// moved: their stream is part of their semantics.
	SpreadOrderless bool
	// DataStreams is the number of data streams SpreadOrderless scatters
	// over. 0 means HWQueues-1 (so the data streams 1..DataStreams land on
	// hardware queues 1..DataStreams and never share hardware queue 0 with
	// the foreground stream), or 1 when there is only one hardware queue.
	DataStreams int
	// BarrierAsCommand dispatches epoch boundaries as standalone barrier
	// commands instead of write flags — the §3.2 alternative the paper
	// rejects, kept for ablation parity with the single-queue layer.
	BarrierAsCommand bool
	// Trace records the dispatch order for verification.
	Trace bool
	// Metrics is an explicit observability registry; nil falls back to the
	// process-wide live registry, and a nil resolution disables the layer's
	// instruments.
	Metrics *metrics.Registry
	// Retry, when non-nil, arms bounded per-class command retry with
	// backoff (see block.RetryPolicy). Nil — the default — propagates
	// device errors to Request.Err on first completion.
	Retry *block.RetryPolicy
}

// Stats are cumulative layer statistics.
type Stats struct {
	Submitted  int64
	Dispatched int64
	Completed  int64
	StagedPeak int   // high-water mark of requests parked behind closed epochs
	Streams    int   // streams ever opened
	Spread     int64 // orderless requests rerouted to data streams
}

// stream is one ordering domain: a private epoch scheduler plus staging for
// requests that arrive while the stream's epoch is closed.
type stream struct {
	id      uint64
	sched   *block.EpochScheduler
	staged  []*block.Request
	congest *sim.Cond
	hq      *hwQueue
}

func (st *stream) queued() int { return st.sched.Pending() + len(st.staged) }

// hwQueue is one hardware dispatch context: a daemon draining its assigned
// streams round-robin into the device.
type hwQueue struct {
	id      int
	streams []*stream
	kick    *sim.Cond
	rr      int
}

// MQ is the multi-queue block layer front-end. It satisfies
// block.Submitter, so a filesystem stack mounts on it exactly as on the
// single-queue block.Layer.
type MQ struct {
	k   *sim.Kernel
	dev *device.Device
	cfg Config

	hw      []*hwQueue
	streams map[uint64]*stream
	cmds    *block.CmdPool
	flushes block.ReqPool

	trace  []block.DispatchRecord
	stats  Stats
	staged int // total staged across streams, for StagedPeak
	obs    mqObs
}

// mqObs holds the layer's registry instruments; all nil when disabled. The
// per-queue depth gauges count requests buffered per hardware dispatch
// context (scheduler + staging), the blk-mq in-flight view.
type mqObs struct {
	submitted, dispatched, spread *metrics.Counter
	depth                         []*metrics.Gauge
}

var _ block.Submitter = (*MQ)(nil)

// New builds a multi-queue layer over dev and starts one dispatch daemon
// per hardware queue.
func New(k *sim.Kernel, dev *device.Device, cfg Config) *MQ {
	if cfg.HWQueues <= 0 {
		cfg.HWQueues = 1
	}
	if cfg.QueueLimit <= 0 {
		cfg.QueueLimit = 128
	}
	if cfg.BaseSched == nil {
		cfg.BaseSched = func() block.Scheduler { return block.NewNOOP() }
	}
	if cfg.DataStreams <= 0 {
		cfg.DataStreams = cfg.HWQueues - 1
		if cfg.DataStreams == 0 {
			cfg.DataStreams = 1
		}
	}
	m := &MQ{k: k, dev: dev, cfg: cfg, streams: make(map[uint64]*stream)}
	m.cmds = block.NewCmdPool(func(sim.Time, *block.Request) { m.stats.Completed++ })
	if cfg.Retry != nil {
		m.cmds.EnableRetry(k, dev, *cfg.Retry, metrics.Resolve(cfg.Metrics))
	}
	if reg := metrics.Resolve(cfg.Metrics); reg != nil {
		m.obs.submitted = reg.Counter("blkmq/submitted")
		m.obs.dispatched = reg.Counter("blkmq/dispatched")
		m.obs.spread = reg.Counter("blkmq/spread")
		for i := 0; i < cfg.HWQueues; i++ {
			m.obs.depth = append(m.obs.depth, reg.Gauge(fmt.Sprintf("blkmq/hwq%d.depth", i)))
		}
	}
	for i := 0; i < cfg.HWQueues; i++ {
		h := &hwQueue{id: i, kick: sim.NewCond(k)}
		m.hw = append(m.hw, h)
		k.SpawnIdx("blkmq/hwq", i, m.dispatcher(h))
	}
	return m
}

// Device returns the underlying device.
func (m *MQ) Device() *device.Device { return m.dev }

// Stats returns cumulative statistics.
func (m *MQ) Stats() Stats { return m.stats }

// HWQueues returns the number of hardware dispatch queues.
func (m *MQ) HWQueues() int { return len(m.hw) }

// DispatchLog returns the recorded dispatch order (requires cfg.Trace).
func (m *MQ) DispatchLog() []block.DispatchRecord { return m.trace }

// EpochsClosed returns the number of epochs fully dispatched, summed over
// all streams.
func (m *MQ) EpochsClosed() int64 {
	var n int64
	for _, st := range m.streams {
		n += st.sched.EpochsClosed()
	}
	return n
}

// Reassigned returns the number of barrier reassignments, summed over all
// streams.
func (m *MQ) Reassigned() int64 {
	var n int64
	for _, st := range m.streams {
		n += st.sched.Reassigned()
	}
	return n
}

// Streams returns the ids of every stream opened so far, ascending. Stream
// 0 is the ordered/journal domain; data streams appear once spreading has
// routed background writeback onto them. Together with StreamEpoch this
// describes the layer's per-stream ordering state, e.g. for correlating a
// crash-time device capture (device.CaptureConstraints) with the streams
// the layer actually opened.
func (m *MQ) Streams() []uint64 {
	out := make([]uint64, 0, len(m.streams))
	for id := range m.streams {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// StreamEpoch returns the epoch a stream's scheduler is currently
// assigning.
func (m *MQ) StreamEpoch(id uint64) uint64 {
	if st, ok := m.streams[id]; ok {
		return st.sched.CurrentEpoch()
	}
	return 0
}

// Verify checks the recorded dispatch trace against the per-stream epoch
// invariants (requires cfg.Trace).
func (m *MQ) Verify() error { return VerifyTrace(m.trace) }

// stream returns the ordering domain for id, opening it on first use and
// pinning it to hardware queue id mod M.
func (m *MQ) stream(id uint64) *stream {
	st, ok := m.streams[id]
	if !ok {
		st = &stream{
			id:      id,
			sched:   block.NewEpochScheduler(m.cfg.BaseSched()),
			congest: sim.NewCond(m.k),
		}
		st.hq = m.hw[int(id%uint64(len(m.hw)))]
		st.hq.streams = append(st.hq.streams, st)
		m.streams[id] = st
		m.stats.Streams++
	}
	return st
}

// Submit queues a request on its stream. Requests arriving while the
// stream's epoch scheduler has admission closed are staged and fed in
// submission order once it reopens; only that stream's submitters ever
// block on its congestion limit.
func (m *MQ) Submit(p *sim.Proc, r *block.Request) {
	m.spread(r)
	st := m.stream(r.Stream)
	for st.queued() >= m.cfg.QueueLimit {
		st.congest.Wait(p)
	}
	m.admit(st, r)
}

// SubmitOrPark is the handler-path Submit: one congestion Mesa iteration on
// the request's stream. Spreading is idempotent, so a parked handler
// retrying with the same request keeps its assigned data stream.
func (m *MQ) SubmitOrPark(h *sim.Proc, r *block.Request) bool {
	m.spread(r)
	st := m.stream(r.Stream)
	if st.queued() >= m.cfg.QueueLimit {
		st.congest.Park(h)
		return false
	}
	m.admit(st, r)
	return true
}

// spread scatters background writeback arriving on an ordering stream —
// stream 0 or a per-shard order stream (block.OrderStream) — over the data
// streams. Background writeback carries no ordering promise and nobody
// waits on it, so it bypasses the ordering stream's barriers and congestion
// limit. Keyed by LPA, not submitter, so a single pdflush daemon still
// spreads across every data stream; data streams are shared by every
// tenant, which is safe precisely because spread writes are orderless.
func (m *MQ) spread(r *block.Request) {
	if m.cfg.SpreadOrderless &&
		(r.Stream == 0 || block.IsOrderStream(r.Stream)) && !r.Ordered() &&
		r.Op == block.OpWrite && r.Flags.Has(block.FlagBackground) &&
		r.Flags&(block.FlagFlush|block.FlagFUA) == 0 {
		r.Stream = 1 + r.LPA%uint64(m.cfg.DataStreams)
		m.stats.Spread++
		m.obs.spread.Inc()
	}
}

func (m *MQ) admit(st *stream, r *block.Request) {
	r.Bind(m.k, m.k.Now())
	m.stats.Submitted++
	m.obs.submitted.Inc()
	if m.obs.depth != nil {
		m.obs.depth[st.hq.id].Inc()
	}
	if len(st.staged) > 0 || !st.sched.Add(r) {
		st.staged = append(st.staged, r)
		m.staged++
		if m.staged > m.stats.StagedPeak {
			m.stats.StagedPeak = m.staged
		}
	}
	st.hq.kick.Broadcast()
}

// SubmitAndWait submits r and blocks until it completes (Wait-on-Transfer).
func (m *MQ) SubmitAndWait(p *sim.Proc, r *block.Request) {
	m.Submit(p, r)
	r.Wait(p)
}

// Flush issues a standalone cache-flush request on stream 0 and waits for
// it. The device flushes its whole cache regardless of stream, so pages a
// caller transferred (and waited for) on any stream are covered. The
// request is pooled: after SubmitAndWait returns nothing else can hold it.
func (m *MQ) Flush(p *sim.Proc) { m.FlushT(p, reqtrace.Ctx{}) }

// FlushT is Flush with a trace context attached to the flush request.
func (m *MQ) FlushT(p *sim.Proc, tc reqtrace.Ctx) {
	r := m.flushes.Get()
	r.Op = block.OpFlush
	r.Trace = tc
	m.SubmitAndWait(p, r)
	r.Release()
}

// feedStaged moves a stream's staged requests into its scheduler in
// submission order while admission is open.
func (m *MQ) feedStaged(st *stream) {
	for len(st.staged) > 0 && st.sched.Accepting() {
		if !st.sched.Add(st.staged[0]) {
			break
		}
		st.staged = st.staged[1:]
		m.staged--
	}
}

// next returns the next dispatchable request among h's streams, round-robin
// so one busy stream cannot starve its neighbours.
func (m *MQ) next(h *hwQueue) (*block.Request, *stream) {
	n := len(h.streams)
	for i := 0; i < n; i++ {
		st := h.streams[(h.rr+i)%n]
		m.feedStaged(st)
		if r := st.sched.Next(); r != nil {
			h.rr = (h.rr + i + 1) % n
			return r, st
		}
	}
	return nil, nil
}

func (m *MQ) dispatcher(h *hwQueue) func(p *sim.Proc) {
	return func(p *sim.Proc) {
		for {
			r, st := m.next(h)
			if r == nil {
				h.kick.Wait(p)
				continue
			}
			if m.obs.depth != nil {
				m.obs.depth[h.id].Dec()
			}
			if m.cfg.DispatchOverhead > 0 {
				p.Advance(m.cfg.DispatchOverhead)
			}
			if m.cfg.Trace {
				m.trace = append(m.trace, block.DispatchRecord{
					At: p.Now(), LPA: r.LPA, Op: r.Op, Flags: r.Flags,
					Epoch: r.Epoch(), Stream: r.Stream, HWQueue: h.id,
				})
			}
			r.Trace.StampChain(reqtrace.StageBlockDispatch, p.Now())
			cmd := m.cmds.Get(r)
			var trailer *device.Command
			if m.cfg.BarrierAsCommand && cmd.Kind == device.CmdWrite && cmd.Barrier {
				// §3.2 ablation: strip the flag; an explicit barrier command
				// follows the write on the same stream, paying one more queue
				// slot and dispatch.
				cmd.Barrier = false
				trailer = &device.Command{Kind: device.CmdBarrier,
					Prio: device.PrioOrdered, Stream: r.Stream}
			}
			for !m.dev.Submit(cmd) {
				if m.dev.Dead() {
					return
				}
				m.dev.WaitSpace(p)
			}
			m.stats.Dispatched++
			m.obs.dispatched.Inc()
			if trailer != nil {
				if m.cfg.DispatchOverhead > 0 {
					p.Advance(m.cfg.DispatchOverhead)
				}
				for !m.dev.Submit(trailer) {
					if m.dev.Dead() {
						return
					}
					m.dev.WaitSpace(p)
				}
				m.stats.Dispatched++
				m.obs.dispatched.Inc()
			}
			st.congest.Broadcast()
		}
	}
}
