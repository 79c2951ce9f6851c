// Package blkmq is the blk-mq-style multi-queue front-end of the
// order-preserving block layer: per-stream software queues feeding M
// hardware dispatch queues, with the paper's epoch-based barrier semantics
// (§3.3) tracked per *stream* instead of globally — the multi-queue
// scalability direction the paper names as future work (§8).
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
// There is one dispatch engine, block.Layer, in two shapes. block.NewLayer is
// one queue shared by every stream and one daemon. An MQ is the other: one
// queue per stream pinned to hardware queue stream mod M, so a stream's
// commands flow through a single dispatcher in order while independent
// streams dispatch concurrently from separate daemons. Submission, staging,
// congestion, flushing and the dispatch loop are the engine's; this package
// owns what is multi-queue only — the Config defaults, the per-stream epoch
// schedulers and their accessors, the spreading of background writeback,
// the blkmq/* instruments and the per-stream trace verifier.
package blkmq

import (
	"fmt"
	"maps"
	"slices"

	"repro/internal/block"
	"repro/internal/device"
	"repro/internal/metrics"
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
	// moved: their stream is part of their semantics. The data streams are
	// 1..HWQueues-1, so they land on hardware queues of their own and never
	// share hardware queue 0 with the foreground stream (one data stream
	// when there is only one hardware queue).
	SpreadOrderless bool
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

// MQ is the multi-queue block layer front-end: the per-stream shape of
// block.Layer, whose Submitter surface it inherits, so a filesystem stack
// mounts on it exactly as on the single-queue layer.
type MQ struct {
	*block.Layer
	cfg Config

	// scheds holds the epoch scheduler of every stream opened so far; the
	// layer's per-stream queues run on them.
	scheds    map[uint64]*block.EpochScheduler
	spread    int64
	spreadCtr *metrics.Counter // nil when disabled
}

// New builds a multi-queue layer over dev and starts one dispatch daemon
// per hardware queue.
func New(k *sim.Kernel, dev *device.Device, cfg Config) *MQ {
	if cfg.HWQueues <= 0 {
		cfg.HWQueues = 1
	}
	if cfg.BaseSched == nil {
		cfg.BaseSched = func() block.Scheduler { return block.NewNOOP() }
	}
	m := &MQ{cfg: cfg, scheds: make(map[uint64]*block.EpochScheduler)}
	shape := block.PerStream{HWQueues: cfg.HWQueues, Daemon: "blkmq/hwq", OpenStream: m.openStream}
	if cfg.SpreadOrderless {
		shape.Route = m.spreadOrderless
	}
	// The per-queue depth gauges count requests buffered per hardware
	// dispatch context (scheduler + staging), the blk-mq in-flight view.
	if reg := metrics.Resolve(cfg.Metrics); reg != nil {
		shape.Submitted = reg.Counter("blkmq/submitted")
		shape.Dispatched = reg.Counter("blkmq/dispatched")
		m.spreadCtr = reg.Counter("blkmq/spread")
		for i := 0; i < cfg.HWQueues; i++ {
			shape.Depth = append(shape.Depth, reg.Gauge(fmt.Sprintf("blkmq/hwq%d.depth", i)))
		}
	}
	m.Layer = block.NewPerStreamLayer(k, dev, shape, block.LayerConfig{
		DispatchOverhead: cfg.DispatchOverhead,
		QueueLimit:       cfg.QueueLimit,
		BarrierAsCommand: cfg.BarrierAsCommand,
		Trace:            cfg.Trace,
		Retry:            cfg.Retry,
		Metrics:          cfg.Metrics,
	})
	return m
}

// openStream opens a stream's ordering domain: a private epoch scheduler.
func (m *MQ) openStream(id uint64) block.Scheduler {
	es := block.NewEpochScheduler(m.cfg.BaseSched())
	m.scheds[id] = es
	return es
}

// Stats returns cumulative statistics.
func (m *MQ) Stats() Stats {
	s := m.Layer.Stats()
	return Stats{Submitted: s.Submitted, Dispatched: s.Dispatched, Completed: s.Completed,
		StagedPeak: s.StagedPeak, Streams: len(m.scheds), Spread: m.spread}
}

// EpochsClosed returns the number of epochs fully dispatched, summed over
// all streams.
func (m *MQ) EpochsClosed() int64 {
	var n int64
	for _, es := range m.scheds {
		n += es.EpochsClosed()
	}
	return n
}

// Reassigned returns the number of barrier reassignments, summed over all
// streams.
func (m *MQ) Reassigned() int64 {
	var n int64
	for _, es := range m.scheds {
		n += es.Reassigned()
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
	return slices.Sorted(maps.Keys(m.scheds))
}

// StreamEpoch returns the epoch a stream's scheduler is currently
// assigning.
func (m *MQ) StreamEpoch(id uint64) uint64 {
	if es, ok := m.scheds[id]; ok {
		return es.CurrentEpoch()
	}
	return 0
}

// Verify checks the recorded dispatch trace against the per-stream epoch
// invariants (requires cfg.Trace).
func (m *MQ) Verify() error { return VerifyTrace(m.DispatchLog()) }

// spreadOrderless scatters background writeback arriving on an ordering
// stream — stream 0 or a per-shard order stream (block.OrderStream) — over
// the data streams. Background writeback carries no ordering promise and
// nobody waits on it, so it bypasses the ordering stream's barriers and
// congestion limit. Keyed by LPA, not submitter, so a single pdflush daemon
// still spreads across every data stream; data streams are shared by every
// tenant, which is safe precisely because spread writes are orderless. A
// moved request sits on no ordering stream, so a parked handler's retry with
// the same request keeps its data stream.
func (m *MQ) spreadOrderless(r *block.Request) {
	if (r.Stream == 0 || block.IsOrderStream(r.Stream)) && !r.Ordered() &&
		r.Op == block.OpWrite && r.Flags.Has(block.FlagBackground) &&
		r.Flags&(block.FlagFlush|block.FlagFUA) == 0 {
		r.Stream = 1 + r.LPA%uint64(max(m.cfg.HWQueues-1, 1))
		m.spread++
		m.spreadCtr.Inc()
	}
}
