package metrics

import (
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/sim"
)

// Gauge is an instantaneous level: cache occupancy, queue depth, checkpoint
// backlog. Like Counter it is atomic (live readers) and nil-safe (disabled
// layers hold nil gauges and pay one branch per update).
type Gauge struct {
	name string
	v    atomic.Int64
}

// NewGauge returns a zeroed gauge labelled name.
func NewGauge(name string) *Gauge { return &Gauge{name: name} }

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adds delta (negative to decrease).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current level.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Hist is a lock-free log2-bucket histogram for values a live reader must be
// able to summarize mid-run (group-commit sizes, latencies in ns). Bucket i
// holds values whose bit length is i, so quantiles are exact to a factor of
// two — enough for live stats; exact percentiles stay with LatencyRecorder.
type Hist struct {
	name    string
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
	buckets [65]atomic.Int64
}

// NewHist returns an empty histogram labelled name.
func NewHist(name string) *Hist { return &Hist{name: name} }

// Observe adds one value. Negative values clamp to zero.
func (h *Hist) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.buckets[bits.Len64(uint64(v))].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		old := h.max.Load()
		if v <= old || h.max.CompareAndSwap(old, v) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Hist) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Mean returns the arithmetic mean, or 0 with no observations.
func (h *Hist) Mean() float64 {
	if h == nil {
		return 0
	}
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Max returns the largest observation, or 0 with no observations.
func (h *Hist) Max() int64 {
	if h == nil {
		return 0
	}
	return h.max.Load()
}

// Quantile estimates the q-th quantile (0 < q <= 1) by linear interpolation
// within the bucket holding the q·count-th observation. Bucket i (i >= 1)
// spans [2^(i-1), 2^i−1] — observations are assumed uniform across it, so the
// estimate is lo + (hi−lo)·pos/inBucket where pos is the rank's position
// among the bucket's observations; pos = inBucket recovers the old
// bucket-top upper bound, so interpolation only tightens the answer. The top
// is clamped by the observed max (the last bucket is typically occupied far
// below its power-of-two ceiling). Bucket 0 holds only zeros. 0 with no
// observations.
func (h *Hist) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	rank := int64(q * float64(n))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i := range h.buckets {
		inBucket := h.buckets[i].Load()
		if seen+inBucket >= rank {
			if i == 0 {
				return 0
			}
			lo := float64(uint64(1) << uint(i-1))
			hi := float64(uint64(1)<<uint(i)) - 1
			if m := float64(h.max.Load()); m < hi {
				hi = m
			}
			if hi < lo {
				return hi
			}
			pos := float64(rank - seen)
			return lo + (hi-lo)*pos/float64(inBucket)
		}
		seen += inBucket
	}
	return float64(h.max.Load())
}

// Registry is the stack-wide instrument namespace: every layer get-or-creates
// its counters/gauges/histograms by slash-separated name ("device/flushes",
// "jbd/commits", "sim/dispatch.handler"). Instruments are shared by name, so
// the cells of a parallel sweep running many kernels against one registry
// aggregate — which is exactly what the live-stats reader wants to watch.
//
// All methods are nil-safe: a nil *Registry hands out nil instruments, whose
// update methods are no-ops, so the disabled path costs one branch per event
// and no layer needs its own "metrics on?" flag.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Hist
	ks       *sim.KernelStats
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Hist),
	}
}

// Counter get-or-creates the named counter; nil from a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = NewCounter(name)
		r.counters[name] = c
	}
	return c
}

// Gauge get-or-creates the named gauge; nil from a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = NewGauge(name)
		r.gauges[name] = g
	}
	return g
}

// Hist get-or-creates the named histogram; nil from a nil registry.
func (r *Registry) Hist(name string) *Hist {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = NewHist(name)
		r.hists[name] = h
	}
	return h
}

// KernelStats returns the registry's shared sim-kernel stats block, creating
// it on first use. Every kernel attached to this registry adds into the same
// block (sim cannot import metrics, so the counters live in sim and the
// registry adopts them). Nil from a nil registry.
func (r *Registry) KernelStats() *sim.KernelStats {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.ks == nil {
		r.ks = &sim.KernelStats{}
	}
	return r.ks
}

// Sample is one snapshot row.
type Sample struct {
	Name  string  `json:"name"`
	Kind  string  `json:"kind"` // "counter", "gauge", "hist"
	Value float64 `json:"value"`
}

// Snapshot returns a consistent-enough view of every instrument, sorted by
// name: counters and gauges as single rows, histograms expanded into
// .count/.mean/.p50/.p99/.max rows, and the adopted kernel stats as sim/*
// counters. Safe to call from any goroutine while the simulation runs —
// that is the whole point (live stats, the -race satellite test).
func (r *Registry) Snapshot() []Sample {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := make([]Sample, 0, len(r.counters)+len(r.gauges)+5*len(r.hists)+8)
	for _, c := range r.counters {
		out = append(out, Sample{Name: c.name, Kind: "counter", Value: float64(c.Value())})
	}
	for _, g := range r.gauges {
		out = append(out, Sample{Name: g.name, Kind: "gauge", Value: float64(g.Value())})
	}
	for _, h := range r.hists {
		out = append(out,
			Sample{Name: h.name + ".count", Kind: "hist", Value: float64(h.Count())},
			Sample{Name: h.name + ".mean", Kind: "hist", Value: h.Mean()},
			Sample{Name: h.name + ".p50", Kind: "hist", Value: h.Quantile(0.50)},
			Sample{Name: h.name + ".p99", Kind: "hist", Value: h.Quantile(0.99)},
			Sample{Name: h.name + ".max", Kind: "hist", Value: float64(h.Max())},
		)
	}
	ks := r.ks
	r.mu.Unlock()
	if ks != nil {
		out = append(out,
			Sample{Name: "sim/dispatch.handler", Kind: "counter", Value: float64(ks.HandlerDispatches.Load())},
			Sample{Name: "sim/dispatch.goroutine", Kind: "counter", Value: float64(ks.GoroutineDispatches.Load())},
			Sample{Name: "sim/events.stale", Kind: "counter", Value: float64(ks.StaleEvents.Load())},
			Sample{Name: "sim/spawns.proc", Kind: "counter", Value: float64(ks.Spawns.Load())},
			Sample{Name: "sim/spawns.handler", Kind: "counter", Value: float64(ks.HandlerSpawns.Load())},
			Sample{Name: "sim/pool.misses", Kind: "counter", Value: float64(ks.PoolMisses.Load())},
		)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// live is the process-wide default registry. Layers resolve their optional
// explicit registry against it, so `repro -live` can observe a whole sweep
// by installing one registry instead of threading it through every
// experiment signature.
var live atomic.Pointer[Registry]

// SetLive installs r as the process-wide default registry (nil to disable).
func SetLive(r *Registry) { live.Store(r) }

// Resolve returns explicit if non-nil, else the live registry (may be nil).
func Resolve(explicit *Registry) *Registry {
	if explicit != nil {
		return explicit
	}
	return live.Load()
}
