package metrics

import (
	"sync/atomic"

	"repro/internal/sim"
)

// Counter is a monotonically increasing event count. It is atomic so a live
// snapshot reader (repro -live) can observe it while a parallel sweep bumps
// it, and nil-safe so a layer without a registry pays one branch per event.
type Counter struct {
	name string
	n    atomic.Int64
}

// NewCounter returns a zeroed counter labelled name.
func NewCounter(name string) *Counter { return &Counter{name: name} }

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.n.Add(1)
}

// Add adds delta.
func (c *Counter) Add(delta int64) {
	if c == nil {
		return
	}
	c.n.Add(delta)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.n.Load()
}

// Name returns the counter label.
func (c *Counter) Name() string { return c.name }

// Reset zeroes the counter.
func (c *Counter) Reset() { c.n.Store(0) }

// Rate converts an event count over a virtual-time window to events/second.
// It is the IOPS / ops-per-second / Tx-per-second calculation used by every
// throughput figure in the paper.
func Rate(events int64, window sim.Duration) float64 {
	if window <= 0 {
		return 0
	}
	return float64(events) / window.Seconds()
}

// SwitchMeter measures voluntary context switches attributed to an
// operation, reproducing the per-fsync context-switch counts of Fig. 11.
// Usage: Begin before the operation on the calling process, End after; the
// meter accumulates the per-op switch deltas.
type SwitchMeter struct {
	name  string
	ops   int64
	total int64
	start int64
}

// NewSwitchMeter returns an empty meter labelled name.
func NewSwitchMeter(name string) *SwitchMeter { return &SwitchMeter{name: name} }

// Begin snapshots the process's voluntary-switch count.
func (m *SwitchMeter) Begin(p *sim.Proc) { m.start = p.VoluntarySwitches() }

// End records the switches incurred since Begin as one operation.
func (m *SwitchMeter) End(p *sim.Proc) {
	m.total += p.VoluntarySwitches() - m.start
	m.ops++
}

// PerOp returns the mean number of voluntary switches per operation.
func (m *SwitchMeter) PerOp() float64 {
	if m.ops == 0 {
		return 0
	}
	return float64(m.total) / float64(m.ops)
}

// Ops returns the number of measured operations.
func (m *SwitchMeter) Ops() int64 { return m.ops }

// Name returns the meter label.
func (m *SwitchMeter) Name() string { return m.name }
