package workload

import (
	"repro/internal/metrics"
	"repro/internal/sim"
)

// Window is the outcome of one closed-loop measurement: completions counted
// in (Start, End] of virtual time (one at the instant the warm-up ends is the
// warm-up's) and their rate. Latency stays zero unless the clients reported
// through Meter.Timed.
type Window struct {
	Ops        int64
	Start, End sim.Time
	PerS       float64
	Latency    metrics.Summary
}

// Meter is the one closed-loop measurement window. Clients call Done or
// Timed after every operation, unconditionally; both are no-ops until
// Measure opens the window, so every driver counts by the same rule and the
// throughput figures (Figs. 1, 9, 10, 13, 14, 15, mq, kv) stay comparable.
// The zero value is ready to use.
type Meter struct {
	open bool
	ops  int64
	rec  metrics.LatencyRecorder
}

// Done counts n completions.
func (m *Meter) Done(n int) {
	if m.open {
		m.ops += int64(n)
	}
}

// Timed counts n completions and records one latency sample, t0 to now.
func (m *Meter) Timed(p *sim.Proc, t0 sim.Time, n int) {
	if m.open {
		m.ops += int64(n)
		m.rec.Record(sim.Duration(p.Now() - t0))
	}
}

// Warm runs the warm-up. If ready is non-nil and still false afterwards,
// set-up outlasted the warm-up: run on in 10 ms steps until it holds, then
// warm up once more so the window never opens on the first operations after
// set-up. Cells depend on it: in `repro all` RandWrite's preallocation
// outlasts the warm-up in 6 of 30 full-scale runs (96 steps) and 22 of 30
// -quick runs (182 steps); kvwal.Bench's and mqFSPoint's set-up never does
// (0 of 16 + 8 and 0 of 4 + 4 runs), so they take the rule without moving.
func Warm(k *sim.Kernel, warmup sim.Duration, ready *bool) {
	k.RunUntil(k.Now().Add(warmup))
	if ready == nil || *ready {
		return
	}
	for !*ready {
		k.RunUntil(k.Now().Add(10 * sim.Millisecond))
	}
	k.RunUntil(k.Now().Add(warmup))
}

// Measure opens the window, runs the kernel for d and closes it.
func (m *Meter) Measure(k *sim.Kernel, d sim.Duration) Window {
	m.open = true
	start := k.Now()
	k.RunUntil(start.Add(d))
	m.open = false
	end := k.Now()
	return Window{
		Ops:     m.ops,
		Start:   start,
		End:     end,
		PerS:    metrics.Rate(m.ops, sim.Duration(end-start)),
		Latency: m.rec.Summarize(),
	}
}
