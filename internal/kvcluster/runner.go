package kvcluster

import (
	"slices"

	"repro/internal/metrics"
	"repro/internal/reqtrace"
	"repro/internal/sim"
	"repro/internal/workload"
)

// serveFunc executes one admitted request against the backend its opener
// built. A non-nil error means the request failed: it cannot have met its
// SLO, whatever its latency.
type serveFunc func(p *sim.Proc, r Request) error

// runner is the one open-loop traffic loop every deployment shape runs: an
// opener builds the backend, a dispatcher replays an arrival slice at its
// own pace with shed-and-count admission control (outstanding ≥ cap ⇒ the
// arrival is shed, never queued), and cap workers execute admitted requests.
// The shapes differ only in the fields of the first group.
type runner struct {
	// reqs is the arrival slice to replay, ascending in time; tr bounds the
	// measured window. route, when non-nil, is each request's shard: the
	// runner serves the requests routed to idx and skips the rest, so the
	// shards of one cluster replay one stream (see routes).
	reqs  []Request
	route []uint8
	tr    Traffic
	// idx is the proc-name index: the shard for a per-shard runner, -1 for a
	// cluster-wide one (SpawnIdx(name, -1, …) is Spawn(name, …)). Workers are
	// numbered idx*cap+w, plain w cluster-wide.
	idx int
	// instruments is the registry prefix of admitted/shed/inflight.
	instruments string
	cap         int
	slo         sim.Duration
	// smp samples request traces for write-class requests (nil: disabled).
	// Admit/Finish stay on the owning kernel's goroutine, so runners on
	// parallel kernels each need their own.
	smp *reqtrace.Sampler
	// control, when non-nil, is the control-plane proc: spawned between
	// opener and dispatcher and entered once the opener returned.
	control func(p *sim.Proc)
	// completed, when non-nil, observes every finished request.
	completed func(r Request, err error)

	// Live state the drain loop polls.
	dispatched  bool
	outstanding int

	// Measured-window outcome. offered counts, per tenant, the measured
	// requests the runner serves; spawn sets it and sizes samples from it.
	offered        []int64
	admitted, shed int64
	samples        []latSample
}

// latSample is one measured-window completion.
type latSample struct {
	tenant int
	at     sim.Time // request arrival
	d      sim.Duration
	good   bool
}

// serves reports whether request n of the stream is the runner's.
func (run *runner) serves(n int) bool { return run.route == nil || int(run.route[n]) == run.idx }

// busy reports arrivals still to dispatch or admitted requests in flight.
func (run *runner) busy() bool { return !run.dispatched || run.outstanding > 0 }

func sleepUntil(p *sim.Proc, at sim.Time) {
	if at > p.Now() {
		p.Sleep(sim.Duration(at - p.Now()))
	}
}

// spawn wires the runner's procs into kernel k, registering its admission
// instruments in reg. open builds the backend and returns how to serve a
// request from it — an argument, not a field: the runner outlives its kernel
// (aggregate reads it) and must not keep the backend alive.
func (run *runner) spawn(k *sim.Kernel, reg *metrics.Registry,
	open func(p *sim.Proc) (serveFunc, error)) {
	tr := run.tr
	// Count the measured requests before the first event: each completes at
	// most once, so samples never regrows.
	run.offered = make([]int64, tr.Tenants)
	measured := 0
	for n, r := range run.reqs {
		if run.serves(n) && r.measured(tr) {
			run.offered[r.Tenant]++
			measured++
		}
	}
	run.samples = make([]latSample, 0, measured)

	q := sim.NewQueue[Request](k)
	var serve serveFunc
	awaitOpen := func(p *sim.Proc) {
		for serve == nil {
			p.Sleep(50 * sim.Microsecond)
		}
	}

	reg = metrics.Resolve(reg) // nil registry: nil, no-op instruments
	admitted := reg.Counter(run.instruments + "admitted")
	shed := reg.Counter(run.instruments + "shed")
	inflight := reg.Gauge(run.instruments + "inflight")

	k.SpawnIdx("kvc/open", run.idx, func(p *sim.Proc) {
		s, err := open(p)
		if err != nil {
			panic(err)
		}
		serve = s
	})

	if run.control != nil {
		k.SpawnIdx("kvc/control", run.idx, func(p *sim.Proc) {
			awaitOpen(p)
			run.control(p)
		})
	}

	k.SpawnIdx("kvc/dispatch", run.idx, func(p *sim.Proc) {
		awaitOpen(p)
		for n := range run.reqs {
			// Skip before sleeping: another shard's arrival is no event here.
			if !run.serves(n) {
				continue
			}
			r := run.reqs[n]
			sleepUntil(p, r.At)
			if run.outstanding >= run.cap {
				shed.Inc()
				if r.measured(tr) {
					run.shed++
				}
				continue
			}
			run.outstanding++
			inflight.Inc()
			admitted.Inc()
			if r.measured(tr) {
				run.admitted++
			}
			if r.Class != workload.ClassGet {
				// Trace writes only (nil-sampler safe): reads never enter the
				// group-commit and durability machinery the trace attributes.
				r.Trace = run.smp.Admit(p.Now())
			}
			q.Put(r)
		}
		run.dispatched = true
	})

	for w := 0; w < run.cap; w++ {
		k.SpawnIdx("kvc/worker", max(run.idx, 0)*run.cap+w, func(p *sim.Proc) {
			for {
				r := q.Get(p)
				// The request's trace context is the worker's while it serves.
				prev := reqtrace.With(p, r.Trace)
				err := serve(p, r)
				reqtrace.With(p, prev)
				lat := sim.Duration(p.Now() - r.At)
				run.smp.Finish(r.Trace, p.Now())
				run.outstanding--
				inflight.Dec()
				if run.completed != nil {
					run.completed(r, err)
				}
				if r.measured(tr) {
					run.samples = append(run.samples, latSample{
						tenant: r.Tenant, at: r.At, d: lat,
						good: err == nil && lat <= run.slo,
					})
				}
			}
		})
	}
}

// drive runs the kernel to the end of the offered window, then drains:
// admitted requests still in flight complete on simulated time, bounded by
// a drain cap so a wedged shard cannot hang the run.
func drive(k *sim.Kernel, runs []*runner, end sim.Time) {
	k.RunUntil(end)
	deadline := end.Add(100 * sim.Millisecond)
	for k.Now() < deadline && slices.ContainsFunc(runs, (*runner).busy) {
		k.RunUntil(k.Now().Add(sim.Millisecond))
	}
}
