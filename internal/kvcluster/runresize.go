package kvcluster

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/metrics"
	"repro/internal/reqtrace"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The replicated runs: set-up/aggregate shells around the traffic runner,
// serving every request through a Cluster. One kernel hosts all the shard
// stacks, so a run is deterministic under the traffic seed like the other
// modes. Run serves Mode Replicated through one; RunResize adds a
// control-plane schedule (kill / resize / replace), a goodput+p99 timeline
// binned before/during/after the migration window, and an acked-write audit
// — every write the cluster acknowledged during the run must still be
// readable once the migration lands.

// ResizeSpec schedules the control-plane actions of a resize run.
type ResizeSpec struct {
	// ResizeAt triggers Cluster.Resize(NewShards) at this instant
	// (NewShards 0 disables).
	ResizeAt  sim.Time
	NewShards int
	// KillAt kills KillShard at this instant (KillAt 0 disables); ReplaceAt
	// then triggers ReplaceShard(KillShard) — the kill+rebuild scenario.
	KillShard int
	KillAt    sim.Time
	ReplaceAt sim.Time
	// Bins is the number of timeline slices of the measured window
	// (default 10).
	Bins int
}

// play is the control-plane proc of a resize run: it performs spec's
// actions at their instants against the opened cluster and returns the
// migration they started (nil if none).
func (spec ResizeSpec) play(p *sim.Proc, cl *Cluster) *Migration {
	if spec.KillAt > 0 {
		sleepUntil(p, spec.KillAt)
		cl.KillShard(spec.KillShard)
	}
	var mig *Migration
	var err error
	switch {
	case spec.NewShards > 0:
		sleepUntil(p, spec.ResizeAt)
		mig, err = cl.Resize(p, spec.NewShards)
	case spec.ReplaceAt > 0:
		sleepUntil(p, spec.ReplaceAt)
		mig, err = cl.ReplaceShard(p, spec.KillShard)
	}
	if err != nil {
		panic("kvcluster: resize control: " + err.Error())
	}
	return mig
}

// TimelineBin is one slice of the measured window.
type TimelineBin struct {
	StartMs, EndMs float64
	Phase          string // before | during | after
	Done, Good     int64
	GoodputPerS    float64
	P99            float64 // msec
}

// PhaseAgg aggregates one phase of the run.
type PhaseAgg struct {
	Phase       string
	WindowMs    float64
	Done, Good  int64
	GoodputPerS float64
	P99         float64 // msec
}

// ResizeResult is RunResize's outcome.
type ResizeResult struct {
	Result
	Timeline  []TimelineBin
	Phases    []PhaseAgg // before, during, after
	Migration MigrationStats
	Events    []MigrationEvent
	Failed    bool    // migration pinned failed (a range had no destination)
	MigStart  float64 // msec (degraded window start: the kill, if scheduled)
	MigEnd    float64 // msec
	AckedKeys int     // acked puts audited at end of run
	AckedLost int     // acked puts readable from no owner (must be 0)
}

// clusterRun is one replicated run: the kernel, the cluster the runner's
// opener builds on it, and the cluster-wide runner serving from it.
type clusterRun struct {
	k   *sim.Kernel
	cl  *Cluster
	run *runner
	cfg Config
	// engine names the run: "<profile>+r<replicas>".
	engine string
}

// newClusterRun builds the kernel and the runner; nothing spawns until drive,
// so the caller may still set the runner's hooks. The caller closes cr.k.
func newClusterRun(cfg Config, tr Traffic, label string) *clusterRun {
	cfg = cfg.withDefaults()
	tr = tr.withDefaults()
	engine := fmt.Sprintf("%s+r%d", cfg.Profile(cfg.shardDevice(0)).Name, cfg.Replicas)
	cr := &clusterRun{
		k: cfg.NewKernel(fmt.Sprintf("kvcluster/%s/%s", engine, label)), cfg: cfg, engine: engine,
	}
	cr.run = &runner{
		reqs: tr.Generate(), tr: tr, idx: -1, instruments: "kvcluster/cluster/",
		cap: cfg.InflightCap, slo: cfg.SLO,
	}
	if cfg.Trace != nil {
		cr.run.smp = reqtrace.NewSampler(*cfg.Trace)
	}
	return cr
}

// drive opens the cluster and plays the offered window plus drain.
func (cr *clusterRun) drive() {
	cr.run.spawn(cr.k, cr.cfg.Metrics, func(p *sim.Proc) (serveFunc, error) {
		cl, err := OpenCluster(p, cr.cfg)
		if err != nil {
			return nil, err
		}
		cr.cl = cl
		return cl.serve, nil
	})
	drive(cr.k, []*runner{cr.run}, sim.Time(cr.run.tr.Warmup+cr.run.tr.Duration))
}

// result folds the run into its measured-window Result.
func (cr *clusterRun) result() Result {
	res := Result{Engine: cr.engine, Mode: Replicated, Shards: cr.cfg.Shards}
	return aggregate(res, []*runner{cr.run})
}

// RunResize drives a replicated cluster under tr, whatever cfg.Mode says,
// while spec's control-plane schedule plays out, waits for the migration to land, audits every acked
// write, and reports the timeline in spec.Bins slices of the measured
// window.
func RunResize(cfg Config, tr Traffic, spec ResizeSpec) ResizeResult {
	if spec.Bins <= 0 {
		spec.Bins = 10
	}
	cr := newClusterRun(cfg, tr, "resize")
	k := cr.k
	defer k.Close()
	var mig *Migration
	ackedPut := make(map[string]bool)
	ackedDel := make(map[string]bool)
	cr.run.control = func(p *sim.Proc) { mig = spec.play(p, cr.cl) }
	cr.run.completed = func(r Request, err error) {
		if err != nil {
			return
		}
		switch r.Class {
		case workload.ClassPut:
			ackedPut[r.Key] = true
		case workload.ClassDelete:
			ackedDel[r.Key] = true
		}
	}
	cr.drive()

	// Post-run audit: let the migration land, then read back every key with
	// an acked put and no acked delete. Keys deleted at any point are
	// excluded — with concurrent workers the put/delete order of a key is
	// not well-defined, so absence cannot be called a loss.
	var keys []string
	lost := 0
	k.Spawn("kvc/audit", func(p *sim.Proc) {
		if mig != nil {
			mig.Wait(p)
		}
		for key := range ackedPut {
			if !ackedDel[key] {
				keys = append(keys, key)
			}
		}
		sort.Strings(keys)
		for _, key := range keys {
			if _, ok, err := cr.cl.Get(p, key); err != nil || !ok {
				lost++
			}
		}
	})
	k.Run()

	res := ResizeResult{Result: cr.result(), AckedKeys: len(keys), AckedLost: lost}
	var migStart, migEnd sim.Time
	if mig != nil {
		res.Migration = mig.Stats()
		res.Events = mig.Events()
		res.Failed = mig.Failed()
		migStart, migEnd = mig.Started(), mig.Finished()
	}
	if spec.KillAt > 0 && (migStart == 0 || spec.KillAt < migStart) {
		// The degraded window opens at the kill, not the rebuild.
		migStart = spec.KillAt
	}
	res.MigStart = ms(migStart)
	res.MigEnd = ms(migEnd)
	res.Timeline = binTimeline(cr.run.samples, cr.run.tr, spec.Bins, migStart, migEnd)
	res.Phases = phaseAggs(res.Timeline)
	return res
}

func ms(t sim.Time) float64 { return float64(t) / float64(sim.Millisecond) }

// binTimeline slices the measured window into bins and tags each with its
// phase relative to the degraded window [migStart, migEnd].
func binTimeline(samples []latSample, tr Traffic, bins int, migStart, migEnd sim.Time) []TimelineBin {
	start := sim.Time(tr.Warmup)
	width := sim.Duration(tr.Duration) / sim.Duration(bins)
	if width <= 0 {
		return nil
	}
	byBin := make([]metrics.LatencyRecorder, bins)
	good := make([]int64, bins)
	for _, s := range samples {
		i := int(sim.Duration(s.at-start) / width)
		if i < 0 || i >= bins {
			continue
		}
		byBin[i].Record(s.d)
		if s.good {
			good[i]++
		}
	}
	outBins := make([]TimelineBin, bins)
	for i := range outBins {
		lo := start.Add(sim.Duration(i) * width)
		hi := lo.Add(width)
		phase := "before"
		switch {
		case migStart == 0:
		case migEnd > 0 && lo >= migEnd:
			phase = "after"
		case hi > migStart:
			phase = "during"
		}
		b := TimelineBin{
			StartMs: ms(lo), EndMs: ms(hi), Phase: phase,
			Done: int64(byBin[i].Count()), Good: good[i],
		}
		b.GoodputPerS = float64(good[i]) / (float64(width) / float64(sim.Second))
		b.P99 = byBin[i].Percentile(99).Millis()
		outBins[i] = b
	}
	return outBins
}

// phaseAggs folds the timeline into one aggregate per phase.
func phaseAggs(tl []TimelineBin) []PhaseAgg {
	out := []PhaseAgg{{Phase: "before"}, {Phase: "during"}, {Phase: "after"}}
	for _, b := range tl {
		a := &out[slices.IndexFunc(out, func(a PhaseAgg) bool { return a.Phase == b.Phase })]
		a.WindowMs += b.EndMs - b.StartMs
		a.Done += b.Done
		a.Good += b.Good
		if b.P99 > a.P99 {
			// Conservative: a phase's p99 is its worst bin's p99.
			a.P99 = b.P99
		}
	}
	for i := range out {
		if a := &out[i]; a.WindowMs > 0 {
			a.GoodputPerS = float64(a.Good) / (a.WindowMs / 1000)
		}
	}
	return out
}
