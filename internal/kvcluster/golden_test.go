package kvcluster

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/metrics"
	"repro/internal/reqtrace"
	"repro/internal/sim"
	"repro/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/runner_golden.json from this run")

const goldenPath = "testdata/runner_golden.json"

// kernelGolden is one kernel's dispatch trace: two runs dispatched the same
// events in the same order iff (Len, Hash) are equal.
type kernelGolden struct {
	Len  int
	Hash string
}

// resizeGolden is the part of a ResizeResult beyond its Result.
type resizeGolden struct {
	Migration MigrationStats
	Events    []MigrationEvent
	AckedKeys int
	AckedLost int
	Timeline  []TimelineBin
}

// shapeGolden pins one deployment shape: every kernel's dispatch trace plus
// the result cells the experiments print.
type shapeGolden struct {
	Kernels map[string]kernelGolden

	Offered, Admitted, Shed, Done, Good int64
	LatMean, LatMedian, LatP99, LatMax  float64
	PerShard                            []ShardStats
	PerTenant                           []TenantStats
	Exemplars, TraceDropped             int
	// Counters are the cluster's failover-path counters (shapes that run
	// with a registry only).
	Counters map[string]int64 `json:",omitempty"`

	Resize *resizeGolden `json:",omitempty"`
}

// traceKernels is a NewKernel hook that starts a dispatch trace on every
// kernel a run builds, keyed by kernel label. Sharded shards build theirs
// under par.For, hence the lock.
type traceKernels struct {
	mu     sync.Mutex
	traces map[string]*sim.Trace
}

func (tk *traceKernels) newKernel(label string) *sim.Kernel {
	k := sim.NewKernel()
	tr := k.StartTrace(false)
	tk.mu.Lock()
	defer tk.mu.Unlock()
	if tk.traces == nil {
		tk.traces = make(map[string]*sim.Trace)
	}
	if _, dup := tk.traces[label]; dup {
		panic("golden: duplicate kernel label " + label)
	}
	tk.traces[label] = tr
	return k
}

func (tk *traceKernels) shape(res Result) shapeGolden {
	g := shapeGolden{
		Kernels: make(map[string]kernelGolden),
		Offered: res.Offered, Admitted: res.Admitted, Shed: res.Shed,
		Done: res.Done, Good: res.Good,
		LatMean: res.Latency.Mean, LatMedian: res.Latency.Median,
		LatP99: res.Latency.P99, LatMax: res.Latency.Max,
		PerShard: res.PerShard, PerTenant: res.PerTenant,
		Exemplars: len(res.Exemplars), TraceDropped: res.TraceDropped,
	}
	for label, tr := range tk.traces {
		g.Kernels[label] = kernelGolden{Len: tr.Len(), Hash: fmt.Sprintf("%016x", tr.Hash())}
	}
	return g
}

func (tk *traceKernels) resizeShape(res ResizeResult) shapeGolden {
	g := tk.shape(res.Result)
	g.Resize = &resizeGolden{
		Migration: res.Migration, Events: res.Events,
		AckedKeys: res.AckedKeys, AckedLost: res.AckedLost,
		Timeline: res.Timeline,
	}
	return g
}

// goldenShapes runs the six shapes the one traffic runner has to serve:
// both unreplicated deployments, the replicated cluster clean and with a
// media-error plan (failover + read-repair), a live resize and a
// kill + ReplaceShard. Between them they cover shedding, warm-up, request
// tracing on and off, and every control-plane action.
func goldenShapes() map[string]shapeGolden {
	out := make(map[string]shapeGolden)
	trace := &reqtrace.Config{Uniform: 16, TopK: 4}

	{
		var tk traceKernels
		cfg := Config{Shards: 2, Profile: core.BFSDR, Store: smallStore(),
			InflightCap: 6, SLO: 400 * sim.Microsecond, NewKernel: tk.newKernel}
		out["sharded"] = tk.shape(Run(cfg, smallTraffic(90_000)))
	}
	{
		var tk traceKernels
		cfg := Config{Shards: 2, Mode: MQStreams, Profile: core.BFSMQ, Store: smallStore(),
			Trace: trace, NewKernel: tk.newKernel}
		out["mq-streams"] = tk.shape(Run(cfg, smallTraffic(40_000)))
	}
	{
		var tk traceKernels
		rc := Config{Shards: 3, Mode: Replicated, Replicas: 2, Store: smallStore(),
			InflightCap: 12, SLO: 400 * sim.Microsecond, NewKernel: tk.newKernel}
		out["replicated"] = tk.shape(Run(rc, smallTraffic(60_000)))
	}
	{
		var tk traceKernels
		rc := Config{
			Shards: 3, Mode: Replicated, Replicas: 2, Store: smallStore(), Profile: retrying,
			ShardDevice: func(i int) device.Config {
				d := device.NVMeSSD()
				if i == 0 {
					d.Fault = uncPlan(42)
				}
				return d
			},
			Metrics:   metrics.NewRegistry(),
			Trace:     trace,
			NewKernel: tk.newKernel,
		}
		// A small, read-heavy key space: keys are re-read after their
		// memtable flushed, so reads reach shard 0's failing media.
		tr := smallTraffic(30_000)
		tr.Mix = workload.Mix{ReadPct: 50, DeletePct: 5}
		tr.KeySpace = 256
		g := tk.shape(Run(rc, tr))
		g.Counters = make(map[string]int64)
		for _, name := range []string{"kvcluster/failovers", "kvcluster/read.repairs",
			"kvcluster/replica.writes"} {
			g.Counters[name] = rc.Metrics.Counter(name).Value()
		}
		out["replicated-unc"] = g
	}
	{
		var tk traceKernels
		rc := Config{Shards: 3, Replicas: 2, Store: smallStore(),
			Trace: trace, NewKernel: tk.newKernel}
		spec := ResizeSpec{ResizeAt: sim.Time(6 * sim.Millisecond), NewShards: 4, Bins: 12}
		out["resize"] = tk.resizeShape(RunResize(rc, resizeTraffic(40_000), spec))
	}
	{
		var tk traceKernels
		rc := Config{Shards: 3, Replicas: 2, Store: smallStore(),
			InflightCap: 48, NewKernel: tk.newKernel}
		spec := ResizeSpec{KillShard: 1, KillAt: sim.Time(6 * sim.Millisecond),
			ReplaceAt: sim.Time(7 * sim.Millisecond)}
		out["kill-replace"] = tk.resizeShape(RunResize(rc, resizeTraffic(40_000), spec))
	}
	return out
}

// TestRunnerGolden pins the traffic runner: for each shape, every kernel's
// dispatch trace and every result cell must equal the recorded golden file.
// The file is regenerated only by `go test -run TestRunnerGolden -update`;
// a refactor of the runner must leave it untouched.
func TestRunnerGolden(t *testing.T) {
	got := goldenShapes()
	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenPath)
		return
	}
	b, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (record it with -update)", err)
	}
	var want map[string]shapeGolden
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden file has %d shapes, run produced %d", len(want), len(got))
	}
	for name, g := range got {
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: not in golden file", name)
			continue
		}
		for label, kg := range g.Kernels {
			if wk := w.Kernels[label]; kg != wk {
				t.Errorf("%s: kernel %s dispatch trace (len %d, hash %s), golden (len %d, hash %s)",
					name, label, kg.Len, kg.Hash, wk.Len, wk.Hash)
			}
		}
		gj, _ := json.MarshalIndent(g, "", "  ")
		wj, _ := json.MarshalIndent(w, "", "  ")
		if string(gj) != string(wj) {
			t.Errorf("%s: cells differ from golden\n got: %s\nwant: %s", name, gj, wj)
		}
	}
}
