package experiments

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/kvcluster"
	"repro/internal/par"
	"repro/internal/reqtrace"
	"repro/internal/sim"
	"repro/internal/workload"
)

// WhySlowRow is one cell of the tail-latency attribution sweep: one
// (engine, offered load) pair's time attributed to one stack stage, at one
// of two levels — "top" partitions the whole request (queue, batch,
// durability, ack); "durability" splits the durability window by the deeper
// pipeline boundaries (prep, journal, blockq, devq, device, residual).
type WhySlowRow struct {
	Config      string  `col:"config,config,%-10s"`
	OfferedKops int     `col:"offered_kops,offered,%6dk,axis"`
	Level       string  `col:"level,level,%-10s"` // top | durability
	Stage       string  `col:"stage,stage,%-10s"`
	MeanMs      float64 `col:"mean_ms,mean_ms,%9.4f"`
	P50Ms       float64 `col:"p50_ms,p50_ms,%9.4f"`
	P99Ms       float64 `col:"p99_ms,p99_ms,%9.4f"`
	SharePct    float64 `col:"share_pct,share,%6.1f%%"`
	Exemplars   int     `col:"exemplars,n,%5d"`
}

// WhySlowResult is the tail-latency attribution experiment.
type WhySlowResult struct {
	SLOms float64
	Rows  []WhySlowRow
}

// WhySlow answers "where does the tail live?" with per-stage attribution
// instead of a single end-to-end percentile: the sharded KV service runs
// with request-scoped causal tracing on, the sampler keeps the slowest
// exemplars per window plus a uniform stream, and the critical-path
// analyzer attributes each exemplar's latency to stack stages.
//
// The cells state the paper's mechanism directly: on EXT4-DR the
// durability stage (the leader's fdatasync stall) dominates the tail,
// while BFS-DR's fdatabarrier returns at dispatch, so its durability share
// collapses and what remains of the tail is queueing. With span capture on
// (repro -spans) each cell also dumps its slowest exemplars as Chrome
// attribution tracks.
func WhySlow(scale Scale) WhySlowResult {
	shards := scale.n(2, 4)
	loads := []int{160}
	if scale == Full {
		loads = []int{80, 240}
	}
	dur := scale.dur(10*sim.Millisecond, 40*sim.Millisecond)
	slo := 2 * sim.Millisecond

	engines := []func(device.Config) core.Profile{core.EXT4DR, core.BFSDR}

	out := WhySlowResult{SLOms: float64(slo) / float64(sim.Millisecond)}
	rows := make([][]WhySlowRow, len(engines)*len(loads))
	par.For(len(rows), func(i int) {
		prof := engines[i/len(loads)]
		kops := loads[i%len(loads)]
		cfg := kvcluster.Config{
			Shards:  shards,
			Profile: prof,
			SLO:     slo,
			NewKernel: func(label string) *sim.Kernel {
				return newKernel(fmt.Sprintf("%s/%dk", label, kops))
			},
			// Tail-biased sampling: the K slowest per window drive the
			// attribution; the uniform stream keeps the shares honest.
			Trace: &reqtrace.Config{Uniform: 32, TopK: 8},
		}
		tr := kvcluster.Traffic{
			Arrivals:  workload.ArrivalConfig{Kind: workload.ArrivalPoisson, RatePerS: float64(kops) * 1000, Seed: 7},
			Mix:       workload.Mix{ReadPct: 20, DeletePct: 10},
			KeySpace:  8192,
			ZipfTheta: 0.99,
			Tenants:   2,
			Warmup:    4 * sim.Millisecond,
			Duration:  dur,
		}
		res := kvcluster.Run(cfg, tr)
		n := len(res.Exemplars)
		for _, st := range reqtrace.AnalyzeTop(res.Exemplars) {
			rows[i] = append(rows[i], WhySlowRow{
				Config: res.Engine, OfferedKops: kops, Level: "top",
				Stage: st.Stage, MeanMs: st.MeanMs, P50Ms: st.P50Ms,
				P99Ms: st.P99Ms, SharePct: st.SharePct, Exemplars: n,
			})
		}
		for _, st := range reqtrace.AnalyzeSub(res.Exemplars) {
			rows[i] = append(rows[i], WhySlowRow{
				Config: res.Engine, OfferedKops: kops, Level: "durability",
				Stage: st.Stage, MeanMs: st.MeanMs, P50Ms: st.P50Ms,
				P99Ms: st.P99Ms, SharePct: st.SharePct, Exemplars: n,
			})
		}
		dumpExemplars(fmt.Sprintf("whyslow/%s/%dk", res.Engine, kops),
			res.Exemplars, 4)
	})
	for _, rs := range rows {
		out.Rows = append(out.Rows, rs...)
	}
	return out
}

// dumpExemplars renders the k slowest exemplars as Chrome attribution
// tracks: one async "request" span per exemplar with its top-level
// segments as nested spans and every raw stamp as an instant. A no-op
// unless span capture is on.
func dumpExemplars(label string, exs []reqtrace.Exemplar, k int) {
	if len(exs) == 0 {
		return
	}
	sorted := append([]reqtrace.Exemplar(nil), exs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Total > sorted[j].Total })
	if k > len(sorted) {
		k = len(sorted)
	}
	st := sim.NewSpanTrace()
	for i := 0; i < k; i++ {
		e := sorted[i]
		id := uint64(i + 1)
		st.Append(e.At(reqtrace.StageAdmit), 'b', "whyslow", "request", id)
		at := e.At(reqtrace.StageAdmit)
		for s, d := range reqtrace.AttributeTop(e) {
			if d <= 0 {
				at = at.Add(d)
				continue
			}
			st.Append(at, 'b', "whyslow", reqtrace.TopStage(s).String(), id)
			at = at.Add(d)
			st.Append(at, 'e', "whyslow", reqtrace.TopStage(s).String(), id)
		}
		st.Append(e.At(reqtrace.StageAck), 'e', "whyslow", "request", id)
		for s := 0; s < reqtrace.NumStages; s++ {
			if e.Has(reqtrace.Stage(s)) {
				st.Append(e.At(reqtrace.Stage(s)), 'i', "whyslow",
					reqtrace.Stage(s).String(), 0)
			}
		}
	}
	RecordSpans(label, st)
}
