package experiments

import (
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/kvcluster"
	"repro/internal/par"
	"repro/internal/sim"
	"repro/internal/workload"
)

// FSReplayRow is one engine's outcome replaying the recorded trace.
type FSReplayRow struct {
	Config      string  `col:"config,config,%-10s"`
	Shards      int     `col:"shards,shards,%6d,axis"`
	TraceRows   int     `col:"trace_rows,rows,%9d"`
	OfferedPerS float64 `col:"offered_per_s,offered/s,%9.0f"`
	GoodputPerS float64 `col:"goodput_per_s,goodput/s,%11.0f"`
	SLOPct      float64 `col:"slo_pct,slo%,%6.1f%%"`
	ShedPct     float64 `col:"shed_pct,shed%,%5.1f%%"`
	P50         float64 `col:"p50_ms,p50ms,%8.3f"` // msec
	P99         float64 `col:"p99_ms,p99ms,%8.3f"` // msec
}

// FSReplayResult is the trace-replay experiment.
type FSReplayResult struct {
	SLOms  float64
	Source string // "-trace file" or "synthetic"
	Rows   []FSReplayRow
}

// FSReplay replays a recorded request stream (workload.Traffic.Replay)
// through the fs-backed KV service instead of the synthetic generators:
// arrival instants, op classes and keys all come from the trace, wrapped
// cyclically to fill the measured window with its mean rate preserved. The
// sweep compares the barrier-enabled stack against the flush-based
// baseline under the *same recorded arrivals* — the replay answers "what
// would this exact workload have seen", where the synthetic sweeps answer
// "what does a workload of this shape see". trace may be nil: a
// deterministic synthetic recording stands in so the replay path stays
// exercised without external inputs.
func FSReplay(scale Scale, trace *workload.Trace) FSReplayResult {
	source := "recorded trace"
	if trace == nil || len(trace.Rows) == 0 {
		trace = workload.SyntheticTrace(scale.n(2000, 12000), 50_000, 41)
		source = "synthetic"
	}
	shards := scale.n(2, 4)
	dur := scale.dur(10*sim.Millisecond, 40*sim.Millisecond)
	slo := 2 * sim.Millisecond
	engines := []func(device.Config) core.Profile{core.EXT4DR, core.BFSDR}

	out := FSReplayResult{SLOms: float64(slo) / float64(sim.Millisecond), Source: source}
	out.Rows = make([]FSReplayRow, len(engines))
	par.For(len(engines), func(i int) {
		cfg := kvcluster.Config{
			Shards:  shards,
			Profile: engines[i],
			SLO:     slo,
			NewKernel: func(label string) *sim.Kernel {
				return newKernel(label + "/replay")
			},
		}
		tr := kvcluster.Traffic{
			Replay:   trace,
			Tenants:  2,
			Warmup:   4 * sim.Millisecond,
			Duration: dur,
		}
		res := kvcluster.Run(cfg, tr)
		out.Rows[i] = FSReplayRow{
			Config: res.Engine, Shards: res.Shards, TraceRows: len(trace.Rows),
			OfferedPerS: res.OfferedPerS, GoodputPerS: res.GoodputPerS,
			SLOPct: res.SLOPct, ShedPct: shedPct(res),
			P50: res.Latency.Median, P99: res.Latency.P99,
		}
	})
	return out
}
