package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/kvcluster"
	"repro/internal/kvwal"
	"repro/internal/metrics"
	"repro/internal/par"
	"repro/internal/sim"
	"repro/internal/workload"
)

// RebalanceRow is one cell of the resize-under-load sweep: one (engine,
// scenario) run's goodput/p99 in one phase of the migration timeline —
// before the degraded window opens, during the migration, after it lands —
// with the migration's own counters alongside. The headline invariant
// (zero acked-write loss) is carried per row so the recorded cells assert
// it too.
type RebalanceRow struct {
	Config      string  `col:"config,config,%-14s"`
	Scenario    string  `col:"scenario,scenario,%-8s"` // resize | rebuild
	Phase       string  `col:"phase,phase,%-7s"`       // before | during | after
	Shards      int     `col:"shards,sh,%3d,axis"`
	Replicas    int     `col:"replicas,r,%2d,axis"`
	GoodputPerS float64 `col:"goodput_per_s,goodput/s,%11.0f"`
	P99         float64 `col:"p99_ms,p99ms,%8.3f"`     // msec (worst bin in the phase)
	ShedPct     float64 `col:"shed_pct,shed%,%5.1f%%"` // whole-run shed (open-loop admission)
	KeysMoved   int64   `col:"keys_moved,keysmoved,%9d"`
	DualWrites  int64   `col:"dual_writes,dualwr,%9d"`
	Cutovers    int64   `col:"cutovers,cutovers,%8d"`
	Aborts      int64   `col:"aborts,abort,%6d"`
	AckedKeys   int     `col:"acked_keys,acked,%8d"`
	AckedLost   int     `col:"acked_lost,lost,%5d"`
}

// RebalanceResult is the live-rebalancing experiment.
type RebalanceResult struct {
	SLOms float64
	Rows  []RebalanceRow
}

// Rebalance measures bounded degradation under live ring changes: an
// N->N+1 resize under open-loop traffic ("resize") and a shard kill
// followed by an in-place rebuild ("rebuild"). Each run's measured window
// is binned into a goodput/p99 timeline and folded into before/during/
// after phases around the migration; the acked-write audit rides along so
// every recorded cell carries the zero-loss invariant.
func Rebalance(scale Scale) RebalanceResult {
	engines := []func(device.Config) core.Profile{core.BFSDR}
	if scale == Full {
		engines = append(engines, core.EXT4DR)
	}
	scenarios := []string{"resize", "rebuild"}
	dur := scale.dur(12*sim.Millisecond, 30*sim.Millisecond)
	slo := 2 * sim.Millisecond

	out := RebalanceResult{SLOms: float64(slo) / float64(sim.Millisecond)}
	runs := len(engines) * len(scenarios)
	rows := make([][]RebalanceRow, runs)
	par.For(runs, func(i int) {
		profFn := engines[i/len(scenarios)]
		scenario := scenarios[i%len(scenarios)]
		reg := metrics.NewRegistry()
		store := kvwal.DefaultConfig()
		store.MemtableCap = 16
		rc := kvcluster.Config{
			Shards:   3,
			Replicas: 2,
			Profile:  profFn,
			Store:    store,
			SLO:      slo,
			Metrics:  reg,
			NewKernel: func(label string) *sim.Kernel {
				return newKernel(fmt.Sprintf("%s/%s", label, scenario))
			},
		}
		tr := kvcluster.Traffic{
			Arrivals: workload.ArrivalConfig{
				Kind: workload.ArrivalPoisson, RatePerS: 40_000, Seed: 7,
			},
			Mix:       workload.Mix{ReadPct: 50, DeletePct: 5},
			KeySpace:  4096,
			ZipfTheta: 0.8,
			Tenants:   2,
			Warmup:    4 * sim.Millisecond,
			Duration:  dur,
		}
		spec := kvcluster.ResizeSpec{Bins: 12}
		switch scenario {
		case "resize":
			spec.NewShards = 4
			spec.ResizeAt = sim.Time(tr.Warmup + dur/4)
		default: // rebuild
			spec.KillShard = 1
			spec.KillAt = sim.Time(tr.Warmup + dur/6)
			spec.ReplaceAt = sim.Time(tr.Warmup + dur/4)
		}
		res := kvcluster.RunResize(rc, tr, spec)
		shed := shedPct(res.Result)
		for _, ph := range res.Phases {
			if ph.WindowMs == 0 {
				continue
			}
			rows[i] = append(rows[i], RebalanceRow{
				Config: res.Engine, Scenario: scenario, Phase: ph.Phase,
				Shards: rc.Shards, Replicas: rc.Replicas,
				GoodputPerS: ph.GoodputPerS, P99: ph.P99, ShedPct: shed,
				KeysMoved:  res.Migration.KeysCopied,
				DualWrites: res.Migration.DualWrites,
				Cutovers:   res.Migration.Cutovers,
				Aborts:     res.Migration.Aborts,
				AckedKeys:  res.AckedKeys,
				AckedLost:  res.AckedLost,
			})
		}
	})
	for _, rs := range rows {
		out.Rows = append(out.Rows, rs...)
	}
	return out
}
