package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/kvcluster"
	"repro/internal/par"
	"repro/internal/sim"
	"repro/internal/workload"
)

// KVClusterRow is one cell of the kvcluster sweep: one (engine, offered
// load) pair's measured-window goodput and latency tail.
type KVClusterRow struct {
	Config      string  `col:"config,config,%-8s"`
	Mode        string  `col:"mode,mode,%-10s"`
	Shards      int     `col:"shards,shards,%6d,axis"`
	OfferedKops int     `col:"offered_kops,,,axis"` // offered load identity, kreq/s
	OfferedPerS float64 `col:"offered_per_s,offered/s,%9.0f"`
	GoodputPerS float64 `col:"goodput_per_s,goodput/s,%11.0f"`
	SLOPct      float64 `col:"slo_pct,slo%,%6.1f%%"`
	ShedPct     float64 `col:"shed_pct,shed%,%5.1f%%"`
	P50         float64 `col:"p50_ms,p50ms,%8.3f"` // msec
	P99         float64 `col:"p99_ms,p99ms,%8.3f"`
	P999        float64 `col:"p999_ms,p999ms,%8.3f"`
}

// shedPct is the share of offered requests that admission control shed.
func shedPct(res kvcluster.Result) float64 {
	if res.Offered == 0 {
		return 0
	}
	return 100 * float64(res.Shed) / float64(res.Offered)
}

// KVClusterResult is the sharded KV service experiment.
type KVClusterResult struct {
	SLOms float64
	Rows  []KVClusterRow
}

// KVCluster sweeps the sharded barrier-enabled KV service across offered
// load and journaling engine under open-loop Zipfian traffic:
//
//   - EXT4-DR shards: every group commit pays a Transfer-and-Flush
//     fdatasync, so the service head-of-line blocks on flush round trips
//     and sheds early as offered load rises;
//   - BFS-DR shards: group commits are ordered with one fdatabarrier at
//     dispatch cost, durability rides the periodic checkpoint;
//   - BFS-MQ maps all shards onto ONE multi-queue device, each shard's
//     journal on its own block-layer order stream (kvcluster.MQStreams).
//
// Goodput counts only requests completed within the SLO, so the cells
// directly state the paper's claim at service level: at equal p99 SLO the
// barrier engines sustain more goodput than Transfer-and-Flush.
func KVCluster(scale Scale) KVClusterResult {
	shards := scale.n(2, 4)
	loads := []int{40, 160}
	if scale == Full {
		loads = []int{25, 50, 100, 200, 400}
	}
	dur := scale.dur(10*sim.Millisecond, 40*sim.Millisecond)
	slo := 2 * sim.Millisecond

	engines := []struct {
		prof func(device.Config) core.Profile
		mode kvcluster.Mode
	}{
		{core.EXT4DR, kvcluster.ShardedStacks},
		{core.BFSDR, kvcluster.ShardedStacks},
		{core.BFSMQ, kvcluster.MQStreams},
	}

	out := KVClusterResult{SLOms: float64(slo) / float64(sim.Millisecond)}
	out.Rows = make([]KVClusterRow, len(engines)*len(loads))
	par.For(len(out.Rows), func(i int) {
		eng := engines[i/len(loads)]
		kops := loads[i%len(loads)]
		cfg := kvcluster.Config{
			Shards:  shards,
			Mode:    eng.mode,
			Profile: eng.prof,
			SLO:     slo,
			NewKernel: func(label string) *sim.Kernel {
				return newKernel(fmt.Sprintf("%s/%dk", label, kops))
			},
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
		out.Rows[i] = KVClusterRow{
			Config: res.Engine, Mode: res.Mode.String(), Shards: res.Shards,
			OfferedKops: kops, OfferedPerS: res.OfferedPerS,
			GoodputPerS: res.GoodputPerS, SLOPct: res.SLOPct, ShedPct: shedPct(res),
			P50: res.Latency.Median, P99: res.Latency.P99, P999: res.Latency.P999,
		}
	})
	return out
}
