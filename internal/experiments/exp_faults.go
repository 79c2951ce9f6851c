package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/fault"
	"repro/internal/kvcluster"
	"repro/internal/kvwal"
	"repro/internal/metrics"
	"repro/internal/par"
	"repro/internal/sim"
	"repro/internal/workload"
)

// FaultsRow is one cell of the fault-injection sweep: one (engine, fault
// mix) pair's goodput under a sick shard, with the recovery machinery's
// counters alongside — retries absorbed at the block layer, hard errors
// that escaped the budget, and the reads the cluster failed over and
// repaired.
type FaultsRow struct {
	Config      string  `col:"config,config,%-10s"`
	Mix         string  `col:"mix,mix,%-9s"`
	Shards      int     `col:"shards,sh,%3d,axis"`
	Replicas    int     `col:"replicas,r,%2d,axis"`
	OfferedPerS float64 `col:"offered_per_s,offered/s,%9.0f"`
	GoodputPerS float64 `col:"goodput_per_s,goodput/s,%11.0f"`
	SLOPct      float64 `col:"slo_pct,slo%,%6.1f%%"`
	ShedPct     float64 `col:"shed_pct,shed%,%5.1f%%"`
	P99         float64 `col:"p99_ms,p99ms,%8.3f"` // msec
	Retries     int64   `col:"retries,retries,%8d"`
	IOErrors    int64   `col:"io_errors,ioerrs,%7d"`
	Failovers   int64   `col:"failovers,failovers,%9d"`
	ReadRepairs int64   `col:"read_repairs,repairs,%8d"`
}

// FaultsResult is the fault-injection experiment.
type FaultsResult struct {
	SLOms float64
	Rows  []FaultsRow
}

// faultMix is one device fault personality for the sweep. Shard 0 is the
// sick one (media errors on the primary for ~1/Shards of the key space);
// GC interference, being an array-wide phenomenon, applies to every shard.
type faultMix struct {
	name string
	sick func(seed uint64) *fault.Plan // shard 0
	all  func(seed uint64) *fault.Plan // other shards
}

func faultMixes() []faultMix {
	media := func(seed uint64) *fault.Plan {
		return &fault.Plan{
			Seed:            seed,
			ReadUNCProb:     0.9,
			ReadRetryLadder: []sim.Duration{20 * sim.Microsecond, 60 * sim.Microsecond},
			ReadRetryProb:   0.3,
		}
	}
	gc := func(seed uint64) *fault.Plan {
		return &fault.Plan{
			Seed:            seed,
			GCPeriod:        2 * sim.Millisecond,
			GCDuration:      300 * sim.Microsecond,
			GCReadFactor:    4,
			GCProgramFactor: 2,
		}
	}
	both := func(seed uint64) *fault.Plan {
		p := media(seed)
		g := gc(seed)
		p.GCPeriod, p.GCDuration = g.GCPeriod, g.GCDuration
		p.GCReadFactor, p.GCProgramFactor = g.GCReadFactor, g.GCProgramFactor
		return p
	}
	return []faultMix{
		{name: "none"},
		{name: "media", sick: media},
		{name: "media+gc", sick: both, all: gc},
	}
}

// Faults drives the replicated KV cluster through seeded device fault
// personalities: a clean baseline, uncorrectable media errors on one
// shard's device, and media errors plus GC-interference latency windows
// across the array. Replication (R=2 successor-list placement) plus the
// block layer's bounded retries must hold goodput up while the counters
// show the recovery machinery working — the graceful-degradation claim,
// measured instead of asserted.
func Faults(scale Scale) FaultsResult {
	profiles := []func(device.Config) core.Profile{core.BFSDR}
	if scale == Full {
		profiles = append(profiles, core.EXT4DR)
	}
	mixes := faultMixes()
	dur := scale.dur(8*sim.Millisecond, 30*sim.Millisecond)
	slo := 2 * sim.Millisecond

	out := FaultsResult{SLOms: float64(slo) / float64(sim.Millisecond)}
	out.Rows = make([]FaultsRow, len(profiles)*len(mixes))
	par.For(len(out.Rows), func(i int) {
		prof := profiles[i/len(mixes)]
		mix := mixes[i%len(mixes)]
		reg := metrics.NewRegistry()
		store := kvwal.DefaultConfig()
		store.MemtableCap = 16
		// Segment reads must face the medium, not the page cache, or the
		// fault personalities are invisible.
		store.EvictSegments = true
		rc := kvcluster.Config{
			Shards:   3,
			Mode:     kvcluster.Replicated,
			Replicas: 2,
			Profile: func(d device.Config) core.Profile {
				p := prof(d)
				p.Retry = true
				return p
			},
			ShardDevice: func(sh int) device.Config {
				d := device.NVMeSSD()
				if sh == 0 && mix.sick != nil {
					d.Fault = mix.sick(uint64(101 + sh))
				} else if mix.all != nil {
					d.Fault = mix.all(uint64(101 + sh))
				}
				return d
			},
			Store:   store,
			SLO:     slo,
			Metrics: reg,
			NewKernel: func(label string) *sim.Kernel {
				return newKernel(fmt.Sprintf("%s/%s", label, mix.name))
			},
		}
		tr := kvcluster.Traffic{
			Arrivals: workload.ArrivalConfig{
				Kind: workload.ArrivalPoisson, RatePerS: 60_000, Seed: 7,
			},
			Mix:       workload.Mix{ReadPct: 60, DeletePct: 5},
			KeySpace:  4096,
			ZipfTheta: 0.8,
			Tenants:   2,
			Warmup:    4 * sim.Millisecond,
			Duration:  dur,
		}
		res := kvcluster.Run(rc, tr)
		out.Rows[i] = FaultsRow{
			Config: res.Engine, Mix: mix.name,
			Shards: rc.Shards, Replicas: rc.Replicas,
			OfferedPerS: res.OfferedPerS, GoodputPerS: res.GoodputPerS,
			SLOPct: res.SLOPct, ShedPct: shedPct(res), P99: res.Latency.P99,
			Retries:     reg.Counter("block/retries").Value(),
			IOErrors:    reg.Counter("block/io.errors").Value(),
			Failovers:   reg.Counter("kvcluster/failovers").Value(),
			ReadRepairs: reg.Counter("kvcluster/read.repairs").Value(),
		}
	})
	return out
}
