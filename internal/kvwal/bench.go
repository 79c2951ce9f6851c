package kvwal

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/reqtrace"
	"repro/internal/sim"
	"repro/internal/workload"
)

// BenchConfig parameterizes a throughput run.
type BenchConfig struct {
	Store Config
	// Clients is the number of concurrent committing clients.
	Clients int
	// KeySpace is the size of the key universe.
	KeySpace int
	// DeletePct is the percentage of mutations that are deletes.
	DeletePct int
	// ZipfTheta, when positive, draws keys with Zipfian popularity of that
	// skew from the shared open-loop generator (workload.NewZipf) instead of
	// uniformly — the YCSB-style hot-key regime.
	ZipfTheta float64
	Seed      int64
	// Trace, when non-nil, samples each client batch into a request-trace
	// exemplar: admitted at batch submission, acked at group-commit return
	// (see internal/reqtrace). The sampler is caller-owned; drain it with
	// Take after the run. Nil disables tracing (the benchmark default).
	Trace *reqtrace.Sampler
}

const (
	benchBatchSize = 4 // mutations per client batch
	benchGetEvery  = 8 // one read per client every benchGetEvery batches
)

// DefaultBenchConfig returns the standard many-client commit workload.
func DefaultBenchConfig(clients int) BenchConfig {
	return BenchConfig{
		Store:     DefaultConfig(),
		Clients:   clients,
		KeySpace:  4096,
		DeletePct: 10,
		Seed:      17,
	}
}

// BenchResult is the outcome of one run.
type BenchResult struct {
	Config  string
	Clients int
	Ops     int64 // mutations acknowledged in the window
	Window  sim.Duration
	OpsPerS float64
	// GroupMean is the mean number of mutations amortized per group commit.
	GroupMean float64
	// Latency summarizes client-observed commit latency (enqueue to group
	// acknowledgement) on the shared internal/metrics histogram.
	Latency metrics.Summary
}

func (r BenchResult) String() string {
	return fmt.Sprintf("kv %-8s %2d clients %9.0f ops/s grp=%.1f p50=%.3fms p99=%.3fms",
		r.Config, r.Clients, r.OpsPerS, r.GroupMean, r.Latency.Median, r.Latency.P99)
}

// Bench drives Clients concurrent batch committers against a store on s
// for the given duration and reports acknowledged-mutation throughput plus
// commit-latency percentiles.
func Bench(k *sim.Kernel, s *core.Stack, cfg BenchConfig, duration sim.Duration) BenchResult {
	var st *Store
	rec := metrics.NewLatencyRecorder("kv/" + s.Profile.Name)
	var ops int64
	measuring := false
	ready := false
	k.Spawn("kv/setup", func(p *sim.Proc) {
		var err error
		st, err = Open(p, s, cfg.Store)
		if err != nil {
			panic(err)
		}
		ready = true
	})
	for c := 0; c < cfg.Clients; c++ {
		c := c
		k.SpawnIdx("kv/client", c, func(p *sim.Proc) {
			rng := rand.New(rand.NewSource(cfg.Seed + int64(c)))
			var zipf *workload.Zipf
			if cfg.ZipfTheta > 0 {
				zipf = workload.NewZipf(cfg.Seed+int64(c), cfg.KeySpace, cfg.ZipfTheta)
			}
			key := func() string {
				if zipf != nil {
					return fmt.Sprintf("k%05d", zipf.Next())
				}
				return fmt.Sprintf("k%05d", rng.Intn(cfg.KeySpace))
			}
			for !ready {
				p.Sleep(sim.Millisecond)
			}
			for n := 0; ; n++ {
				batch := make([]Op, benchBatchSize)
				for i := range batch {
					kind := Put
					if rng.Intn(100) < cfg.DeletePct {
						kind = Delete
					}
					batch[i] = Op{Kind: kind, Key: key()}
				}
				t0 := p.Now()
				tc := cfg.Trace.Admit(t0)
				st.ApplyT(p, batch, tc)
				cfg.Trace.Finish(tc, p.Now())
				if measuring {
					ops += int64(len(batch))
					rec.Record(sim.Duration(p.Now() - t0))
				}
				if n%benchGetEvery == benchGetEvery-1 {
					st.Get(p, key())
				}
			}
		})
	}
	k.RunUntil(k.Now().Add(20 * sim.Millisecond))
	for !ready {
		k.RunUntil(k.Now().Add(5 * sim.Millisecond))
	}
	g0, o0 := st.stats.GroupCommits, st.stats.WALRecords
	measuring = true
	start := k.Now()
	k.RunUntil(start.Add(duration))
	measuring = false
	end := k.Now()
	groups := st.stats.GroupCommits - g0
	grpMean := 0.0
	if groups > 0 {
		grpMean = float64(st.stats.WALRecords-o0) / float64(groups)
	}
	return BenchResult{
		Config:    s.Profile.Name,
		Clients:   cfg.Clients,
		Ops:       ops,
		Window:    sim.Duration(end - start),
		OpsPerS:   metrics.Rate(ops, sim.Duration(end-start)),
		GroupMean: grpMean,
		Latency:   rec.Summarize(),
	}
}
