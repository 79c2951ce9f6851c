package kvwal

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The throughput run: many clients group-committing small batches against a
// default store. Warm-up, window, rate and latency are workload.Meter's.
const (
	benchKeySpace  = 4096 // size of the key universe, drawn uniformly
	benchDeletePct = 10   // percentage of mutations that are deletes
	benchSeed      = 17   // client c draws from seed benchSeed+c
	benchBatchSize = 4    // mutations per client batch
	benchGetEvery  = 8    // one read per client every benchGetEvery batches
)

// BenchResult is the outcome of one run: the window (Ops counts acknowledged
// mutations; Latency is a batch's enqueue to its group acknowledgement).
type BenchResult struct {
	workload.Window
	// GroupMean is the mean number of mutations amortized per group commit.
	GroupMean float64
}

// Bench drives clients concurrent batch committers against a store on s
// for the given duration and reports acknowledged-mutation throughput plus
// commit-latency percentiles.
func Bench(k *sim.Kernel, s *core.Stack, clients int, duration sim.Duration) BenchResult {
	var st *Store
	var m workload.Meter
	ready := false
	k.Spawn("kv/setup", func(p *sim.Proc) {
		var err error
		st, err = Open(p, s, DefaultConfig())
		if err != nil {
			panic(err)
		}
		ready = true
	})
	names := make([]string, benchKeySpace) // each key's name, formatted at first draw
	for c := 0; c < clients; c++ {
		c := c
		k.SpawnIdx("kv/client", c, func(p *sim.Proc) {
			rng := rand.New(rand.NewSource(benchSeed + int64(c)))
			key := func() string {
				i := rng.Intn(benchKeySpace)
				if names[i] == "" {
					names[i] = fmt.Sprintf("k%05d", i)
				}
				return names[i]
			}
			for !ready {
				p.Sleep(sim.Millisecond)
			}
			batch := make([]Op, benchBatchSize) // Apply copies it, so one serves every batch
			for n := 0; ; n++ {
				for i := range batch {
					kind := Put
					if rng.Intn(100) < benchDeletePct {
						kind = Delete
					}
					batch[i] = Op{Kind: kind, Key: key()}
				}
				t0 := p.Now()
				st.Apply(p, batch)
				m.Timed(p, t0, len(batch))
				if n%benchGetEvery == benchGetEvery-1 {
					// Reads are load only: the window counts mutations, so a
					// failed read (possible only under a fault plan) changes
					// nothing it reports.
					_, _, _ = st.GetE(p, key())
				}
			}
		})
	}
	workload.Warm(k, 20*sim.Millisecond, &ready)
	g0, o0 := st.stats.GroupCommits, st.stats.WALRecords
	res := BenchResult{Window: m.Measure(k, duration)}
	if groups := st.stats.GroupCommits - g0; groups > 0 {
		res.GroupMean = float64(st.stats.WALRecords-o0) / float64(groups)
	}
	return res
}
