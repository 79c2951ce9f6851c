// Package workload implements the paper's workload generators: 4KB random
// write with four ordering policies (Figs. 1, 9, 10), the fxmark DWSL
// journaling-scalability workload (Fig. 13), and the filebench varmail
// mail-server workload (Fig. 15).
package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/fs"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// Policy is the ordering/durability discipline applied after each 4KB
// random write (the bar groups of Fig. 9).
type Policy int

// Policies, named as in Fig. 9.
const (
	// PolicyXnF — write() + fdatasync(): transfer-and-flush (EXT4-DR).
	PolicyXnF Policy = iota
	// PolicyX — write() + fdatasync() under nobarrier: Wait-on-Transfer
	// without the flush (EXT4-OD).
	PolicyX
	// PolicyB — write() + fdatabarrier(): barrier write, no waiting
	// (BFS-OD).
	PolicyB
	// PolicyP — plain buffered write(): no ordering at all; throughput is
	// bounded by background writeback.
	PolicyP
)

func (po Policy) String() string {
	switch po {
	case PolicyXnF:
		return "XnF"
	case PolicyX:
		return "X"
	case PolicyB:
		return "B"
	case PolicyP:
		return "P"
	}
	return "invalid"
}

// RandWriteResult is the outcome of one random-write run.
type RandWriteResult struct {
	Policy Policy
	Ops    int64
	Window sim.Duration
	IOPS   float64
	MeanQD float64
	PeakQD float64
	// Start and End bound the measured phase in virtual time (for plotting
	// queue-depth traces over the right window).
	Start, End sim.Time
}

func (r RandWriteResult) String() string {
	return fmt.Sprintf("%-4s %8.0f IOPS  meanQD=%5.1f peakQD=%3.0f",
		r.Policy, r.IOPS, r.MeanQD, r.PeakQD)
}

// RandWriteConfig parameterizes the random-write workload.
type RandWriteConfig struct {
	Policy    Policy
	FilePages int          // working-set size in 4KB pages
	Duration  sim.Duration // measurement window
	Warmup    sim.Duration
	Seed      int64
}

// DefaultRandWrite returns the Fig. 9 setup for a policy.
func DefaultRandWrite(po Policy) RandWriteConfig {
	return RandWriteConfig{
		Policy:    po,
		FilePages: 2048,
		Duration:  400 * sim.Millisecond,
		Warmup:    50 * sim.Millisecond,
		Seed:      1,
	}
}

// RandWrite runs the 4KB random-write workload on a freshly built stack and
// reports IOPS and queue-depth statistics. It spawns the writer, runs the
// kernel for warmup+duration, and measures only the post-warmup window.
func RandWrite(k *sim.Kernel, s *core.Stack, cfg RandWriteConfig) RandWriteResult {
	rng := rand.New(rand.NewSource(cfg.Seed))
	qd := s.Dev.QDSeries() // taken before the run: the device records from here on
	var file *fs.Inode
	ready := false
	var ops int64
	measuring := false

	k.Spawn("randwrite/writer", func(p *sim.Proc) {
		f, err := s.FS.Create(p, s.FS.Root(), "bench.dat")
		if err != nil {
			panic(err)
		}
		// Preallocate so the measured phase has no allocating writes.
		for i := 0; i < cfg.FilePages; i++ {
			s.FS.Write(p, f, int64(i))
		}
		s.FS.SyncFS(p)
		file = f
		ready = true
		for {
			idx := int64(rng.Intn(cfg.FilePages))
			s.FS.Write(p, file, idx)
			switch cfg.Policy {
			case PolicyXnF, PolicyX:
				s.FS.Fdatasync(p, file)
			case PolicyB:
				s.FS.Fdatabarrier(p, file)
			case PolicyP:
				// Buffered write: push the page out asynchronously; the
				// block layer's nr_requests limit provides the dirty
				// throttling.
				s.FS.WritebackAsync(p, file)
			}
			if measuring {
				ops++
			}
		}
	})

	k.RunUntil(k.Now().Add(cfg.Warmup))
	if !ready {
		// Preallocation outlasted the warmup; extend until it finishes.
		for !ready {
			k.RunUntil(k.Now().Add(10 * sim.Millisecond))
		}
		k.RunUntil(k.Now().Add(cfg.Warmup))
	}
	measuring = true
	start := k.Now()
	k.RunUntil(start.Add(cfg.Duration))
	measuring = false
	end := k.Now()

	return RandWriteResult{
		Policy: cfg.Policy,
		Ops:    ops,
		Window: sim.Duration(end - start),
		IOPS:   metrics.Rate(ops, sim.Duration(end-start)),
		MeanQD: qd.Mean(start, end),
		PeakQD: qd.Peak(start, end),
		Start:  start,
		End:    end,
	}
}
