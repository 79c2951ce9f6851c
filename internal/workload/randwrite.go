// Package workload implements the paper's workload generators: 4KB random
// write with four ordering policies (Figs. 1, 9, 10), the fxmark DWSL
// journaling-scalability workload (Fig. 13), and the filebench varmail
// mail-server workload (Fig. 15). It also owns the closed-loop measurement
// window (closed.go: Meter, Warm, Window) that these drivers and the
// application benchmarks (kvwal, oltp, sqlmini, the mq experiment) share.
package workload

import (
	"math/rand"

	"repro/internal/block"
	"repro/internal/core"
	"repro/internal/fs"
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

// RandWriteResult is the outcome of one random-write run: the window (PerS
// is IOPS; Start and End also bound queue-depth plots) plus the device
// queue depth over it.
type RandWriteResult struct {
	Window
	MeanQD float64
	PeakQD float64
}

// RandWriteConfig parameterizes the random-write workload.
type RandWriteConfig struct {
	Policy    Policy
	FilePages int          // working-set size in 4KB pages
	Duration  sim.Duration // measurement window
	Warmup    sim.Duration
}

// randWriteSeed seeds the page-index stream.
const randWriteSeed = 1

// DefaultRandWrite returns the Fig. 9 setup for a policy.
func DefaultRandWrite(po Policy) RandWriteConfig {
	return RandWriteConfig{
		Policy:    po,
		FilePages: 2048,
		Duration:  400 * sim.Millisecond,
		Warmup:    50 * sim.Millisecond,
	}
}

// RandWrite runs the 4KB random-write workload on a freshly built stack and
// reports IOPS and queue-depth statistics. It spawns the writer, runs the
// kernel for warmup+duration, and measures only the post-warmup window.
func RandWrite(k *sim.Kernel, s *core.Stack, cfg RandWriteConfig) RandWriteResult {
	rng := rand.New(rand.NewSource(randWriteSeed))
	qd := s.Dev.QDSeries() // taken before the run: the device records from here on
	var file *fs.Inode
	ready := false
	var m Meter

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
				s.FS.WritebackAsync(p, file, block.RoleBackground)
			}
			m.Done(1)
		}
	})

	Warm(k, cfg.Warmup, &ready) // preallocation can outlast the warm-up
	w := m.Measure(k, cfg.Duration)
	return RandWriteResult{Window: w, MeanQD: qd.Mean(w.Start, w.End), PeakQD: qd.Peak(w.Start, w.End)}
}
