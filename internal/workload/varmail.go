package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// VarmailConfig parameterizes the filebench varmail workload (Fig. 15): a
// mail-server pattern of create/append/fsync/read/append/fsync/delete over
// a directory of small files, with heavy fsync traffic from many threads.
type VarmailConfig struct {
	Threads  int
	Files    int // per-thread working set of mail files
	Duration sim.Duration
	Warmup   sim.Duration
	Seed     int64
}

// varmailAppendPgs is the number of pages appended per delivery.
const varmailAppendPgs = 2

// DefaultVarmail returns the Fig. 15 setup.
func DefaultVarmail() VarmailConfig {
	return VarmailConfig{
		Threads:  16,
		Files:    64,
		Duration: 300 * sim.Millisecond,
		Warmup:   30 * sim.Millisecond,
		Seed:     7,
	}
}

// VarmailResult is the outcome of one varmail run. Ops counts filebench
// flowops (each create/append/sync/read/delete counts as one).
type VarmailResult struct {
	Threads int
	Ops     int64
	Window  sim.Duration
	OpsPerS float64
}

func (r VarmailResult) String() string {
	return fmt.Sprintf("varmail %2d thr %9.0f ops/s", r.Threads, r.OpsPerS)
}

// Varmail runs the workload. Sync calls go through the stack profile
// (fsync for -DR, fbarrier for -OD / OptFS).
func Varmail(k *sim.Kernel, s *core.Stack, cfg VarmailConfig) VarmailResult {
	var ops int64
	measuring := false
	count := func() {
		if measuring {
			ops++
		}
	}
	for t := 0; t < cfg.Threads; t++ {
		t := t
		k.SpawnIdx("varmail/", t, func(p *sim.Proc) {
			rng := rand.New(rand.NewSource(cfg.Seed + int64(t)))
			dir, err := s.FS.Mkdir(p, s.FS.Root(), fmt.Sprintf("mbox%d", t))
			if err != nil {
				panic(err)
			}
			seq := 0
			live := make([]string, 0, cfg.Files)
			for {
				// Deliver: create a new mail file, append, fsync.
				name := fmt.Sprintf("m%d", seq)
				seq++
				f, err := s.FS.Create(p, dir, name)
				if err != nil {
					continue
				}
				count()
				for pg := 0; pg < varmailAppendPgs; pg++ {
					s.FS.Write(p, f, int64(pg))
					count()
				}
				s.Sync(p, f)
				count()
				live = append(live, name)
				// Read a random mail and append to it (mailbox update).
				if len(live) > 1 {
					victim := live[rng.Intn(len(live))]
					if vf, ok := s.FS.Lookup(dir, victim); ok {
						s.FS.Read(p, vf, 0)
						count()
						s.FS.Write(p, vf, int64(varmailAppendPgs))
						count()
						s.Sync(p, vf)
						count()
					}
				}
				// Expire old mail to bound the working set.
				if len(live) > cfg.Files {
					old := live[0]
					live = live[1:]
					if err := s.FS.Unlink(p, dir, old); err == nil {
						count()
					}
				}
			}
		})
	}
	k.RunUntil(k.Now().Add(cfg.Warmup))
	measuring = true
	start := k.Now()
	k.RunUntil(start.Add(cfg.Duration))
	measuring = false
	end := k.Now()
	return VarmailResult{
		Threads: cfg.Threads,
		Ops:     ops,
		Window:  sim.Duration(end - start),
		OpsPerS: metrics.Rate(ops, sim.Duration(end-start)),
	}
}
