package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
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
}

const (
	varmailAppendPgs = 2 // pages appended per delivery
	varmailSeed      = 7 // thread t picks victims from seed varmailSeed+t
)

// DefaultVarmail returns the Fig. 15 setup.
func DefaultVarmail() VarmailConfig {
	return VarmailConfig{
		Threads:  16,
		Files:    64,
		Duration: 300 * sim.Millisecond,
		Warmup:   30 * sim.Millisecond,
	}
}

// Varmail runs the workload. Sync calls go through the stack profile
// (fsync for -DR, fbarrier for -OD / OptFS). Ops counts filebench flowops
// (each create/append/sync/read/delete counts as one).
func Varmail(k *sim.Kernel, s *core.Stack, cfg VarmailConfig) Window {
	var m Meter
	for t := 0; t < cfg.Threads; t++ {
		t := t
		k.SpawnIdx("varmail/", t, func(p *sim.Proc) {
			rng := rand.New(rand.NewSource(varmailSeed + int64(t)))
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
				m.Done(1)
				for pg := 0; pg < varmailAppendPgs; pg++ {
					s.FS.Write(p, f, int64(pg))
					m.Done(1)
				}
				s.Sync(p, f)
				m.Done(1)
				live = append(live, name)
				// Read a random mail and append to it (mailbox update).
				if len(live) > 1 {
					victim := live[rng.Intn(len(live))]
					if vf, ok := s.FS.Lookup(dir, victim); ok {
						// The mail was written by this loop and the page cache
						// never evicts, so the read is a cache hit and cannot fail.
						_, _, _ = s.FS.Read(p, vf, 0, 0)
						m.Done(1)
						s.FS.Write(p, vf, int64(varmailAppendPgs))
						m.Done(1)
						s.Sync(p, vf)
						m.Done(1)
					}
				}
				// Expire old mail to bound the working set.
				if len(live) > cfg.Files {
					old := live[0]
					live = live[1:]
					if err := s.FS.Unlink(p, dir, old); err == nil {
						m.Done(1)
					}
				}
			}
		})
	}
	Warm(k, cfg.Warmup, nil)
	return m.Measure(k, cfg.Duration)
}
