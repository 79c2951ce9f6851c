package workload

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sim"
)

// DWSLConfig parameterizes the fxmark DWSL workload (Fig. 13): each thread
// performs 4KB allocating writes followed by fsync on its own file, so
// every sync commits a journal transaction. The per-core scalability of
// journaling is exactly what Dual-Mode journaling improves.
type DWSLConfig struct {
	Threads  int
	Duration sim.Duration
	Warmup   sim.Duration
}

// DefaultDWSL returns the Fig. 13 setup for a core count.
func DefaultDWSL(threads int) DWSLConfig {
	return DWSLConfig{
		Threads:  threads,
		Duration: 300 * sim.Millisecond,
		Warmup:   30 * sim.Millisecond,
	}
}

// DWSL runs the workload: one writer process per simulated core.
func DWSL(k *sim.Kernel, s *core.Stack, cfg DWSLConfig) Window {
	var m Meter
	for t := 0; t < cfg.Threads; t++ {
		t := t
		k.SpawnIdx("dwsl/", t, func(p *sim.Proc) {
			f, err := s.FS.Create(p, s.FS.Root(), fmt.Sprintf("dwsl-%d.dat", t))
			if err != nil {
				panic(err)
			}
			for idx := int64(0); ; idx++ {
				s.FS.Write(p, f, idx) // allocating write: metadata always dirty
				s.Sync(p, f)
				m.Done(1)
			}
		})
	}
	Warm(k, cfg.Warmup, nil)
	return m.Measure(k, cfg.Duration)
}
