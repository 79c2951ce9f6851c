// Varmail example: the fsync-heavy mail-server workload of Fig. 15, run
// across the five stack configurations on the plain-SSD. Shows the dual
// benefit of BarrierFS: a faster fsync (BFS-DR) and a nearly free ordering
// primitive (BFS-OD).
package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/sim"
	"repro/internal/workload"
)

func main() {
	profiles := []core.Profile{
		core.EXT4DR(device.PlainSSD()),
		core.BFSDR(device.PlainSSD()),
		core.OptFS(device.PlainSSD()),
		core.EXT4OD(device.PlainSSD()),
		core.BFSOD(device.PlainSSD()),
	}
	fmt.Println("varmail (16 threads) on plain-SSD:")
	var baseline float64
	for _, prof := range profiles {
		k := sim.NewKernel()
		s := core.NewStack(k, prof)
		cfg := workload.DefaultVarmail()
		cfg.Duration = 250 * sim.Millisecond
		res := workload.Varmail(k, s, cfg)
		k.Close()
		if baseline == 0 {
			baseline = res.PerS
		}
		fmt.Printf("  %-8s %9.0f ops/s  (%4.1fx vs EXT4-DR)\n",
			prof.Name, res.PerS, res.PerS/baseline)
	}
}
