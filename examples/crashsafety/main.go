// Crash-safety example: sweeps power failures across a barrier-ordered
// write stream on three stacks and reports which preserve the storage
// order. The legacy stack (nobarrier mount on a non-barrier device) is the
// cautionary tale that motivates the whole paper.
package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/crashmc"
	"repro/internal/device"
	"repro/internal/sim"
)

func main() {
	var times []sim.Time
	for i := 1; i <= 12; i++ {
		times = append(times, sim.Time(sim.Duration(i*i)*700*sim.Microsecond))
	}
	cases := []struct {
		label string
		prof  core.Profile
	}{
		{"BFS-OD on barrier UFS (fdatabarrier)", core.BFSOD(device.UFS())},
		{"BFS-OD on barrier plain-SSD", core.BFSOD(device.PlainSSD())},
		{"EXT4-DR transfer-and-flush (safe, slow)", core.EXT4DR(device.PlainSSD())},
		{"EXT4-OD on legacy device (UNSAFE)", core.EXT4OD(device.LegacySSD())},
	}
	for _, c := range cases {
		violated := 0
		for _, res := range crashmc.Sweep(crashmc.OrderingSweep(c.prof), times) {
			if !res.Ok() {
				violated++
			}
		}
		verdict := "order preserved at every crash point"
		if violated > 0 {
			verdict = fmt.Sprintf("ORDER VIOLATED at %d/%d crash points", violated, len(times))
		}
		fmt.Printf("%-42s %s\n", c.label, verdict)
	}
}
