// Crash-safety example: cuts the power under a barrier-ordered write
// stream on four stacks and checks every disk state the device could have
// kept. A barrier stack admits a chain of states, one more than its
// volatile writes; the legacy stack (nobarrier mount on a non-barrier
// device), the cautionary tale that motivates the whole paper, admits all
// 2^n subsets of them.
package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/crashmc"
	"repro/internal/device"
	"repro/internal/sim"
)

func main() {
	cases := []struct {
		label  string
		prof   core.Profile
		writes int // barrier-separated overwrites; 0 = until the crash
	}{
		{"BFS-OD on barrier UFS (fdatabarrier)", core.BFSOD(device.UFS()), 0},
		{"BFS-OD on barrier plain-SSD", core.BFSOD(device.PlainSSD()), 0},
		{"EXT4-DR transfer-and-flush (safe, slow)", core.EXT4DR(device.PlainSSD()), 0},
		// Three overwrites keep 2^n enumerable.
		{"EXT4-OD on legacy device (UNSAFE)", core.EXT4OD(device.LegacySSD()), 3},
	}
	for _, c := range cases {
		w := crashmc.OnStack(crashmc.CompactJournal(c.prof, 128), crashmc.Ordering(c.writes))
		res := crashmc.Enumerate(w, crashmc.Config{CrashAt: sim.Time(2500 * sim.Microsecond)})
		fmt.Printf("%-40s %3d volatile writes, %5d states explored, %4d violating\n",
			c.label, res.Volatile, res.StatesExplored, res.ViolationStates)
	}
}
