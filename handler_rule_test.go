// The process-model rule: a proc is a run-to-completion handler only if a
// named workload spends events in it; everything else is a blocking proc,
// written once. A freshly built stack therefore spawns handlers for the NAND
// chips and the device's workers, writeback and reaper — and for nothing on
// the host side and nothing cold (FTL GC, fs pdflush, the OptFS delayed
// flush), whichever daemons the profile turns on.
package repro_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/sim"
)

func TestHandlersOnlyWhereTheEventsAre(t *testing.T) {
	for _, prof := range []core.Profile{core.OptFS(device.UFS()), core.EXT4OD(device.UFS())} {
		prof.FS.PdflushInterval = 300 * sim.Microsecond
		k := sim.NewKernel()
		var ks sim.KernelStats
		k.AttachStats(&ks)
		core.NewStack(k, prof)
		k.Close()
		want := int64(prof.Device.Geometry.Chips() + prof.Device.QueueDepth + 2)
		if got := ks.HandlerSpawns.Load(); got != want {
			t.Errorf("%s: %d handler procs, want %d (chips + workers + writeback + reaper)",
				prof.Name, got, want)
		}
	}
}
