// The process-model rule: a proc is a run-to-completion handler only if a
// named workload spends events in it; everything else is a blocking proc,
// written once. A freshly built stack therefore spawns handlers for the NAND
// chips and the device's workers, writeback and reaper — and for nothing on
// the host side and nothing cold (FTL GC, fs pdflush, the OptFS delayed
// flush), whichever daemons the profile turns on. A replicated cluster that
// has rebalanced live adds one such stack per shard and nothing for the
// migration itself.
package repro_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/kvcluster"
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

	k := sim.NewKernel()
	defer k.Close()
	var ks sim.KernelStats
	k.AttachStats(&ks)
	landed := false
	k.Spawn("client", func(p *sim.Proc) {
		defer k.Stop()
		cl, err := kvcluster.OpenCluster(p, kvcluster.Config{Shards: 3})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 64; i++ {
			if err := cl.Put(p, fmt.Sprintf("k%03d", i)); err != nil {
				t.Fatal(err)
			}
		}
		mig, err := cl.Resize(p, 4)
		if err != nil {
			t.Fatal(err)
		}
		mig.Wait(p)
		landed = !mig.Failed() && mig.Stats().KeysCopied > 0
	})
	k.Run()
	if !landed {
		t.Fatal("3->4 resize did not land with data copied")
	}
	dev := device.NVMeSSD()
	want := 4 * int64(dev.Geometry.Chips()+dev.QueueDepth+2)
	if got := ks.HandlerSpawns.Load(); got != want {
		t.Errorf("replicated 3->4 resize: %d handler procs, want %d (4 stacks' chips + workers + writeback + reaper)",
			got, want)
	}
}
