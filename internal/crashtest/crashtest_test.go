// Package crashtest holds no code of its own: it is the black-box
// regression suite of the crash harness in internal/crashmc, reaching a
// crash state only through that package's exported driver (Sweep, Sample,
// Enumerate over declared Workloads). The profiles and crash instants are
// those of the sampled harness that used to live at this import path.
package crashtest

import (
	"testing"

	"repro/internal/core"
	"repro/internal/crashmc"
	"repro/internal/device"
	"repro/internal/sim"
)

func times(us ...int) []sim.Time {
	var out []sim.Time
	for _, u := range us {
		out = append(out, sim.Time(sim.Duration(u)*sim.Microsecond))
	}
	return out
}

func durability(prof core.Profile) crashmc.Workload {
	return crashmc.OnStack(prof, crashmc.Durability)
}

// sweepClean samples w at every crash instant and requires each state
// clean, and each result to carry its crash time through.
func sweepClean(t *testing.T, w crashmc.Workload, ts []sim.Time) {
	t.Helper()
	for i, res := range crashmc.Sweep(w, ts) {
		if !res.Ok() {
			t.Errorf("%v: %v", res, res.Violations)
		}
		if res.CrashAt != ts[i] {
			t.Errorf("result %d: crash time %v, want %v", i, res.CrashAt, ts[i])
		}
	}
}

func TestDurabilityEXT4(t *testing.T) {
	sweepClean(t, durability(core.EXT4DR(device.PlainSSD())), times(500, 2500, 9000, 30000))
}

func TestDurabilityBarrierFS(t *testing.T) {
	sweepClean(t, durability(core.BFSDR(device.PlainSSD())), times(500, 2500, 9000, 30000))
}

func TestDurabilityBarrierFSOnUFS(t *testing.T) {
	sweepClean(t, durability(core.BFSDR(device.UFS())), times(1000, 5000, 20000))
}

func TestDurabilitySupercap(t *testing.T) {
	sweepClean(t, durability(core.BFSDR(device.SupercapSSD())), times(500, 2500, 9000))
}

func TestOrderingBarrierFS(t *testing.T) {
	// fdatabarrier on a barrier-enabled stack: epoch prefix must hold at
	// every crash point.
	sweepClean(t, crashmc.OrderingSweep(core.BFSOD(device.PlainSSD())),
		times(300, 900, 2000, 4500, 9000, 15000, 25000, 40000))
}

func TestOrderingBarrierFSOnUFS(t *testing.T) {
	sweepClean(t, crashmc.OrderingSweep(core.BFSOD(device.UFS())),
		times(1000, 3000, 8000, 20000, 50000))
}

func TestOrderingEXT4DRHoldsViaFlush(t *testing.T) {
	// EXT4-DR's fdatabarrier degrades to fdatasync (transfer-and-flush), so
	// ordering must hold there too — just expensively.
	sweepClean(t, crashmc.OrderingSweep(core.EXT4DR(device.PlainSSD())), times(2000, 9000, 30000))
}

func TestOrderingEXT4NobarrierCanViolate(t *testing.T) {
	// The motivating failure: EXT4-OD on a legacy (non-barrier) device
	// provides NO ordering guarantee. At least one crash point across the
	// sweep should expose a violation; all-pass would mean our legacy model
	// is too kind.
	violations := 0
	for _, res := range crashmc.Sweep(crashmc.OrderingSweep(core.EXT4OD(device.LegacySSD())),
		times(1500, 3000, 5000, 8000, 12000, 20000, 30000, 45000, 70000, 100000)) {
		violations += res.Ordering
	}
	if violations == 0 {
		t.Error("EXT4-OD on a legacy device never violated ordering across 10 crash points; " +
			"the unsafe baseline is not exercising reordering")
	}
}

func TestSweepEmptyTimes(t *testing.T) {
	// An empty crash-time slice is a no-op sweep, not a panic: zero
	// results, whatever the workload.
	prof := core.EXT4DR(device.PlainSSD())
	if got := crashmc.Sweep(durability(prof), nil); len(got) != 0 {
		t.Fatalf("empty durability sweep returned %d results", len(got))
	}
	if got := crashmc.Sweep(crashmc.OrderingSweep(prof), []sim.Time{}); len(got) != 0 {
		t.Fatalf("empty ordering sweep returned %d results", len(got))
	}
	if got := crashmc.Sweep(crashmc.OnStack(prof, crashmc.KV(1)), nil); len(got) != 0 {
		t.Fatalf("empty kv sweep returned %d results", len(got))
	}
}
