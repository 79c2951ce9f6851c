package workload

import (
	"testing"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/sim"
)

// shortRand is a fast random-write config for tests.
func shortRand(po Policy) RandWriteConfig {
	cfg := DefaultRandWrite(po)
	cfg.FilePages = 256
	cfg.Duration = 60 * sim.Millisecond
	cfg.Warmup = 10 * sim.Millisecond
	return cfg
}

func runRand(t *testing.T, prof core.Profile, po Policy) RandWriteResult {
	t.Helper()
	k := sim.NewKernel()
	defer k.Close()
	s := core.NewStack(k, prof)
	return RandWrite(k, s, shortRand(po))
}

func TestRandWritePolicies(t *testing.T) {
	xnf := runRand(t, core.EXT4DR(device.PlainSSD()), PolicyXnF)
	x := runRand(t, core.EXT4OD(device.PlainSSD()), PolicyX)
	b := runRand(t, core.BFSOD(device.PlainSSD()), PolicyB)
	pp := runRand(t, core.EXT4OD(device.PlainSSD()), PolicyP)
	t.Logf("XnF=%v", xnf)
	t.Logf("X  =%v", x)
	t.Logf("B  =%v", b)
	t.Logf("P  =%v", pp)
	// The Fig. 9 shape: XnF < X < B, and B within striking distance of P.
	if !(xnf.PerS < x.PerS) {
		t.Errorf("XnF (%.0f) should be slower than X (%.0f)", xnf.PerS, x.PerS)
	}
	if !(x.PerS*2 <= b.PerS) {
		t.Errorf("B (%.0f) should be at least 2x X (%.0f) per §6.2", b.PerS, x.PerS)
	}
	if b.PerS > pp.PerS*1.1 {
		t.Errorf("B (%.0f) implausibly faster than P (%.0f)", b.PerS, pp.PerS)
	}
	// Queue depth: X stays near 1; B drives the queue deep (§6.2).
	if x.MeanQD > 2 {
		t.Errorf("X mean QD = %.1f, should hover near 1", x.MeanQD)
	}
	if b.MeanQD < 4 {
		t.Errorf("B mean QD = %.1f, should be deep", b.MeanQD)
	}
}

func TestDWSLScalesWithThreads(t *testing.T) {
	run := func(prof core.Profile, threads int) Window {
		k := sim.NewKernel()
		defer k.Close()
		s := core.NewStack(k, prof)
		cfg := DefaultDWSL(threads)
		cfg.Duration = 80 * sim.Millisecond
		cfg.Warmup = 10 * sim.Millisecond
		return DWSL(k, s, cfg)
	}
	ext1 := run(core.EXT4DR(device.PlainSSD()), 1)
	ext4 := run(core.EXT4DR(device.PlainSSD()), 4)
	bfs4 := run(core.BFSDR(device.PlainSSD()), 4)
	t.Logf("EXT4 1thr=%v", ext1)
	t.Logf("EXT4 4thr=%v", ext4)
	t.Logf("BFS  4thr=%v", bfs4)
	if ext4.PerS < ext1.PerS {
		t.Errorf("EXT4 DWSL got slower with threads: %.0f -> %.0f", ext1.PerS, ext4.PerS)
	}
	// Fig. 13: BFS-DR roughly 2x EXT4-DR on plain-SSD.
	if bfs4.PerS < ext4.PerS*1.3 {
		t.Errorf("BFS-DR (%.0f) not clearly above EXT4-DR (%.0f)", bfs4.PerS, ext4.PerS)
	}
}

func TestVarmailRunsAndOrders(t *testing.T) {
	run := func(prof core.Profile) Window {
		k := sim.NewKernel()
		defer k.Close()
		s := core.NewStack(k, prof)
		cfg := DefaultVarmail()
		cfg.Threads = 4
		cfg.Files = 16
		cfg.Duration = 80 * sim.Millisecond
		cfg.Warmup = 10 * sim.Millisecond
		return Varmail(k, s, cfg)
	}
	extDR := run(core.EXT4DR(device.PlainSSD()))
	bfsDR := run(core.BFSDR(device.PlainSSD()))
	bfsOD := run(core.BFSOD(device.PlainSSD()))
	t.Logf("EXT4-DR=%v", extDR)
	t.Logf("BFS-DR =%v", bfsDR)
	t.Logf("BFS-OD =%v", bfsOD)
	if extDR.Ops == 0 || bfsDR.Ops == 0 {
		t.Fatal("varmail made no progress")
	}
	if bfsDR.PerS < extDR.PerS {
		t.Errorf("BFS-DR (%.0f) below EXT4-DR (%.0f); Fig. 15 expects a gain", bfsDR.PerS, extDR.PerS)
	}
	if bfsOD.PerS < bfsDR.PerS {
		t.Errorf("BFS-OD (%.0f) below BFS-DR (%.0f)", bfsOD.PerS, bfsDR.PerS)
	}
}

func TestPolicyStrings(t *testing.T) {
	if PolicyXnF.String() != "XnF" || PolicyX.String() != "X" || PolicyB.String() != "B" || PolicyP.String() != "P" {
		t.Error("policy strings")
	}
}
