package oltp

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/sim"
	"repro/internal/workload"
)

func benchOn(t *testing.T, prof core.Profile) workload.Window {
	t.Helper()
	k := sim.NewKernel()
	defer k.Close()
	s := core.NewStack(k, prof)
	cfg := DefaultConfig()
	cfg.Clients = 4
	return Bench(k, s, cfg, 80*sim.Millisecond)
}

func TestInsertAccounting(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	s := core.NewStack(k, core.EXT4DR(device.PlainSSD()))
	k.Spawn("app", func(p *sim.Proc) {
		eng, err := Open(p, s)
		if err != nil {
			t.Fatal(err)
		}
		rng := newTestRng()
		for i := 0; i < 10; i++ {
			eng.Insert(p, rng)
		}
		st := eng.Stats()
		if st.Commits != 10 {
			t.Errorf("commits = %d", st.Commits)
		}
		if st.LogSyncs != 20 {
			t.Errorf("log syncs = %d, want 20 (redo+binlog per commit)", st.LogSyncs)
		}
		k.Stop()
	})
	k.Run()
}

func TestFig15OLTPShape(t *testing.T) {
	extDR := benchOn(t, core.EXT4DR(device.PlainSSD()))
	extOD := benchOn(t, core.EXT4OD(device.PlainSSD()))
	bfsOD := benchOn(t, core.BFSOD(device.PlainSSD()))
	t.Logf("EXT4-DR=%v EXT4-OD=%v BFS-OD=%v", extDR, extOD, bfsOD)
	if extDR.Ops == 0 {
		t.Fatal("no progress")
	}
	// Fig. 15: BFS-OD prevails over EXT4-OD, and the fsync->fbarrier switch
	// vs EXT4-DR is dramatic (paper: 43x).
	if bfsOD.PerS < extOD.PerS {
		t.Errorf("BFS-OD (%.0f) below EXT4-OD (%.0f)", bfsOD.PerS, extOD.PerS)
	}
	if bfsOD.PerS < extDR.PerS*5 {
		t.Errorf("BFS-OD (%.0f) should dwarf EXT4-DR (%.0f)", bfsOD.PerS, extDR.PerS)
	}
}

func TestSupercapNarrowsDurabilityGap(t *testing.T) {
	// On the supercap device flush is nearly free, so EXT4-DR and EXT4-OD
	// converge (Fig. 15's right half).
	dr := benchOn(t, core.EXT4DR(device.SupercapSSD()))
	od := benchOn(t, core.EXT4OD(device.SupercapSSD()))
	t.Logf("supercap EXT4-DR=%v EXT4-OD=%v", dr, od)
	if dr.PerS < od.PerS*0.5 {
		t.Errorf("supercap EXT4-DR (%.0f) too far below EXT4-OD (%.0f); flush should be cheap",
			dr.PerS, od.PerS)
	}
}

func newTestRng() *rand.Rand { return rand.New(rand.NewSource(1)) }
