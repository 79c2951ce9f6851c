package sqlmini

import (
	"testing"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/sim"
	"repro/internal/workload"
)

func benchOn(t *testing.T, prof core.Profile, mode JournalMode, d Durability) workload.Window {
	t.Helper()
	k := sim.NewKernel()
	defer k.Close()
	s := core.NewStack(k, prof)
	return Bench(k, s, DefaultConfig(mode, d), 80*sim.Millisecond)
}

func TestInsertMakesProgress(t *testing.T) {
	res := benchOn(t, core.EXT4DR(device.UFS()), Persist, Durable)
	if res.Ops == 0 {
		t.Fatal("no inserts completed")
	}
}

func TestPersistSyncAccounting(t *testing.T) {
	// One PERSIST insert = 3 ordering syncs + 1 durability sync (§5).
	k := sim.NewKernel()
	defer k.Close()
	s := core.NewStack(k, core.BFSDR(device.UFS()))
	k.Spawn("app", func(p *sim.Proc) {
		db, err := Open(p, s, "t", DefaultConfig(Persist, Durable))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			db.Insert(p)
		}
		st := db.Stats()
		if st.Inserts != 5 {
			t.Errorf("inserts = %d", st.Inserts)
		}
		if st.BarrierCalls != 15 {
			t.Errorf("ordering syncs = %d, want 15 (3/insert)", st.BarrierCalls)
		}
		if st.SyncCalls != 5 {
			t.Errorf("durability syncs = %d, want 5 (1/insert)", st.SyncCalls)
		}
		k.Stop()
	})
	k.Run()
}

func TestWALFewerSyncs(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	s := core.NewStack(k, core.BFSDR(device.UFS()))
	k.Spawn("app", func(p *sim.Proc) {
		db, err := Open(p, s, "t", DefaultConfig(WAL, Durable))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			db.Insert(p)
		}
		if db.Stats().BarrierCalls != 0 {
			t.Errorf("WAL should not issue ordering syncs, got %d", db.Stats().BarrierCalls)
		}
		if db.Stats().SyncCalls != 5 {
			t.Errorf("WAL syncs = %d, want 5", db.Stats().SyncCalls)
		}
		k.Stop()
	})
	k.Run()
}

func TestFig14ShapePersistUFS(t *testing.T) {
	// BFS-DR (three barriers + one sync) must beat EXT4-DR (four syncs).
	ext := benchOn(t, core.EXT4DR(device.UFS()), Persist, Durable)
	bfs := benchOn(t, core.BFSDR(device.UFS()), Persist, Durable)
	t.Logf("EXT4-DR=%v BFS-DR=%v", ext, bfs)
	if bfs.PerS < ext.PerS*1.3 {
		t.Errorf("BFS-DR (%.0f) should clearly beat EXT4-DR (%.0f) in PERSIST mode",
			bfs.PerS, ext.PerS)
	}
}

func TestFig14ShapeOrderingPlainSSD(t *testing.T) {
	// Relaxed durability: BFS-OD >> EXT4-DR (the 73x headline direction),
	// and BFS-OD >= EXT4-OD.
	extDR := benchOn(t, core.EXT4DR(device.PlainSSD()), Persist, Durable)
	extOD := benchOn(t, core.EXT4OD(device.PlainSSD()), Persist, OrderingOnly)
	bfsOD := benchOn(t, core.BFSOD(device.PlainSSD()), Persist, OrderingOnly)
	t.Logf("EXT4-DR=%v EXT4-OD=%v BFS-OD=%v", extDR, extOD, bfsOD)
	if bfsOD.PerS < extDR.PerS*8 {
		t.Errorf("BFS-OD (%.0f) should dwarf EXT4-DR (%.0f); paper reports 73x",
			bfsOD.PerS, extDR.PerS)
	}
	if bfsOD.PerS < extOD.PerS {
		t.Errorf("BFS-OD (%.0f) below EXT4-OD (%.0f)", bfsOD.PerS, extOD.PerS)
	}
}

func TestWALvsPersistGapNarrow(t *testing.T) {
	// In WAL mode there is one sync per commit, so BarrierFS has little
	// room for improvement (§6.4).
	extWAL := benchOn(t, core.EXT4DR(device.UFS()), WAL, Durable)
	bfsWAL := benchOn(t, core.BFSDR(device.UFS()), WAL, Durable)
	t.Logf("EXT4 WAL=%v BFS WAL=%v", extWAL, bfsWAL)
	ratio := bfsWAL.PerS / extWAL.PerS
	if ratio < 0.9 {
		t.Errorf("BFS-DR WAL regressed vs EXT4 (%.2fx)", ratio)
	}
	// The PERSIST-mode gain should exceed the WAL-mode gain.
	extP := benchOn(t, core.EXT4DR(device.UFS()), Persist, Durable)
	bfsP := benchOn(t, core.BFSDR(device.UFS()), Persist, Durable)
	if bfsP.PerS/extP.PerS < ratio {
		t.Errorf("PERSIST gain (%.2fx) should exceed WAL gain (%.2fx)",
			bfsP.PerS/extP.PerS, ratio)
	}
}

func TestModeStrings(t *testing.T) {
	if Persist.String() != "persist" || WAL.String() != "wal" {
		t.Error("mode strings")
	}
}
