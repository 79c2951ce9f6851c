package crashmc

import (
	"testing"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/fs"
	"repro/internal/sim"
)

// The black-box regression suite: declared workloads enumerated at the
// crash instants of the sampled harness these tests were first written
// against.

func durability(prof core.Profile) Workload { return OnStack(prof, Durability) }

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
	// fdatabarrier on a barrier-enabled stack: epoch prefix must hold in
	// every admissible state at every crash point.
	sweepClean(t, ordering(core.BFSOD(device.PlainSSD()), 0),
		times(300, 900, 2000, 4500, 9000, 15000, 25000, 40000))
}

func TestOrderingBarrierFSOnUFS(t *testing.T) {
	sweepClean(t, ordering(core.BFSOD(device.UFS()), 0), times(1000, 3000, 8000, 20000, 50000))
}

func TestOrderingEXT4DRHoldsViaFlush(t *testing.T) {
	// EXT4-DR's fdatabarrier degrades to fdatasync (transfer-and-flush), so
	// ordering must hold there too — just expensively.
	sweepClean(t, ordering(core.EXT4DR(device.PlainSSD()), 0), times(2000, 9000, 30000))
}

func TestOrderingEXT4NobarrierCanViolate(t *testing.T) {
	// The motivating failure: EXT4-OD on a legacy (non-barrier) device
	// provides NO ordering guarantee. Three barrier-separated writes keep
	// the unconstrained 2^n state space exhaustive, and at every crash
	// point some admissible state must break the order; a clean one would
	// mean our legacy model is too kind.
	for _, us := range []int{1500, 3000, 5000, 8000, 12000, 20000, 30000, 45000, 70000, 100000} {
		if res := orderingAt(t, core.EXT4OD(device.LegacySSD()), us, 3); res.Ordering == 0 {
			t.Errorf("EXT4-OD on a legacy device: %v", res)
		}
	}
}

// overwriteSync preallocates OrderingPages pages with one fsync, then
// overwrites them round-robin with sync after each write, recording every
// acknowledged version. On OptFS every overwrite is journaled (selective
// data journaling), so the sync must commit the journal to keep its promise
// even when the write changed no metadata.
func overwriteSync(sync func(f *fs.FS, p *sim.Proc, i *fs.Inode)) Part {
	return func(k *sim.Kernel, s *core.Stack) []Checker {
		chk := &DurabilityChecker{FS: s.FS, File: "overwrite.dat"}
		k.Spawn("writer", func(p *sim.Proc) {
			f, err := s.FS.Create(p, s.FS.Root(), chk.File)
			if err != nil {
				panic(err)
			}
			for i := int64(0); i < OrderingPages; i++ {
				s.FS.Write(p, f, i)
			}
			s.FS.Fsync(p, f)
			for n := int64(0); ; n++ {
				idx := n % OrderingPages
				if n >= OrderingPages {
					s.FS.Write(p, f, idx)
					sync(s.FS, p, f)
				}
				ver, _, _ := s.FS.Read(p, f, idx, 0) // a page-cache hit, no IO to fail
				chk.Synced = append(chk.Synced, AckedWrite{Idx: idx, Ver: ver})
			}
		})
		return append([]Checker{chk}, journalAndFS(s)...)
	}
}

// TestDurabilityOverwrite: an overwrite acknowledged by fsync or fdatasync
// survives every admissible crash state. On OptFS the overwrite rides the
// journal, so a sync that committed only when metadata changed lost it.
// EXT4-DR and BFS-DR, which write overwrites in place, are the controls.
func TestDurabilityOverwrite(t *testing.T) {
	syncs := map[string]func(f *fs.FS, p *sim.Proc, i *fs.Inode){
		"fsync":     (*fs.FS).Fsync,
		"fdatasync": (*fs.FS).Fdatasync,
	}
	for _, name := range []string{"fsync", "fdatasync"} {
		for _, mk := range []func(device.Config) core.Profile{core.OptFS, core.EXT4DR, core.BFSDR} {
			t.Run(name+"/"+mk(device.PlainSSD()).Name, func(t *testing.T) {
				sweepClean(t, OnStack(smallJournal(mk(device.PlainSSD())), overwriteSync(syncs[name])), times(3000, 12000))
			})
		}
	}
}
