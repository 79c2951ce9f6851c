package crashmc

import (
	"testing"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/par"
	"repro/internal/sim"
)

// sparseWriter is a workload part that adds a second file to the stack:
// pages 0 and 6 first, an fsync that freezes a block map with five holes,
// then one hole filled and fsynced at a time. Every fill lands under a
// frozen snapshot, so the filesystem's copy-on-write of the shared block
// map runs once per fsync; its checker audits the acknowledged pages in
// every crash state. acked, if non-nil, is left pointing at the checker so
// a test can read how far the writer got.
func sparseWriter(acked **DurabilityChecker) Part {
	return func(k *sim.Kernel, s *core.Stack) []Checker {
		chk := &DurabilityChecker{FS: s.FS, File: "sparse.dat"}
		if acked != nil {
			*acked = chk
		}
		k.Spawn("sparse-writer", func(p *sim.Proc) {
			f, err := s.FS.Create(p, s.FS.Root(), chk.File)
			if err != nil {
				panic(err)
			}
			ack := func(idxs ...int64) {
				for _, idx := range idxs {
					s.FS.Write(p, f, idx)
				}
				s.FS.Fsync(p, f)
				for _, idx := range idxs {
					ver, _ := s.FS.PageVer(f, idx)
					chk.Synced = append(chk.Synced, AckedWrite{Idx: idx, Ver: ver})
				}
			}
			ack(0, 6)
			for idx := int64(1); idx < 6; idx++ {
				ack(idx)
			}
		})
		return []Checker{chk}
	}
}

// TestSparseFileCleanInEveryState runs the ordering codelet with the sparse
// writer beside it under enumeration, the cells fanned out by par.For as the
// crashmc experiment does (so -race sees the shared-snapshot path on
// concurrent kernels). The writer rides beside Ordering rather than inside
// it because that workload's states are recorded cells.
func TestSparseFileCleanInEveryState(t *testing.T) {
	profs := []core.Profile{core.EXT4DR(device.PlainSSD()), core.BFSDR(device.PlainSSD())}
	crashes := []int{2500, 4000, 6000}
	results := make([]Result, len(profs)*len(crashes))
	sparse := make([]*DurabilityChecker, len(results))
	par.For(len(results), func(i int) {
		w := OnStack(smallJournal(profs[i/len(crashes)]), Ordering(0), sparseWriter(&sparse[i]))
		results[i] = Enumerate(w, Config{CrashAt: at(crashes[i%len(crashes)])})
	})
	fills := 0
	for i, res := range results {
		requireClean(t, res)
		if len(sparse[i].Synced) > 2 {
			fills++
		}
	}
	if fills == 0 {
		t.Fatal("no cell crashed after a hole fill was acknowledged: the clone path went unaudited")
	}
}
