package fs_test

import (
	"testing"

	"repro/internal/block"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/fs"
	"repro/internal/sim"
)

// TestFdatabarrierAnswer pins what Fdatabarrier reports it delivered for an
// overwrite of a synced file, then for a second overwrite after it. JBD2
// serves it as fdatasync and OptFS as osync. BarrierFS orders it, unless
// background writeback the multi-queue layer moved off the order stream
// (WritebackAsync + Fdatawait) escaped the barriers since the last durable
// sync: that call is served as fdatasync, and the next one is ordered again.
// On the single-queue layer background writeback stays on the order stream.
func TestFdatabarrierAnswer(t *testing.T) {
	for _, c := range []struct {
		name        string
		prof        func(device.Config) core.Profile
		background  bool
		first, then fs.Delivered
	}{
		{"EXT4-DR", core.EXT4DR, false, fs.Durable, fs.Durable},
		{"BFS-DR", core.BFSDR, false, fs.Ordered, fs.Ordered},
		{"BFS-DR/background", core.BFSDR, true, fs.Ordered, fs.Ordered},
		{"BFS-MQ", core.BFSMQ, false, fs.Ordered, fs.Ordered},
		{"BFS-MQ/background", core.BFSMQ, true, fs.Durable, fs.Ordered},
		{"OptFS", core.OptFS, false, fs.Transferred, fs.Transferred},
	} {
		k := sim.NewKernel()
		s := core.NewStack(k, c.prof(device.PlainSSD()))
		var first, then fs.Delivered
		k.Spawn("app", func(p *sim.Proc) {
			f, err := s.FS.Create(p, s.FS.Root(), "f")
			if err != nil {
				t.Fatal(err)
			}
			for i := int64(0); i < 4; i++ {
				s.FS.Write(p, f, i)
			}
			s.FS.Fsync(p, f) // later writes are overwrites
			s.FS.Write(p, f, 0)
			if c.background {
				s.FS.WritebackAsync(p, f, block.RoleBackground)
				s.FS.Fdatawait(p, f)
			}
			first = s.FS.Fdatabarrier(p, f)
			s.FS.Write(p, f, 1)
			then = s.FS.Fdatabarrier(p, f)
			k.Stop()
		})
		k.Run()
		k.Close()
		if first != c.first || then != c.then {
			t.Errorf("%s: Fdatabarrier delivered %d then %d, want %d then %d", c.name, first, then, c.first, c.then)
		}
	}
}
