package core

import (
	"testing"

	"repro/internal/device"
	"repro/internal/jbd"
	"repro/internal/sim"
)

func TestProfileConstructors(t *testing.T) {
	cases := []struct {
		prof    Profile
		name    string
		mode    jbd.Mode
		relaxed bool
	}{
		{EXT4DR(device.PlainSSD()), "EXT4-DR", jbd.ModeJBD2, false},
		{EXT4OD(device.PlainSSD()), "EXT4-OD", jbd.ModeNobarrier, true},
		{BFSDR(device.PlainSSD()), "BFS-DR", jbd.ModeDual, false},
		{BFSOD(device.PlainSSD()), "BFS-OD", jbd.ModeDual, true},
		{EXT4MQ(device.PlainSSD()), "EXT4-MQ", jbd.ModeJBD2, false},
		{BFSMQ(device.PlainSSD()), "BFS-MQ", jbd.ModeDual, false},
		{OptFS(device.PlainSSD()), "OptFS", jbd.ModeOptFS, true},
	}
	for _, c := range cases {
		if c.prof.Name != c.name {
			t.Errorf("name = %q, want %q", c.prof.Name, c.name)
		}
		if c.prof.FS.Journal.Mode != c.mode {
			t.Errorf("%s: mode = %v, want %v", c.name, c.prof.FS.Journal.Mode, c.mode)
		}
		if c.prof.Relaxed != c.relaxed {
			t.Errorf("%s: relaxed = %v", c.name, c.prof.Relaxed)
		}
	}
}

func TestMobileTuning(t *testing.T) {
	ufs := BFSDR(device.UFS())
	ssd := BFSDR(device.PlainSSD())
	if ufs.FS.Journal.WakeLatency <= ssd.FS.Journal.WakeLatency {
		t.Error("mobile profile should charge higher wake latency")
	}
	if ufs.DispatchOverhead <= ssd.DispatchOverhead {
		t.Error("mobile profile should charge higher dispatch overhead")
	}
}

func TestStackEndToEnd(t *testing.T) {
	for _, mk := range []func(device.Config) Profile{EXT4DR, BFSDR, OptFS, EXT4OD, BFSOD} {
		prof := mk(device.UFS())
		k := sim.NewKernel()
		s := NewStack(k, prof)
		done := false
		k.Spawn("app", func(p *sim.Proc) {
			f, err := s.FS.Create(p, s.FS.Root(), "e2e")
			if err != nil {
				t.Errorf("%s: %v", prof.Name, err)
				return
			}
			s.FS.Write(p, f, 0)
			s.Sync(p, f)
			s.FS.Write(p, f, 1)
			s.Datasync(p, f)
			done = true
		})
		k.Run()
		k.Close()
		if !done {
			t.Errorf("%s: end-to-end flow did not finish", prof.Name)
		}
	}
}

func TestStackCrashRecoverView(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	s := NewStack(k, BFSDR(device.UFS()))
	k.Spawn("app", func(p *sim.Proc) {
		f, _ := s.FS.Create(p, s.FS.Root(), "keep")
		s.FS.Write(p, f, 0)
		s.FS.Fsync(p, f)
		s.Crash()
		view, d2 := s.RecoverView(p)
		if d2 == nil || view == nil {
			t.Fatal("recovery returned nils")
		}
		root, ok := view.Root(s.FS)
		if !ok {
			t.Fatal("root unrecoverable")
		}
		if _, ok := view.Lookup(root, "keep"); !ok {
			t.Error("fsynced file missing after crash+recover")
		}
	})
	k.Run()
}
