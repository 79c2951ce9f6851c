package fault

import (
	"testing"

	"repro/internal/sim"
)

func TestNilInjectorIsNoFault(t *testing.T) {
	var in *Injector = New(nil)
	if in != nil {
		t.Fatal("New(nil) should yield a nil injector")
	}
	if extra, err := in.Read(); extra != 0 || err != nil {
		t.Fatalf("nil Read() = %v, %v", extra, err)
	}
	if n := in.ProgramRetries(); n != 0 {
		t.Fatalf("nil ProgramRetries() = %d", n)
	}
	if s := in.GCReadScale(0); s != 1 {
		t.Fatalf("nil GCReadScale() = %v", s)
	}
	if in.PLPFailure() {
		t.Fatal("nil injector claims PLP failure")
	}
}

// Same (plan, seed) must produce the identical fault sequence — the
// property that makes every injected campaign replayable.
func TestInjectorDeterministicUnderSeed(t *testing.T) {
	plan := &Plan{
		Seed:                 42,
		ReadUNCProb:          0.2,
		ReadRetryLadder:      []sim.Duration{20 * sim.Microsecond, 60 * sim.Microsecond},
		ReadRetryProb:        0.4,
		ProgramTransientProb: 0.3,
		ProgramMaxRetries:    2,
	}
	a, b := New(plan), New(plan)
	for i := 0; i < 2000; i++ {
		ea, erra := a.Read()
		eb, errb := b.Read()
		if ea != eb || (erra == nil) != (errb == nil) {
			t.Fatalf("read draw %d diverged: (%v,%v) vs (%v,%v)", i, ea, erra, eb, errb)
		}
		if na, nb := a.ProgramRetries(), b.ProgramRetries(); na != nb {
			t.Fatalf("program draw %d diverged: %d vs %d", i, na, nb)
		}
	}
	sa := a.stats
	if sa != b.stats {
		t.Fatalf("stats diverged: %+v vs %+v", sa, b.stats)
	}
	if sa.ReadUNCs == 0 || sa.ReadRetries == 0 || sa.ProgramRetries == 0 {
		t.Fatalf("draw stream never fired some fault class: %+v", sa)
	}
	// A different seed yields a different sequence.
	other := *plan
	other.Seed = 43
	c := New(&other)
	for i := 0; i < 2000; i++ {
		c.Read()
		c.ProgramRetries()
	}
	if c.stats == sa {
		t.Fatal("distinct seeds produced identical fault streams")
	}
}

func TestGCWindowsAndPLPDrain(t *testing.T) {
	in := New(&Plan{
		GCPeriod:        2 * sim.Millisecond,
		GCDuration:      300 * sim.Microsecond,
		GCReadFactor:    4,
		GCProgramFactor: 2,
	})
	inside := sim.Time(100 * sim.Microsecond)
	outside := sim.Time(1 * sim.Millisecond)
	if in.GCReadScale(inside) != 4 || in.GCProgramScale(inside) != 2 {
		t.Fatal("GC window not scaling inside the window")
	}
	if in.GCReadScale(outside) != 1 || in.GCProgramScale(outside) != 1 {
		t.Fatal("GC scaling leaked outside the window")
	}
	// Windows recur every period.
	if in.GCReadScale(inside+sim.Time(2*sim.Millisecond)) != 4 {
		t.Fatal("GC window did not recur on the next period")
	}

	if !New(&Plan{PLPFailure: true}).PLPFailure() {
		t.Fatal("PLPFailure not reported")
	}
	if New(&Plan{ReadUNCProb: 0.1}).PLPFailure() {
		t.Fatal("non-PLP plan claims PLP failure")
	}
}
