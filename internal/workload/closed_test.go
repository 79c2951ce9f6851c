package workload

import (
	"testing"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// A client completing one operation every microsecond: the window counts
// exactly the completions it contains and none of the warm-up's.
func TestMeterCountsOnlyInsideWindow(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	var m Meter
	var at []sim.Time
	k.Spawn("client", func(p *sim.Proc) {
		for {
			p.Sleep(sim.Microsecond)
			m.Done(1)
			at = append(at, p.Now())
		}
	})
	Warm(k, 10*sim.Millisecond, nil)
	w := m.Measure(k, sim.Millisecond)
	if w.Start != sim.Time(10*sim.Millisecond) || w.End != sim.Time(11*sim.Millisecond) {
		t.Fatalf("window = [%v, %v], want [10ms, 11ms]", w.Start, w.End)
	}
	var inside int64
	for _, ts := range at {
		if ts > w.Start && ts <= w.End {
			inside++
		}
	}
	if w.Ops != inside || w.Ops != 1000 {
		t.Errorf("Ops = %d, completions inside the window = %d, want 1000", w.Ops, inside)
	}
	if w.PerS != 1e6 {
		t.Errorf("PerS = %v, want 1e6", w.PerS)
	}
	if w.Latency != (metrics.Summary{}) {
		t.Errorf("untimed meter reported latency %+v", w.Latency)
	}
}

func TestMeterTimedFillsLatency(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	var m Meter
	k.Spawn("client", func(p *sim.Proc) {
		for {
			t0 := p.Now()
			p.Sleep(4 * sim.Microsecond)
			m.Timed(p, t0, 2)
		}
	})
	Warm(k, sim.Millisecond, nil)
	w := m.Measure(k, sim.Millisecond)
	if w.Ops != 500 || w.Latency.Count != 250 {
		t.Errorf("Ops = %d, samples = %d, want 500 and 250", w.Ops, w.Latency.Count)
	}
	if w.Latency.Median != 0.004 || w.Latency.Max != 0.004 {
		t.Errorf("latency = %+v, want 4µs throughout", w.Latency)
	}
}

// Warm's one rule: warm up; if set-up is still running, step 10 ms at a time
// until it is done and warm up again.
func TestWarmRule(t *testing.T) {
	for _, c := range []struct {
		name    string
		readyAt sim.Duration // 0: no ready flag at all
		opens   sim.Duration
	}{
		{"setup outlasts warm-up", 35 * sim.Millisecond, 50 * sim.Millisecond}, // 10 + 3 steps + 10
		{"setup done in time", 10 * sim.Millisecond, 10 * sim.Millisecond},
		{"no ready flag", 0, 10 * sim.Millisecond},
	} {
		k := sim.NewKernel()
		k.Spawn("tick", func(p *sim.Proc) { // keeps the clock moving
			for {
				p.Sleep(sim.Millisecond)
			}
		})
		var ready *bool
		if c.readyAt > 0 {
			ready = new(bool)
			k.Spawn("setup", func(p *sim.Proc) {
				p.Sleep(c.readyAt)
				*ready = true
			})
		}
		Warm(k, 10*sim.Millisecond, ready)
		if got := k.Now(); got != sim.Time(c.opens) {
			t.Errorf("%s: window opens at %v, want %v", c.name, got, sim.Time(c.opens))
		}
		k.Close()
	}
}

// The re-warm is live: at the -quick Fig. 9 settings RandWrite's
// preallocation outlasts the warm-up on UFS (12 + seven 10 ms steps + 12)
// and not on the supercap SSD. A Warm reduced to a single RunUntil, or one
// that drops the second warm-up, moves the UFS window and every cell behind
// it.
func TestRandWriteRewarmFires(t *testing.T) {
	for _, c := range []struct {
		dev   func() device.Config
		opens sim.Duration
	}{
		{device.UFS, 94 * sim.Millisecond},
		{device.SupercapSSD, 12 * sim.Millisecond},
	} {
		for _, pp := range []struct {
			po   Policy
			prof func(device.Config) core.Profile
		}{{PolicyXnF, core.EXT4DR}, {PolicyB, core.BFSOD}} {
			k := sim.NewKernel()
			s := core.NewStack(k, pp.prof(c.dev()))
			cfg := DefaultRandWrite(pp.po)
			cfg.Duration, cfg.Warmup, cfg.FilePages = 60*sim.Millisecond, 12*sim.Millisecond, 1024
			r := RandWrite(k, s, cfg)
			if r.Start != sim.Time(c.opens) {
				t.Errorf("%s/%v: window opens at %v, want %v", s.Profile.Device.Name, pp.po, r.Start, sim.Time(c.opens))
			}
			k.Close()
		}
	}
}
