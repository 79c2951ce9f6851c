package metrics

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestLatencyBasics(t *testing.T) {
	r := NewLatencyRecorder("fsync")
	for i := 1; i <= 100; i++ {
		r.Record(sim.Duration(i) * sim.Millisecond)
	}
	if r.Count() != 100 {
		t.Fatalf("count = %d", r.Count())
	}
	if got := r.Mean(); got != sim.Duration(50.5*float64(sim.Millisecond)) {
		t.Errorf("mean = %v", got)
	}
	if got := r.Median(); got != 50*sim.Millisecond {
		t.Errorf("median = %v, want 50ms", got)
	}
	if got := r.Percentile(99); got != 99*sim.Millisecond {
		t.Errorf("p99 = %v, want 99ms", got)
	}
	if got := r.Percentile(100); got != 100*sim.Millisecond {
		t.Errorf("p100 = %v, want 100ms", got)
	}
	if got := r.Percentile(0); got != sim.Millisecond {
		t.Errorf("min = %v, want 1ms", got)
	}
	if got := r.Max(); got != 100*sim.Millisecond {
		t.Errorf("max = %v, want 100ms", got)
	}
}

func TestLatencyEmpty(t *testing.T) {
	r := NewLatencyRecorder("empty")
	if r.Mean() != 0 || r.Median() != 0 || r.Percentile(99.99) != 0 || r.Max() != 0 {
		t.Error("empty recorder should report zeros")
	}
	s := r.Summarize()
	if s.Count != 0 || s.Mean != 0 {
		t.Errorf("summary of empty recorder: %+v", s)
	}
}

func TestLatencyRecordAfterQueryKeepsOrder(t *testing.T) {
	r := NewLatencyRecorder("x")
	r.Record(5 * sim.Millisecond)
	_ = r.Median() // forces sort
	r.Record(1 * sim.Millisecond)
	if got := r.Percentile(0); got != sim.Millisecond {
		t.Errorf("min after late record = %v", got)
	}
}

// Property: percentiles are monotone and bounded by min/max.
func TestPercentileMonotoneProperty(t *testing.T) {
	prop := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		r := NewLatencyRecorder("prop")
		for _, v := range raw {
			r.Record(sim.Duration(v % 1000000))
		}
		last := sim.Duration(0)
		for _, p := range []float64{1, 25, 50, 75, 90, 99, 99.9, 100} {
			v := r.Percentile(p)
			if v < last || v < r.Percentile(0) || v > r.Max() {
				return false
			}
			last = v
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: nearest-rank percentile matches a direct sorted-slice lookup.
func TestPercentileNearestRankProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(500)
		vals := make([]sim.Duration, n)
		r := NewLatencyRecorder("p")
		for i := range vals {
			vals[i] = sim.Duration(rng.Intn(100000))
			r.Record(vals[i])
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		p := []float64{50, 90, 99}[rng.Intn(3)]
		rank := int(float64(n)*p/100 + 0.9999999)
		if rank < 1 {
			rank = 1
		}
		if rank > n {
			rank = n
		}
		if got := r.Percentile(p); got != vals[rank-1] {
			t.Fatalf("n=%d p=%v: got %v want %v", n, p, got, vals[rank-1])
		}
	}
}

func TestSeriesStepSemantics(t *testing.T) {
	s := NewSeries("qd")
	s.Record(0, 0)
	s.Record(10, 1)
	s.Record(20, 3)
	s.Record(30, 0)
	if got := s.ValueAt(5); got != 0 {
		t.Errorf("ValueAt(5) = %v", got)
	}
	if got := s.ValueAt(10); got != 1 {
		t.Errorf("ValueAt(10) = %v", got)
	}
	if got := s.ValueAt(25); got != 3 {
		t.Errorf("ValueAt(25) = %v", got)
	}
	if got := s.ValueAt(100); got != 0 {
		t.Errorf("ValueAt(100) = %v", got)
	}
}

func TestSeriesCoalescesEqualValues(t *testing.T) {
	s := NewSeries("qd")
	s.Record(0, 2)
	s.Record(5, 2)
	s.Record(9, 2)
	if len(s.points) != 1 {
		t.Errorf("len = %d, want 1 (coalesced)", len(s.points))
	}
}

func TestSeriesMean(t *testing.T) {
	s := NewSeries("qd")
	s.Record(0, 0)
	s.Record(10, 4) // value 4 on [10,20)
	s.Record(20, 0)
	got := s.Mean(0, 20)
	if got != 2 {
		t.Errorf("mean = %v, want 2", got)
	}
	if got := s.Mean(10, 20); got != 4 {
		t.Errorf("mean[10,20] = %v, want 4", got)
	}
}

func TestSeriesPeakAndSample(t *testing.T) {
	s := NewSeries("qd")
	s.Record(0, 1)
	s.Record(50, 9)
	s.Record(60, 2)
	if got := s.Peak(0, 100); got != 9 {
		t.Errorf("peak = %v", got)
	}
	pts := s.sample(0, 100, 11)
	if len(pts) != 11 {
		t.Fatalf("samples = %d", len(pts))
	}
	if pts[5].Value != 9 { // t=50
		t.Errorf("sample@50 = %v, want 9", pts[5].Value)
	}
	if pts[10].Value != 2 {
		t.Errorf("sample@100 = %v, want 2", pts[10].Value)
	}
}

func TestAsciiPlotRenders(t *testing.T) {
	s := NewSeries("qd")
	s.Record(0, 0)
	s.Record(sim.Time(sim.Millisecond), 16)
	out := s.AsciiPlot(0, sim.Time(2*sim.Millisecond), 5, 16)
	if !strings.Contains(out, "qd") || !strings.Contains(out, "#") {
		t.Errorf("plot missing content:\n%s", out)
	}
}

func TestCounterAndRate(t *testing.T) {
	c := NewCounter("ops")
	c.Inc()
	c.Add(9)
	if c.Value() != 10 {
		t.Errorf("value = %d", c.Value())
	}
	if got := Rate(30000, 2*sim.Second); got != 15000 {
		t.Errorf("rate = %v, want 15000", got)
	}
	if got := Rate(5, 0); got != 0 {
		t.Errorf("rate with zero window = %v", got)
	}
}

func TestSwitchMeter(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	var m SwitchMeter
	k.Spawn("app", func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			m.Begin(p)
			p.Sleep(sim.Microsecond) // 1 voluntary switch
			p.Sleep(sim.Microsecond) // 2nd
			m.End(p)
		}
	})
	k.Run()
	if m.ops != 4 {
		t.Fatalf("ops = %d", m.ops)
	}
	if m.PerOp() != 2 {
		t.Errorf("per-op switches = %v, want 2", m.PerOp())
	}
}

func TestSummaryString(t *testing.T) {
	r := NewLatencyRecorder("EXT4")
	r.Record(sim.Duration(1.29 * float64(sim.Millisecond)))
	s := r.Summarize().String()
	if !strings.Contains(s, "EXT4") || !strings.Contains(s, "µ=1.290ms") {
		t.Errorf("summary string: %s", s)
	}
}
