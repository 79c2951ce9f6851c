package metrics

import (
	"math"
	"math/big"
	"testing"

	"repro/internal/sim"
)

// FuzzPercentile checks Percentile's rank against math/big: over samples
// 1..n the p-th percentile is its own rank, ⌈p/100·n⌉ with p taken to four
// decimals and clamped to [0, 100], never below the first sample.
func FuzzPercentile(f *testing.F) {
	f.Add(99.9, 1000) // 99.9/100*1000 is 999.0000000000001 in float64
	f.Add(99.9, 3000) // full-scale Table 1: 3000 fsyncs per cell
	f.Add(50.0, 1)
	f.Add(100.0, 7)
	f.Add(0.0001, 5)
	f.Fuzz(func(t *testing.T, p float64, n int) {
		if math.IsNaN(p) || n < 1 || n > 4096 {
			t.Skip()
		}
		r := NewLatencyRecorder("fuzz")
		for i := n; i >= 1; i-- {
			r.Record(sim.Duration(i))
		}
		q := big.NewInt(int64(math.Round(math.Min(math.Max(p, 0), 100) * 1e4)))
		want, rem := new(big.Int).QuoRem(q.Mul(q, big.NewInt(int64(n))), big.NewInt(1_000_000), new(big.Int))
		if rem.Sign() > 0 {
			want.Add(want, big.NewInt(1))
		}
		if want.Sign() == 0 {
			want.SetInt64(1)
		}
		if got := r.Percentile(p); int64(got) != want.Int64() {
			t.Errorf("Percentile(%v) of 1..%d = sample %d, want %v", p, n, got, want)
		}
	})
}
