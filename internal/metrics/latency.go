// Package metrics provides the measurement instruments used by the
// experiment harness: latency recorders with percentile extraction,
// time-series samplers for queue-depth traces, and simple counters/rates.
// All instruments operate on virtual sim time.
package metrics

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/sim"
)

// LatencyRecorder accumulates duration samples and reports order statistics.
// The paper's Table 1 reports mean, median, 99th, 99.9th and 99.99th
// percentiles of fsync latency; Summary produces exactly that row.
type LatencyRecorder struct {
	name    string
	samples []sim.Duration
	sorted  bool
	sum     sim.Duration
}

// NewLatencyRecorder returns an empty recorder labelled name.
func NewLatencyRecorder(name string) *LatencyRecorder {
	return &LatencyRecorder{name: name}
}

// Record adds one sample.
func (r *LatencyRecorder) Record(d sim.Duration) {
	r.samples = append(r.samples, d)
	r.sum += d
	r.sorted = false
}

// Grow makes room for n more samples: a caller that knows its count
// records them without regrowing the array.
func (r *LatencyRecorder) Grow(n int) { r.samples = slices.Grow(r.samples, n) }

// Count returns the number of samples.
func (r *LatencyRecorder) Count() int { return len(r.samples) }

// Mean returns the arithmetic mean, or 0 with no samples.
func (r *LatencyRecorder) Mean() sim.Duration {
	if len(r.samples) == 0 {
		return 0
	}
	return r.sum / sim.Duration(len(r.samples))
}

// Max returns the largest sample, or 0 with no samples.
func (r *LatencyRecorder) Max() sim.Duration {
	if len(r.samples) == 0 {
		return 0
	}
	r.sortSamples()
	return r.samples[len(r.samples)-1]
}

func (r *LatencyRecorder) sortSamples() {
	if !r.sorted {
		sort.Slice(r.samples, func(i, j int) bool { return r.samples[i] < r.samples[j] })
		r.sorted = true
	}
}

// Percentile returns the p-th percentile (0 < p <= 100) using the
// nearest-rank method, or 0 with no samples or NaN p. Out-of-range p clamps
// to the valid range, so a single-sample recorder answers every percentile
// with its one sample instead of indexing out of bounds. The rank ⌈p/100·n⌉
// is computed in integers with p taken to four decimals: in float64
// 99.9/100*1000 is 999.0000000000001, one rank high at every multiple of
// 1000 samples (at n = 1000, the maximum). bench/stats.go's pct, asked
// only for p50 and p99, follows the same rule.
func (r *LatencyRecorder) Percentile(p float64) sim.Duration {
	n := len(r.samples)
	if n == 0 || math.IsNaN(p) {
		return 0
	}
	r.sortSamples()
	q := int64(math.Round(math.Min(math.Max(p, 0), 100) * 1e4))
	rank := (q*int64(n) + 999_999) / 1_000_000
	if rank < 1 {
		rank = 1
	}
	return r.samples[rank-1]
}

// Median returns the 50th percentile.
func (r *LatencyRecorder) Median() sim.Duration { return r.Percentile(50) }

// Summary is one row of Table 1: latency statistics in milliseconds.
type Summary struct {
	Name   string
	Count  int
	Mean   float64 // all fields in msec, matching the paper's Table 1
	Median float64
	P99    float64
	P999   float64
	P9999  float64
	Max    float64
}

// Summarize produces the Table-1 style row for the recorder. Every field is
// sanitized to a finite number: an empty or single-sample recorder yields a
// row of zeros / repeats of the one sample, never NaN or Inf — the row is
// marshaled straight into `repro -json` output and NaN is not valid JSON.
func (r *LatencyRecorder) Summarize() Summary {
	return Summary{
		Name:   r.name,
		Count:  r.Count(),
		Mean:   finite(r.Mean().Millis()),
		Median: finite(r.Median().Millis()),
		P99:    finite(r.Percentile(99).Millis()),
		P999:   finite(r.Percentile(99.9).Millis()),
		P9999:  finite(r.Percentile(99.99).Millis()),
		Max:    finite(r.Max().Millis()),
	}
}

// finite maps NaN and ±Inf to 0 so summaries stay JSON-encodable.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

func (s Summary) String() string {
	return fmt.Sprintf("%-14s n=%-7d µ=%.3fms med=%.3fms p99=%.3fms p99.9=%.3fms p99.99=%.3fms",
		s.Name, s.Count, s.Mean, s.Median, s.P99, s.P999, s.P9999)
}
