package main

import (
	"math"
	"slices"

	"repro/internal/sim"
)

// quartiles returns the first quartile, median and third quartile as
// Python's statistics.quantiles(values, n=4) gives them (the exclusive
// method), so spreads computed here match the ones the pipeline computes.
func quartiles(values []float64) (q1, med, q3 float64) {
	x := slices.Sorted(slices.Values(values))
	n := len(x)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return x[0], x[0], x[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (x[j-1]*(4-delta) + x[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

func median(values []float64) float64 {
	_, med, _ := quartiles(values)
	return med
}

// spreadOf is the distance between the quartiles as a share of the median.
func spreadOf(values []float64) float64 {
	q1, med, q3 := quartiles(values)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}

// latencies is a set of virtual-time samples. The backing slice is sized
// before the measured window so recording a sample never allocates there.
type latencies []sim.Duration

// pct returns the p-th percentile in virtual microseconds by the nearest-rank
// method (the rule metrics.LatencyRecorder uses). It sorts in place, which
// costs one scan when the samples are sorted already.
func (l latencies) pct(p float64) float64 {
	if len(l) == 0 {
		return 0
	}
	slices.Sort(l)
	rank := int(math.Ceil(p / 100 * float64(len(l))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(l) {
		rank = len(l)
	}
	return l[rank-1].Micros()
}

// digest is a running FNV-1a hash over the simulated results of one pass.
// Every repeat of a seeded run, and the traced pass beside it, must end on
// the same digest: that is the proof that the benchmark's observers did not
// perturb the simulation.
type digest uint64

const (
	fnvOffset64 = 0xcbf29ce484222325
	fnvPrime64  = 0x100000001b3
)

func newDigest() digest { return fnvOffset64 }

func (d *digest) u64(v uint64) {
	h := uint64(*d)
	for i := 0; i < 8; i++ {
		h = (h ^ (v & 0xff)) * fnvPrime64
		v >>= 8
	}
	*d = digest(h)
}

func (d *digest) i64(vs ...int64) {
	for _, v := range vs {
		d.u64(uint64(v))
	}
}

func (d *digest) f64(vs ...float64) {
	for _, v := range vs {
		d.u64(math.Float64bits(v))
	}
}

// lat folds a sample set in, in sorted order (it sorts in place).
func (d *digest) lat(l latencies) {
	l.pct(50)
	for _, v := range l {
		d.u64(uint64(v))
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
