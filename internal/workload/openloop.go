package workload

import (
	"math"
	"math/rand"

	"repro/internal/sim"
)

// Open-loop traffic generation: arrival processes, key popularity and
// operation mix for a client population that offers load at its own pace
// instead of waiting for completions (closed-loop benchmarks throttle
// themselves, hiding exactly the queueing collapse tail-latency studies
// care about). Shared by the kvcluster service sweep and any experiment
// that wants Zipfian key choice — everything is deterministic under a
// fixed seed.

// ArrivalKind selects the arrival process shape.
type ArrivalKind int

// Arrival processes.
const (
	// ArrivalPoisson is a homogeneous Poisson process: exponential
	// inter-arrival times at RatePerS.
	ArrivalPoisson ArrivalKind = iota
	// ArrivalBursty is a square-wave modulated Poisson process: within each
	// Period, the first Duty fraction runs at BurstFactor times the base
	// rate and the remainder at a compensating low rate, preserving the
	// mean offered load.
	ArrivalBursty
	// ArrivalDiurnal is a sinusoidally modulated Poisson process:
	// rate(t) = RatePerS * (1 + diurnalAmplitude*sin(2*pi*t/Period)), the
	// classic day/night traffic curve compressed to Period.
	ArrivalDiurnal
)

func (k ArrivalKind) String() string {
	switch k {
	case ArrivalBursty:
		return "bursty"
	case ArrivalDiurnal:
		return "diurnal"
	}
	return "poisson"
}

// diurnalAmplitude is the diurnal modulation depth, in [0, 1]. Typed, so
// folded constants round as float64 arithmetic does: seeded arrivals repeat.
const diurnalAmplitude float64 = 0.8

// ArrivalConfig parameterizes one arrival process.
type ArrivalConfig struct {
	Kind ArrivalKind
	// RatePerS is the mean offered rate in requests per second.
	RatePerS float64
	// BurstFactor is the bursty peak-rate multiplier (>= 1; default 4).
	BurstFactor float64
	// Period is the bursty/diurnal cycle length (default 10ms).
	Period sim.Duration
	// Duty is the fraction of a bursty period spent at the peak rate
	// (0 < Duty < 1; default 0.25).
	Duty float64
	// Seed makes the generated arrival sequence deterministic.
	Seed int64
}

func (c ArrivalConfig) withDefaults() ArrivalConfig {
	if c.BurstFactor < 1 {
		c.BurstFactor = 4
	}
	if c.Period <= 0 {
		c.Period = 10 * sim.Millisecond
	}
	if c.Duty <= 0 || c.Duty >= 1 {
		c.Duty = 0.25
	}
	return c
}

// peakRate returns the maximum instantaneous rate, the envelope the
// thinning sampler draws candidate arrivals at.
func (c ArrivalConfig) peakRate() float64 {
	switch c.Kind {
	case ArrivalBursty:
		return c.RatePerS * c.BurstFactor
	case ArrivalDiurnal:
		return c.RatePerS * (1 + diurnalAmplitude)
	}
	return c.RatePerS
}

// rateAt returns the instantaneous rate at time t from the window start.
func (c ArrivalConfig) rateAt(t sim.Duration) float64 {
	switch c.Kind {
	case ArrivalBursty:
		phase := float64(t%c.Period) / float64(c.Period)
		if phase < c.Duty {
			return c.RatePerS * c.BurstFactor
		}
		// Compensating trough rate so the cycle mean stays RatePerS.
		low := c.RatePerS * (1 - c.Duty*c.BurstFactor) / (1 - c.Duty)
		if low < 0 {
			low = 0
		}
		return low
	case ArrivalDiurnal:
		phase := float64(t%c.Period) / float64(c.Period)
		return c.RatePerS * (1 + diurnalAmplitude*math.Sin(2*math.Pi*phase))
	}
	return c.RatePerS
}

// Times generates the arrival instants within [0, window), ascending. The
// modulated processes use Lewis-Shedler thinning against the peak-rate
// envelope, so every kind reduces to exponential draws from one seeded
// source and the sequence is reproducible.
func (c ArrivalConfig) Times(window sim.Duration) []sim.Time {
	c = c.withDefaults()
	if c.RatePerS <= 0 || window <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(c.Seed))
	peak := c.peakRate()
	meanGap := float64(sim.Second) / peak
	var out []sim.Time
	for t := sim.Duration(0); ; {
		t += sim.Duration(rng.ExpFloat64() * meanGap)
		if t >= window {
			return out
		}
		if c.Kind != ArrivalPoisson && rng.Float64()*peak > c.rateAt(t) {
			continue // thinned: candidate rejected at the current rate
		}
		out = append(out, sim.Time(t))
	}
}

// Zipf draws key indices in [0, n) with Zipfian popularity: the rank-r key
// has weight 1/(r+1)^Theta, YCSB's skew model. Theta in (0, 1] covers the
// usual benchmark range (math/rand's Zipf needs s > 1, so this rolls the
// cumulative-weight form). Theta 0 degenerates to uniform.
type Zipf struct {
	rng *rand.Rand
	cum []float64 // cumulative normalized weights, cum[n-1] == 1
}

// NewZipf builds a deterministic Zipfian sampler over n keys.
func NewZipf(seed int64, n int, theta float64) *Zipf {
	if n <= 0 {
		n = 1
	}
	z := &Zipf{rng: rand.New(rand.NewSource(seed)), cum: make([]float64, n)}
	total := 0.0
	for i := 0; i < n; i++ {
		total += 1 / math.Pow(float64(i+1), theta)
		z.cum[i] = total
	}
	for i := range z.cum {
		z.cum[i] /= total
	}
	return z
}

// Next returns the next key index: binary search of one uniform draw over
// the cumulative weights.
func (z *Zipf) Next() int {
	u := z.rng.Float64()
	lo, hi := 0, len(z.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// OpClass is the YCSB-style operation class of one generated request.
type OpClass int

// Operation classes.
const (
	ClassGet OpClass = iota
	ClassPut
	ClassDelete
)

func (c OpClass) String() string {
	switch c {
	case ClassPut:
		return "put"
	case ClassDelete:
		return "delete"
	}
	return "get"
}

// Mix is a YCSB-style read/write mix: ReadPct percent of requests are
// Gets; of the remaining writes, DeletePct percent are Deletes.
type Mix struct {
	ReadPct   int
	DeletePct int
}

// Pick draws one operation class from the mix.
func (m Mix) Pick(rng *rand.Rand) OpClass {
	if rng.Intn(100) < m.ReadPct {
		return ClassGet
	}
	if rng.Intn(100) < m.DeletePct {
		return ClassDelete
	}
	return ClassPut
}
