package workload

import (
	"math"
	"math/rand"
	"strconv"
	"strings"

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
	// arrivalPeriod, the first burstDuty fraction runs at burstFactor times
	// the base rate and the remainder at a compensating low rate, preserving
	// the mean offered load.
	ArrivalBursty
)

func (k ArrivalKind) String() string {
	if k == ArrivalBursty {
		return "bursty"
	}
	return "poisson"
}

// The bursty process's shape. The float constants are typed, so folded
// constants round as float64 arithmetic does: seeded arrivals repeat.
const (
	// arrivalPeriod is the bursty cycle length.
	arrivalPeriod = 10 * sim.Millisecond
	// burstFactor is the bursty peak-rate multiplier and burstDuty the
	// fraction of a period spent at the peak. Their product is at most 1,
	// so the trough rate is never negative and the cycle mean is RatePerS.
	burstFactor float64 = 4
	burstDuty   float64 = 0.25
)

// ArrivalConfig parameterizes one arrival process.
type ArrivalConfig struct {
	Kind ArrivalKind
	// RatePerS is the mean offered rate in requests per second.
	RatePerS float64
	// Seed makes the generated arrival sequence deterministic.
	Seed int64
}

// peakRate returns the maximum instantaneous rate, the envelope the
// thinning sampler draws candidate arrivals at.
func (c ArrivalConfig) peakRate() float64 {
	if c.Kind == ArrivalBursty {
		return c.RatePerS * burstFactor
	}
	return c.RatePerS
}

// rateAt returns the instantaneous rate at time t from the window start.
func (c ArrivalConfig) rateAt(t sim.Duration) float64 {
	if c.Kind != ArrivalBursty {
		return c.RatePerS
	}
	phase := float64(t%arrivalPeriod) / float64(arrivalPeriod)
	if phase < burstDuty {
		return c.RatePerS * burstFactor
	}
	// Compensating trough rate so the cycle mean stays RatePerS.
	return c.RatePerS * (1 - burstDuty*burstFactor) / (1 - burstDuty)
}

// Times generates the arrival instants within [0, window), ascending. The
// bursty process uses Lewis-Shedler thinning against the peak-rate
// envelope, so every kind reduces to exponential draws from one seeded
// source and the sequence is reproducible.
func (c ArrivalConfig) Times(window sim.Duration) []sim.Time {
	if c.RatePerS <= 0 || window <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(c.Seed))
	peak := c.peakRate()
	meanGap := float64(sim.Second) / peak
	out := make([]sim.Time, 0, c.capacity(window))
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

// capacity sizes Times' slice: the mean arrival count in window plus four
// standard deviations, so it is allocated once but for a rare draw. The
// bursty process opens each period at its peak, so its count over a window
// runs ahead of RatePerS × window by at most one burst's excess.
func (c ArrivalConfig) capacity(window sim.Duration) int {
	span := window.Seconds()
	if c.Kind == ArrivalBursty {
		span += (burstFactor - 1) * burstDuty * arrivalPeriod.Seconds()
	}
	mean := c.RatePerS * span
	return int(mean+4*math.Sqrt(mean)) + 8
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

// KeyNames returns fmt.Sprintf("%s%0*d", prefix, width, k) for every key k
// below n, each a slice of one string built at once: the whole key space
// costs the names slice and that string.
func KeyNames(prefix string, width, n int) []string {
	var b strings.Builder
	b.Grow(n * (len(prefix) + width))
	var digits [20]byte
	names := make([]string, n)
	for k := range names {
		start := b.Len()
		b.WriteString(prefix)
		d := strconv.AppendInt(digits[:0], int64(k), 10)
		for range width - len(d) {
			b.WriteByte('0')
		}
		b.Write(d)
		names[k] = b.String()[start:] // a Builder never rewrites what it holds
	}
	return names
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
