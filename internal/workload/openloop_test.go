package workload

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/sim"
)

// Poisson arrivals: the inter-arrival mean must match 1/rate and, since
// exponential gaps have stddev == mean, the variance must match the square
// of the mean — both within a few percent over a long window.
func TestPoissonInterArrivalMoments(t *testing.T) {
	cfg := ArrivalConfig{Kind: ArrivalPoisson, RatePerS: 200_000, Seed: 7}
	times := cfg.Times(2 * sim.Second)
	if len(times) < 100_000 {
		t.Fatalf("expected ~400k arrivals, got %d", len(times))
	}
	gaps := make([]float64, 0, len(times))
	prev := sim.Time(0)
	for _, at := range times {
		gaps = append(gaps, sim.Duration(at-prev).Seconds())
		prev = at
	}
	mean := 0.0
	for _, g := range gaps {
		mean += g
	}
	mean /= float64(len(gaps))
	variance := 0.0
	for _, g := range gaps {
		variance += (g - mean) * (g - mean)
	}
	variance /= float64(len(gaps))

	wantMean := 1 / cfg.RatePerS
	if r := mean / wantMean; r < 0.98 || r > 1.02 {
		t.Errorf("inter-arrival mean %.3gs, want %.3gs (ratio %.3f)", mean, wantMean, r)
	}
	// Exponential: variance = mean^2.
	if r := variance / (wantMean * wantMean); r < 0.95 || r > 1.05 {
		t.Errorf("inter-arrival variance %.3g, want %.3g (ratio %.3f)",
			variance, wantMean*wantMean, r)
	}
}

// The bursty process must preserve the configured mean rate
// (TestBurstyDutyCycleShape checks that it actually modulates).
func TestModulatedArrivalsPreserveMeanRate(t *testing.T) {
	cfg := ArrivalConfig{Kind: ArrivalBursty, RatePerS: 100_000, Seed: 11}
	window := 2 * sim.Second
	times := cfg.Times(window)
	got := float64(len(times)) / window.Seconds()
	if r := got / cfg.RatePerS; r < 0.97 || r > 1.03 {
		t.Errorf("offered %.0f/s, want %.0f/s (ratio %.3f)", got, cfg.RatePerS, r)
	}
}

func TestBurstyDutyCycleShape(t *testing.T) {
	cfg := ArrivalConfig{Kind: ArrivalBursty, RatePerS: 200_000, Seed: 3}
	times := cfg.Times(sim.Second)
	inBurst := 0
	for _, at := range times {
		phase := float64(sim.Duration(at)%arrivalPeriod) / float64(arrivalPeriod)
		if phase < burstDuty {
			inBurst++
		}
	}
	// Duty 0.25 at 4x: the burst quarter carries all the traffic that the
	// compensating trough rate (exactly 0 here) does not — 100% of it.
	if frac := float64(inBurst) / float64(len(times)); frac < 0.99 {
		t.Errorf("burst phase carries %.1f%% of arrivals, want ~100%%", frac*100)
	}
}

// Zipfian popularity: empirical frequency must decrease with rank and match
// the theoretical head probabilities; rank-0 over rank-9 must show the
// configured skew.
func TestZipfRankFrequency(t *testing.T) {
	const n, draws = 1000, 500_000
	const theta = 0.99
	z := NewZipf(5, n, theta)
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[z.Next()]++
	}
	// Head probability: p(0) = (1/1^theta) / H(n, theta).
	h := 0.0
	for i := 1; i <= n; i++ {
		h += 1 / math.Pow(float64(i), theta)
	}
	p0 := float64(counts[0]) / draws
	want0 := 1 / h
	if r := p0 / want0; r < 0.95 || r > 1.05 {
		t.Errorf("rank-0 frequency %.4f, want %.4f (ratio %.3f)", p0, want0, r)
	}
	// Monotone-ish decay over decade ranks (sampling noise permits local
	// inversions, decades do not).
	for _, pair := range [][2]int{{0, 9}, {9, 99}, {99, 999}} {
		lo, hi := pair[0], pair[1]
		if counts[lo] <= counts[hi] {
			t.Errorf("rank %d count %d not above rank %d count %d", lo, counts[lo], hi, counts[hi])
		}
	}
	// rank0/rank9 ratio ~ 10^theta.
	ratio := float64(counts[0]) / float64(counts[9])
	want := math.Pow(10, theta)
	if r := ratio / want; r < 0.85 || r > 1.15 {
		t.Errorf("rank0/rank9 ratio %.2f, want %.2f", ratio, want)
	}
}

func TestZipfThetaZeroIsUniform(t *testing.T) {
	const n, draws = 16, 160_000
	z := NewZipf(9, n, 0)
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[z.Next()]++
	}
	for i, c := range counts {
		if c < draws/n*80/100 || c > draws/n*120/100 {
			t.Errorf("theta=0 key %d count %d, want ~%d", i, c, draws/n)
		}
	}
}

// Everything must be bit-deterministic under a fixed seed.
func TestGeneratorsDeterministicUnderSeed(t *testing.T) {
	for _, kind := range []ArrivalKind{ArrivalPoisson, ArrivalBursty} {
		cfg := ArrivalConfig{Kind: kind, RatePerS: 50_000, Seed: 42}
		a, b := cfg.Times(100*sim.Millisecond), cfg.Times(100*sim.Millisecond)
		if len(a) != len(b) {
			t.Fatalf("%v: lengths differ: %d vs %d", kind, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%v: arrival %d differs: %v vs %v", kind, i, a[i], b[i])
			}
		}
	}
	za, zb := NewZipf(42, 512, 0.9), NewZipf(42, 512, 0.9)
	for i := 0; i < 10_000; i++ {
		if a, b := za.Next(), zb.Next(); a != b {
			t.Fatalf("zipf draw %d differs: %d vs %d", i, a, b)
		}
	}
}

func TestMixPick(t *testing.T) {
	m := Mix{ReadPct: 50, DeletePct: 10}
	rng := rand.New(rand.NewSource(1))
	var gets, puts, dels int
	for i := 0; i < 100_000; i++ {
		switch m.Pick(rng) {
		case ClassGet:
			gets++
		case ClassPut:
			puts++
		default:
			dels++
		}
	}
	if gets < 49_000 || gets > 51_000 {
		t.Errorf("gets %d, want ~50000", gets)
	}
	// Deletes: 10% of the non-read half.
	if dels < 4_000 || dels > 6_000 {
		t.Errorf("deletes %d, want ~5000", dels)
	}
}

// TestKeyNames: every name in the one-string table equals the fmt.Sprintf
// form it replaces, also past the padding width.
func TestKeyNames(t *testing.T) {
	for _, c := range []struct {
		prefix   string
		width, n int
	}{{"u", 7, 4096}, {"k", 5, 4096}, {"k", 2, 150}, {"", 0, 11}} {
		names := KeyNames(c.prefix, c.width, c.n)
		if len(names) != c.n {
			t.Fatalf("%d names, want %d", len(names), c.n)
		}
		for k, got := range names {
			if want := fmt.Sprintf("%s%0*d", c.prefix, c.width, k); got != want {
				t.Fatalf("key %d: %q, want %q", k, got, want)
			}
		}
	}
}
