// Package fault is a deterministic, seeded fault-plan engine for the
// device stack. A Plan declares which failure modes a device personality
// exhibits — media read errors (UNC sectors with a read-retry latency
// ladder), transient program failures, GC-interference latency spikes,
// and a PLP-failure model where the writeback cache may drain only a
// prefix at power loss. The device/nand/ftl layers consume the plan
// through an Injector whose draws come from a counter-based splitmix64
// stream, so a given (plan, seed) produces the identical fault sequence on
// every run and on every kernel flavor.
//
// Every Injector method is nil-safe and returns the no-fault answer on a
// nil receiver: a stack built without a plan makes zero draws and zero
// extra calls, which is what keeps the golden dispatch traces bit-identical
// with injection disabled.
package fault

import (
	"errors"

	"repro/internal/sim"
)

// ErrUNC is the media read error: an uncorrectable sector that survived
// the device's internal read-retry ladder. It is retryable from the host
// side — a later attempt re-enters the ladder and may succeed.
var ErrUNC = errors.New("fault: uncorrectable media error")

// Plan declares a device's failure personality. The zero value injects
// nothing.
type Plan struct {
	// Seed selects the deterministic draw stream. Two devices with the
	// same plan and seed fail identically.
	Seed uint64

	// ReadUNCProb is the probability that one NAND read attempt hits an
	// uncorrectable error after exhausting the read-retry ladder.
	ReadUNCProb float64
	// ReadRetryLadder is the extra latency charged per internal read-retry
	// step. Each read attempt that needs retries (RetryProb per attempt)
	// climbs a seeded number of rungs and pays their sum.
	ReadRetryLadder []sim.Duration
	// ReadRetryProb is the probability a read attempt needs the retry
	// ladder at all (latency-only; the read still succeeds unless the UNC
	// draw also fires).
	ReadRetryProb float64

	// ProgramTransientProb is the probability one page program needs an
	// in-chip retry; retries re-pay the cell program time. The page is
	// never lost — transient program failures are latency + wear, the host
	// only observes them through the counters.
	ProgramTransientProb float64
	// ProgramMaxRetries bounds the in-chip retries per program (default 1).
	ProgramMaxRetries int

	// GCPeriod/GCDuration/GCReadFactor/GCProgramFactor model garbage-
	// collection interference: during the first GCDuration of every
	// GCPeriod, NAND read and program latencies are scaled by their
	// factor. Purely time-windowed — no draws — so interference windows
	// line up across runs and across shards.
	GCPeriod        sim.Duration
	GCDuration      sim.Duration
	GCReadFactor    float64
	GCProgramFactor float64

	// PLPFailure models a supercap that dies mid-drain: at power loss the
	// writeback cache persists only a prefix of its entries in transfer
	// order, instead of PLP's all-or-nothing guarantee. The crash-state
	// model checker sees a *chain* constraint DAG (every transfer-order
	// prefix is admissible); a concrete Crash() drains the empty prefix,
	// so the recovered base is the state with nothing drained.
	PLPFailure bool
}

// Stats counts the faults an injector has delivered.
type Stats struct {
	ReadUNCs       int64 // read attempts that returned ErrUNC
	ReadRetries    int64 // read-retry ladder rungs climbed
	ProgramRetries int64 // in-chip program retries
}

// Injector is the per-device draw stream over one Plan. Not safe for
// concurrent use; each simulated device owns its own injector (kernels
// are single-threaded, so no locking is needed inside one).
type Injector struct {
	plan  Plan
	ctr   uint64
	stats Stats
}

// New builds an injector for plan; a nil plan yields a nil injector, and
// every method on a nil injector is the identity/no-fault answer.
func New(plan *Plan) *Injector {
	if plan == nil {
		return nil
	}
	p := *plan
	if p.ProgramMaxRetries <= 0 {
		p.ProgramMaxRetries = 1
	}
	return &Injector{plan: p}
}

// splitmix64 finalizer: the counter-based draw primitive.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// draw returns the next uniform value in [0,1).
func (in *Injector) draw() float64 {
	in.ctr++
	return float64(mix(in.plan.Seed^in.ctr)>>11) / float64(1<<53)
}

// Read draws one NAND read attempt's fault outcome: extra retry-ladder
// latency plus ErrUNC if the attempt is uncorrectable. Nil-safe.
func (in *Injector) Read() (extra sim.Duration, err error) {
	if in == nil {
		return 0, nil
	}
	if in.plan.ReadRetryProb > 0 && len(in.plan.ReadRetryLadder) > 0 &&
		in.draw() < in.plan.ReadRetryProb {
		// Climb a seeded number of rungs: each subsequent rung is reached
		// with the same per-step probability, bounded by the ladder.
		for _, step := range in.plan.ReadRetryLadder {
			extra += step
			in.stats.ReadRetries++
			if in.draw() >= in.plan.ReadRetryProb {
				break
			}
		}
	}
	if in.plan.ReadUNCProb > 0 && in.draw() < in.plan.ReadUNCProb {
		in.stats.ReadUNCs++
		err = ErrUNC
	}
	return extra, err
}

// ProgramRetries draws the in-chip retry count for one page program.
func (in *Injector) ProgramRetries() int {
	if in == nil || in.plan.ProgramTransientProb <= 0 {
		return 0
	}
	n := 0
	for n < in.plan.ProgramMaxRetries && in.draw() < in.plan.ProgramTransientProb {
		n++
	}
	in.stats.ProgramRetries += int64(n)
	return n
}

// GCReadScale returns the GC-interference read-latency multiplier at now.
// Purely time-windowed: no draw.
func (in *Injector) GCReadScale(now sim.Time) float64 {
	if in == nil || in.plan.GCPeriod <= 0 || in.plan.GCReadFactor <= 1 {
		return 1
	}
	if sim.Duration(now%sim.Time(in.plan.GCPeriod)) < in.plan.GCDuration {
		return in.plan.GCReadFactor
	}
	return 1
}

// GCProgramScale returns the GC-interference program-latency multiplier.
func (in *Injector) GCProgramScale(now sim.Time) float64 {
	if in == nil || in.plan.GCPeriod <= 0 || in.plan.GCProgramFactor <= 1 {
		return 1
	}
	if sim.Duration(now%sim.Time(in.plan.GCPeriod)) < in.plan.GCDuration {
		return in.plan.GCProgramFactor
	}
	return 1
}

// PLPFailure reports whether the plan models a dying supercap.
func (in *Injector) PLPFailure() bool { return in != nil && in.plan.PLPFailure }
