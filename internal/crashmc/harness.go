package crashmc

import (
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/jbd"
	"repro/internal/metrics"
	"repro/internal/par"
	"repro/internal/sim"
)

// A Workload is one crash experiment, declared once and run under either
// quantifier. Started on a fresh kernel it builds its stacks and spawns
// its procs; the function it returns is called at the crash instant and
// names the stack that loses power plus the Checkers holding the host-side
// history up to that instant.
//
// Power fails when the kernel stops: at Config.CrashAt, or earlier at the
// point where a workload proc calls k.Stop() (and then parks or returns).
// A virtual time, a program point inside the workload ("the instant
// fdatasync's promise is made") and a polled condition (a watcher proc
// that sleeps until it holds) are therefore the same thing to the driver.
type Workload func(k *sim.Kernel) (victim func() (*core.Stack, []Checker))

// A Part is one writer of a single-stack workload: it spawns its procs on
// s and returns the checkers they feed. Parts compose — OnStack runs any
// number side by side on one stack and audits all their checkers.
type Part func(k *sim.Kernel, s *core.Stack) []Checker

// OnStack is the workload that builds one stack of profile prof, runs
// parts on it and cuts that stack's power.
func OnStack(prof core.Profile, parts ...Part) Workload {
	return func(k *sim.Kernel) func() (*core.Stack, []Checker) {
		s := core.NewStack(k, prof)
		var checkers []Checker
		for _, part := range parts {
			checkers = append(checkers, part(k, s)...)
		}
		return func() (*core.Stack, []Checker) { return s, checkers }
	}
}

// Enumerate runs w to its crash instant and audits every crash state the
// device contract admits there, within cfg's budget.
func Enumerate(w Workload, cfg Config) Result { return crash(w, cfg.withDefaults(), true) }

// Sample runs w to the crash instant at and audits the one state the
// simulator produced.
func Sample(w Workload, at sim.Time) Result { return crash(w, Config{CrashAt: at}, false) }

// Sweep samples w at each crash instant. Every sample owns a private
// kernel, so the sweep fans out across CPUs.
func Sweep(w Workload, times []sim.Time) []Result {
	out := make([]Result, len(times))
	par.For(len(times), func(i int) { out[i] = Sample(w, times[i]) })
	return out
}

// crash is the one place power fails: run the workload to the crash
// instant, capture what the device still held volatile, cut the power,
// power the device back on (FTL mount-time recovery) and audit — every
// admissible cut over the recovered durable base, or the base alone, which
// is the state the simulator itself produced.
func crash(w Workload, cfg Config, every bool) Result {
	k := sim.NewKernel()
	defer k.Close()
	victim := w(k)
	k.RunUntil(cfg.CrashAt)
	s, checkers := victim()
	res := Result{Profile: s.Profile.Name, CrashAt: k.Now()}
	cons := s.Dev.CaptureConstraints()
	s.Crash()
	var base jbd.ReadFn
	k.Spawn("recover", func(p *sim.Proc) { base = device.Recover(p, s.Dev).DurableData })
	k.Run()

	res.Volatile = len(cons.Writes)
	streams := make(map[uint64]struct{})
	for _, vw := range cons.Writes {
		streams[vw.Stream] = struct{}{}
	}
	res.Streams = len(streams)
	if every {
		res.auditAll(cons, base, s.Profile.FS.Journal, checkers, cfg)
		return res
	}
	// Live-stats progress: every sampled state in the process bumps the
	// process-wide registry's counter (nil-safe when none is installed).
	metrics.Resolve(nil).Counter("crashmc/samples").Inc()
	res.StatesExplored = 1
	res.audit(base, s.Profile.FS.Journal, baseID, checkers)
	return res
}
