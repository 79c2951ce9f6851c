package crashmc

import (
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/jbd"
	"repro/internal/sim"
)

// A Workload is one crash experiment, declared once. Started on a fresh
// kernel it builds its stacks and spawns its procs; the function it returns
// is called at the crash instant and names the stack that loses power plus
// the Checkers holding the host-side history up to that instant.
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

// Enumerate is the one place power fails: run w to its crash instant,
// capture what the device still held volatile, cut the power, power the
// device back on (FTL mount-time recovery) and audit every crash state the
// device contract admits there over the recovered durable base, within
// cfg's budget.
func Enumerate(w Workload, cfg Config) Result {
	cfg = cfg.withDefaults()
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
	res.auditAll(cons, base, s.Profile.FS.Journal, checkers, cfg)
	return res
}
