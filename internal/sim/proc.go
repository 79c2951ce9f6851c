package sim

import (
	"errors"
	"fmt"
	"runtime/debug"
	"strconv"
)

type procState int

const (
	statePending   procState = iota // spawned, not yet started
	stateRunning                    // currently executing
	stateScheduled                  // has a wake-up event in the queue
	stateSuspended                  // blocked with no pending event
	stateDead                       // terminated
)

func (s procState) String() string {
	switch s {
	case statePending:
		return "pending"
	case stateRunning:
		return "running"
	case stateScheduled:
		return "scheduled"
	case stateSuspended:
		return "suspended"
	case stateDead:
		return "dead"
	}
	return "invalid"
}

// errKilled unwinds a parked process body when the kernel is closed.
var errKilled = errors.New("sim: process killed")

// Proc is a simulated thread of control, in one of two flavors:
//
//   - blocking procs (Spawn; the "goroutine procs" of KernelStats): fn is
//     the whole process body, a coroutine that the dispatch loop resumes and
//     that yields back to it inside Sleep/Suspend/Wait;
//   - run-to-completion handlers (SpawnHandler): step is invoked inline by
//     the dispatch loop at every activation and arms the next continuation
//     explicitly (WakeIn, Park, Cond.Park, Complete, ...).
//
// Methods must only be called while the proc is the running process, except
// where noted.
type Proc struct {
	k       *Kernel
	id      int
	idx     int    // SpawnIdx/SpawnHandlerIdx index; -1 for Spawn/SpawnHandler
	name    string // full name, or the prefix while nameIdx >= 0
	nameIdx int    // lazy-name suffix; -1 once rendered (or when absent)
	fn      func(*Proc)
	step    func(*Proc) // handler step fn; nil for blocking procs
	state   procState
	armed   bool // handler armed its continuation this activation
	token   uint64

	// The body's coroutine (iter.Pull), nil until the first dispatch.
	resume func() (struct{}, bool) // run the body until it next blocks or ends
	yield  func(struct{}) bool     // return to the dispatch loop; false = killed
	stop   func()                  // make the parked yield return false

	wakeups   int64 // times this process was dispatched
	volSwitch int64 // voluntary context switches (blocking waits)

	doneWaiters []*Proc

	// The request-trace context of the work the proc is doing, the way pprof
	// labels belong to a goroutine. sim does not interpret it; ref holds a
	// pointer, which an interface stores without allocating.
	traceRef any
	traceGen uint32
}

// TraceSlot returns the proc's trace slot. Only reqtrace.Of calls it.
func (p *Proc) TraceSlot() (ref any, gen uint32) { return p.traceRef, p.traceGen }

// SetTraceSlot replaces the proc's trace slot. Only reqtrace.With calls it.
func (p *Proc) SetTraceSlot(ref any, gen uint32) { p.traceRef, p.traceGen = ref, gen }

// Kernel returns the kernel this process belongs to.
func (p *Proc) Kernel() *Kernel { return p.k }

// ID returns the process's unique id (its place in the kernel's spawn
// order).
func (p *Proc) ID() int { return p.id }

// Idx returns the index the process was spawned with (SpawnIdx,
// SpawnHandlerIdx), or -1 if it was spawned without one. Rendering the name
// does not change it.
func (p *Proc) Idx() int { return p.idx }

// Name returns the process name. Lazily named procs (SpawnIdx) render and
// cache prefix+idx on first call.
func (p *Proc) Name() string {
	if p.nameIdx >= 0 {
		p.name += strconv.Itoa(p.nameIdx)
		p.nameIdx = -1
	}
	return p.name
}

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.k.now }

// VoluntarySwitches returns the number of times the process has voluntarily
// blocked (Sleep, Suspend, queue/cond/mutex waits). Advance does not
// count: it models computation, not blocking.
func (p *Proc) VoluntarySwitches() int64 { return p.volSwitch }

// body is the coroutine a blocking proc runs as. finish runs however fn
// ends — return, Close's errKilled, a real panic, or runtime.Goexit — so the
// proc is dead and Close still works; the last two then carry on to the
// RunUntil caller, by iter.Pull's contract.
func (p *Proc) body(yield func(struct{}) bool) {
	p.yield = yield
	defer func() {
		p.finish()
		if r := recover(); r != nil && r != errKilled { //nolint:errorlint // sentinel identity check
			// iter.Pull re-raises on the RunUntil caller, whose stack does
			// not show where the body was: carry the body's stack along.
			panic(fmt.Sprintf("%v [in sim proc %s]\n%s", r, p.Name(), debug.Stack()))
		}
	}()
	p.fn(p)
}

// finish retires a terminated process and wakes the processes joined on it.
func (p *Proc) finish() {
	p.state = stateDead
	p.token++
	p.k.live--
	for _, w := range p.doneWaiters {
		if w.state == stateSuspended {
			w.state = stateScheduled
			p.k.schedule(p.k.now, w)
		}
	}
	p.doneWaiters = nil
}

// block parks the process in the given state and yields to the dispatch
// loop. It returns when this process is next dispatched.
func (p *Proc) block(next procState, voluntary bool) {
	if p.step != nil {
		panic("sim: blocking call from run-to-completion handler " + p.Name())
	}
	if p.k.cur != p {
		panic("sim: blocking call from process that is not running: " + p.Name())
	}
	p.state = next
	if voluntary {
		p.volSwitch++
	}
	alive := p.yield(struct{}{})
	p.token++ // invalidate any other outstanding wake-ups
	if !alive {
		panic(errKilled)
	}
	p.state = stateRunning
}

// Sleep blocks the process for d of virtual time. This models a genuine
// blocking wait (timer, IO completion poll) and counts as a voluntary
// context switch.
func (p *Proc) Sleep(d Duration) {
	p.k.schedule(p.k.now.Add(d), p)
	p.block(stateScheduled, true)
}

// Advance moves the process d of virtual time forward, modelling on-CPU
// computation. Other processes may run in the meantime (the simulated CPU
// is not a contended resource unless wrapped in a Mutex), but the wait
// is not counted as a context switch.
func (p *Proc) Advance(d Duration) {
	if d <= 0 {
		return
	}
	p.k.schedule(p.k.now.Add(d), p)
	p.block(stateScheduled, false)
}

// Suspend blocks the process indefinitely until another process calls
// Resume on it.
func (p *Proc) Suspend() {
	p.block(stateSuspended, true)
}

// Resume schedules a suspended process to run at the current virtual time.
// It must be called from outside target's goroutine (from another process or
// before Run). Resuming a process that is not suspended panics: it indicates
// a lost-wakeup bug in the caller.
func (k *Kernel) Resume(target *Proc) {
	if target.state != stateSuspended {
		panic("sim: Resume of non-suspended process " + target.Name() + " in state " + target.state.String())
	}
	target.state = stateScheduled
	k.schedule(k.now, target)
}

// Join blocks until target terminates. Joining a dead process returns
// immediately.
func (p *Proc) Join(target *Proc) {
	if target.state == stateDead {
		return
	}
	target.doneWaiters = append(target.doneWaiters, p)
	p.Suspend()
}
