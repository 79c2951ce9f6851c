package sim

import (
	"errors"
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

type resumeMsg struct{ kill bool }

// errKilled unwinds a process goroutine when the kernel is closed.
var errKilled = errors.New("sim: process killed")

// worker is a pooled goroutine that executes process bodies. A worker is
// bound to one Proc at a time; when the proc terminates the worker parks on
// its resume channel and returns to the kernel's free pool, so the next
// Spawn reuses the goroutine and its channel instead of creating fresh
// ones. The channel is buffered (capacity 1) so a handoff never blocks the
// sender — the core of the single-switch dispatch protocol.
type worker struct {
	k      *Kernel
	resume chan resumeMsg
	p      *Proc // the proc this worker currently embodies; nil when pooled
	exit   bool  // set by finish (on this worker's goroutine) during Close
}

func (w *worker) loop() {
	defer func() {
		w.k.goroutines.Add(-1)
		w.k.wg.Done()
	}()
	for {
		msg := <-w.resume
		if msg.kill {
			if p := w.p; p != nil && p.state != stateDead {
				p.finish() // killed before its first dispatch
			}
			return
		}
		w.run(w.p)
		if w.exit {
			return
		}
	}
}

func (w *worker) run(p *Proc) {
	defer func() {
		if r := recover(); r != nil {
			if r != errKilled { //nolint:errorlint // sentinel identity check
				panic(r)
			}
		}
		p.finish()
	}()
	p.fn(p)
}

// Proc is a simulated thread of control, in one of two flavors:
//
//   - goroutine procs (Spawn): fn is the whole process body, running on a
//     pooled worker goroutine and blocking through Sleep/Suspend/Wait;
//   - run-to-completion handlers (SpawnHandler): step is invoked inline on
//     the dispatching goroutine at every activation and arms the next
//     continuation explicitly (WakeIn, Park, Cond.Park, Complete, ...).
//
// Methods must only be called while the proc is the running process, except
// where noted.
type Proc struct {
	k       *Kernel
	id      int
	name    string // full name, or the prefix while nameIdx >= 0
	nameIdx int    // lazy-name suffix; -1 once rendered (or when absent)
	fn      func(*Proc)
	step    func(*Proc) // handler step fn; nil for goroutine procs
	state   procState
	armed   bool // handler armed its continuation this activation
	w       *worker
	resume  chan resumeMsg // w.resume, cached to keep the hot path short
	token   uint64

	wakeups   int64 // times this process was dispatched
	volSwitch int64 // voluntary context switches (blocking waits)

	doneWaiters []*Proc
}

// Kernel returns the kernel this process belongs to.
func (p *Proc) Kernel() *Kernel { return p.k }

// ID returns the process's unique id (its spawn index).
func (p *Proc) ID() int { return p.id }

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

// Dead reports whether the process has terminated. Callable from anywhere.
func (p *Proc) Dead() bool { return p.state == stateDead }

// Wakeups returns the number of times the process has been dispatched by the
// kernel. The delta across an operation approximates the number of times the
// thread was switched in.
func (p *Proc) Wakeups() int64 { return p.wakeups }

// VoluntarySwitches returns the number of times the process has voluntarily
// blocked (Sleep, Suspend, queue/cond/semaphore waits). Advance does not
// count: it models computation, not blocking.
func (p *Proc) VoluntarySwitches() int64 { return p.volSwitch }

// finish retires a terminated process: waiters are woken, the worker
// returns to the pool, and the baton moves on. During Close the baton goes
// home to acknowledge the kill instead.
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
	w := p.w
	p.w = nil
	w.p = nil
	if p.k.closing {
		w.exit = true
		p.k.done <- struct{}{}
		return
	}
	p.k.pool = append(p.k.pool, w)
	p.k.next()
}

// block parks the process in the given state and hands control directly to
// the next runnable process (or back to the Run caller). It returns when
// this process is next dispatched.
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
	p.k.next()
	msg := <-p.resume
	p.token++ // invalidate any other outstanding wake-ups
	if msg.kill {
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
// is not a contended resource unless wrapped in a Semaphore), but the wait
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
