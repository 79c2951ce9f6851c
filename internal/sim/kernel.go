package sim

import (
	"fmt"
	"iter"
)

// event is a scheduled wake-up for a process. token guards against stale
// events: a process invalidates all of its outstanding events every time it
// wakes, so a wake-up scheduled for a state the process has since left is
// silently discarded.
type event struct {
	at    Time
	seq   uint64
	p     *Proc
	token uint64
}

// Kernel is the discrete-event scheduler. All simulation state hangs off a
// single Kernel; exactly one process runs at any moment, so process code can
// freely mutate shared simulation state without locks.
//
// There is one dispatch loop, and it runs on the goroutine that called
// RunUntil: a handler's step executes inline, a blocking proc's body is an
// iter.Pull coroutine the loop resumes, and control comes back to the loop
// when the body blocks or ends. A coroutine switch stays on one OS thread, so
// an event costs the same at any GOMAXPROCS, and a panic or runtime.Goexit
// (t.Fatal) inside a body surfaces on the RunUntil caller.
type Kernel struct {
	now      Time
	seq      uint64
	q        eventQueue
	ref      *refQueue // non-nil: use the container/heap oracle (testing)
	procs    []*Proc
	live     int
	cur      *Proc
	stopped  bool
	closed   bool
	callback bool // components should use run-to-completion handlers
	onClose  []func()

	tr *Trace
	sp *SpanTrace
	ks *KernelStats
}

// NewKernel returns an empty kernel at virtual time zero. Components built
// on it use run-to-completion handler procs for their reactive leaves (see
// CallbackMode); this is the fast configuration.
func NewKernel() *Kernel {
	return &Kernel{callback: true}
}

// NewReferenceKernel returns a kernel whose event queue is the seed's
// container/heap implementation and whose components use blocking goroutine
// procs everywhere (CallbackMode off). It exists as the dispatch-order
// oracle for the golden trace tests: the optimized kernel running handler
// state machines must dispatch the byte-identical event sequence this
// kernel produces from the original blocking code. Use NewKernel everywhere
// else.
func NewReferenceKernel() *Kernel {
	k := NewKernel()
	k.ref = &refQueue{}
	k.callback = false
	return k
}

// CallbackMode reports whether components should register their reactive
// leaf loops as run-to-completion handlers (SpawnHandler) instead of
// blocking procs (Spawn). Both forms must produce byte-identical dispatch
// traces; the handler just skips the coroutine switch per event. Only nand
// and device read it (CI checks): see the rule in handler.go.
func (k *Kernel) CallbackMode() bool { return k.callback }

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Live returns the number of processes that have not yet terminated.
func (k *Kernel) Live() int { return k.live }

func (k *Kernel) schedule(at Time, p *Proc) {
	if at < k.now {
		at = k.now
	}
	k.seq++
	e := event{at: at, seq: k.seq, p: p, token: p.token}
	if k.ref != nil {
		k.ref.push(e)
		return
	}
	k.q.push(e, k.now)
}

func (k *Kernel) qlen() int {
	if k.ref != nil {
		return k.ref.len()
	}
	return k.q.len()
}

func (k *Kernel) qpeek() (event, bool) {
	if k.ref != nil {
		return k.ref.peek()
	}
	return k.q.peek()
}

func (k *Kernel) qpop() event {
	if k.ref != nil {
		return k.ref.pop()
	}
	return k.q.pop()
}

// Spawn creates a new process named name running fn and schedules it to
// start at the current virtual time. It may be called before Run or from
// inside a running process.
func (k *Kernel) Spawn(name string, fn func(p *Proc)) *Proc {
	return k.spawn(name, -1, fn)
}

// SpawnIdx is Spawn with the name rendered lazily as prefix+idx: the
// formatting cost (one allocation per spawn) is paid only if something —
// tracing with retained records, a diagnostic panic — actually asks for the
// name. Hot spawn sites (per-chip, per-worker, per-client procs) use it so
// an untraced run never formats a name.
func (k *Kernel) SpawnIdx(prefix string, idx int, fn func(p *Proc)) *Proc {
	return k.spawn(prefix, idx, fn)
}

func (k *Kernel) spawn(prefix string, idx int, fn func(p *Proc)) *Proc {
	if k.closed {
		panic("sim: Spawn on closed kernel")
	}
	p := &Proc{
		k:       k,
		id:      len(k.procs),
		name:    prefix,
		nameIdx: idx,
		fn:      fn,
		state:   statePending,
	}
	k.procs = append(k.procs, p)
	k.live++
	if k.ks != nil {
		k.ks.Spawns.Add(1)
	}
	k.schedule(k.now, p)
	return p
}

// SpawnHandler registers a run-to-completion event handler: a process whose
// step function executes inline in the dispatch loop every time one of its
// events fires — no coroutine switch.
//
// A handler must never call the blocking APIs (Sleep, Advance, Suspend,
// Cond.Wait, Queue.Get, Mutex.Lock, Join); instead it arms exactly one
// continuation before returning: WakeIn (timer), Park (await an external
// Resume), Cond.Park / Queue.GetOrPark / Mutex.LockOrPark (one Mesa
// iteration each on the primitive's waitlist), or Complete (terminate).
// Returning without arming is equivalent to Park. Like Spawn, the handler's
// first activation is scheduled at the current virtual time.
func (k *Kernel) SpawnHandler(name string, step func(h *Proc)) *Proc {
	return k.spawnHandler(name, -1, step)
}

// SpawnHandlerIdx is SpawnHandler with a lazily rendered prefix+idx name.
func (k *Kernel) SpawnHandlerIdx(prefix string, idx int, step func(h *Proc)) *Proc {
	return k.spawnHandler(prefix, idx, step)
}

func (k *Kernel) spawnHandler(prefix string, idx int, step func(h *Proc)) *Proc {
	if k.closed {
		panic("sim: SpawnHandler on closed kernel")
	}
	p := &Proc{
		k:       k,
		id:      len(k.procs),
		name:    prefix,
		nameIdx: idx,
		step:    step,
		state:   statePending,
	}
	k.procs = append(k.procs, p)
	k.live++
	if k.ks != nil {
		k.ks.HandlerSpawns.Add(1)
	}
	k.schedule(k.now, p)
	return p
}

// Stop requests that the event loop return after the current process yields.
// It may only be called from inside a running process.
func (k *Kernel) Stop() { k.stopped = true }

// Run processes events until no runnable events remain or Stop is called.
// It returns the final virtual time. Processes that are suspended forever
// (daemons waiting on queues) do not keep Run alive; use Close to reap them.
func (k *Kernel) Run() Time { return k.RunUntil(MaxTime) }

// RunUntil processes events with timestamps <= t, then sets the clock to t
// if any events remain beyond it. A Stop ends it early with the clock left
// at the stopping process's instant. It returns the final virtual time.
//
// This is the dispatch loop: it pops the next live event and runs its
// process on the calling goroutine — a handler's step inline, a blocking
// proc by resuming its coroutine until the body blocks or ends.
func (k *Kernel) RunUntil(t Time) Time {
	if k.closed {
		panic("sim: RunUntil on closed kernel")
	}
	k.stopped = false
	for !k.stopped {
		e, ok := k.qpeek()
		if !ok {
			break
		}
		if e.at > t {
			k.now = t
			break
		}
		k.qpop()
		if e.p.state == stateDead || e.token != e.p.token {
			if k.ks != nil {
				k.ks.StaleEvents.Add(1)
			}
			continue // stale wake-up
		}
		k.now = e.at
		if k.tr != nil {
			k.tr.record(e)
		}
		if k.ks != nil {
			if e.p.step != nil {
				k.ks.HandlerDispatches.Add(1)
			} else {
				k.ks.GoroutineDispatches.Add(1)
			}
		}
		if k.sp != nil && k.sp.dispatches {
			k.sp.recs = append(k.sp.recs,
				spanRec{at: e.at, ph: 'i', cat: "sim", name: e.p.Name()})
		}
		p := e.p
		k.cur = p
		wasPending := p.state == statePending
		p.state = stateRunning
		p.wakeups++
		if p.step != nil {
			// Run-to-completion handler. Mirrors the blocking proc's wake
			// path: the token bump matches block()'s invalidate-on-wake
			// (first dispatches of blocking procs skip it too, since they
			// enter fn directly).
			if !wasPending {
				p.token++
			}
			p.armed = false
			p.step(p)
			if p.state == stateRunning {
				p.state = stateSuspended // bare return = Park
			}
			continue
		}
		if wasPending {
			// The body gets its coroutine at its first dispatch, so a proc
			// that never runs never has one to unwind.
			if k.ks != nil {
				k.ks.PoolMisses.Add(1)
			}
			p.resume, p.stop = iter.Pull(p.body)
		}
		p.resume()
	}
	k.cur = nil
	if !k.stopped && k.qlen() == 0 && t != MaxTime && t > k.now {
		k.now = t
	}
	return k.now
}

// OnClose registers fn to run when the kernel closes, after every process
// has retired: the end of life of whatever the kernel's components hold.
// Hooks run in registration order.
func (k *Kernel) OnClose(fn func()) {
	if k.closed {
		panic("sim: OnClose on closed kernel")
	}
	k.onClose = append(k.onClose, fn)
}

// Close terminates every live process: a parked body is unwound (its
// deferred calls run), a handler or a proc that never started is retired in
// place. Then it runs the OnClose hooks. The kernel must not be used
// afterwards. It is safe to call Close multiple times.
func (k *Kernel) Close() {
	if k.closed {
		return
	}
	k.closed = true
	for _, p := range k.procs {
		if p.state == stateDead {
			continue
		}
		if p.stop == nil {
			p.finish() // nothing to unwind
			continue
		}
		p.stop() // block() panics errKilled; body recovers it and finishes
	}
	if k.live != 0 {
		panic(fmt.Sprintf("sim: %d processes survived Close", k.live))
	}
	for _, fn := range k.onClose {
		fn()
	}
	k.onClose = nil
}
