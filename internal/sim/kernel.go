package sim

import (
	"fmt"
	"iter"
	"sync"
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
	now     Time
	seq     uint64
	q       eventQueue
	procs   []*Proc
	slab    Slab[Proc] // every Proc of the kernel is carved here
	live    int
	cur     *Proc
	stopped bool
	closed  bool
	onClose []func()

	tr *Trace
	sp *SpanTrace
	ks *KernelStats
}

// NewKernel returns an empty kernel at virtual time zero, dispatching
// through the timer-wheel event queue. The queue's arrays are those of a
// closed kernel when one is free.
func NewKernel() *Kernel {
	k := &Kernel{}
	freeQueues.Lock()
	if n := len(freeQueues.list); n > 0 {
		k.q = freeQueues.list[n-1]
		freeQueues.list[n-1] = eventQueue{}
		freeQueues.list = freeQueues.list[:n-1]
	}
	freeQueues.Unlock()
	return k
}

// freeQueues holds the emptied event queues of closed kernels, wheel slots
// and heaps at the capacity their runs grew them to, so the next NewKernel
// schedules into arrays that are already there instead of growing some two
// hundred slices again. It is the event-queue sibling of nand's freeStores:
// kernels close and build on several goroutines at once (par.For), hence
// the mutex; a sync.Pool would not do, since the collection between one run
// and the next empties it. At most maxFreeQueues are kept, so a program
// that closes many kernels at once does not keep all their arrays.
var freeQueues struct {
	sync.Mutex
	list []eventQueue
}

const maxFreeQueues = 64

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

func (k *Kernel) schedule(at Time, p *Proc) {
	if at < k.now {
		at = k.now
	}
	k.seq++
	k.q.push(event{at: at, seq: k.seq, p: p, token: p.token}, k.now)
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
	p := k.slab.New(Proc{
		k:       k,
		id:      len(k.procs),
		idx:     idx,
		name:    prefix,
		nameIdx: idx,
		fn:      fn,
		state:   statePending,
	})
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
// The proc keeps idx (Proc.Idx), so n handlers serving n components of one
// array can share one step function that finds its component by index.
func (k *Kernel) SpawnHandlerIdx(prefix string, idx int, step func(h *Proc)) *Proc {
	return k.spawnHandler(prefix, idx, step)
}

func (k *Kernel) spawnHandler(prefix string, idx int, step func(h *Proc)) *Proc {
	if k.closed {
		panic("sim: SpawnHandler on closed kernel")
	}
	p := k.slab.New(Proc{
		k:       k,
		id:      len(k.procs),
		idx:     idx,
		name:    prefix,
		nameIdx: idx,
		step:    step,
		state:   statePending,
	})
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
		e, ok := k.q.peek()
		if !ok {
			break
		}
		if e.at > t {
			k.now = t
			break
		}
		k.q.pop()
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
	if !k.stopped && k.q.len() == 0 && t != MaxTime && t > k.now {
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
// place. Then it runs the OnClose hooks and hands the emptied event queue
// to the next NewKernel. The kernel must not be used afterwards. It is safe
// to call Close multiple times.
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
	k.q.reset()
	freeQueues.Lock()
	if len(freeQueues.list) < maxFreeQueues {
		freeQueues.list = append(freeQueues.list, k.q)
	}
	freeQueues.Unlock()
	k.q = eventQueue{}
}
