package sim

// Handler continuation API. A run-to-completion handler (SpawnHandler)
// executes inline on the dispatching goroutine; instead of blocking it arms
// exactly one continuation per activation with the methods below and
// returns. The explicit Schedule/Park/Complete forms mirror the blocking
// primitives one-to-one:
//
//	blocking proc              handler equivalent
//	p.Sleep(d) / p.Advance(d)  h.WakeIn(d)                (one activation later)
//	p.Suspend()                h.Park() or bare return
//	cond.Wait(p)               cond.Park(h)               (one Mesa iteration)
//	queue.Get(p)               queue.GetOrPark(h)         (one Mesa iteration)
//	mu.Lock(p)                 mu.LockOrPark(h)           (one Mesa iteration)
//	return (proc body ends)    h.Complete()
//
// Because each blocking call maps to one continuation with identical
// waitlist and schedule effects, a component rewritten as a handler state
// machine produces the byte-identical dispatch trace of its blocking
// original (TestHandlerTraceParity checks that on a unit-scale network).
//
// The rule: a proc is a handler only if a named workload spends events in
// it; everything else is a blocking proc. Either way each proc is written
// once, and the frozen dispatch-trace goldens pin it across commits. The
// handlers are where the events are: NAND chips, device workers, writeback
// and reaper. A blocking proc converted to a handler replaces its original
// in the same change, with the goldens showing it dispatches as before.

// mustArm validates a continuation call: the proc must be a handler, must be
// the running process, and must not have armed a continuation already this
// activation.
func (p *Proc) mustArm() {
	if p.step == nil {
		panic("sim: handler-only continuation API on goroutine proc " + p.Name())
	}
	if p.k.cur != p || p.state != stateRunning {
		panic("sim: continuation armed by handler that is not running: " + p.Name())
	}
	if p.armed {
		panic("sim: handler armed two continuations in one activation: " + p.Name())
	}
	p.armed = true
}

// WakeIn schedules the handler's next activation d from now — the handler
// analogue of Sleep/Advance. d must be positive: Advance(d<=0) is a no-op
// in a blocking proc, so state machines skip the phase instead.
func (p *Proc) WakeIn(d Duration) {
	if d <= 0 {
		panic("sim: WakeIn of non-positive duration (mirror Advance by skipping the phase)")
	}
	p.mustArm()
	p.state = stateScheduled
	p.k.schedule(p.k.now.Add(d), p)
}

// Park leaves the handler suspended awaiting an external Resume — the
// handler analogue of Suspend. The waitlist primitives (Cond.Park,
// Queue.GetOrPark, Mutex.LockOrPark) call it internally; call it directly
// when the wake-up comes from a completion callback that will Resume this
// proc.
func (p *Proc) Park() {
	p.mustArm()
	p.state = stateSuspended
}

// Complete terminates the handler — the analogue of the proc body
// returning. Processes joined on it are woken; further activations are
// impossible.
func (p *Proc) Complete() {
	p.mustArm()
	p.finish()
}
