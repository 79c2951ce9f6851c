package sim

import (
	"runtime"
	"strings"
	"testing"
)

// TestCondMixedWakeups pins that a Cond waitlist holding both a blocked
// goroutine proc and a parked handler wakes them in FIFO order, whichever
// kind is in front.
func TestCondMixedWakeups(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	cond := NewCond(k)
	var order []string

	// gor parks first, handler second.
	k.Spawn("gor", func(p *Proc) {
		cond.Wait(p)
		order = append(order, "gor")
	})
	k.SpawnHandler("hand", func(h *Proc) {
		if len(order) == 0 || order[len(order)-1] != "hand" {
			// First activation parks; the wake-up records and completes.
			if h.Wakeups() == 1 {
				cond.Park(h)
				return
			}
		}
		order = append(order, "hand")
		h.Complete()
	})
	k.Spawn("signaller", func(p *Proc) {
		p.Sleep(Millisecond)
		cond.Signal() // wakes gor (FIFO head)
		p.Sleep(Millisecond)
		cond.Signal() // wakes hand
	})
	k.Run()
	if got := strings.Join(order, ","); got != "gor,hand" {
		t.Fatalf("wake order = %q, want gor,hand", got)
	}
	if cond.Waiters() != 0 {
		t.Fatalf("waiters left = %d", cond.Waiters())
	}
}

// TestCondBroadcastMixed pins Broadcast waking both kinds at once.
func TestCondBroadcastMixed(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	cond := NewCond(k)
	woken := 0
	k.SpawnHandler("hand", func(h *Proc) {
		if h.Wakeups() == 1 {
			cond.Park(h)
			return
		}
		woken++
		h.Complete()
	})
	k.Spawn("gor", func(p *Proc) {
		cond.Wait(p)
		woken++
	})
	k.Spawn("caster", func(p *Proc) {
		p.Sleep(Millisecond)
		cond.Broadcast()
	})
	k.Run()
	if woken != 2 {
		t.Fatalf("woken = %d, want 2", woken)
	}
}

// TestSemaphoreMixedWaiters drives a single-slot semaphore contended by a
// handler and a goroutine proc: FIFO release order must hold across kinds,
// and a handler's AcquireOrPark must re-contend exactly like a woken
// Acquire loop.
func TestSemaphoreMixedWaiters(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	sem := NewSemaphore(k, 1)
	var order []string

	k.Spawn("holder", func(p *Proc) {
		sem.Acquire(p, 1)
		p.Sleep(2 * Millisecond)
		sem.Release(1)
	})
	// After holder has the slot, queue a handler then a goroutine waiter.
	k.Spawn("setup", func(p *Proc) {
		p.Sleep(Millisecond)
		k.SpawnHandler("hand", func(h *Proc) {
			if !sem.AcquireOrPark(h, 1) {
				return
			}
			order = append(order, "hand")
			sem.Release(1)
			h.Complete()
		})
		k.Spawn("gor", func(p2 *Proc) {
			p2.Sleep(Microsecond) // arrive after the handler
			sem.Acquire(p2, 1)
			order = append(order, "gor")
			sem.Release(1)
		})
	})
	k.Run()
	if got := strings.Join(order, ","); got != "hand,gor" {
		t.Fatalf("acquisition order = %q, want hand,gor", got)
	}
	if sem.Avail() != 1 {
		t.Fatalf("avail = %d, want 1", sem.Avail())
	}
}

// TestQueueMixedConsumers feeds a queue drained by one handler and one
// goroutine proc; every item must be delivered exactly once and the parked
// consumer of either kind must be woken by Put.
func TestQueueMixedConsumers(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	q := NewQueue[int](k)
	got := make(map[int]int)
	k.SpawnHandler("hand", func(h *Proc) {
		for {
			x, ok, closed := q.GetOrPark(h)
			if closed {
				h.Complete()
				return
			}
			if !ok {
				return // parked
			}
			got[x]++
		}
	})
	k.Spawn("gor", func(p *Proc) {
		for {
			x, ok := q.Get(p)
			if !ok {
				return
			}
			got[x]++
		}
	})
	k.Spawn("producer", func(p *Proc) {
		for i := 0; i < 100; i++ {
			q.Put(i)
			if i%3 == 0 {
				p.Sleep(Microsecond)
			}
		}
		p.Sleep(Millisecond)
		q.Close()
	})
	k.Run()
	if len(got) != 100 {
		t.Fatalf("delivered %d distinct items, want 100", len(got))
	}
	for i, n := range got {
		if n != 1 {
			t.Fatalf("item %d delivered %d times", i, n)
		}
	}
}

// TestHandlerTimerAndJoin pins WakeIn pacing, Complete, and Join on
// a handler from a goroutine proc.
func TestHandlerTimerAndJoin(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	ticks := 0
	hand := k.SpawnHandler("ticker", func(h *Proc) {
		ticks++
		if ticks == 5 {
			h.Complete()
			return
		}
		h.WakeIn(Millisecond)
	})
	joined := false
	k.Spawn("joiner", func(p *Proc) {
		p.Join(hand)
		joined = true
		if p.Now() != Time(4*Millisecond) {
			t.Errorf("joined at %v, want 4ms", p.Now())
		}
	})
	k.Run()
	if ticks != 5 || !joined {
		t.Fatalf("ticks=%d joined=%v", ticks, joined)
	}
	if !hand.Dead() {
		t.Fatal("handler not dead after Complete")
	}
	if k.Live() != 0 {
		t.Fatalf("live = %d, want 0", k.Live())
	}
}

// TestHandlerZeroGoroutines pins the point of the exercise: a handler-only
// kernel starts no goroutine (or coroutine) at all, by the runtime's count.
func TestHandlerZeroGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	k := NewKernel()
	defer k.Close()
	n := 0
	k.SpawnHandler("h", func(h *Proc) {
		n++
		if n < 100 {
			h.WakeIn(Microsecond)
			return
		}
		h.Complete()
	})
	k.Run()
	if g := runtime.NumGoroutine() - base; g != 0 {
		t.Fatalf("goroutines started = %d, want 0 for a handler-only kernel", g)
	}
	if n != 100 {
		t.Fatalf("activations = %d", n)
	}
}

// TestCloseRetiresParkedHandlers pins Close reaping handlers parked in
// every reachable state alongside goroutine procs.
func TestCloseRetiresParkedHandlers(t *testing.T) {
	base := runtime.NumGoroutine()
	k := NewKernel()
	cond := NewCond(k)
	q := NewQueue[int](k)
	sem := NewSemaphore(k, 1)
	k.SpawnHandler("parked", func(h *Proc) { cond.Park(h) })
	k.SpawnHandler("queued", func(h *Proc) { q.GetOrPark(h) })
	k.SpawnHandler("sem", func(h *Proc) {
		if sem.AcquireOrPark(h, 1) {
			h.WakeIn(Second)
		}
	})
	k.SpawnHandler("semwait", func(h *Proc) { sem.AcquireOrPark(h, 1) })
	k.SpawnHandler("sleeper", func(h *Proc) { h.WakeIn(Second) })
	k.Spawn("gor", func(p *Proc) { cond.Wait(p) })
	k.RunUntil(Time(10 * Millisecond))
	// A handler spawned but never dispatched (pending).
	k.SpawnHandler("pending", func(h *Proc) { panic("pending handler must never run") })
	k.Close()
	if got := k.Live(); got != 0 {
		t.Errorf("live procs after Close = %d, want 0", got)
	}
	if got := runtime.NumGoroutine() - base; got != 0 {
		t.Errorf("goroutines left after Close = %d, want 0", got)
	}
}

// TestHandlerBlockingCallPanics pins the guard against a handler using the
// blocking API.
func TestHandlerBlockingCallPanics(t *testing.T) {
	k := NewKernel()
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("expected panic from Sleep inside a handler")
		}
	}()
	k.SpawnHandler("bad", func(h *Proc) { h.Sleep(Millisecond) })
	k.Run()
}

// TestHandlerDoubleArmPanics pins the one-continuation-per-activation rule.
func TestHandlerDoubleArmPanics(t *testing.T) {
	k := NewKernel()
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("expected panic from arming two continuations")
		}
	}()
	k.SpawnHandler("bad", func(h *Proc) {
		h.WakeIn(Millisecond)
		h.WakeIn(Millisecond)
	})
	k.Run()
}

// TestHandlerTraceParity runs the same mixed producer/consumer network as
// goroutine procs on the reference kernel and as handlers on the optimized
// kernel and requires byte-identical dispatch traces — the unit-scale
// version of the golden workload tests.
func TestHandlerTraceParity(t *testing.T) {
	run := func(k *Kernel) *Trace {
		defer k.Close()
		tr := k.StartTrace(false)
		q := NewQueue[int](k)
		sem := NewSemaphore(k, 2)
		cond := NewCond(k)
		done := 0
		// Consumer: take an item, hold a slot for 3µs, signal.
		if k.CallbackMode() {
			type sm struct{ phase, item int }
			for c := 0; c < 3; c++ {
				s := &sm{}
				k.SpawnHandlerIdx("consumer", c, func(h *Proc) {
					for {
						switch s.phase {
						case 0:
							x, ok, closed := q.GetOrPark(h)
							if closed {
								h.Complete()
								return
							}
							if !ok {
								return
							}
							s.item = x
							s.phase = 1
						case 1:
							if !sem.AcquireOrPark(h, 1) {
								return
							}
							s.phase = 2
							h.WakeIn(3 * Microsecond)
							return
						case 2:
							sem.Release(1)
							done += s.item
							cond.Signal()
							s.phase = 0
						}
					}
				})
			}
		} else {
			for c := 0; c < 3; c++ {
				k.SpawnIdx("consumer", c, func(p *Proc) {
					for {
						x, ok := q.Get(p)
						if !ok {
							return
						}
						sem.Acquire(p, 1)
						p.Advance(3 * Microsecond)
						sem.Release(1)
						done += x
						cond.Signal()
					}
				})
			}
		}
		k.Spawn("producer", func(p *Proc) {
			for i := 1; i <= 50; i++ {
				q.Put(i)
				if i%5 == 0 {
					p.Sleep(Microsecond)
				}
			}
			q.Close()
		})
		k.Run()
		if done != 50*51/2 {
			t.Fatalf("done = %d, want %d", done, 50*51/2)
		}
		return tr
	}
	opt := run(NewKernel())
	ref := run(NewReferenceKernel())
	if opt.Len() != ref.Len() || opt.Hash() != ref.Hash() {
		t.Fatalf("handler net diverges from goroutine net: (n=%d h=%x) vs (n=%d h=%x)",
			opt.Len(), opt.Hash(), ref.Len(), ref.Hash())
	}
}
