package sim

import (
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
			if h.wakeups == 1 {
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
		if h.wakeups == 1 {
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

// TestMutexMixedWaiters drives a mutex contended by a handler and a
// goroutine proc: FIFO wake order must hold across kinds, and a handler's
// LockOrPark must re-contend exactly like a woken Lock loop.
func TestMutexMixedWaiters(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	mu := NewMutex(k)
	var order []string

	k.Spawn("holder", func(p *Proc) {
		mu.Lock(p)
		p.Sleep(2 * Millisecond)
		mu.Unlock()
	})
	// After holder has the slot, queue a handler then a goroutine waiter.
	k.Spawn("setup", func(p *Proc) {
		p.Sleep(Millisecond)
		k.SpawnHandler("hand", func(h *Proc) {
			if !mu.LockOrPark(h) {
				return
			}
			order = append(order, "hand")
			mu.Unlock()
			h.Complete()
		})
		k.Spawn("gor", func(p2 *Proc) {
			p2.Sleep(Microsecond) // arrive after the handler
			mu.Lock(p2)
			order = append(order, "gor")
			mu.Unlock()
		})
	})
	k.Run()
	if got := strings.Join(order, ","); got != "hand,gor" {
		t.Fatalf("lock order = %q, want hand,gor", got)
	}
	if mu.held {
		t.Fatal("mutex still held after every holder unlocked")
	}
}

// TestQueueMixedConsumers feeds a queue drained by one handler and one
// goroutine proc; every item must be delivered exactly once and the parked
// consumer of either kind must be woken by Put.
func TestQueueMixedConsumers(t *testing.T) {
	const items = 100
	k := NewKernel()
	defer k.Close()
	q := NewQueue[int](k)
	got := make(map[int]int)
	delivered := 0
	k.SpawnHandler("hand", func(h *Proc) {
		for delivered < items {
			x, ok := q.GetOrPark(h)
			if !ok {
				return // parked
			}
			got[x]++
			delivered++
		}
		h.Complete()
	})
	k.Spawn("gor", func(p *Proc) {
		for delivered < items {
			got[q.Get(p)]++
			delivered++
		}
	})
	k.Spawn("producer", func(p *Proc) {
		for i := 0; i < items; i++ {
			q.Put(i)
			if i%3 == 0 {
				p.Sleep(Microsecond)
			}
		}
	})
	k.Run()
	if len(got) != items {
		t.Fatalf("delivered %d distinct items, want %d", len(got), items)
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
	if hand.state != stateDead {
		t.Fatal("handler not dead after Complete")
	}
	if k.live != 0 {
		t.Fatalf("live = %d, want 0", k.live)
	}
}

// TestHandlerZeroGoroutines pins the point of the exercise: a handler-only
// kernel starts no goroutine (or coroutine) at all, by the runtime's count.
func TestHandlerZeroGoroutines(t *testing.T) {
	base := goroutines()
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
	if g := goroutines() - base; g != 0 {
		t.Fatalf("goroutines started = %d, want 0 for a handler-only kernel", g)
	}
	if n != 100 {
		t.Fatalf("activations = %d", n)
	}
}

// TestCloseRetiresParkedHandlers pins Close reaping handlers parked in
// every reachable state alongside goroutine procs.
func TestCloseRetiresParkedHandlers(t *testing.T) {
	base := goroutines()
	k := NewKernel()
	cond := NewCond(k)
	q := NewQueue[int](k)
	mu := NewMutex(k)
	k.SpawnHandler("parked", func(h *Proc) { cond.Park(h) })
	k.SpawnHandler("queued", func(h *Proc) { q.GetOrPark(h) })
	k.SpawnHandler("mutex", func(h *Proc) {
		if mu.LockOrPark(h) {
			h.WakeIn(Second)
		}
	})
	k.SpawnHandler("mutexwait", func(h *Proc) { mu.LockOrPark(h) })
	k.SpawnHandler("sleeper", func(h *Proc) { h.WakeIn(Second) })
	k.Spawn("gor", func(p *Proc) { cond.Wait(p) })
	k.RunUntil(Time(10 * Millisecond))
	// A handler spawned but never dispatched (pending).
	k.SpawnHandler("pending", func(h *Proc) { panic("pending handler must never run") })
	k.Close()
	if got := k.live; got != 0 {
		t.Errorf("live procs after Close = %d, want 0", got)
	}
	if got := goroutines() - base; got != 0 {
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
// goroutine procs and as handlers and requires byte-identical dispatch
// traces: the contract of the continuation API (handler.go), that a
// blocking proc rewritten as a handler state machine dispatches as its
// original did.
func TestHandlerTraceParity(t *testing.T) {
	run := func(handlers bool) *Trace {
		k := NewKernel()
		defer k.Close()
		tr := k.StartTrace(false)
		const items = 50
		q := NewQueue[int](k)
		mu := NewMutex(k)
		cond := NewCond(k)
		done, taken := 0, 0
		// Consumer: take an item, hold the mutex for 3µs, signal. Consumers
		// stop once every item is taken; the rest stay parked in Get.
		if handlers {
			type sm struct{ phase, item int }
			for c := 0; c < 3; c++ {
				s := &sm{}
				k.SpawnHandlerIdx("consumer", c, func(h *Proc) {
					for {
						switch s.phase {
						case 0:
							if taken == items {
								h.Complete()
								return
							}
							x, ok := q.GetOrPark(h)
							if !ok {
								return
							}
							taken++
							s.item = x
							s.phase = 1
						case 1:
							if !mu.LockOrPark(h) {
								return
							}
							s.phase = 2
							h.WakeIn(3 * Microsecond)
							return
						case 2:
							mu.Unlock()
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
					for taken < items {
						x := q.Get(p)
						taken++
						mu.Lock(p)
						p.Advance(3 * Microsecond)
						mu.Unlock()
						done += x
						cond.Signal()
					}
				})
			}
		}
		k.Spawn("producer", func(p *Proc) {
			for i := 1; i <= items; i++ {
				q.Put(i)
				if i%5 == 0 {
					p.Sleep(Microsecond)
				}
			}
		})
		k.Run()
		if done != items*(items+1)/2 {
			t.Fatalf("done = %d, want %d", done, items*(items+1)/2)
		}
		return tr
	}
	h := run(true)
	g := run(false)
	if h.Len() != g.Len() || h.Hash() != g.Hash() {
		t.Fatalf("handler net diverges from goroutine net: (n=%d h=%x) vs (n=%d h=%x)",
			h.Len(), h.Hash(), g.Len(), g.Hash())
	}
}
