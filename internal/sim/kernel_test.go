package sim

import (
	"fmt"
	"testing"
)

func TestSleepOrdering(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	var log []string
	k.Spawn("a", func(p *Proc) {
		p.Sleep(30 * Microsecond)
		log = append(log, fmt.Sprintf("a@%d", p.Now()))
	})
	k.Spawn("b", func(p *Proc) {
		p.Sleep(10 * Microsecond)
		log = append(log, fmt.Sprintf("b@%d", p.Now()))
	})
	k.Spawn("c", func(p *Proc) {
		p.Sleep(20 * Microsecond)
		log = append(log, fmt.Sprintf("c@%d", p.Now()))
	})
	end := k.Run()
	want := []string{"b@10000", "c@20000", "a@30000"}
	if len(log) != len(want) {
		t.Fatalf("log = %v, want %v", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Errorf("log[%d] = %q, want %q", i, log[i], want[i])
		}
	}
	if end != Time(30*Microsecond) {
		t.Errorf("end time = %v, want 30µs", end)
	}
}

func TestSameTimeFIFO(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			p.Sleep(5 * Microsecond)
			order = append(order, i)
		})
	}
	k.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-timestamp events not FIFO: %v", order)
		}
	}
}

func TestSuspendResume(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	var got Time
	waiter := k.Spawn("waiter", func(p *Proc) {
		p.Suspend()
		got = p.Now()
	})
	k.Spawn("waker", func(p *Proc) {
		p.Sleep(100 * Microsecond)
		p.Kernel().Resume(waiter)
	})
	k.Run()
	if got != Time(100*Microsecond) {
		t.Errorf("waiter resumed at %v, want 100µs", got)
	}
}

func TestResumeNonSuspendedPanics(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	sleeper := k.Spawn("sleeper", func(p *Proc) { p.Sleep(Second) })
	k.Spawn("bad", func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("Resume of scheduled (sleeping) process did not panic")
			}
		}()
		p.Kernel().Resume(sleeper)
	})
	k.RunUntil(Time(10 * Microsecond))
}

func TestRunUntil(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	ticks := 0
	k.Spawn("ticker", func(p *Proc) {
		for {
			p.Sleep(10 * Microsecond)
			ticks++
		}
	})
	now := k.RunUntil(Time(95 * Microsecond))
	if ticks != 9 {
		t.Errorf("ticks = %d, want 9", ticks)
	}
	if now != Time(95*Microsecond) {
		t.Errorf("now = %v, want 95µs", now)
	}
	// Resume where we left off.
	k.RunUntil(Time(200 * Microsecond))
	if ticks != 20 {
		t.Errorf("after second RunUntil ticks = %d, want 20", ticks)
	}
}

func TestSpawnFromProcess(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	var childTime Time
	k.Spawn("parent", func(p *Proc) {
		p.Sleep(50 * Microsecond)
		child := p.Kernel().Spawn("child", func(c *Proc) {
			c.Sleep(25 * Microsecond)
			childTime = c.Now()
		})
		p.Join(child)
		if p.Now() != Time(75*Microsecond) {
			t.Errorf("parent joined at %v, want 75µs", p.Now())
		}
	})
	k.Run()
	if childTime != Time(75*Microsecond) {
		t.Errorf("child finished at %v, want 75µs", childTime)
	}
}

func TestJoinDeadProcess(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	done := false
	dead := k.Spawn("dead", func(p *Proc) {})
	k.Spawn("joiner", func(p *Proc) {
		p.Sleep(10 * Microsecond) // let "dead" finish first
		p.Join(dead)
		done = true
	})
	k.Run()
	if !done {
		t.Error("join on dead process did not return")
	}
}

func TestStop(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	ticks := 0
	k.Spawn("ticker", func(p *Proc) {
		for {
			p.Sleep(Microsecond)
			ticks++
			if ticks == 5 {
				p.Kernel().Stop()
			}
		}
	})
	k.Run()
	if ticks != 5 {
		t.Errorf("ticks = %d, want 5 after Stop", ticks)
	}
}

func TestStopKeepsClockUnderRunUntil(t *testing.T) {
	// A proc that stops the kernel and exits leaves the queue empty; the
	// clock must stay at the stopping instant, not jump to the limit.
	k := NewKernel()
	defer k.Close()
	k.Spawn("once", func(p *Proc) {
		p.Sleep(7 * Microsecond)
		p.Kernel().Stop()
	})
	if now := k.RunUntil(Time(Second)); now != Time(7*Microsecond) {
		t.Errorf("now = %v after Stop, want 7µs", now)
	}
}

func TestCloseReapsDaemons(t *testing.T) {
	k := NewKernel()
	q := NewQueue[int](k)
	for i := 0; i < 4; i++ {
		k.Spawn("daemon", func(p *Proc) {
			for {
				q.Get(p)
			}
		})
	}
	k.RunUntil(Time(Millisecond))
	if k.live != 4 {
		t.Fatalf("live = %d, want 4", k.live)
	}
	k.Close()
	if k.live != 0 {
		t.Errorf("live after Close = %d, want 0", k.live)
	}
}

// OnClose hooks run once, in registration order, after the last process has
// retired — a parked daemon's deferred calls included.
func TestOnCloseRunsAfterProcsRetire(t *testing.T) {
	k := NewKernel()
	q := NewQueue[int](k)
	var log []string
	k.Spawn("daemon", func(p *Proc) {
		defer func() { log = append(log, "daemon") }()
		q.Get(p)
	})
	k.OnClose(func() { log = append(log, fmt.Sprintf("hook1 live=%d", k.live)) })
	k.OnClose(func() { log = append(log, "hook2") })
	k.Run()
	k.Close()
	k.Close()
	if got, want := fmt.Sprint(log), "[daemon hook1 live=0 hook2]"; got != want {
		t.Errorf("log = %s, want %s", got, want)
	}
}

func TestAdvanceDoesNotCountAsSwitch(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	var proc *Proc
	proc = k.Spawn("worker", func(p *Proc) {
		p.Advance(10 * Microsecond)
		p.Advance(10 * Microsecond)
		p.Sleep(10 * Microsecond)
	})
	k.Run()
	if proc.VoluntarySwitches() != 1 {
		t.Errorf("voluntary switches = %d, want 1 (two Advances + one Sleep)", proc.VoluntarySwitches())
	}
	if proc.wakeups != 4 {
		t.Errorf("wakeups = %d, want 4 (start + 2 advances + 1 sleep)", proc.wakeups)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []string {
		k := NewKernel()
		defer k.Close()
		var log []string
		q := NewQueue[int](k)
		for i := 0; i < 3; i++ {
			i := i
			k.Spawn(fmt.Sprintf("producer%d", i), func(p *Proc) {
				for j := 0; j < 5; j++ {
					p.Sleep(Duration(7+i) * Microsecond)
					q.Put(i*100 + j)
				}
			})
		}
		k.Spawn("consumer", func(p *Proc) {
			for n := 0; n < 15; n++ {
				v := q.Get(p)
				log = append(log, fmt.Sprintf("%d@%d", v, p.Now()))
			}
		})
		k.Run()
		return log
	}
	a, b := run(), run()
	if len(a) != 15 || len(b) != 15 {
		t.Fatalf("runs incomplete: %d, %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic at %d: %q vs %q", i, a[i], b[i])
		}
	}
}

func TestBlockFromWrongGoroutinePanics(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	var p1 *Proc
	p1 = k.Spawn("p1", func(p *Proc) { p.Sleep(Second) })
	k.Spawn("p2", func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("blocking another process's Proc did not panic")
			}
		}()
		p1.Sleep(Microsecond) // wrong: p1 is not the running process
	})
	k.RunUntil(Time(Millisecond))
}

func TestWakeupCounting(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	var worker *Proc
	worker = k.Spawn("worker", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(Microsecond)
		}
	})
	k.Run()
	// 1 initial dispatch + 3 sleep wake-ups.
	if worker.wakeups != 4 {
		t.Errorf("wakeups = %d, want 4", worker.wakeups)
	}
	if worker.VoluntarySwitches() != 3 {
		t.Errorf("voluntary switches = %d, want 3", worker.VoluntarySwitches())
	}
}
