package sim

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"testing"
)

// TestCloseReapsEveryGoroutine is the goroutine-leak regression test: it
// parks processes in every reachable state — pending (spawned, never
// dispatched), scheduled (sleeping), suspended (queue waiters, cond
// waiters, semaphore waiters, joiners), dead (finished) — then closes the
// kernel and asserts, by the runtime's own count rather than the kernel's,
// that no goroutine outlives it and that every parked body was unwound.
func TestCloseReapsEveryGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	k := NewKernel()
	q := NewQueue[int](k)
	cond := NewCond(k)
	sem := NewSemaphore(k, 1)

	unwound := 0
	parked := func(name string, fn func(p *Proc)) *Proc {
		return k.Spawn(name, func(p *Proc) {
			defer func() { unwound++ }()
			fn(p)
		})
	}
	// Dead: spawn-churn so bodies end on their own.
	for i := 0; i < 8; i++ {
		k.Spawn(fmt.Sprintf("shortlived%d", i), func(p *Proc) { p.Advance(Microsecond) })
	}
	// Scheduled: long sleepers.
	for i := 0; i < 4; i++ {
		parked(fmt.Sprintf("sleeper%d", i), func(p *Proc) { p.Sleep(Second) })
	}
	// Suspended on every primitive.
	parked("q-waiter", func(p *Proc) { q.Get(p) })
	parked("cond-waiter", func(p *Proc) { cond.Wait(p) })
	parked("sem-holder", func(p *Proc) { sem.Acquire(p, 1); p.Sleep(Second) })
	parked("sem-waiter", func(p *Proc) { sem.Acquire(p, 1) })
	joinee := parked("joinee", func(p *Proc) { p.Suspend() })
	parked("joiner", func(p *Proc) { p.Join(joinee) })

	k.RunUntil(Time(10 * Millisecond))
	if got := runtime.NumGoroutine() - base; got != 10 {
		t.Fatalf("goroutines for 10 parked bodies before Close = %d", got)
	}

	// Pending: spawned after the run, never dispatched.
	k.Spawn("pending", func(p *Proc) { panic("pending proc must never run") })

	k.Close()
	if got := runtime.NumGoroutine() - base; got != 0 {
		t.Errorf("goroutines left after Close = %d, want 0", got)
	}
	if unwound != 10 {
		t.Errorf("parked bodies unwound by Close = %d, want 10", unwound)
	}
	if got := k.Live(); got != 0 {
		t.Errorf("live procs after Close = %d, want 0", got)
	}
}

// TestSpawnChurnLeavesNoGoroutines verifies a body that ends takes its
// goroutine with it: sequential spawn+join does not accumulate any.
func TestSpawnChurnLeavesNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	k := NewKernel()
	defer k.Close()
	k.Spawn("driver", func(p *Proc) {
		for i := 0; i < 1000; i++ {
			child := p.Kernel().Spawn("child", func(c *Proc) { c.Advance(Microsecond) })
			p.Join(child)
		}
	})
	k.Run()
	if got := runtime.NumGoroutine() - base; got > 4 {
		t.Errorf("goroutines after 1000 sequential spawns = %d, want <= 4", got)
	}
}

// TestFatalInProcFailsFast pins that t.Fatal inside a blocking proc fails
// the test at once: its runtime.Goexit reaches the goroutine that called
// Run, and the deferred Close still unwinds the daemon. Under the worker
// pool it ended only the proc's own goroutine, so the Stop after the check
// never came, the daemon's timer kept Run alive and the test hung until the
// timeout. The failing test runs in a child process so that this one can
// pass.
func TestFatalInProcFailsFast(t *testing.T) {
	const env = "SIM_TEST_FATAL_IN_PROC"
	if os.Getenv(env) != "" {
		k := NewKernel()
		defer k.Close()
		k.Spawn("daemon", func(p *Proc) {
			defer fmt.Println("daemon unwound")
			for {
				p.Sleep(Millisecond)
			}
		})
		k.Spawn("checker", func(p *Proc) {
			p.Sleep(Microsecond)
			t.Fatal("check failed inside a proc")
			k.Stop()
		})
		k.Run()
		fmt.Println("Run returned")
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestFatalInProcFailsFast$", "-test.timeout=2s")
	cmd.Env = append(os.Environ(), env+"=1")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Errorf("child test passed; want it to fail")
	}
	for _, want := range []string{"--- FAIL: TestFatalInProcFailsFast", "check failed inside a proc", "daemon unwound"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("child output lacks %q", want)
		}
	}
	for _, bad := range []string{"test timed out", "Run returned", "panic:"} {
		if strings.Contains(string(out), bad) {
			t.Errorf("child output contains %q", bad)
		}
	}
	if t.Failed() {
		t.Logf("child: %v\n%s", err, out)
	}
}

// TestPanicInProcReachesRunCaller pins that a panic in a proc body is
// recoverable where Run was called — naming the proc and the line that
// panicked, which the caller's own stack does not show — with the kernel
// still closable. Under the worker pool it crashed the test binary.
func TestPanicInProcReachesRunCaller(t *testing.T) {
	k := NewKernel()
	k.Spawn("bystander", func(p *Proc) { p.Suspend() })
	k.Spawn("faulty", func(p *Proc) {
		p.Sleep(Microsecond)
		panic("boom")
	})
	func() {
		defer func() {
			r := fmt.Sprint(recover())
			for _, want := range []string{"boom", "sim proc faulty", "TestPanicInProcReachesRunCaller.func"} {
				if !strings.Contains(r, want) {
					t.Errorf("panic recovered on the Run caller lacks %q:\n%s", want, r)
				}
			}
		}()
		k.Run()
		t.Error("Run returned past a panicking proc")
	}()
	k.Close()
	if got := k.Live(); got != 0 {
		t.Errorf("live procs after Close = %d, want 0", got)
	}
}
