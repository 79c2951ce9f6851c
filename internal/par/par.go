// Package par fans independent simulation kernels out across CPUs.
//
// Every experiment sweep in this repository is embarrassingly parallel: each
// cell builds its own sim.Kernel, its own stack, and writes one result slot.
// par.For runs those cells on up to GOMAXPROCS worker goroutines. Results
// stay deterministic because workers communicate only through their own
// index's slot — the schedule assigns indices, never data.
//
// Parallelism is process-global and on by default; `repro -parallel=false`
// (or SetEnabled(false)) forces serial execution, e.g. when profiling a
// single kernel.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

var disabled atomic.Bool

// SetEnabled turns the worker-pool fan-out on or off process-wide.
func SetEnabled(on bool) { disabled.Store(!on) }

// Enabled reports whether For fans out.
func Enabled() bool { return !disabled.Load() }

// totalTasks and doneTasks feed the live-stats progress line: every For
// call registers its cells up front and retires them as they finish, in
// both the serial and parallel paths.
var (
	totalTasks atomic.Int64
	doneTasks  atomic.Int64
)

// Progress returns the cumulative (done, total) cell counts across every
// For call in the process so far. Safe from any goroutine.
func Progress() (done, total int64) {
	return doneTasks.Load(), totalTasks.Load()
}

// For runs fn(i) for every i in [0, n), on min(GOMAXPROCS, n) goroutines
// when parallel execution is enabled, serially otherwise. It returns when
// every call has finished. fn must confine its side effects to state owned
// by index i.
func For(n int, fn func(i int)) {
	ForWith(n, fn, func(fn func(int), i int) { fn(i) })
}

// ForWith is For over a body that reads shared state: it runs fn(arg, i).
// fn can be a method expression, which allocates nothing, so the call costs
// what arg costs. A closure passed to For escapes to the workers, and so does
// every variable it captures by reference: each one wider than 128 bytes is
// an allocation of its own.
func ForWith[T any](n int, arg T, fn func(arg T, i int)) {
	totalTasks.Add(int64(n))
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if !Enabled() || workers <= 1 {
		for i := 0; i < n; i++ {
			fn(arg, i)
			doneTasks.Add(1)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(arg, i)
				doneTasks.Add(1)
			}
		}()
	}
	wg.Wait()
}
