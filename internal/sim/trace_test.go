package sim

import (
	"fmt"
	"testing"
)

// traceWorkload is a mixed producer/consumer/sleeper workload that
// exercises sleeps across wheel levels, suspends, resumes, spawn churn and
// joins.
func traceWorkload() *Trace {
	k := NewKernel()
	defer k.Close()
	tr := k.StartTrace(false)
	q := NewQueue[int](k)
	mu := NewMutex(k)
	for i := 0; i < 4; i++ {
		i := i
		k.Spawn(fmt.Sprintf("producer%d", i), func(p *Proc) {
			for j := 0; j < 40; j++ {
				p.Sleep(Duration(3+i) * Microsecond)
				mu.Lock(p)
				p.Advance(Duration(j%5) * 100 * Nanosecond)
				mu.Unlock()
				q.Put(i*1000 + j)
				if j%8 == 0 {
					child := p.Kernel().Spawn("burst", func(c *Proc) {
						c.Sleep(Duration(i+1) * 700 * Microsecond) // level-1 horizon
					})
					p.Join(child)
				}
			}
		})
	}
	k.Spawn("slow", func(p *Proc) {
		p.Sleep(40 * Millisecond) // level-2 horizon
	})
	k.Spawn("veryslow", func(p *Proc) {
		p.Sleep(2 * Second) // beyond the wheel: overflow heap
	})
	k.Spawn("consumer", func(p *Proc) {
		for n := 0; n < 160; n++ {
			q.Get(p)
		}
	})
	k.Run()
	return tr
}

// TestTraceDeterminism pins run-to-run determinism of the kernel: identical
// workloads dispatch identical (time, seq, proc) sequences. That the queue
// dispatches in exact (time, seq) order is FuzzEventQueue's to check.
func TestTraceDeterminism(t *testing.T) {
	a := traceWorkload()
	b := traceWorkload()
	if a.Len() != b.Len() || a.Hash() != b.Hash() {
		t.Fatalf("nondeterministic dispatch: run1 (n=%d h=%x), run2 (n=%d h=%x)",
			a.Len(), a.Hash(), b.Len(), b.Hash())
	}
	if a.Len() == 0 {
		t.Fatal("empty trace")
	}
}
