package sim

import (
	"fmt"
	"testing"
)

// traceWorkload is a mixed producer/consumer/sleeper workload that
// exercises sleeps across wheel levels, suspends, resumes, spawn churn and
// joins. newK selects the kernel under test.
func traceWorkload(newK func() *Kernel, keep bool) *Trace {
	k := newK()
	defer k.Close()
	tr := k.StartTrace(keep)
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

// TestTraceDeterminism pins run-to-run determinism of the optimized kernel:
// identical workloads dispatch identical (time, seq, proc) sequences.
func TestTraceDeterminism(t *testing.T) {
	a := traceWorkload(NewKernel, false)
	b := traceWorkload(NewKernel, false)
	if a.Len() != b.Len() || a.Hash() != b.Hash() {
		t.Fatalf("nondeterministic dispatch: run1 (n=%d h=%x), run2 (n=%d h=%x)",
			a.Len(), a.Hash(), b.Len(), b.Hash())
	}
	if a.Len() == 0 {
		t.Fatal("empty trace")
	}
}

// TestTraceMatchesReferenceKernel is the kernel-level golden test: the
// wheel-based queue must dispatch the byte-identical event order realized
// by the seed's container/heap queue.
func TestTraceMatchesReferenceKernel(t *testing.T) {
	opt := traceWorkload(NewKernel, true)
	ref := traceWorkload(NewReferenceKernel, true)
	if opt.Len() == ref.Len() && opt.Hash() == ref.Hash() {
		return
	}
	i := firstDivergence(opt, ref)
	t.Fatalf("optimized kernel diverges from reference at record %d: opt(n=%d) %+v, ref(n=%d) %+v",
		i, opt.Len(), rec(opt, i), ref.Len(), rec(ref, i))
}

// firstDivergence returns the index of the first record where two kept
// traces differ, or -1 if one is a prefix of the other (or they are equal).
func firstDivergence(a, b *Trace) int {
	for i := range min(len(a.recs), len(b.recs)) {
		if a.recs[i] != b.recs[i] {
			return i
		}
	}
	return -1
}

func rec(tr *Trace, i int) TraceRec {
	if i >= 0 && i < len(tr.Records()) {
		return tr.Records()[i]
	}
	return TraceRec{}
}
