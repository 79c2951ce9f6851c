package block

import (
	"testing"

	"repro/internal/sim"
)

// TestReqPoolWaiterOutlivesLastRelease is the pdflush shape: a pooled request
// whose creator lets go at submission and whose OnComplete lets go of the
// only other hold. A process waiting on it runs after both, and must still
// find it completed; only then may the pool hand it out again.
func TestReqPoolWaiterOutlivesLastRelease(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	l, _ := newStack(k)
	var pool ReqPool
	woke := false
	k.Spawn("host", func(p *sim.Proc) {
		r := pool.Get()
		r.Op, r.LPA = OpWrite, 7
		r.Hold() // a holder that lets go in interrupt context
		r.OnComplete = func(_ sim.Time, rr *Request) { rr.Release() }
		l.Submit(p, r)
		r.Release() // the creator's hold: the layer holds it in flight
		r.Wait(p)
		woke = true
		if len(pool.free) != 1 || pool.free[0] != r {
			t.Errorf("request not recycled after its last waiter ran: free=%d", len(pool.free))
		}
	})
	k.Run()
	if !woke {
		t.Fatal("waiter never woke: the request was recycled under it")
	}
}

// TestReqPoolLiveThroughCompletionCallbacks: an OnComplete that drops the
// last caller hold must not recycle the request under the layer's own done
// callback, which runs after it.
func TestReqPoolLiveThroughCompletionCallbacks(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	var pool ReqPool
	r := pool.Get()
	r.LPA = 9
	r.bind(k, 0)
	r.OnComplete = func(_ sim.Time, rr *Request) { rr.Release() }
	seen := uint64(0)
	r.complete(0, func(_ sim.Time, rr *Request) { seen = rr.LPA })
	if seen != 9 {
		t.Errorf("layer callback saw LPA %d, want 9: request recycled under it", seen)
	}
	if len(pool.free) != 1 {
		t.Errorf("request not recycled once completion returned: free=%d", len(pool.free))
	}
}

func TestReqPoolReleaseWithoutHoldPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Release below zero holds did not panic")
		}
	}()
	var pool ReqPool
	r := pool.Get()
	r.Release()
	r.Release()
}

// TestReqPoolKeepsWaiterArray: completion truncates the waiter list in place
// and Release carries the array across reuse, so only the first Wait on a
// pooled request allocates one.
func TestReqPoolKeepsWaiterArray(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	l, _ := newStack(k)
	var pool ReqPool
	k.Spawn("host", func(p *sim.Proc) {
		r := pool.Get()
		r.Op, r.LPA = OpWrite, 7
		l.SubmitAndWait(p, r)
		r.Release()
		if r2 := pool.Get(); r2 != r {
			t.Errorf("pool did not hand the request out again")
		}
		if len(r.waiters) != 0 || cap(r.waiters) == 0 {
			t.Errorf("recycled request: waiters len %d cap %d, want an empty list with its array kept",
				len(r.waiters), cap(r.waiters))
			return
		}
		arr, c := &r.waiters[:1][0], cap(r.waiters)
		r.Op, r.LPA = OpWrite, 8
		l.SubmitAndWait(p, r)
		if &r.waiters[:1][0] != arr || cap(r.waiters) != c {
			t.Errorf("second Wait allocated a new waiter array")
		}
	})
	k.Run()
}
