package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// visit runs For(n) and returns how often each index was called.
func visit(n int) []int32 {
	hits := make([]int32, n)
	For(n, func(i int) { atomic.AddInt32(&hits[i], 1) })
	return hits
}

func TestForVisitsEveryIndexOnce(t *testing.T) {
	defer SetEnabled(true)
	procs := runtime.GOMAXPROCS(0)
	for _, on := range []bool{true, false} {
		SetEnabled(on)
		if Enabled() != on {
			t.Fatalf("Enabled() = %v after SetEnabled(%v)", Enabled(), on)
		}
		for _, n := range []int{0, 1, procs - 1, procs, 8*procs + 3} {
			done0, total0 := Progress()
			for i, h := range visit(n) {
				if h != 1 {
					t.Errorf("enabled=%v n=%d: index %d visited %d times", on, n, i, h)
				}
			}
			done, total := Progress()
			if done-done0 != int64(n) || total-total0 != int64(n) {
				t.Errorf("enabled=%v n=%d: Progress advanced by (%d, %d)", on, n, done-done0, total-total0)
			}
		}
	}
}

// The experiments rely on this: workers communicate only through their own
// index's slot, so the schedule cannot change a result.
func TestSerialAndParallelFillIdenticalSlots(t *testing.T) {
	defer SetEnabled(true)
	fill := func(on bool) []uint64 {
		SetEnabled(on)
		out := make([]uint64, 1000)
		For(len(out), func(i int) {
			x := uint64(i) + 0x9e3779b97f4a7c15
			x ^= x >> 31
			out[i] = x * 0xbf58476d1ce4e5b9
		})
		return out
	}
	serial, parallel := fill(false), fill(true)
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("slot %d: serial %x, parallel %x", i, serial[i], parallel[i])
		}
	}
}
