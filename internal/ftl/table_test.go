package ftl

import (
	"iter"
	"math/rand"
	"testing"
)

// all yields every LPA of t with a value, in LPA order.
func (t *Table[V]) all() iter.Seq2[uint64, V] {
	return func(yield func(uint64, V) bool) {
		for c, ch := range t.chunks {
			if ch == nil {
				continue
			}
			for i := range uint64(chunkLen) {
				if ch.present[i>>6]&(1<<(i&63)) != 0 && !yield(uint64(c)<<tableShift|i, ch.vals[i]) {
					return
				}
			}
		}
	}
}

// count returns the number of LPAs of t with a value.
func (t *Table[V]) count() int {
	n := 0
	for range t.all() {
		n++
	}
	return n
}

// TestTableMatchesMap drives a Table and a map with the same random
// sets and deletes, across chunk boundaries and with zero values stored,
// and requires the same contents, count and LPA-ordered iteration.
func TestTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var tab Table[int]
	ref := map[uint64]int{}
	for i := 0; i < 20000; i++ {
		lpa := uint64(rng.Intn(5 * chunkLen))
		if rng.Intn(3) == 0 {
			tab.Delete(lpa)
			delete(ref, lpa)
			continue
		}
		v := rng.Intn(4) // zero is a value like any other
		tab.Set(lpa, v)
		ref[lpa] = v
	}
	if tab.count() != len(ref) {
		t.Fatalf("count = %d, want %d", tab.count(), len(ref))
	}
	for lpa := uint64(0); lpa < 6*chunkLen; lpa++ {
		got, ok := tab.Get(lpa)
		want, wok := ref[lpa]
		if ok != wok || got != want {
			t.Fatalf("Get(%d) = %d,%v, want %d,%v", lpa, got, ok, want, wok)
		}
	}
	n, last := 0, int64(-1)
	for lpa, v := range tab.all() {
		if int64(lpa) <= last {
			t.Fatalf("all yields %d after %d", lpa, last)
		}
		if ref[lpa] != v {
			t.Fatalf("all yields %d=%d, want %d", lpa, v, ref[lpa])
		}
		last = int64(lpa)
		n++
	}
	if n != len(ref) {
		t.Fatalf("all yields %d entries, want %d", n, len(ref))
	}
}
