package crashmc

import (
	"fmt"
	"math/rand"
	"strings"
)

// Enumeration of the admissible persisted sets: the downward-closed
// subsets (order ideals) of the captured constraint DAG. A subset S is
// admissible iff for every write in S all of its predecessors are in S.
// The walk starts from the empty set and grows one eligible write at a
// time; subset-hash dedup keeps it linear in the number of distinct
// ideals rather than the number of paths to them.

// bitset is a fixed-width subset of write indices.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) has(i int) bool { return b[i/64]&(1<<uint(i%64)) != 0 }

func (b bitset) set(i int) { b[i/64] |= 1 << uint(i%64) }

func (b bitset) clone() bitset {
	c := make(bitset, len(b))
	copy(c, b)
	return c
}

// key returns the subset-hash map key.
func (b bitset) key() string {
	buf := make([]byte, 8*len(b))
	for i, w := range b {
		for j := 0; j < 8; j++ {
			buf[8*i+j] = byte(w >> uint(8*j))
		}
	}
	return string(buf)
}

// baseID names the empty cut: the recovered durable base with nothing
// overlaid, which is the state the simulator itself produced.
const baseID = "base"

// id renders the subset as a compact hex bitmask (index 0 = least
// significant bit) for violation reports.
func (b bitset) id() string {
	empty := true
	for _, w := range b {
		if w != 0 {
			empty = false
			break
		}
	}
	if empty {
		return baseID
	}
	hex := make([]byte, 0, 16*len(b))
	for i := len(b) - 1; i >= 0; i-- {
		hex = fmt.Appendf(hex, "%016x", b[i])
	}
	return "cut:" + strings.TrimLeft(string(hex), "0")
}

// predsIn reports whether every predecessor of i is already in the cut.
func predsIn(cut bitset, preds []int) bool {
	for _, p := range preds {
		if !cut.has(p) {
			return false
		}
	}
	return true
}

// enumerate visits distinct downward-closed cuts depth-first, starting at
// the empty cut, until the ideal lattice is exhausted or maxStates
// distinct cuts have been generated (capped=true). It returns the set of
// visited subset keys so the sampling fallback can dedup against it. The
// walk order is deterministic: successors are generated in ascending write
// index.
func enumerate(n int, preds [][]int, maxStates int, visit func(bitset)) (seen map[string]struct{}, capped bool) {
	empty := newBitset(n)
	seen = map[string]struct{}{empty.key(): {}}
	stack := []bitset{empty}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		visit(cur)
		for i := n - 1; i >= 0; i-- {
			if cur.has(i) || !predsIn(cur, preds[i]) {
				continue
			}
			child := cur.clone()
			child.set(i)
			k := child.key()
			if _, dup := seen[k]; dup {
				continue
			}
			if len(seen) >= maxStates {
				capped = true
				continue
			}
			seen[k] = struct{}{}
			stack = append(stack, child)
		}
	}
	return seen, capped
}

// sample probes random downward-closed cuts with a deterministic seeded
// generator, deduping against the already-visited set, and returns how
// many new cuts it reached. The first probe is always the full closure
// (everything persisted); the rest grow a random ideal to a random target
// size by repeatedly adding a uniformly chosen eligible write.
func sample(n int, preds [][]int, samples int, seed int64, seen map[string]struct{}, visit func(bitset)) int {
	rng := rand.New(rand.NewSource(seed ^ 0x6d63)) // "mc"
	emit := func(cut bitset) bool {
		k := cut.key()
		if _, dup := seen[k]; dup {
			return false
		}
		seen[k] = struct{}{}
		visit(cut)
		return true
	}
	reached := 0
	full := newBitset(n)
	for i := 0; i < n; i++ {
		full.set(i) // every index eventually eligible: preds precede in the DAG
	}
	if emit(full) {
		reached++
	}
	var addable []int
	for s := 1; s < samples; s++ {
		cut := newBitset(n)
		target := rng.Intn(n + 1)
		for size := 0; size < target; size++ {
			addable = addable[:0]
			for i := 0; i < n; i++ {
				if !cut.has(i) && predsIn(cut, preds[i]) {
					addable = append(addable, i)
				}
			}
			if len(addable) == 0 {
				break
			}
			cut.set(addable[rng.Intn(len(addable))])
		}
		if emit(cut) {
			reached++
		}
	}
	return reached
}
