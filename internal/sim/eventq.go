package sim

import "math/bits"

// This file implements the kernel's event queue as a by-value 4-ary min-heap
// fronted by a hierarchical timer wheel. The seed used container/heap, whose
// Push(x any) interface boxes every event into a fresh heap allocation; this
// queue stores events by value in reusable backing arrays, so steady-state
// scheduling allocates nothing.
//
// Layout:
//
//   - near: 4-ary heap holding events in the cursor's current level-0
//     granule (and any events cascaded out of due wheel slots). Pops come
//     from here (or from overflow) in exact (at, seq) order.
//   - wheel: three levels of 64 slots. Level L buckets events that expire
//     within 64^(L+1) granules of the cursor; a slot is an unsorted slice
//     that is cascaded (re-placed) when it becomes the earliest pending
//     work. Short-horizon Advance/Sleep wake-ups — the dominant event class
//     in the IO-stack workloads — land in level 0 with an O(1) append.
//   - overflow: 4-ary heap for events beyond the wheel horizon (~1.07s).
//
// Why the wheel stays, when the whole queue is only tens of events deep: on
// stackbench it holds 7 (fsync-journal), 48 (both kv workloads) and 88
// (blk-ordered) events on average, 265 at most, and a bare d4heap in the
// wheel's place (goldens green) was measured at those depths. It wins below
// 8 pending events (one self-waking handler 14 vs 24 ns/event), ties at 8
// (32 vs 33) and loses from 64 up (75 vs 57 ns/event at 64 timers spread
// over 1-500µs, 124 vs 88 at 256, 155 vs 110 at 1024), which made
// kv-service's host CPU per op worse in 7 of 8 alternating pairs (+6 % at
// the median). BenchmarkSimKernelDepth re-measures the crossover.
//
// Correctness does not depend on the cursor being tight: a slot's start time
// lower-bounds every event in it, and the pop path cascades any slot whose
// start is <= the heap tops before trusting a heap pop. Ties on the slot
// boundary cascade first, so the global (at, seq) order — and therefore the
// kernel's dispatch order — is byte-identical to a plain container/heap
// queue (FuzzEventQueue in eventq_test.go compares the two).

const (
	granuleBits = 12 // level-0 granule: 4.096µs of virtual time
	slotBits    = 6
	wheelSlots  = 1 << slotBits
	wheelLevels = 3
)

// levelShift returns the bit shift of level l: events are slotted by
// at >> levelShift(l).
func levelShift(l int) uint { return uint(granuleBits + l*slotBits) }

// evLess orders events by (at, seq): virtual time, then schedule order.
func evLess(a, b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// d4heap is a by-value 4-ary min-heap of events. Four-way fan-out halves the
// tree depth of a binary heap and keeps parent/child pairs on the same cache
// line, which measurably cuts sift costs for the small heaps this kernel
// runs: the wheel leaves near with one granule's events at a time.
type d4heap []event

func (h *d4heap) push(e event) {
	a := append(*h, e)
	i := len(a) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !evLess(e, a[p]) {
			break
		}
		a[i] = a[p]
		i = p
	}
	a[i] = e
	*h = a
}

func (h *d4heap) pop() event {
	a := *h
	n := len(a) - 1
	top := a[0]
	e := a[n]
	a[n] = event{} // release the *Proc reference
	a = a[:n]
	*h = a
	if n > 0 {
		i := 0
		for {
			c := i<<2 + 1
			if c >= n {
				break
			}
			m := c
			end := c + 4
			if end > n {
				end = n
			}
			for j := c + 1; j < end; j++ {
				if evLess(a[j], a[m]) {
					m = j
				}
			}
			if !evLess(a[m], e) {
				break
			}
			a[i] = a[m]
			i = m
		}
		a[i] = e
	}
	return top
}

// eventQueue is the composed structure. All methods are O(1) or O(log n) and
// allocation-free once the backing arrays have grown to the workload's
// high-water mark.
type eventQueue struct {
	near     d4heap
	overflow d4heap
	wheel    [wheelLevels][wheelSlots][]event
	occupied [wheelLevels]uint64 // bitmap of non-empty slots per level
	inWheel  int                 // events currently resident in wheel slots
	cursor   Time                // placement reference; <= every pending event's at
	size     int
	settled  bool // heaps hold the true minimum; reset by push/pop
}

func (q *eventQueue) len() int { return q.size }

// push inserts e. now is the kernel clock, which advances the placement
// cursor; every pending event's timestamp is >= now.
func (q *eventQueue) push(e event, now Time) {
	if now > q.cursor {
		q.cursor = now
	}
	q.size++
	q.settled = false
	q.place(e)
}

func (q *eventQueue) place(e event) {
	if e.at>>granuleBits <= q.cursor>>granuleBits {
		// Current (or, defensively, past) granule: straight to the heap.
		q.near.push(e)
		return
	}
	for l := 0; l < wheelLevels; l++ {
		// Level l takes events within 64 level-l granules of the cursor:
		// the granule-count bound (not a raw time delta) is what makes the
		// 6-bit slot index unambiguous and the settle cascade terminate.
		sh := levelShift(l)
		if (e.at>>sh)-(q.cursor>>sh) < wheelSlots {
			idx := (uint64(e.at) >> sh) & (wheelSlots - 1)
			q.wheel[l][idx] = append(q.wheel[l][idx], e)
			q.occupied[l] |= 1 << idx
			q.inWheel++
			return
		}
	}
	q.overflow.push(e)
}

// earliestSlot finds the occupied wheel slot with the smallest start time.
// A slot's start lower-bounds every event it holds.
func (q *eventQueue) earliestSlot() (lvl, idx int, start Time, ok bool) {
	best := Time(1<<63 - 1)
	for l := 0; l < wheelLevels; l++ {
		bm := q.occupied[l]
		if bm == 0 {
			continue
		}
		sh := levelShift(l)
		cur := int((uint64(q.cursor) >> sh) & (wheelSlots - 1))
		// Rotate so bit j corresponds to slot (cur+j) mod 64; residents are
		// within 64 level-l granules of the cursor, so j is unambiguous.
		j := bits.TrailingZeros64(bits.RotateLeft64(bm, -cur))
		g := (q.cursor >> sh) + Time(j)
		if s := g << sh; s < best {
			best, lvl, idx, start, ok = s, l, (cur+j)&(wheelSlots-1), s, true
		}
	}
	return lvl, idx, start, ok
}

// settle cascades due wheel slots into the heaps until the earliest pending
// event is at the top of near or overflow. A slot is due when its start time
// is <= both heap tops (ties cascade: the slot may hold an equal-time event
// with a smaller seq).
func (q *eventQueue) settle() {
	if q.settled {
		return
	}
	q.settled = true
	for q.inWheel > 0 {
		lvl, idx, start, ok := q.earliestSlot()
		if !ok {
			return
		}
		if len(q.near) > 0 && q.near[0].at < start {
			return
		}
		if len(q.overflow) > 0 && q.overflow[0].at < start {
			return
		}
		// Advancing the cursor to the slot start before re-placing
		// guarantees cascaded events land strictly below lvl (or in near),
		// so the cascade terminates.
		if start > q.cursor {
			q.cursor = start
		}
		evs := q.wheel[lvl][idx]
		q.wheel[lvl][idx] = evs[:0]
		q.occupied[lvl] &^= 1 << uint(idx)
		q.inWheel -= len(evs)
		for i, e := range evs {
			q.place(e)
			evs[i] = event{} // release the *Proc reference
		}
	}
}

// peek returns the next event in (at, seq) order without removing it.
func (q *eventQueue) peek() (event, bool) {
	if q.size == 0 {
		return event{}, false
	}
	q.settle()
	if len(q.near) > 0 && (len(q.overflow) == 0 || evLess(q.near[0], q.overflow[0])) {
		return q.near[0], true
	}
	return q.overflow[0], true
}

// pop removes and returns the next event. Callers must have checked len.
func (q *eventQueue) pop() event {
	q.settle()
	q.size--
	q.settled = false // the new heap top may rank behind a due wheel slot
	if len(q.near) > 0 && (len(q.overflow) == 0 || evLess(q.near[0], q.overflow[0])) {
		return q.near.pop()
	}
	return q.overflow.pop()
}
