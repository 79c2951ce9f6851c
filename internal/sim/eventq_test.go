package sim

import (
	"container/heap"
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
)

// refQueue is the seed's container/heap event queue, the ordering oracle for
// eventQueue: it pops in exact (at, seq) order by construction. It boxes and
// heap-allocates every event, so only tests use it.
type refQueue struct{ h refHeap }

type refHeap []event

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return evLess(h[i], h[j]) }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(event)) }
func (h *refHeap) Pop() any          { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

func (q *refQueue) len() int     { return len(q.h) }
func (q *refQueue) push(e event) { heap.Push(&q.h, e) }
func (q *refQueue) pop() event   { return heap.Pop(&q.h).(event) }

// qdriver drives the optimized eventQueue and the container/heap reference
// queue with an identical operation stream and asserts identical pop order.
type qdriver struct {
	t   *testing.T
	q   eventQueue
	ref refQueue
	now Time
	seq uint64
}

func (d *qdriver) push(at Time) {
	if at < d.now {
		at = d.now // kernel's schedule clamp
	}
	d.seq++
	e := event{at: at, seq: d.seq}
	d.q.push(e, d.now)
	d.ref.push(e)
}

func (d *qdriver) pop() {
	if d.q.len() != d.ref.len() {
		d.t.Fatalf("len mismatch: %d vs %d", d.q.len(), d.ref.len())
	}
	if d.ref.len() == 0 {
		return
	}
	want := d.ref.pop()
	if top, _ := d.q.peek(); top.at != want.at || top.seq != want.seq {
		d.t.Fatalf("peek mismatch: got (at=%d seq=%d), want (at=%d seq=%d)",
			top.at, top.seq, want.at, want.seq)
	}
	if got := d.q.pop(); got.at != want.at || got.seq != want.seq {
		d.t.Fatalf("pop mismatch: got (at=%d seq=%d), want (at=%d seq=%d)",
			got.at, got.seq, want.at, want.seq)
	}
	d.now = want.at // the kernel advances the clock to the dispatched event
}

// horizonDeltas are push delays at every horizon class of the queue: the
// same instant, granule edges, the level-0/1/2 wheel edges (including the
// 64-granule wrap that must not collide with the cursor slot) and the
// overflow heap beyond the wheel.
var horizonDeltas = []Duration{
	0, 1, granuleSize - 1, granuleSize, granuleSize + 1,
	63 * granuleSize, 64 * granuleSize, 64*granuleSize - 1, 65 * granuleSize,
	1000 * granuleSize, 4095 * granuleSize, 4096 * granuleSize,
	100_000 * granuleSize, 262_144 * granuleSize, 262_145 * granuleSize,
	Duration(2 << 30), Duration(3 << 32),
}

// TestEventQueueMatchesReference brute-forces the wheel against the
// container/heap oracle: seeded random streams over horizonDeltas, a
// quarter of the pushes at a random delta within 70 granules.
func TestEventQueueMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := &qdriver{t: t}
		for op := 0; op < 20000; op++ {
			if rng.Intn(100) < 55 || d.ref.len() == 0 {
				delta := horizonDeltas[rng.Intn(len(horizonDeltas))]
				if rng.Intn(4) == 0 {
					delta = Duration(rng.Int63n(int64(70 * granuleSize)))
				}
				d.push(d.now.Add(delta))
			} else {
				d.pop()
			}
		}
		for d.ref.len() > 0 {
			d.pop()
		}
	}
}

const granuleSize = Duration(1) << granuleBits

// Operations of FuzzEventQueue's input, 5 bytes each: an opcode byte, then
// a little-endian uint32 v.
const (
	fuzzPop       = iota // pop (and peek) one event, if any
	fuzzPushClass        // push at now + horizonDeltas[v % len]
	fuzzPushRaw          // push at now + v ns (up to ~4.3 s: every level and the overflow)
	fuzzOps
)

func fuzzOp(op byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32([]byte{op}, v)
}

// FuzzEventQueue is the queue's differential oracle: it drives eventQueue
// and refQueue with the same push/pop stream, decoded from the input, and
// requires the same peek and pop at every step, then the same drain order.
// The seed corpus runs under plain `go test`; explore with
// `go test -run '^$' -fuzz '^FuzzEventQueue$' -fuzztime 20s ./internal/sim`.
func FuzzEventQueue(f *testing.F) {
	// The slot-start tie: X waits in a level-1 slot starting at 64
	// granules; after an event at 5 000 ns is pushed and popped, Y lands in
	// the level-0 slot with the same start. Y cascades first, and a settle
	// that stopped at a heap top equal to the next slot's start would pop Y
	// before X, whose seq is smaller.
	f.Add(slices.Concat(
		fuzzOp(fuzzPushRaw, 64*uint32(granuleSize)),
		fuzzOp(fuzzPushRaw, 5000),
		fuzzOp(fuzzPop, 0),
		fuzzOp(fuzzPushRaw, 64*uint32(granuleSize)-5000),
		fuzzOp(fuzzPop, 0),
		fuzzOp(fuzzPop, 0)))
	// One push at every horizon class, a pop after every third, then the
	// same classes again from the advanced clock.
	var classes []byte
	for round := 0; round < 2; round++ {
		for i := range horizonDeltas {
			classes = append(classes, fuzzOp(fuzzPushClass, uint32(i))...)
			if i%3 == 2 {
				classes = append(classes, fuzzOp(fuzzPop, 0)...)
			}
		}
	}
	f.Add(classes)
	// A same-instant burst staged through the wheel, then joined in the
	// near heap by more events at that instant.
	var burst []byte
	for i := 0; i < 8; i++ {
		burst = append(burst, fuzzOp(fuzzPushRaw, 50*uint32(granuleSize))...)
	}
	burst = append(burst, fuzzOp(fuzzPop, 0)...)
	for i := 0; i < 4; i++ {
		burst = append(burst, fuzzOp(fuzzPushClass, 0)...)
	}
	f.Add(burst)
	f.Fuzz(func(t *testing.T, ops []byte) {
		d := &qdriver{t: t}
		for ; len(ops) >= 5; ops = ops[5:] {
			v := binary.LittleEndian.Uint32(ops[1:5])
			switch ops[0] % fuzzOps {
			case fuzzPop:
				d.pop()
			case fuzzPushClass:
				d.push(d.now.Add(horizonDeltas[int(v)%len(horizonDeltas)]))
			case fuzzPushRaw:
				d.push(d.now.Add(Duration(v)))
			}
		}
		for d.ref.len() > 0 {
			d.pop()
		}
	})
}

// TestEventQueueSameTimeFIFO pins the seq tie-break across structures: a
// burst at one instant must drain in schedule order even when half the
// burst was staged through the wheel.
func TestEventQueueSameTimeFIFO(t *testing.T) {
	d := &qdriver{t: t}
	at := Time(50 * granuleSize) // lands in the wheel relative to now=0
	for i := 0; i < 100; i++ {
		d.push(at)
	}
	d.pop() // advances now into the burst granule
	for i := 0; i < 60; i++ {
		d.push(at) // now same-granule: lands in the near heap
	}
	for d.ref.len() > 0 {
		d.pop()
	}
}

// TestEventQueueZeroAllocSteadyState verifies the headline property: once
// the backing arrays have grown, a sleep-wake workload schedules with zero
// allocations per event.
func TestEventQueueZeroAllocSteadyState(t *testing.T) {
	var q eventQueue
	now := Time(0)
	seq := uint64(0)
	mixed := []Duration{Microsecond, 50 * Microsecond, Millisecond, 20 * Millisecond}
	batch := func() {
		for i := 0; i < 64; i++ {
			seq++
			q.push(event{at: now.Add(mixed[i%len(mixed)]), seq: seq}, now)
		}
		for q.len() > 0 {
			now = q.pop().at
		}
	}
	// Warm up: advance far enough that every wheel slot the workload cycles
	// through has grown its backing array to the batch high-water mark.
	for i := 0; i < 400; i++ {
		batch()
	}
	avg := testing.AllocsPerRun(200, batch)
	if avg != 0 {
		t.Fatalf("steady-state allocations per 128-event batch = %v, want 0", avg)
	}
}
