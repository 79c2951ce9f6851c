package sim

import "slices"

// FIFO is a head-indexed queue; the zero value is empty. Pop advances the
// head instead of reslicing, because a [1:] slide throws away the array's
// head capacity and the next append reallocates it. The array is reused in
// place once the queue empties, and compacted once the dead prefix dominates
// so a queue that never drains does not grow without bound (amortized O(1)
// per pop): steady state allocates nothing.
type FIFO[T any] struct {
	s    []T
	head int
}

// Push appends x at the tail.
func (f *FIFO[T]) Push(x T) { f.s = append(f.s, x) }

// Len returns the number of queued items.
func (f *FIFO[T]) Len() int { return len(f.s) - f.head }

// Peek returns the head item; the queue must not be empty.
func (f *FIFO[T]) Peek() T { return f.s[f.head] }

// Pop removes and returns the head item; the queue must not be empty.
func (f *FIFO[T]) Pop() T {
	x := f.s[f.head]
	var zero T
	f.s[f.head] = zero // drop the reference for the collector
	f.head++
	switch {
	case f.head == len(f.s):
		f.s = f.s[:0]
		f.head = 0
	case f.head > 32 && f.head*2 >= len(f.s):
		n := copy(f.s, f.s[f.head:])
		clear(f.s[n:])
		f.s = f.s[:n]
		f.head = 0
	}
	return x
}

// A Slab's first chunk holds slabFirst entries and each next one twice as
// many, up to slabChunk.
const (
	slabFirst = 4
	slabChunk = 64
)

// Slab carves entries from arrays it allocates a chunk at a time; the zero
// value is ready. The chunks grow from slabFirst entries to slabChunk, so a
// slab that carves a handful of entries (a pool that never grows past its
// first few) allocates a handful, and a busy one pays one allocation per
// slabChunk entries. However its chunks grow, an entry is never handed out
// twice: whoever holds the pointer may keep it forever, which is what lets a
// record ride into the device cache and the NAND array with no copy. The
// price is retention: one live entry pins its whole array.
type Slab[T any] struct {
	free  []T
	chunk int // entries in the last chunk carved; 0 before the first
}

// New carves one entry holding v.
func (s *Slab[T]) New(v T) *T {
	x := &s.Take(1)[0]
	*x = v
	return x
}

// Take carves n contiguous zeroed entries. A run longer than the next chunk
// gets an array of its own.
func (s *Slab[T]) Take(n int) []T {
	if n > len(s.free) {
		s.chunk = min(max(2*s.chunk, slabFirst), slabChunk)
		s.free = make([]T, max(n, s.chunk))
	}
	x := s.free[:n:n]
	s.free = s.free[n:]
	return x
}

// Pool is the one free list of the stack's recycled objects (block
// requests and device commands, NAND program and read ops, page-cache
// entries, trace records, kvwal batches); the zero value is ready. It is
// LIFO, so the entry put last, whose memory is warmest, comes back first,
// and it needs no lock: the kernel runs one process at a time. A miss carves
// its entry from the pool's own Slab. Pool never clears an entry: what the
// owner keeps across reuse (a record's generation, a request's waiter
// array, a batch's op buffer) survives, and the owner resets the rest.
type Pool[T any] struct {
	free []*T
	slab Slab[T]
}

// Get returns the entry put last, as it was put, or a zeroed one carved
// from the slab, reporting which: a fresh entry is the caller's to bind once
// (the owner pointer and bound closures it keeps across reuse).
func (pl *Pool[T]) Get() (x *T, fresh bool) {
	n := len(pl.free)
	if n == 0 {
		return &pl.slab.Take(1)[0], true
	}
	x = pl.free[n-1]
	pl.free = pl.free[:n-1]
	return x, false
}

// Put returns x to the pool; its owner must not touch it again.
func (pl *Pool[T]) Put(x *T) { pl.free = append(pl.free, x) }

// Len returns the number of entries waiting for reuse.
func (pl *Pool[T]) Len() int { return len(pl.free) }

// Contains reports whether x waits in the pool for reuse.
func (pl *Pool[T]) Contains(x *T) bool { return slices.Contains(pl.free, x) }

// waitlist is the FIFO of parked processes behind every wait primitive.
// Entries go stale when their proc was woken some other way or reaped; the
// wake calls skip them.
type waitlist struct{ FIFO[*Proc] }

// wakeOne resumes the first still-suspended waiter, dropping stale entries
// in front of it.
func (w *waitlist) wakeOne(k *Kernel) {
	for w.Len() > 0 {
		if p := w.Pop(); p.state == stateSuspended {
			k.Resume(p)
			return
		}
	}
}

// wakeAll resumes every suspended waiter in FIFO order and empties the list.
func (w *waitlist) wakeAll(k *Kernel) {
	for w.Len() > 0 {
		if p := w.Pop(); p.state == stateSuspended {
			k.Resume(p)
		}
	}
}

// Queue is an unbounded FIFO message queue between processes. Put never
// blocks; Get blocks the calling process until an item is available. Queues
// never close: a consumer parked in Get when the simulation ends is reaped by
// Kernel.Close. Wake-ups use Mesa semantics: a woken getter re-checks for
// items and re-waits if another process stole them.
type Queue[T any] struct {
	k       *Kernel
	items   FIFO[T]
	waiters waitlist
}

// NewQueue returns an empty queue on kernel k.
func NewQueue[T any](k *Kernel) *Queue[T] {
	return &Queue[T]{k: k}
}

// Put appends x and wakes one waiting getter, if any.
func (q *Queue[T]) Put(x T) {
	q.items.Push(x)
	q.waiters.wakeOne(q.k)
}

// Get removes and returns the head item, blocking while the queue is empty.
func (q *Queue[T]) Get(p *Proc) T {
	for q.items.Len() == 0 {
		q.waiters.Push(p)
		p.Suspend()
	}
	return q.items.Pop()
}

// GetOrPark is the handler analogue of Get — one Mesa iteration: it either
// returns the head item (true) or parks the handler on the waiter list
// exactly as one pass of Get's wait loop would (false). A parked handler
// re-invokes GetOrPark when it is next dispatched; another process may have
// stolen the item by then, in which case it parks again (Mesa semantics).
func (q *Queue[T]) GetOrPark(h *Proc) (T, bool) {
	if q.items.Len() == 0 {
		q.waiters.Push(h)
		h.Park()
		var zero T
		return zero, false
	}
	return q.items.Pop(), true
}

// NewQueues returns n empty queues on kernel k in one array, each with room
// for capacity items and one parked getter before its FIFOs first grow: the
// shape of n indexed handlers serving one queue each (the NAND chips). The
// queues and their first FIFO capacity cost three allocations, however
// large n is; a queue that outgrows its share moves to an array of its own.
func NewQueues[T any](k *Kernel, n, capacity int) []Queue[T] {
	qs := make([]Queue[T], n)
	items := make([]T, n*capacity)
	waiters := make([]*Proc, n)
	for i := range qs {
		qs[i].k = k
		qs[i].items.s = items[i*capacity : i*capacity : (i+1)*capacity]
		qs[i].waiters.s = waiters[i : i : i+1]
	}
	return qs
}

// TryGet removes and returns the head item without blocking.
func (q *Queue[T]) TryGet() (T, bool) {
	if q.items.Len() == 0 {
		var zero T
		return zero, false
	}
	return q.items.Pop(), true
}

// Cond is a condition variable for processes. As with sync.Cond, the
// condition itself lives in caller state; Wait must be used in a loop.
type Cond struct {
	k       *Kernel
	waiters waitlist
}

// NewCond returns a condition variable on kernel k.
func NewCond(k *Kernel) *Cond { return &Cond{k: k} }

// Wait blocks the calling process until Signal or Broadcast wakes it.
func (c *Cond) Wait(p *Proc) {
	c.waiters.Push(p)
	p.Suspend()
}

// Park is the handler analogue of Wait: it appends the running handler to
// the waiter list and leaves it suspended, exactly as one Wait call would.
// Signal/Broadcast wake parked handlers and blocked goroutine procs alike;
// a woken handler re-checks its condition at the next activation and parks
// again if it does not hold (Mesa semantics, same as a Wait loop).
func (c *Cond) Park(h *Proc) {
	c.waiters.Push(h)
	h.Park()
}

// Signal wakes one waiting process, if any.
func (c *Cond) Signal() { c.waiters.wakeOne(c.k) }

// SignalN wakes up to n waiting processes in FIFO order. It is the
// fan-out-limited Broadcast for wake-ups where at most n waiters can make
// progress (e.g. n queued commands can occupy at most n service workers);
// the rest stay parked instead of paying a futile dispatch each.
func (c *Cond) SignalN(n int) {
	for ; n > 0 && c.waiters.Len() > 0; n-- {
		c.Signal()
	}
}

// Broadcast wakes every waiting process.
func (c *Cond) Broadcast() { c.waiters.wakeAll(c.k) }

// Waiters returns the number of processes currently parked on the condition.
func (c *Cond) Waiters() int { return c.waiters.Len() }

// Mutex is a one-holder resource, such as a channel bus or a DMA engine.
// Mesa semantics: Unlock wakes the first waiter, which re-contends, so a
// process that never blocked may barge in front of parked waiters.
type Mutex struct {
	k       *Kernel
	held    bool
	waiters waitlist
}

// NewMutex returns an unlocked mutex on kernel k.
func NewMutex(k *Kernel) *Mutex { return &Mutex{k: k} }

// Lock takes the mutex, blocking while another process holds it.
func (m *Mutex) Lock(p *Proc) {
	for m.held {
		m.waiters.Push(p)
		p.Suspend()
	}
	m.held = true
}

// LockOrPark is the handler analogue of Lock — one Mesa iteration: it either
// takes the mutex (true) or appends the handler to the waiter list and parks
// it (false), exactly as one pass of Lock's wait loop would. A parked handler
// retries when next dispatched; Unlock wakes handlers and goroutine waiters
// alike.
func (m *Mutex) LockOrPark(h *Proc) bool {
	if m.held {
		m.waiters.Push(h)
		h.Park()
		return false
	}
	m.held = true
	return true
}

// Unlock releases the mutex and wakes the first waiter, if any. Unlocking an
// unlocked mutex panics.
func (m *Mutex) Unlock() {
	if !m.held {
		panic("sim: Unlock of unlocked mutex")
	}
	m.held = false
	m.waiters.wakeOne(m.k)
}
