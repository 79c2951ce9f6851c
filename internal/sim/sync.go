package sim

// Queue is an unbounded FIFO message queue between processes. Put never
// blocks; Get blocks the calling process until an item is available or the
// queue is closed. Wake-ups use Mesa semantics: a woken getter re-checks for
// items and re-waits if another process stole them.
//
// Items and waiters are head-indexed slices rather than [1:]-sliding ones:
// sliding discards the backing array's head capacity, so a busy queue
// reallocated on nearly every append. The head index drains in place and
// resets to reuse the full array once empty — steady state allocates
// nothing.
type Queue[T any] struct {
	k       *Kernel
	items   []T
	ihead   int
	waiters waitFIFO
	closed  bool
}

// NewQueue returns an empty queue on kernel k.
func NewQueue[T any](k *Kernel) *Queue[T] {
	return &Queue[T]{k: k}
}

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return len(q.items) - q.ihead }

// Put appends x and wakes one waiting getter, if any.
func (q *Queue[T]) Put(x T) {
	if q.closed {
		panic("sim: Put on closed queue")
	}
	q.items = append(q.items, x)
	q.wakeOne()
}

func (q *Queue[T]) wakeOne() {
	for {
		w, ok := q.waiters.pop()
		if !ok {
			return
		}
		if w.state == stateSuspended {
			q.k.Resume(w)
			return
		}
	}
}

func (q *Queue[T]) popItem() T {
	x := q.items[q.ihead]
	var zero T
	q.items[q.ihead] = zero // release references for GC
	q.ihead++
	switch {
	case q.ihead == len(q.items):
		q.items = q.items[:0]
		q.ihead = 0
	case q.ihead > 32 && q.ihead*2 >= len(q.items):
		// A queue that never fully drains would otherwise grow its backing
		// array by the consumed prefix forever; compact once the dead half
		// dominates (amortized O(1) per pop).
		n := copy(q.items, q.items[q.ihead:])
		clear(q.items[n:])
		q.items = q.items[:n]
		q.ihead = 0
	}
	return x
}

// Get removes and returns the head item, blocking while the queue is empty.
// The second result is false if the queue was closed and drained.
func (q *Queue[T]) Get(p *Proc) (T, bool) {
	for q.Len() == 0 {
		if q.closed {
			var zero T
			return zero, false
		}
		q.waiters.push(p)
		p.Suspend()
	}
	return q.popItem(), true
}

// GetOrPark is the handler analogue of Get — one Mesa iteration: it either
// returns the head item (got true), reports the queue closed and drained
// (closed true), or parks the handler on the waiter list exactly as one
// pass of Get's wait loop would. A parked handler re-invokes GetOrPark when
// it is next dispatched; another process may have stolen the item by then,
// in which case it parks again (Mesa semantics).
func (q *Queue[T]) GetOrPark(h *Proc) (x T, got bool, closed bool) {
	if q.Len() == 0 {
		if q.closed {
			return x, false, true
		}
		q.waiters.push(h)
		h.Park()
		return x, false, false
	}
	return q.popItem(), true, false
}

// TryGet removes and returns the head item without blocking.
func (q *Queue[T]) TryGet() (T, bool) {
	if q.Len() == 0 {
		var zero T
		return zero, false
	}
	return q.popItem(), true
}

// Close marks the queue closed and wakes all waiters; subsequent Gets drain
// remaining items then report false.
func (q *Queue[T]) Close() {
	q.closed = true
	q.waiters.wakeAll(q.k)
}

// waitFIFO is a head-indexed FIFO of parked processes shared by the wait
// primitives: pops drain in place and the backing array is reused once
// empty, so steady-state park/wake cycles allocate nothing.
type waitFIFO struct {
	ps   []*Proc
	head int
}

func (f *waitFIFO) push(p *Proc) { f.ps = append(f.ps, p) }

func (f *waitFIFO) len() int { return len(f.ps) - f.head }

func (f *waitFIFO) pop() (*Proc, bool) {
	if f.head == len(f.ps) {
		return nil, false
	}
	p := f.ps[f.head]
	f.ps[f.head] = nil
	f.head++
	switch {
	case f.head == len(f.ps):
		f.ps = f.ps[:0]
		f.head = 0
	case f.head > 32 && f.head*2 >= len(f.ps):
		// Compact a never-empty waitlist so the consumed prefix cannot grow
		// without bound (amortized O(1) per pop).
		n := copy(f.ps, f.ps[f.head:])
		clear(f.ps[n:])
		f.ps = f.ps[:n]
		f.head = 0
	}
	return p, true
}

// wakeAll resumes every suspended process in FIFO order and empties the
// list.
func (f *waitFIFO) wakeAll(k *Kernel) {
	for i := f.head; i < len(f.ps); i++ {
		if w := f.ps[i]; w.state == stateSuspended {
			k.Resume(w)
		}
		f.ps[i] = nil
	}
	f.ps = f.ps[:0]
	f.head = 0
}

// Cond is a condition variable for processes. As with sync.Cond, the
// condition itself lives in caller state; Wait must be used in a loop.
type Cond struct {
	k       *Kernel
	waiters waitFIFO
}

// NewCond returns a condition variable on kernel k.
func NewCond(k *Kernel) *Cond { return &Cond{k: k} }

// Wait blocks the calling process until Signal or Broadcast wakes it.
func (c *Cond) Wait(p *Proc) {
	c.waiters.push(p)
	p.Suspend()
}

// Park is the handler analogue of Wait: it appends the running handler to
// the waiter list and leaves it suspended, exactly as one Wait call would.
// Signal/Broadcast wake parked handlers and blocked goroutine procs alike;
// a woken handler re-checks its condition at the next activation and parks
// again if it does not hold (Mesa semantics, same as a Wait loop).
func (c *Cond) Park(h *Proc) {
	c.waiters.push(h)
	h.Park()
}

// Signal wakes one waiting process, if any.
func (c *Cond) Signal() {
	for {
		w, ok := c.waiters.pop()
		if !ok {
			return
		}
		if w.state == stateSuspended {
			c.k.Resume(w)
			return
		}
	}
}

// SignalN wakes up to n waiting processes in FIFO order. It is the
// fan-out-limited Broadcast for wake-ups where at most n waiters can make
// progress (e.g. n queued commands can occupy at most n service workers);
// the rest stay parked instead of paying a futile dispatch each.
func (c *Cond) SignalN(n int) {
	for ; n > 0 && c.waiters.len() > 0; n-- {
		c.Signal()
	}
}

// Broadcast wakes every waiting process.
func (c *Cond) Broadcast() {
	c.waiters.wakeAll(c.k)
}

// Waiters returns the number of processes currently parked on the condition.
func (c *Cond) Waiters() int { return c.waiters.len() }

// Semaphore is a counting semaphore, useful for modelling slot-limited
// resources such as command-queue entries or a DMA bus.
type Semaphore struct {
	k       *Kernel
	avail   int
	cap     int
	waiters []semWaiter
}

type semWaiter struct {
	p *Proc
	n int
}

// NewSemaphore returns a semaphore with n free slots.
func NewSemaphore(k *Kernel, n int) *Semaphore {
	return &Semaphore{k: k, avail: n, cap: n}
}

// Acquire takes n slots, blocking until they are available. Mesa
// semantics: a woken waiter re-contends, so a process that never blocked
// may barge in front of parked waiters (as with the former
// Broadcast-based implementation).
func (s *Semaphore) Acquire(p *Proc, n int) {
	if n > s.cap {
		panic("sim: Acquire exceeds semaphore capacity")
	}
	for s.avail < n {
		s.waiters = append(s.waiters, semWaiter{p: p, n: n})
		p.Suspend()
	}
	s.avail -= n
}

// AcquireOrPark is the handler analogue of Acquire — one Mesa iteration: it
// either takes the n slots (true) or appends the handler to the waiter list
// and parks it (false), exactly as one pass of Acquire's wait loop would. A
// parked handler retries when next dispatched; Release wakes handlers and
// goroutine waiters alike.
func (s *Semaphore) AcquireOrPark(h *Proc, n int) bool {
	if n > s.cap {
		panic("sim: Acquire exceeds semaphore capacity")
	}
	if s.avail < n {
		s.waiters = append(s.waiters, semWaiter{p: h, n: n})
		h.Park()
		return false
	}
	s.avail -= n
	return true
}

// TryAcquire takes n slots without blocking, reporting success.
func (s *Semaphore) TryAcquire(n int) bool {
	if s.avail < n {
		return false
	}
	s.avail -= n
	return true
}

// Release returns n slots and wakes, in FIFO order, every waiter the freed
// slots can satisfy — skipping (but keeping parked) waiters whose request
// exceeds what remains, so a large waiter at the head never starves a
// satisfiable small one behind it. Waking only provisionable waiters
// (instead of broadcasting) spares the rest of a contended pool a futile
// dispatch each; for the single-slot resources this simulator models, the
// allocation order is identical to a broadcast's FIFO re-contention.
func (s *Semaphore) Release(n int) {
	s.avail += n
	if s.avail > s.cap {
		panic("sim: Release beyond semaphore capacity")
	}
	virt := s.avail
	kept := s.waiters[:0]
	for i, w := range s.waiters {
		if virt == 0 {
			kept = append(kept, s.waiters[i:]...)
			break
		}
		if w.p.state != stateSuspended {
			continue // stale entry: the waiter re-queued or was reaped
		}
		if w.n > virt {
			kept = append(kept, w)
			continue
		}
		virt -= w.n
		s.k.Resume(w.p)
	}
	s.waiters = kept
}

// Avail returns the number of free slots.
func (s *Semaphore) Avail() int { return s.avail }

// InUse returns the number of held slots.
func (s *Semaphore) InUse() int { return s.cap - s.avail }
