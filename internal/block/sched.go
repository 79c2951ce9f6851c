package block

import "repro/internal/sim"

// Scheduler is an IO scheduler: it absorbs submitted requests and yields
// them in dispatch order. Implementations are not safe for use outside the
// sim kernel's single-process discipline (none needed).
type Scheduler interface {
	Name() string
	// Add offers a request. It returns false while the scheduler is not
	// accepting (the epoch scheduler blocks admission between a barrier's
	// arrival and its reassignment); the caller must stage the request and
	// retry after Next drains the queue.
	Add(r *Request) bool
	// Next removes and returns the next request to dispatch, or nil when
	// the queue is empty (or only holds requests that may not leave yet).
	Next() *Request
	// Pending returns the number of queued requests.
	Pending() int
	// Accepting reports whether Add would currently succeed.
	Accepting() bool
}

// NOOP is the no-op scheduler: plain FIFO, no reordering. With NOOP (or an
// NVMe-style direct path) the dispatch order equals the issue order (§2.1).
type NOOP struct {
	q fifo[*Request]
}

// NewNOOP returns a NOOP scheduler.
func NewNOOP() *NOOP { return &NOOP{} }

// Name implements Scheduler.
func (s *NOOP) Name() string { return "noop" }

// Add implements Scheduler.
func (s *NOOP) Add(r *Request) bool { s.q.push(r); return true }

// Next implements Scheduler.
func (s *NOOP) Next() *Request {
	if s.q.len() == 0 {
		return nil
	}
	return s.q.pop()
}

// Pending implements Scheduler.
func (s *NOOP) Pending() int { return s.q.len() }

// Accepting implements Scheduler.
func (s *NOOP) Accepting() bool { return true }

// Deadline approximates the kernel's deadline scheduler: reads are served
// before writes unless a write has waited past its deadline.
type Deadline struct {
	reads    fifo[*Request]
	writes   fifo[*Request]
	now      func() sim.Time
	deadline sim.Duration
}

// NewDeadline returns a Deadline scheduler; now supplies the current virtual
// time (pass kernel.Now).
func NewDeadline(now func() sim.Time, writeDeadline sim.Duration) *Deadline {
	if writeDeadline == 0 {
		writeDeadline = 5 * sim.Millisecond
	}
	return &Deadline{now: now, deadline: writeDeadline}
}

// Name implements Scheduler.
func (s *Deadline) Name() string { return "deadline" }

// Add implements Scheduler.
func (s *Deadline) Add(r *Request) bool {
	if r.Op == OpRead {
		s.reads.push(r)
	} else {
		s.writes.push(r)
	}
	return true
}

// Next implements Scheduler.
func (s *Deadline) Next() *Request {
	if s.writes.len() > 0 && sim.Duration(s.now()-s.writes.peek().issued) > s.deadline {
		return s.writes.pop()
	}
	if s.reads.len() > 0 {
		return s.reads.pop()
	}
	if s.writes.len() > 0 {
		return s.writes.pop()
	}
	return nil
}

// Pending implements Scheduler.
func (s *Deadline) Pending() int { return s.reads.len() + s.writes.len() }

// Accepting implements Scheduler.
func (s *Deadline) Accepting() bool { return true }

// CFQ approximates the completely-fair queueing scheduler: one FIFO per
// issuing thread, drained round-robin. This is the base scheduler the paper
// builds the epoch scheduler on ("currently, the Epoch based IO scheduler is
// implemented on top of existing CFQ scheduler", §3.3).
type CFQ struct {
	queues  map[int]*fifo[*Request]
	order   []int // round-robin order of PIDs with queued requests
	nextIdx int
	n       int
}

// NewCFQ returns a CFQ scheduler.
func NewCFQ() *CFQ { return &CFQ{queues: make(map[int]*fifo[*Request])} }

// Name implements Scheduler.
func (s *CFQ) Name() string { return "cfq" }

// Add implements Scheduler.
func (s *CFQ) Add(r *Request) bool {
	q, ok := s.queues[r.PID]
	if !ok {
		q = &fifo[*Request]{}
		s.queues[r.PID] = q
	}
	if q.len() == 0 {
		s.order = append(s.order, r.PID)
	}
	q.push(r)
	s.n++
	return true
}

// Next implements Scheduler.
func (s *CFQ) Next() *Request {
	for len(s.order) > 0 {
		if s.nextIdx >= len(s.order) {
			s.nextIdx = 0
		}
		pid := s.order[s.nextIdx]
		q := s.queues[pid]
		if q.len() == 0 {
			s.order = append(s.order[:s.nextIdx], s.order[s.nextIdx+1:]...)
			continue
		}
		r := q.pop()
		s.n--
		if q.len() == 0 {
			s.order = append(s.order[:s.nextIdx], s.order[s.nextIdx+1:]...)
		} else {
			s.nextIdx++
		}
		return r
	}
	return nil
}

// Pending implements Scheduler.
func (s *CFQ) Pending() int { return s.n }

// Accepting implements Scheduler.
func (s *CFQ) Accepting() bool { return true }
