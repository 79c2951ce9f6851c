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
// It is the base scheduler of every epoch scheduler the stack builds.
type NOOP struct {
	q sim.FIFO[*Request]
}

// NewNOOP returns a NOOP scheduler.
func NewNOOP() *NOOP { return &NOOP{} }

// Name implements Scheduler.
func (s *NOOP) Name() string { return "noop" }

// Add implements Scheduler.
func (s *NOOP) Add(r *Request) bool { s.q.Push(r); return true }

// Next implements Scheduler.
func (s *NOOP) Next() *Request {
	if s.q.Len() == 0 {
		return nil
	}
	return s.q.Pop()
}

// Pending implements Scheduler.
func (s *NOOP) Pending() int { return s.q.Len() }

// Accepting implements Scheduler.
func (s *NOOP) Accepting() bool { return true }
