package block

// EpochScheduler implements Epoch-based IO scheduling with barrier
// reassignment (§3.3). It wraps a conventional scheduler and adds three
// rules:
//
//  1. The partial order between epochs is preserved.
//  2. Requests within an epoch may be scheduled freely against each other.
//  3. Orderless requests may be scheduled freely across epochs.
//
// Mechanically: when a barrier request enters, its barrier flag is removed,
// it is queued as an ordered request, and the scheduler stops accepting new
// requests. The base scheduler reorders the queue at will (everything in it
// is either orderless or belongs to the same epoch). The ordered request
// that leaves the queue last is designated the new barrier — Epoch-Based
// Barrier Reassignment. When no ordered requests remain queued, admission
// reopens; orderless leftovers simply join the next epoch.
type EpochScheduler struct {
	base          Scheduler
	accepting     bool
	orderedQueued int // ordered (incl. stripped-barrier) requests in base
	epoch         uint64
	reassigned    int64 // barriers moved to a different request than submitted
	epochsClosed  int64
}

// NewEpochScheduler wraps base.
func NewEpochScheduler(base Scheduler) *EpochScheduler {
	return &EpochScheduler{base: base, accepting: true}
}

// Name implements Scheduler.
func (s *EpochScheduler) Name() string { return "epoch(" + s.base.Name() + ")" }

// Accepting implements Scheduler.
func (s *EpochScheduler) Accepting() bool { return s.accepting }

// Pending implements Scheduler.
func (s *EpochScheduler) Pending() int { return s.base.Pending() }

// Reassigned returns how many barrier tags landed on a different request
// than the one that carried them in.
func (s *EpochScheduler) Reassigned() int64 { return s.reassigned }

// EpochsClosed returns the number of epochs fully dispatched.
func (s *EpochScheduler) EpochsClosed() int64 { return s.epochsClosed }

// Add implements Scheduler.
func (s *EpochScheduler) Add(r *Request) bool {
	if !s.accepting {
		return false
	}
	r.epoch = s.epoch
	if r.Flags.Has(FlagBarrier) {
		// Strip the barrier; remember the request as ordered. Admission
		// closes until the epoch fully leaves the queue.
		r.Flags &^= FlagBarrier
		r.Flags |= FlagOrdered
		s.accepting = false
	}
	if r.Ordered() {
		s.orderedQueued++
	}
	if !s.base.Add(r) {
		panic("block: base scheduler rejected a request")
	}
	return true
}

// Next implements Scheduler.
func (s *EpochScheduler) Next() *Request {
	r := s.base.Next()
	if r == nil {
		return nil
	}
	if r.Ordered() {
		s.orderedQueued--
		if s.orderedQueued == 0 && !s.accepting {
			// r is the last order-preserving request of the epoch: it
			// becomes the barrier (possibly reassigned from the original).
			r.Flags |= FlagBarrier
			s.reassigned++ // counted even if it lands on the original carrier
			s.epoch++
			s.epochsClosed++
			s.accepting = true
		}
	}
	return r
}
