package block

import (
	"repro/internal/device"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// Bounded command retry. Media faults (internal/fault) surface at the
// device interface as commands completing with an error; without a retry
// layer every transient UNC sector would propagate straight into the
// filesystem. The retrier gives the block layer the kernel's conventional
// answer — re-drive the command a bounded number of times with backoff,
// then fail the request — so upper layers (fs, jbd, kvwal) only ever see
// *hard* failures, with the retry traffic visible as metrics counters
// ("block/retries", "block/io.errors").
//
// With retry off (the default everywhere), the machinery is entirely
// absent: no daemon is spawned, no counters registered, and a command error
// propagates to Request.Err on first completion.

// The retry policy mirrors a conservative host stack. Reads are where
// retries pay off (read-retry voltage ladders make a repeat attempt
// genuinely independent); writes never carry media errors in this model
// (transient program failures retry inside the chip), so the write budget
// exists for symmetry and future fault classes.
const (
	readBudget   = 3                     // re-submissions of a read before its error propagates
	writeBudget  = 1                     // re-submissions of a write
	retryBackoff = 100 * sim.Microsecond // delay before the first re-submission; doubles per attempt
)

func budget(op Op) int {
	switch op {
	case OpRead:
		return readBudget
	case OpWrite:
		return writeBudget
	}
	return 0
}

func backoff(attempt int) sim.Duration {
	d := retryBackoff
	for i := 1; i < attempt; i++ {
		d *= 2
	}
	return d
}

type retryItem struct {
	r   *Request
	due sim.Time
}

// retrier re-drives failed commands for one cmdPool. Its daemon is spawned
// lazily on the first failure, so a fault-free run — in particular every
// golden-trace comparison — never sees an extra process.
type retrier struct {
	k    *sim.Kernel
	dev  *device.Device
	pool *cmdPool

	// FIFO of requests awaiting re-submission. Exponential backoff can put
	// a later-queued item due earlier than the head; the daemon still
	// drains in queue order (the head's sleep bounds the extra delay),
	// keeping the schedule deterministic and the structure trivial.
	q       sim.FIFO[retryItem]
	cond    *sim.Cond
	running bool

	retries *metrics.Counter
	errors  *metrics.Counter
}

// enableRetry arms the pool's bounded retry engine against dev. reg may be
// nil (counters become no-ops). Call once, before traffic.
func (pl *cmdPool) enableRetry(k *sim.Kernel, dev *device.Device, reg *metrics.Registry) {
	pl.retry = &retrier{
		k: k, dev: dev, pool: pl,
		cond:    sim.NewCond(k),
		retries: reg.Counter("block/retries"),
		errors:  reg.Counter("block/io.errors"),
	}
}

// enqueue schedules one re-submission of r (interrupt context: no blocking).
func (rt *retrier) enqueue(r *Request) {
	rt.retries.Inc()
	rt.q.Push(retryItem{r: r, due: rt.k.Now().Add(backoff(r.attempts))})
	if !rt.running {
		rt.running = true
		rt.k.Spawn("block/retry", rt.daemon)
	}
	rt.cond.Broadcast()
}

func (rt *retrier) daemon(p *sim.Proc) {
	for {
		if rt.q.Len() == 0 {
			rt.cond.Wait(p)
			continue
		}
		it := rt.q.Pop()
		if now := p.Now(); it.due > now {
			p.Advance(sim.Duration(it.due - now))
		}
		// A device crash drops queued commands without completing them;
		// pending retries die the same way.
		if rt.dev.Dead() || !feed(p, rt.dev, rt.pool.get(it.r)) {
			return
		}
	}
}
