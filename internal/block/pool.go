package block

import (
	"repro/internal/device"
	"repro/internal/sim"
)

// The dispatch hot path recycles its per-command allocations through
// sim.Pool, the stack's one free list: LIFO, lock-free (the kernel runs one
// process at a time) and deterministic, with misses carved from the pool's
// own sim.Slab, so growing to a run's high-water mark costs a few chunk
// allocations rather than one per entry.

// cmdPool recycles device commands together with their completion plumbing.
// Each pooled entry binds its Done closure once, at allocation, so a
// steady-state dispatch allocates neither the command nor a closure.
type cmdPool struct {
	free   sim.Pool[cmdCtx]
	onDone func(at sim.Time, r *Request)
	retry  *retrier // nil unless enableRetry armed bounded retry
}

type cmdCtx struct {
	pool *cmdPool
	r    *Request
	cmd  device.Command
}

// get builds the device command for r under order-preserving dispatch
// (§3.4) from the free list: barrier writes and flushes carry ordered
// priority, FUA/PreFlush map to their command fields, and the command
// inherits the request's stream so device-level ordering scopes correctly.
// The command returns to the pool when it completes; commands dropped by a
// device crash simply fall out of the pool.
func (pl *cmdPool) get(r *Request) *device.Command {
	c, fresh := pl.free.Get()
	if fresh {
		c.pool = pl
		c.cmd.Done = c.done // one bound closure per pooled ctx, ever
	}
	c.r = r
	cmd := &c.cmd
	cmd.LPA, cmd.Data, cmd.Stream = r.LPA, r.Data, r.Stream
	cmd.Trace = r.Trace
	cmd.Kind, cmd.Prio = device.CmdWrite, device.PrioSimple
	cmd.FUA, cmd.PreFlush, cmd.Barrier = false, false, false
	switch r.Op {
	case OpWrite:
		cmd.FUA = r.Flags.Has(FlagFUA)
		cmd.PreFlush = r.Flags.Has(FlagFlush)
		cmd.Barrier = r.Flags.Has(FlagBarrier)
		if cmd.Barrier {
			// Order-preserving dispatch: the barrier write carries ordered
			// priority (§3.4).
			cmd.Prio = device.PrioOrdered
		}
	case OpRead:
		cmd.Kind = device.CmdRead
	case OpFlush:
		cmd.Kind = device.CmdFlush
		// Ordered, not head-of-queue: the flush must drain everything
		// received before it into the cache first, then flush. Later
		// writes of its stream wait for it; reads do not (the device lets
		// a read begin on arrival).
		cmd.Prio = device.PrioOrdered
	}
	return cmd
}

func (c *cmdCtx) done(at sim.Time, cc *device.Command) {
	r := c.r
	pl := c.pool
	data := cc.Data
	c.r = nil
	c.cmd.Data = nil
	pl.free.Put(c)
	if cc.Err != nil {
		if rt := pl.retry; rt != nil && r.attempts < budget(r.Op) {
			// Within budget: re-drive the command after backoff instead of
			// completing the request. The ctx is already recycled; the
			// retry daemon builds a fresh command at submission time.
			r.attempts++
			rt.enqueue(r)
			return
		}
		// No retry configured or budget exhausted: a hard failure.
		r.Err = cc.Err
		if rt := pl.retry; rt != nil {
			rt.errors.Inc()
		}
	}
	if r.Op == OpRead {
		r.Data = data
	}
	r.complete(at, pl.onDone)
}

// ReqPool recycles block requests by counting their holders. Get returns a
// request with one hold, the caller's. Whoever keeps the pointer in a list of
// its own past the caller's use (a transaction's ordered-data list) adds a
// Hold. The layer holds a request from submission until its completion
// callbacks have returned, and Wait holds it across the park, so neither an
// OnComplete that releases nor a waiter that runs later sees a recycled
// request. The last Release returns the request to the pool.
type ReqPool struct{ free sim.Pool[Request] }

// Get returns a zeroed request holding one reference for the caller.
func (pl *ReqPool) Get() *Request {
	r, fresh := pl.free.Get()
	if fresh {
		r.pool = pl
	}
	r.holds = 1
	return r
}

// Hold records one more holder of r.
func (r *Request) Hold() { r.holds++ }

// Release drops one hold. The last one returns a request drawn from a pool
// to it; a request built by hand is left to the garbage collector, so
// holders need not know where a request came from.
func (r *Request) Release() {
	r.holds--
	if r.holds < 0 {
		panic("block: Request.Release without a matching Hold")
	}
	if r.holds == 0 && r.pool != nil {
		*r = Request{waiters: r.waiters[:0], pool: r.pool}
		r.pool.free.Put(r)
	}
}
