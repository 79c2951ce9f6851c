// Package block implements the order-preserving block device layer of the
// paper (§3): request flags REQ_ORDERED and REQ_BARRIER, Epoch-based IO
// scheduling with barrier reassignment on top of a conventional scheduler
// (NOOP; the paper's prototype wraps CFQ, §3.3), and a dispatch module that
// maps barrier writes to SCSI "ordered" priority commands so transfer order
// is preserved without Wait-on-Transfer.
package block

import (
	"repro/internal/reqtrace"
	"repro/internal/sim"
)

// Flags carry the ordering attributes of a request.
type Flags uint32

// Request flags mirroring the paper's additions to the kernel block layer.
const (
	// FlagOrdered marks an order-preserving request (REQ_ORDERED): it may be
	// reordered freely only within its epoch.
	FlagOrdered Flags = 1 << iota
	// FlagBarrier marks a barrier request (REQ_BARRIER): it delimits an
	// epoch and is dispatched as a barrier write with ordered priority.
	FlagBarrier
	// FlagFlush asks the device to flush its writeback cache before
	// servicing the request (REQ_FLUSH).
	FlagFlush
	// FlagFUA forces the block to the storage surface before completion
	// (REQ_FUA).
	FlagFUA
)

// Has reports whether all bits in f2 are set.
func (f Flags) Has(f2 Flags) bool { return f&f2 == f2 }

// Role is a request's IO class, after Linux's ioprio classes and blk-mq's
// per-stream ordering domains: one row of the role table (roles), which
// only this package reads. A role never reaches the device.
type Role uint8

// The roles.
const (
	// RoleSync — the zero value — is IO a caller waits on or orders; its
	// reads skip the software queues for the hardware queue's read FIFO.
	RoleSync Role = iota
	// RoleBackground is best-effort background IO (REQ_BACKGROUND) that
	// carries no ordering promise: its reads queue behind writes, and its
	// orderless writes spread (see Layer.route).
	RoleBackground
	// RoleIdle is background IO of the idle class (IOPRIO_CLASS_IDLE), such
	// as an LSM store's compaction. It yields the congestion limit: it
	// waits while its software queue holds QueueLimit requests of any role,
	// and no other request counts it, so idle IO never blocks a commit.
	RoleIdle
	// RoleCheckpoint is a journal's checkpoint IO and RoleFlush its
	// durability flush. Each rides a domain derived from the journal's
	// stream, so its flushes and FUA writes never hold back the commit
	// path, nor each other (see jbd).
	RoleCheckpoint
	RoleFlush
)

// roleRule is one row of the role table.
type roleRule struct {
	// domain is ORed into the stream: a tag above every order stream and a
	// multiple of every realistic hardware-queue count, so the derived
	// domain is no data or order stream and shares its stream's hardware
	// queue.
	domain  uint64
	yields  bool // waits behind any QueueLimit requests and counts against no one
	spreads bool // orderless writes may leave an ordering stream for a data stream
}

var roles = [...]roleRule{
	RoleSync:       {},
	RoleBackground: {spreads: true},
	RoleIdle:       {yields: true, spreads: true},
	RoleCheckpoint: {domain: 1 << 63},
	RoleFlush:      {domain: 1 << 62},
}

// Op is the request operation.
type Op int

// Request operations.
const (
	OpWrite Op = iota
	OpRead
	OpFlush
)

func (o Op) String() string {
	switch o {
	case OpWrite:
		return "write"
	case OpRead:
		return "read"
	case OpFlush:
		return "flush"
	}
	return "invalid"
}

// Request is one block-layer IO request for a single 4KB page.
type Request struct {
	Op    Op
	LPA   uint64
	Data  any
	Flags Flags
	Role  Role
	// PID is the issuing proc's ID. Nothing reads it; it stays while bench/
	// sets it.
	PID int
	// Stream identifies the ordering domain of the request (§8's per-stream
	// barriers). Ordering and barrier semantics hold only among requests of
	// the same stream; requests of different streams are mutually orderless.
	// The single-queue Layer schedules every stream in one epoch sequence; the
	// multi-queue layer (internal/blkmq) keys epochs on it. Either way the
	// command carries it, scoping device-level ordering. Submission applies
	// the role's rules to it (Layer.route).
	Stream uint64

	// Trace is the request-scoped causal trace context (zero: tracing
	// off). The layer stamps StageBlockQueue at submission and
	// StageBlockDispatch when the dispatcher hands the request to the
	// device; the context rides into the device command so service
	// start/done land on the same trace.
	Trace reqtrace.Ctx

	// OnComplete, if set, fires at IO completion (interrupt context: it must
	// not block; use it to Resume waiting processes or tally counters).
	OnComplete func(at sim.Time, r *Request)

	// Err reports a hard IO failure, valid once the request completed: the
	// device returned an error (fault.ErrUNC on an uncorrectable sector)
	// and the layer's retry budget — if any — is exhausted. Callers that
	// wait on requests must check it before trusting Data.
	Err error

	issued    sim.Time
	parkedAt  sim.Time // when its submitter first waited on congestion
	parked    bool     // refused for congestion and not admitted yet
	completed bool
	attempts  int    // re-submissions consumed (bounded by the retry budget)
	epoch     uint64 // set by the epoch scheduler
	waiters   []*sim.Proc
	k         *sim.Kernel
	pool      *ReqPool // where the last Release returns it; nil: not pooled
	holds     int      // see ReqPool
}

// OrderStreamBase is the first stream ID of the order-stream range: the
// per-shard ordering domains a multi-tenant filesystem stack claims on a
// multi-queue device (one journal+foreground stream per shard, see
// jbd.Config.Stream). The range sits far above the data streams the
// multi-queue layer's background spreading uses (1..HWQueues-1), so the
// two can never collide; and because OrderStreamBase is a multiple of
// every realistic hardware-queue count, OrderStream(i) still lands on
// hardware queue i mod M — shard ordering domains spread across dispatch
// queues exactly like shard data streams do.
const OrderStreamBase uint64 = 1 << 32

// OrderStream returns the stream ID of order domain i (i >= 0). Domain 0
// is stream 0 itself — the default global ordering domain — so
// single-shard stacks are unchanged.
func OrderStream(i int) uint64 {
	if i == 0 {
		return 0
	}
	return OrderStreamBase + uint64(i)
}

// Ordered reports whether the request is order-preserving (ordered or
// barrier).
func (r *Request) Ordered() bool { return r.Flags.Has(FlagOrdered) || r.Flags.Has(FlagBarrier) }

// Completed reports whether the request has finished.
func (r *Request) Completed() bool { return r.completed }

// Epoch returns the epoch assigned by the scheduler.
func (r *Request) Epoch() uint64 { return r.epoch }

// IssuedAt returns the submission time.
func (r *Request) IssuedAt() sim.Time { return r.issued }

// bind attaches the request to kernel k and stamps its submission time. The
// layer calls it exactly once, when the request enters a queue, and holds
// the request from here until complete has run its callbacks.
func (r *Request) bind(k *sim.Kernel, at sim.Time) {
	r.Hold()
	r.k = k
	r.issued = at
	r.Err = nil
	r.attempts = 0
	r.Trace.StampChain(reqtrace.StageBlockQueue, at)
}

// Wait blocks the calling process until the request completes. This is the
// Wait-on-Transfer primitive of the legacy stack (§2.2): callers in the
// barrier-enabled stack should rarely need it. The waiter holds the request
// across the park: completion only schedules it, and it must still find the
// request completed — not recycled — when it runs.
func (r *Request) Wait(p *sim.Proc) {
	r.Hold()
	for !r.completed {
		r.waiters = append(r.waiters, p)
		p.Suspend()
	}
	r.Release()
}

// complete marks the request done, wakes waiters, and runs OnComplete and
// then the layer's own done callback, if any. Called by the dispatcher from
// device completion context. It ends by dropping the hold bind took, so a
// callback that releases the last other hold does not recycle the request
// under the ones after it.
func (r *Request) complete(at sim.Time, done func(at sim.Time, r *Request)) {
	r.completed = true
	for _, w := range r.waiters {
		r.k.Resume(w) // only schedules w: the list cannot grow under the loop
	}
	r.waiters = r.waiters[:0] // keep the array: Release carries it across reuse
	if r.OnComplete != nil {
		r.OnComplete(at, r)
	}
	if done != nil {
		done(at, r)
	}
	r.Release()
}
