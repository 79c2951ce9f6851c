// Package block implements the order-preserving block device layer of the
// paper (§3): request flags REQ_ORDERED and REQ_BARRIER, Epoch-based IO
// scheduling with barrier reassignment on top of conventional schedulers
// (NOOP, Deadline, CFQ), and a dispatch module that maps barrier writes to
// SCSI "ordered" priority commands so transfer order is preserved without
// Wait-on-Transfer.
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
	// FlagBackground marks best-effort background writeback (REQ_BACKGROUND):
	// no caller is waiting on the request and it carries no ordering promise.
	// The multi-queue layer scatters such requests onto data streams so they
	// never sit in front of foreground traffic; it is purely a host-side
	// hint and never reaches the device.
	FlagBackground
)

// Has reports whether all bits in f2 are set.
func (f Flags) Has(f2 Flags) bool { return f&f2 == f2 }

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
	// PID identifies the issuing thread; the CFQ scheduler keeps one queue
	// per PID.
	PID int
	// Stream identifies the ordering domain of the request (§8's per-stream
	// barriers). Ordering and barrier semantics hold only among requests of
	// the same stream; requests of different streams are mutually orderless.
	// The single-queue Layer schedules every stream in one epoch sequence; the
	// multi-queue layer (internal/blkmq) keys epochs on it. Either way the
	// command carries it, scoping device-level ordering.
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

// IsOrderStream reports whether id names a non-default order domain.
func IsOrderStream(id uint64) bool { return id >= OrderStreamBase && !IsCheckpointStream(id) }

// checkpointStreamBit tags a checkpoint stream. It sits above every order
// stream and, like OrderStreamBase, is a multiple of every realistic
// hardware-queue count.
const checkpointStreamBit uint64 = 1 << 63

// CheckpointStream returns the ordering domain of the checkpoint IO of a
// journal whose commits ride stream s: its flushes, in-place home writes
// and superblock write. A flush or FUA write is ordered after everything
// its stream sent before it, so on s it would hold back the next commit's
// writes for a whole program; on a stream of its own it holds back only
// the checkpoint's own IO, whose phases each wait for the one before. The
// stream is no data stream and no order stream, it lands on s's hardware
// queue (it is congruent to s modulo the queue count), and background
// spreading never moves its requests.
func CheckpointStream(s uint64) uint64 { return s | checkpointStreamBit }

// IsCheckpointStream reports whether id names a checkpoint stream.
func IsCheckpointStream(id uint64) bool { return id&checkpointStreamBit != 0 }

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
