package device

import (
	"repro/internal/reqtrace"
	"repro/internal/sim"
)

// CmdKind selects the command operation.
type CmdKind int

// Command kinds.
const (
	CmdWrite CmdKind = iota
	CmdRead
	CmdFlush
	// CmdBarrier is a standalone cache-barrier command: it delimits an
	// epoch without carrying data. The paper's design avoids it in favour
	// of a write flag because it occupies a queue slot and costs a command
	// dispatch (§3.2); the device supports both so the trade-off can be
	// measured (see BenchmarkAblationBarrierCommand).
	CmdBarrier
)

func (k CmdKind) String() string {
	switch k {
	case CmdWrite:
		return "write"
	case CmdRead:
		return "read"
	case CmdFlush:
		return "flush"
	case CmdBarrier:
		return "barrier"
	}
	return "invalid"
}

// Priority is the SCSI command priority (§3.4). Simple commands may be
// serviced in any order but never ahead of an earlier ordered command;
// an ordered command is serviced only after everything received before it
// completes, and blocks everything received after it until it completes;
// head-of-queue commands are serviced as soon as possible.
type Priority int

// Priorities.
const (
	PrioSimple Priority = iota
	PrioOrdered
	PrioHeadOfQueue
)

func (p Priority) String() string {
	switch p {
	case PrioSimple:
		return "simple"
	case PrioOrdered:
		return "ordered"
	case PrioHeadOfQueue:
		return "head-of-queue"
	}
	return "invalid"
}

// Command is one device command. For writes, exactly one 4KB page.
type Command struct {
	Kind CmdKind
	LPA  uint64
	Data any
	Prio Priority

	// Stream is the ordering domain of the command. The SCSI priority rules
	// (ordered / simple / head-of-queue) are enforced only among commands of
	// the same stream, so a barrier in one stream never stalls another
	// stream's traffic — the per-stream barrier scoping of the paper's §8.
	// Single-queue hosts leave every command on stream 0, which restores the
	// classic device-global total order.
	Stream uint64

	// FUA forces the page to the storage surface before completion.
	FUA bool
	// PreFlush flushes the writeback cache before servicing the command
	// (the REQ_FLUSH half of REQ_FLUSH|REQ_FUA).
	PreFlush bool
	// Barrier is the cache-barrier flag: pages transferred after this
	// command must persist after the pages transferred before it.
	Barrier bool

	// Err reports a command-level failure at completion time: an
	// uncorrectable media error on a read (fault.ErrUNC). Writes never set
	// it — transient program failures are retried inside the chip. Submit
	// resets it, so pooled commands can be reused without clearing.
	Err error

	// Trace is the request-scoped causal trace context carried down from
	// the block layer (zero: tracing off). The device stamps
	// StageDevStart at service start and StageDevDone at completion.
	Trace reqtrace.Ctx

	// Done fires at host interrupt time when the command completes. For
	// reads, Data carries the result.
	Done func(at sim.Time, c *Command)

	// Queue state, owned by the device from Submit until Done fires: Submit
	// initialises every field, and nothing reads them once the command has
	// completed (hosts recycle commands from Done).
	seq   uint64
	state cmdState
	so    *streamOrder // the stream's ordering index, for O(1) retirement
	links [2]cmdLink   // position in so.all and so.ord
}

// cmdState is a command's place in the device: waiting behind an earlier
// command of its stream, in the ready set, or being serviced by a worker.
type cmdState uint8

const (
	cmdBlocked cmdState = iota
	cmdReady
	cmdInService
)
