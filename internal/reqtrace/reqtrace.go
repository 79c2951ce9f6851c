// Package reqtrace is the request-scoped causal tracing layer: a trace
// context allocated at admission rides the proc doing the request's work
// (With, Of), and the batch, transaction, block request and device command
// that carry it across procs (router -> replica write -> kvwal group commit
// -> jbd transaction -> block/blkmq queueing -> device service), recording
// virtual-time stage boundaries into a pooled, sampling-gated record.
//
// The zero Ctx is the disabled tracer: every method is a one-branch no-op,
// so carrying a Ctx through hot paths costs nothing when tracing is off
// and golden dispatch traces stay bit-identical. Records are pooled and
// generation-validated — recycling a record bumps its generation, turning
// every stale Ctx that still points at it into a no-op instead of a
// use-after-recycle.
package reqtrace

import "repro/internal/sim"

// Stage is one virtual-time boundary a request crosses on its way through
// the stack. Stamps are first-wins (the earliest crossing is the
// interesting one when a group fans out over many block requests), except
// StageDevDone which is last-wins: the durability story ends at the final
// device completion observed before the ack.
type Stage uint8

const (
	// StageAdmit: request admitted past shed-and-count admission control.
	StageAdmit Stage = iota
	// StageGCEnqueue: op enqueued onto the kvwal group-commit queue.
	StageGCEnqueue
	// StageDurIssue: the group-commit leader issues the durability call
	// (fdatasync on EXT4, fdatabarrier on barrier-enabled stacks).
	StageDurIssue
	// StageDurDone: the durability call returns to the leader.
	StageDurDone
	// StageJournalDispatch: the journal commit thread dispatches the
	// transaction's JD/JC writes.
	StageJournalDispatch
	// StageBlockQueue: a block.Request belonging to this trace is bound
	// into the block layer.
	StageBlockQueue
	// StageBlockDispatch: the dispatcher hands a request to the device.
	StageBlockDispatch
	// StageDevStart: the device begins servicing a command.
	StageDevStart
	// StageDevDone: the device completes a command (last-wins).
	StageDevDone
	// StageAck: the response is acked back to the client.
	StageAck

	// NumStages is the number of stage boundaries.
	NumStages = int(StageAck) + 1
)

var stageNames = [NumStages]string{
	"admit", "gc-enqueue", "dur-issue", "dur-done", "journal-dispatch",
	"block-queue", "block-dispatch", "dev-start", "dev-done", "ack",
}

func (s Stage) String() string {
	if int(s) < NumStages {
		return stageNames[s]
	}
	return "stage?"
}

// Rec is a pooled trace record. It is owned by the Sampler that allocated
// it and must only be reached through a Ctx, whose generation check makes
// stale handles harmless after the record is recycled.
type Rec struct {
	stamps [NumStages]sim.Time
	mask   uint16
	gen    uint32
	link   Ctx // next member of a group-commit chain (see Chain)
}

func (r *Rec) stamp(s Stage, at sim.Time) {
	bit := uint16(1) << s
	if r.mask&bit != 0 && s != StageDevDone {
		return // first-wins
	}
	r.mask |= bit
	r.stamps[s] = at
}

// Ctx is a by-value handle on a trace record. The zero Ctx is valid and
// means "tracing off": every method is a cheap no-op. Copy it freely; it
// is two words.
type Ctx struct {
	rec *Rec
	gen uint32
}

// Active reports whether the context still points at a live (unrecycled)
// record.
func (c Ctx) Active() bool { return c.rec != nil && c.rec.gen == c.gen }

// Stamp records stage s at virtual time at on this request only.
func (c Ctx) Stamp(s Stage, at sim.Time) {
	if c.Active() {
		c.rec.stamp(s, at)
	}
}

// With makes c the trace context of p's work, which the layers below read
// with Of, and returns the one it replaces: a writer sets it around exactly
// the call it traces, then restores the previous one.
func With(p *sim.Proc, c Ctx) (prev Ctx) {
	prev = Of(p)
	p.SetTraceSlot(c.rec, c.gen)
	return prev
}

// Of returns p's trace context: the zero Ctx unless a caller set one with
// With.
func Of(p *sim.Proc) Ctx {
	ref, gen := p.TraceSlot()
	rec, _ := ref.(*Rec)
	return Ctx{rec: rec, gen: gen}
}

// maxChain bounds the group-commit chain walk. Group commits are bounded
// by the kvwal group cap (well under this), and the bound also hard-stops
// any accidental link cycle.
const maxChain = 1024

// StampChain records stage s on this request and every chained group
// member after it. Layers below the group-commit leader use this: one
// block request carries the chain head, but its timing belongs to every
// request in the group.
func (c Ctx) StampChain(s Stage, at sim.Time) {
	for hops := 0; hops < maxChain; hops++ {
		if c.rec == nil || c.rec.gen != c.gen {
			return
		}
		c.rec.stamp(s, at)
		c = c.rec.link
	}
}

// Chain links member into head's group chain and returns the head (or the
// member itself when head is inactive). The group-commit leader folds each
// batch's context into one chain so a single Ctx handed to the filesystem
// fans stage stamps out to every member without allocating. A record may
// be a member of at most one chain at a time; recycling severs it.
func Chain(head, member Ctx) Ctx {
	if member.rec == nil || member.rec.gen != member.gen {
		return head
	}
	if head.rec == nil || head.rec.gen != head.gen {
		return member
	}
	if head.rec == member.rec {
		return head
	}
	member.rec.link = head.rec.link
	head.rec.link = member
	return head
}

// Exemplar is an immutable snapshot of a finished request's stamps, taken
// at ack time by the Sampler before the record is recycled.
type Exemplar struct {
	Stamps [NumStages]sim.Time
	Mask   uint16
	Total  sim.Duration // ack - admit
	Tail   bool         // kept as a K-slowest window exemplar (vs 1-in-N uniform)
}

// Has reports whether stage s was stamped.
func (e Exemplar) Has(s Stage) bool { return e.Mask&(uint16(1)<<s) != 0 }

// At returns the stamp for stage s (zero when never stamped).
func (e Exemplar) At(s Stage) sim.Time {
	if !e.Has(s) {
		return 0
	}
	return e.Stamps[s]
}

// Config tunes a Sampler. The zero value disables uniform sampling and
// takes defaults for the tail-exemplar machinery.
type Config struct {
	// Uniform keeps every Nth finished request (0 disables uniform
	// sampling; the tail sampler still runs).
	Uniform int
	// TopK is how many of the slowest exemplars to keep per tailWindow
	// (default 4).
	TopK int
	// Max caps the total kept exemplars per sampler; past it new keeps
	// are dropped and counted (default 4096).
	Max int
}

// tailWindow is the virtual-time width of a tail-exemplar window.
const tailWindow = sim.Millisecond

func (c Config) withDefaults() Config {
	if c.TopK <= 0 {
		c.TopK = 4
	}
	if c.Max <= 0 {
		c.Max = 4096
	}
	return c
}

// Sampler owns a pool of trace records and decides, at ack time, which
// finished requests to keep as exemplars: always the K slowest per
// virtual-time window (tail-biased) plus an optional 1-in-N uniform
// stream. Only its kernel's procs touch it (Take and Dropped also run once
// the kernel has stopped), so it needs no lock.
type Sampler struct {
	cfg    Config
	free   sim.Pool[Rec]
	n      uint64     // finished requests seen
	window []Exemplar // current window's slowest-first candidates (≤ TopK)
	winEnd sim.Time
	kept   []Exemplar
	lost   int
}

// NewSampler builds a sampler. A nil *Sampler is valid and disabled:
// Admit returns the zero Ctx and Finish is a no-op.
func NewSampler(cfg Config) *Sampler {
	return &Sampler{cfg: cfg.withDefaults()}
}

// Admit allocates a pooled record, stamps StageAdmit, and returns its
// context. On a nil sampler it returns the zero (disabled) Ctx.
func (s *Sampler) Admit(at sim.Time) Ctx {
	if s == nil {
		return Ctx{}
	}
	r, _ := s.free.Get()
	r.stamp(StageAdmit, at)
	return Ctx{rec: r, gen: r.gen}
}

// Finish stamps StageAck, snapshots the record, recycles it (bumping the
// generation so stale contexts go quiet), and applies the keep policy.
func (s *Sampler) Finish(c Ctx, at sim.Time) {
	if s == nil || c.rec == nil || c.rec.gen != c.gen {
		return
	}
	r := c.rec
	r.stamp(StageAck, at)
	ex := Exemplar{
		Stamps: r.stamps,
		Mask:   r.mask,
		Total:  sim.Duration(at - r.stamps[StageAdmit]),
	}
	r.gen++
	r.mask = 0
	r.link = Ctx{}
	s.free.Put(r)
	s.n++

	if s.cfg.Uniform > 0 && s.n%uint64(s.cfg.Uniform) == 0 {
		// A uniform keep is already reported; keeping it as a tail
		// candidate too would double-count it in the analyzer.
		s.keep(ex)
		return
	}
	if at >= s.winEnd {
		s.flushWindow()
		s.winEnd = at + sim.Time(tailWindow)
	}
	// Insert into the window's slowest-first candidate list.
	if len(s.window) < s.cfg.TopK || ex.Total > s.window[len(s.window)-1].Total {
		i := len(s.window)
		if i < s.cfg.TopK {
			s.window = append(s.window, Exemplar{})
		} else {
			i--
		}
		for ; i > 0 && s.window[i-1].Total < ex.Total; i-- {
			s.window[i] = s.window[i-1]
		}
		s.window[i] = ex
	}
}

func (s *Sampler) keep(ex Exemplar) {
	if len(s.kept) >= s.cfg.Max {
		s.lost++
		return
	}
	s.kept = append(s.kept, ex)
}

func (s *Sampler) flushWindow() {
	for _, ex := range s.window {
		ex.Tail = true
		s.keep(ex)
	}
	s.window = s.window[:0]
}

// Take flushes the in-flight window and drains the kept exemplars.
func (s *Sampler) Take() []Exemplar {
	if s == nil {
		return nil
	}
	s.flushWindow()
	out := s.kept
	s.kept = nil
	return out
}

// Dropped reports how many keeps were discarded against Config.Max.
func (s *Sampler) Dropped() int {
	if s == nil {
		return 0
	}
	return s.lost
}
