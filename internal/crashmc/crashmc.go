// Package crashmc is the crash harness of the order-preserving IO stack:
// one driver that runs a declared workload to a crash instant, cuts the
// power and audits every state the device may have kept.
//
// A Workload is a value declared once (workloads.go, rebalance.go): what it builds and spawns, which stack loses power, and
// the Checkers that carry its host-side history — acknowledged writes,
// issue order, store shadows. Enumerate (harness.go) owns the only
// CaptureConstraints → Crash → device.Recover sequence in the tree and asks
// one question of the recovered device: does *every* persisted state the
// device's contract admits at this instant satisfy the checkers?
//
// internal/device's CaptureConstraints records the volatile writeback-cache
// contents plus the partial persistence order imposed on them — per-stream
// epoch chains on barrier devices (FUA and flush ordering fold into the
// durable base: a completed FUA or flushed write is durable by definition),
// nothing at all on legacy devices, a single full state under power-loss
// protection. The enumerator walks every downward-closed cut of that DAG
// (subset-hash dedup; cuts that materialize the same disk image are checked
// once), overlays each on the recovered durable base, rebuilds the
// filesystem view (journal replay included) and runs the checkers. The
// empty cut — the base with nothing overlaid — is the state the simulator
// itself produced, so it is always audited. Above Config.MaxStates the walk
// falls back to deterministic seeded sampling and says so via Config.Log —
// never silently.
//
// A clean result therefore says "no admissible crash state violates the
// invariant", not "we did not observe a violation" — and on EXT4-nobarrier
// it reproduces the paper's motivating result as a positive finding:
// ordering-violation states are reachable at every instant.
package crashmc

import (
	"encoding/binary"
	"fmt"
	"log"
	"sort"

	"repro/internal/device"
	"repro/internal/fs"
	"repro/internal/jbd"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// State is one candidate post-crash disk image under audit.
type State struct {
	// Read returns the durable contents of an LPA in this state. May be
	// nil when a caller outside the harness audits an already-materialized
	// view.
	Read jbd.ReadFn
	// View is the filesystem recovered over Read (journal replay overlaid
	// on in-place state).
	View *fs.View
	// ID compactly identifies the persisted volatile-write subset: a hex
	// bitmask of write indices, "base" for the empty cut.
	ID string
}

// Violation is one invariant breach found in a candidate crash state.
type Violation struct {
	Checker string
	Kind    string // "durability", "ordering" or "consistency"
	State   string // State.ID of the image that exhibited it
	Detail  string
}

// Violation kinds.
const (
	KindDurability  = "durability"
	KindOrdering    = "ordering"
	KindConsistency = "consistency"
)

// Checker audits one candidate crash state. Implementations carry the
// host-side history (acknowledged writes, issue order, store shadows) they
// audit against; Check must be read-only and safe to call for many states,
// and must not keep st past the call (its Read is reused by the next image).
type Checker interface {
	Name() string
	Check(st *State) []Violation
}

// Config is the crash instant and the enumeration budget of one run.
type Config struct {
	// CrashAt is the virtual time at which power fails, unless a workload
	// proc stops the kernel first (see Workload).
	CrashAt sim.Time
	// MaxStates caps exhaustive enumeration; above it the checker falls
	// back to sampling. Default 1<<16.
	MaxStates int
	// Samples is the number of seeded random cuts probed after the cap is
	// hit. Default 512.
	Samples int
	// Log receives the capped-state-space notice. Default log.Printf.
	Log func(format string, args ...any)
}

const (
	// sampleSeed drives the sampling fallback (deterministic across runs).
	sampleSeed = 0
	// maxViolationDetails bounds the Violation records a Result retains
	// (the counts are always exact).
	maxViolationDetails = 64
)

func (c Config) withDefaults() Config {
	if c.MaxStates == 0 {
		c.MaxStates = 1 << 16
	}
	if c.Samples == 0 {
		c.Samples = 512
	}
	if c.Log == nil {
		c.Log = log.Printf
	}
	return c
}

// Result is the outcome of auditing one crash instant.
type Result struct {
	Profile string
	CrashAt sim.Time

	Volatile int // volatile writes captured at the crash instant
	Streams  int // distinct streams among them

	StatesExplored int  // distinct downward-closed cuts visited
	ImagesChecked  int  // distinct disk images audited (after pruning)
	Capped         bool // exhaustive enumeration hit MaxStates
	Sampled        int  // additional cuts reached by the sampling fallback

	Durability      int // violation counts by kind, across all images
	Ordering        int
	Consistency     int
	ViolationStates int         // images exhibiting at least one violation
	Violations      []Violation // first maxViolationDetails records
}

// Ok reports whether no state violated any invariant.
func (r Result) Ok() bool { return r.Durability+r.Ordering+r.Consistency == 0 }

func (r Result) String() string {
	mode := "exhaustive"
	if r.Capped {
		mode = fmt.Sprintf("capped+%d sampled", r.Sampled)
	}
	return fmt.Sprintf("%s crash@%v: %d volatile writes (%d streams), %d states / %d images (%s) — %s",
		r.Profile, r.CrashAt, r.Volatile, r.Streams, r.StatesExplored, r.ImagesChecked, mode,
		r.verdict("no admissible crash state violates the invariants"))
}

// verdict renders the violation counts, or clean when there are none.
func (r Result) verdict(clean string) string {
	if r.Ok() {
		return "OK: " + clean
	}
	return fmt.Sprintf("VIOLATIONS: %d durability / %d ordering / %d consistency in %d states",
		r.Durability, r.Ordering, r.Consistency, r.ViolationStates)
}

// add folds another crash instant's outcome into r: a cluster or a resize
// is audited one victim at a time, and its totals are the sums.
func (r *Result) add(o Result) {
	r.StatesExplored += o.StatesExplored
	r.ImagesChecked += o.ImagesChecked
	r.Durability += o.Durability
	r.Ordering += o.Ordering
	r.Consistency += o.Consistency
	r.ViolationStates += o.ViolationStates
}

// audit materializes one disk image — read over the journal located by
// jcfg — and runs every checker against it.
func (r *Result) audit(read jbd.ReadFn, jcfg jbd.Config, id string, checkers []Checker) {
	r.ImagesChecked++
	st := &State{Read: read, View: fs.Recover(read, jcfg), ID: id}
	bad := false
	for _, c := range checkers {
		for _, v := range c.Check(st) {
			v.Checker = c.Name()
			v.State = st.ID
			bad = true
			switch v.Kind {
			case KindOrdering:
				r.Ordering++
			case KindConsistency:
				r.Consistency++
			default:
				r.Durability++
			}
			if len(r.Violations) < maxViolationDetails {
				r.Violations = append(r.Violations, v)
			}
		}
	}
	if bad {
		r.ViolationStates++
	}
}

// auditAll walks the admissible crash states of a captured constraint,
// materializes each distinct disk image over the durable base (the
// recovered device's read function) and audits it.
func (r *Result) auditAll(cons device.Constraint, base jbd.ReadFn, jcfg jbd.Config, checkers []Checker, cfg Config) {
	// Live-stats progress: a long crashmc sweep reports its enumeration
	// through the process-wide registry (nil-safe when none is installed).
	reg := metrics.Resolve(nil)
	obsStates := reg.Counter("crashmc/states")
	obsImages := reg.Counter("crashmc/images")

	// Every image replays the whole journal window over the same base, so
	// the window is read from the device once and each image overlays its
	// winners on this copy, then puts the base pages back.
	type page struct {
		data any
		ok   bool
	}
	win := make([]page, jcfg.Pages)
	for off := range win {
		win[off].data, win[off].ok = base(jcfg.Start + uint64(off))
	}
	inWin := func(lpa uint64) (uint64, bool) {
		off := lpa - jcfg.Start
		return off, off < uint64(len(win))
	}

	n := len(cons.Writes)
	images := make(map[string]struct{})
	check := func(cut bitset) {
		obsStates.Inc()
		// The disk image is determined by the newest persisted write per
		// LPA; cuts with identical winner sets materialize identically and
		// are pruned.
		winners := make(map[uint64]int)
		for i := 0; i < n; i++ {
			if !cut.has(i) {
				continue
			}
			w := cons.Writes[i]
			if j, ok := winners[w.LPA]; !ok || cons.Writes[j].Seq < w.Seq {
				winners[w.LPA] = i
			}
		}
		sig := make([]int, 0, len(winners))
		for _, i := range winners {
			sig = append(sig, i)
		}
		sort.Ints(sig)
		var key []byte
		for _, i := range sig {
			key = binary.AppendUvarint(key, uint64(i))
		}
		if _, dup := images[string(key)]; dup {
			return
		}
		images[string(key)] = struct{}{}
		obsImages.Inc()

		overlay := make(map[uint64]any, len(winners))
		for lpa, i := range winners {
			if off, ok := inWin(lpa); ok {
				win[off] = page{cons.Writes[i].Data, true}
			} else {
				overlay[lpa] = cons.Writes[i].Data
			}
		}
		read := func(lpa uint64) (any, bool) {
			if off, ok := inWin(lpa); ok {
				return win[off].data, win[off].ok
			}
			if d, ok := overlay[lpa]; ok {
				return d, true
			}
			return base(lpa)
		}
		r.audit(read, jcfg, cut.id(), checkers)
		for lpa := range winners {
			if off, ok := inWin(lpa); ok {
				win[off].data, win[off].ok = base(lpa)
			}
		}
	}

	seen, capped := enumerate(n, cons.Preds, cfg.MaxStates, check)
	r.Capped = capped
	if capped {
		cfg.Log("crashmc: state space exceeds the %d-state cap (%d volatile writes); probing %d sampled cuts (seed %d)",
			cfg.MaxStates, n, cfg.Samples, sampleSeed)
		r.Sampled = sample(n, cons.Preds, cfg.Samples, sampleSeed, seen, check)
	}
	r.StatesExplored = len(seen)
}
