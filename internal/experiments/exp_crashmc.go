package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/crashmc"
	"repro/internal/device"
	"repro/internal/par"
	"repro/internal/sim"
)

// CrashMC runs the crash-state model checker (internal/crashmc) over the
// ordering codelet on the five stack configurations the crash story
// contrasts. For every (profile, crash instant) cell it reports the size
// of the admissible crash-state space and the violations found in it:
// zero everywhere ordering or flushing protects the workload, and
// positive ordering counts on EXT4-nobarrier — the paper's motivating
// failure, but with the quantifier flipped from "observed once" to
// "reachable by construction".
//
// The EXT4-nobarrier cell bounds its workload (crashmc.Config.Writes) so
// the unconstrained 2^n state space stays exhaustively enumerable; the
// unbounded cells rely on the barrier/flush constraints to keep the space
// small. Cells that still exceed the cap fall back to deterministic
// sampling and say so in the capped column (and via the notes).

// CrashMCRow is one (profile, crash instant) model-checking cell.
type CrashMCRow struct {
	Config     string `col:"config,config,%-16s"`
	CrashAtUs  int64  `col:"crash_at_us,crash(us),%9d,axis"`
	Volatile   int    `col:"volatile,volatile,%9d"`
	Streams    int    `col:"streams,streams,%8d,axis"`
	States     int    `col:"states_explored,states,%8d"`
	Images     int    `col:"images_checked,images,%8d"`
	Capped     bool   `col:"capped,capped,%10s"`
	Sampled    int    `col:"sampled"`
	Durability int    `col:"durability_violations,dur.viol,%9d"`
	Ordering   int    `col:"ordering_violations,ord.viol,%9d"`
	// Consistency counts fs metadata self-consistency breaches (expected
	// zero everywhere: journal atomicity protects even nobarrier mounts).
	Consistency     int `col:"consistency_violations,cons.viol,%10d"`
	ViolationStates int `col:"violation_states,badimg,%7d"`
}

// cellText prints the capped flag with the sample count it implies.
func (r CrashMCRow) cellText() (key, text string) {
	if r.Capped {
		return "capped", fmt.Sprintf("yes(+%d)", r.Sampled)
	}
	return "capped", "no"
}

// CrashMCResult is the model-checking sweep outcome.
type CrashMCResult struct {
	Rows  []CrashMCRow
	Notes []string // cap/sampling notices (never silent)
}

// crashMCCase is one profile under test.
type crashMCCase struct {
	label string
	prof  core.Profile
	// writes bounds the workload for profiles whose constraint DAG is
	// unconstrained (0 = unbounded).
	writes int
}

func crashMCCases() []crashMCCase {
	small := func(p core.Profile) core.Profile { return crashmc.CompactJournal(p, 128) }
	return []crashMCCase{
		{"EXT4-DR", small(core.EXT4DR(device.PlainSSD())), 0},
		{"EXT4-nobarrier", small(core.EXT4OD(device.LegacySSD())), 3},
		{"BFS-DR", small(core.BFSDR(device.PlainSSD())), 0},
		{"EXT4-MQ", small(core.EXT4MQ(device.PlainSSD())), 0},
		{"BFS-MQ", small(core.BFSMQ(device.PlainSSD())), 0},
	}
}

// CrashMC regenerates the model-checking table.
func CrashMC(scale Scale) CrashMCResult {
	timesUs := []int{1200, 2500}
	if scale == Full {
		timesUs = []int{800, 1200, 2500, 4000, 6000}
	}
	cases := crashMCCases()
	type cell struct {
		c  crashMCCase
		us int
	}
	var cells []cell
	for _, c := range cases {
		for _, us := range timesUs {
			cells = append(cells, cell{c, us})
		}
	}
	rows := make([]CrashMCRow, len(cells))
	notes := make([]string, len(cells)) // per-cell slots: no locking needed
	par.For(len(cells), func(i int) {
		cl := cells[i]
		res := crashmc.OrderingScenario(cl.c.prof, crashmc.Config{
			CrashAt:   sim.Time(sim.Duration(cl.us) * sim.Microsecond),
			Writes:    cl.c.writes,
			MaxStates: scale.n(1<<14, 1<<16),
			Samples:   scale.n(128, 512),
			Log: func(format string, args ...any) {
				notes[i] = fmt.Sprintf("%s@%dus: %s", cl.c.label, cl.us, fmt.Sprintf(format, args...))
			},
		})
		rows[i] = CrashMCRow{
			Config: cl.c.label, CrashAtUs: int64(cl.us),
			Volatile: res.Volatile, Streams: res.Streams,
			States: res.StatesExplored, Images: res.ImagesChecked,
			Capped: res.Capped, Sampled: res.Sampled,
			Durability: res.Durability, Ordering: res.Ordering,
			Consistency: res.Consistency, ViolationStates: res.ViolationStates,
		}
	})
	out := CrashMCResult{Rows: rows}
	for _, n := range notes {
		if n != "" {
			out.Notes = append(out.Notes, n)
		}
	}
	return out
}
