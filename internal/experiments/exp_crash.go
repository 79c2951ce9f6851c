package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/crashmc"
	"repro/internal/device"
	"repro/internal/par"
	"repro/internal/sim"
)

// Crash runs the crash-state model checker (internal/crashmc) over the
// three crash workloads on the stack configurations the crash story
// contrasts. For every (workload, profile, crash instant) cell it reports
// the size of the admissible crash-state space and the violations found in
// it: zero everywhere ordering or flushing protects the workload, and
// positive ordering counts on EXT4-nobarrier — the paper's motivating
// failure, reachable by construction rather than observed once.
//
// The workloads are the §4.1 ordering codelet, the fsync durability loop
// and the kvwal store under four group-committing clients. The
// EXT4-nobarrier cells bound the codelet to three barrier-separated writes
// so the unconstrained 2^n state space stays exhaustively enumerable; the
// other cells rely on the barrier/flush constraints to keep the space
// small. Cells that still exceed their cap fall back to deterministic
// sampling and say so in the capped column (and via the notes).

// CrashMCRow is one (workload, profile, crash instant) model-checking cell.
type CrashMCRow struct {
	Workload   string `col:"workload,workload,%-10s"`
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

// CrashResult is the model-checking table.
type CrashResult struct {
	Rows  []CrashMCRow
	Notes []string // cap/sampling notices (never silent)
}

// crashCase is one profile under one workload.
type crashCase struct {
	label string
	prof  core.Profile
	part  crashmc.Part
}

// crashWorkload is one workload's block of cells: its cases, each crashed
// at every instant, under one enumeration budget.
type crashWorkload struct {
	name               string
	cases              []crashCase
	timesUs            []int
	maxStates, samples int
}

func crashWorkloads(scale Scale) []crashWorkload {
	small := func(p core.Profile) core.Profile { return crashmc.CompactJournal(p, 128) }
	ordering := crashWorkload{name: "ordering",
		cases: []crashCase{
			{"EXT4-DR", small(core.EXT4DR(device.PlainSSD())), crashmc.Ordering(0)},
			{"EXT4-nobarrier", small(core.EXT4OD(device.LegacySSD())), crashmc.Ordering(3)},
			{"BFS-DR", small(core.BFSDR(device.PlainSSD())), crashmc.Ordering(0)},
			{"EXT4-MQ", small(core.EXT4MQ(device.PlainSSD())), crashmc.Ordering(0)},
			{"BFS-MQ", small(core.BFSMQ(device.PlainSSD())), crashmc.Ordering(0)},
		},
		timesUs:   []int{1200, 2500},
		maxStates: scale.n(1<<14, 1<<16), samples: scale.n(128, 512),
	}
	if scale == Full {
		ordering.timesUs = []int{800, 1200, 2500, 4000, 6000}
	}
	durability := crashWorkload{name: "durability",
		maxStates: scale.n(1<<14, 1<<16), samples: scale.n(128, 512),
	}
	for i := 1; i <= scale.n(6, 20); i++ {
		durability.timesUs = append(durability.timesUs, i*i*500) // the old sampled sweep's instants
	}
	// The kv instants are the i²·600 µs points of the sweep this table
	// replaced, plus 10.8 ms and 38.4 ms: there EXT4-DR and EXT4-MQ lost
	// acknowledged keys while fdatasync on a JBD2 mount could return before
	// the commit holding a new segment's allocation was durable.
	kv := crashWorkload{name: "kv",
		timesUs:   []int{600, 2400, 5400, 9600, 10800, 38400},
		maxStates: scale.n(256, 2048), samples: scale.n(32, 64),
	}
	if scale == Full {
		kv.timesUs = []int{600, 2400, 5400, 9600, 10800, 15000, 21600, 29400, 38400, 48600, 60000}
	}
	for _, mk := range []func(device.Config) core.Profile{core.EXT4DR, core.BFSDR, core.EXT4MQ, core.BFSMQ} {
		d := small(mk(device.PlainSSD()))
		durability.cases = append(durability.cases, crashCase{d.Name, d, crashmc.Durability})
		k := mk(device.NVMeSSD())
		kv.cases = append(kv.cases, crashCase{k.Name, k, crashmc.KV(4)})
	}
	// OptFS's fsync is durable like the others'; its osync (Fbarrier) is
	// ordering only, so it joins the fsync loop alone.
	optfs := small(core.OptFS(device.PlainSSD()))
	durability.cases = append(durability.cases, crashCase{optfs.Name, optfs, crashmc.Durability})
	return []crashWorkload{ordering, durability, kv}
}

// Crash regenerates the model-checking table.
func Crash(scale Scale) CrashResult {
	type cell struct {
		w  *crashWorkload
		c  crashCase
		us int
	}
	var cells []cell
	workloads := crashWorkloads(scale)
	for wi := range workloads {
		w := &workloads[wi]
		for _, c := range w.cases {
			for _, us := range w.timesUs {
				cells = append(cells, cell{w, c, us})
			}
		}
	}
	rows := make([]CrashMCRow, len(cells))
	notes := make([]string, len(cells)) // per-cell slots: no locking needed
	par.For(len(cells), func(i int) {
		cl := cells[i]
		res := crashmc.Enumerate(crashmc.OnStack(cl.c.prof, cl.c.part), crashmc.Config{
			CrashAt:   sim.Time(sim.Duration(cl.us) * sim.Microsecond),
			MaxStates: cl.w.maxStates,
			Samples:   cl.w.samples,
			Log: func(format string, args ...any) {
				notes[i] = fmt.Sprintf("%s %s@%dus: %s", cl.w.name, cl.c.label, cl.us, fmt.Sprintf(format, args...))
			},
		})
		rows[i] = CrashMCRow{
			Workload: cl.w.name, Config: cl.c.label, CrashAtUs: int64(cl.us),
			Volatile: res.Volatile, Streams: res.Streams,
			States: res.StatesExplored, Images: res.ImagesChecked,
			Capped: res.Capped, Sampled: res.Sampled,
			Durability: res.Durability, Ordering: res.Ordering,
			Consistency: res.Consistency, ViolationStates: res.ViolationStates,
		}
	})
	out := CrashResult{Rows: rows}
	for _, n := range notes {
		if n != "" {
			out.Notes = append(out.Notes, n)
		}
	}
	return out
}
