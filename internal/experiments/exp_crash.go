package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/crashmc"
	"repro/internal/device"
	"repro/internal/sim"
)

// CrashRow is one (stack, audit) case of the filesystem-level crash sweep.
type CrashRow struct {
	Case       string `col:"case,,%-52s"`
	Kind       string `col:"kind"`
	Trials     int    `col:"trials"`
	Violations int    `col:"violations,,%s"`
}

// cellText prints the violation count against the trials it is out of.
func (r CrashRow) cellText() (key, text string) {
	return "violations", fmt.Sprintf("%d/%d crash points violated", r.Violations, r.Trials)
}

// Crash runs the filesystem-level crash-consistency sweep: durability
// audits on the -DR stacks, ordering audits on the -OD stacks, and the
// legacy-device control that is expected to violate ordering.
func Crash(scale Scale) []CrashRow {
	var times []sim.Time
	for i := 1; i <= scale.n(6, 20); i++ {
		times = append(times, sim.Time(sim.Duration(i*i)*500*sim.Microsecond))
	}
	var rows []CrashRow
	for _, c := range []struct {
		label string
		kind  string
		w     crashmc.Workload
	}{
		{"BFS-DR durability (plain-SSD)", "durability", crashmc.OnStack(core.BFSDR(device.PlainSSD()), crashmc.Durability)},
		{"BFS-OD ordering (plain-SSD)", "ordering", crashmc.OrderingSweep(core.BFSOD(device.PlainSSD()))},
		{"BFS-OD ordering (UFS)", "ordering", crashmc.OrderingSweep(core.BFSOD(device.UFS()))},
		{"EXT4-DR durability (plain-SSD)", "durability", crashmc.OnStack(core.EXT4DR(device.PlainSSD()), crashmc.Durability)},
		{"EXT4-OD ordering (legacy dev; EXPECTED to violate)", "ordering", crashmc.OrderingSweep(core.EXT4OD(device.LegacySSD()))},
	} {
		row := CrashRow{Case: c.label, Kind: c.kind, Trials: len(times)}
		for _, res := range crashmc.Sweep(c.w, times) {
			if !res.Ok() {
				row.Violations++
			}
		}
		rows = append(rows, row)
	}
	return rows
}
