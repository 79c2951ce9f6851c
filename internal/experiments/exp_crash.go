package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/crashtest"
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
		prof  core.Profile
		kind  string
	}{
		{"BFS-DR durability (plain-SSD)", core.BFSDR(device.PlainSSD()), "durability"},
		{"BFS-OD ordering (plain-SSD)", core.BFSOD(device.PlainSSD()), "ordering"},
		{"BFS-OD ordering (UFS)", core.BFSOD(device.UFS()), "ordering"},
		{"EXT4-DR durability (plain-SSD)", core.EXT4DR(device.PlainSSD()), "durability"},
		{"EXT4-OD ordering (legacy dev; EXPECTED to violate)", core.EXT4OD(device.LegacySSD()), "ordering"},
	} {
		row := CrashRow{Case: c.label, Kind: c.kind, Trials: len(times)}
		for _, rep := range crashtest.Sweep(c.prof, c.kind, times) {
			if !rep.Ok() {
				row.Violations++
			}
		}
		rows = append(rows, row)
	}
	return rows
}
