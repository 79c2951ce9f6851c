package main

import (
	"fmt"
	"os"
	"sort"

	"repro/internal/benchdb"
)

// Database gate: with -db, benchdiff compares the latest recorded run in
// the repro perf-trajectory database (see `repro record`) against the run
// before it, over every cell matching -cell. -direction says which way is
// a regression: "up" for metrics where growth is bad (ns/op, p99, allocs),
// "down" for metrics where shrinkage is bad (IOPS, crashmc states
// explored). Fewer than two recorded runs reports and passes, so a fresh
// database cannot fail CI.

// gateDB compares the last two recorded runs over cells matching the glob.
// Returns true when any matched cell moved in the regression direction by
// more than threshold percent.
func gateDB(dbPath, cellGlob, direction string, threshold float64) bool {
	runs, err := benchdb.Read(dbPath)
	if err != nil {
		// A database that exists but cannot be read is not a fresh one:
		// passing it would disarm every gate silently.
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(2)
	}
	if len(runs) < 2 {
		fmt.Printf("benchdiff: %s has %d recorded runs — need 2, report-only\n", dbPath, len(runs))
		return false
	}
	prev, cur := runs[len(runs)-2], runs[len(runs)-1]
	pat, err := benchdb.CellPattern(cellGlob)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: bad -cell glob %q: %v\n", cellGlob, err)
		os.Exit(2)
	}
	sign := 1.0 // "up": positive delta is a regression
	if direction == "down" {
		sign = -1
	} else if direction != "up" {
		fmt.Fprintf(os.Stderr, "benchdiff: -direction must be up or down, got %q\n", direction)
		os.Exit(2)
	}

	var cells, added []string
	for name := range prev.Cells {
		if pat.MatchString(name) {
			cells = append(cells, name)
		}
	}
	for name := range cur.Cells {
		if _, ok := prev.Cells[name]; !ok && pat.MatchString(name) {
			added = append(added, name)
		}
	}
	sort.Strings(cells)
	sort.Strings(added)
	if len(cells) == 0 && len(added) == 0 {
		fmt.Printf("benchdiff: no cells in %s (runs %q, %q) match %q — report-only\n",
			dbPath, prev.Label, cur.Label, cellGlob)
		return false
	}
	fmt.Printf("benchdiff: %s vs %s, %d cells ~ %q, regression = %s > %.0f%%\n",
		prev.Label, cur.Label, len(cells), cellGlob, direction, threshold)
	failed := false
	for _, name := range cells {
		ov := prev.Cells[name]
		nv, ok := cur.Cells[name]
		if !ok {
			fmt.Printf("%-55s baseline-only (%.6g)\n", name, ov)
			continue
		}
		var delta float64
		regressed := false
		switch {
		case ov != 0:
			delta = (nv - ov) / ov * 100
			regressed = sign*delta > threshold
		case nv != 0:
			// From-zero movement has no percentage; only flag it when it
			// moves the bad way (e.g. a violation count appearing).
			delta = 0
			regressed = sign*nv > 0
		}
		mark := "ok"
		if regressed {
			mark = fmt.Sprintf("REGRESSION (%s > %.0f%%)", direction, threshold)
			failed = true
		}
		fmt.Printf("%-55s %14.6g -> %14.6g  %+7.1f%%  %s\n", name, ov, nv, delta, mark)
	}
	for _, name := range added {
		fmt.Printf("%-55s new cell (%.6g)\n", name, cur.Cells[name])
	}
	if failed {
		fmt.Printf("benchdiff: cells ~ %q regressed beyond %.0f%% (%s)\n",
			cellGlob, threshold, direction)
	}
	return failed
}
