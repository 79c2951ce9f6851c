package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/benchdb"
	"repro/internal/experiments"
)

// `repro record` flattens a -json run file into the named cells of the
// perf-trajectory database (internal/benchdb holds the file format) and
// `repro trend` prints the cross-history table over it. Which numeric row
// fields identify a sweep cell rather than measure it is declared with the
// columns (experiments.Axes); string fields always identify and the
// remaining numerics are metrics.

// cellKey renders one row's identity: sorted key=value pairs.
func cellKey(row map[string]any, axes map[string]bool) string {
	var parts []string
	for f, v := range row {
		switch v := v.(type) {
		case string:
			parts = append(parts, f+"="+v)
		case float64:
			if axes[f] {
				parts = append(parts, f+"="+strconv.FormatFloat(v, 'g', -1, 64))
			}
		}
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

// flattenCells turns a -json report into the run's cell map.
func flattenCells(rep jsonReport) map[string]float64 {
	cells := make(map[string]float64)
	axes := experiments.Axes()
	for _, exp := range rep.Experiments {
		cells[exp.Name+"//wall_seconds"] = exp.WallSeconds
		for _, row := range exp.Rows {
			key := cellKey(row, axes)
			for f, v := range row {
				switch v := v.(type) {
				case float64:
					if !axes[f] {
						cells[exp.Name+"/"+key+"/"+f] = v
					}
				case bool:
					// capped/sampled flags: record as 0/1 so a cap kicking
					// in (and invalidating state counts) is itself visible.
					b := 0.0
					if v {
						b = 1
					}
					cells[exp.Name+"/"+key+"/"+f] = b
				}
			}
		}
	}
	return cells
}

// cmdRecord appends -json run files to the database. The run's commit/go
// version/host come from the report header when present (repro -json writes
// them since PR 6); -commit overrides for older snapshots.
func cmdRecord(args []string) error {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	dbPath := fs.String("db", "bench.db", "append-only results database (JSONL)")
	label := fs.String("label", "", "run label (default: source file basename)")
	commit := fs.String("commit", "", "override the recorded commit hash")
	fs.Parse(args)
	if fs.NArg() == 0 {
		return fmt.Errorf("record: no -json run files given")
	}
	if *label != "" && fs.NArg() > 1 {
		return fmt.Errorf("record: -label only applies to a single run file")
	}
	for _, src := range fs.Args() {
		b, err := os.ReadFile(src)
		if err != nil {
			return err
		}
		var rep jsonReport
		if err := json.Unmarshal(b, &rep); err != nil {
			return fmt.Errorf("%s: %v", src, err)
		}
		run := benchdb.Run{
			RecordedAt:  time.Now().UTC().Format(time.RFC3339),
			Label:       *label,
			Source:      src,
			Commit:      rep.Commit,
			GoVersion:   rep.GoVersion,
			Host:        rep.Host,
			Scale:       rep.Scale,
			Parallel:    rep.Parallel,
			GoMaxProcs:  rep.GoMaxProcs,
			WallSeconds: rep.WallSeconds,
			Cells:       flattenCells(rep),
		}
		if run.Label == "" {
			run.Label = strings.TrimSuffix(filepath.Base(src), filepath.Ext(src))
		}
		if *commit != "" {
			run.Commit = *commit
		}
		if err := benchdb.Append(*dbPath, run); err != nil {
			return err
		}
		fmt.Printf("recorded %s: %d cells as %q into %s\n",
			src, len(run.Cells), run.Label, *dbPath)
	}
	return nil
}

// cmdTrend prints the cross-history table: one row per cell, one column per
// recorded run, oldest left.
func cmdTrend(args []string) error {
	fs := flag.NewFlagSet("trend", flag.ExitOnError)
	dbPath := fs.String("db", "bench.db", "results database to read")
	cellGlob := fs.String("cell", "*", "only show cells matching this glob")
	last := fs.Int("last", 0, "only show the last N runs (0 = all)")
	band := fs.Bool("band", false, "append each cell's noise band (min/median/max over the shown runs)")
	fs.Parse(args)
	runs, err := benchdb.Read(*dbPath)
	if err != nil {
		return err
	}
	if len(runs) == 0 {
		fmt.Printf("trend: %s has no recorded runs\n", *dbPath)
		return nil
	}
	if *last > 0 && len(runs) > *last {
		runs = runs[len(runs)-*last:]
	}
	pat, err := benchdb.CellPattern(*cellGlob)
	if err != nil {
		return err
	}
	cellSet := make(map[string]bool)
	for _, r := range runs {
		for name := range r.Cells {
			if pat.MatchString(name) {
				cellSet[name] = true
			}
		}
	}
	cells := make([]string, 0, len(cellSet))
	for name := range cellSet {
		cells = append(cells, name)
	}
	sort.Strings(cells)
	if len(cells) == 0 {
		fmt.Printf("trend: no cells match %q\n", *cellGlob)
		return nil
	}

	nameW := len("cell")
	for _, c := range cells {
		if len(c) > nameW {
			nameW = len(c)
		}
	}
	const colW = 14
	fmt.Printf("%-*s", nameW, "cell")
	for _, r := range runs {
		fmt.Printf("  %*s", colW, clip(r.Label, colW))
	}
	if *band {
		fmt.Printf("  %*s", colW, "min/med/max")
	}
	fmt.Println()
	for _, c := range cells {
		fmt.Printf("%-*s", nameW, c)
		var vals []float64
		for _, r := range runs {
			v, ok := r.Cells[c]
			if !ok {
				fmt.Printf("  %*s", colW, "-")
			} else {
				fmt.Printf("  %*s", colW, trimNum(v))
				vals = append(vals, v)
			}
		}
		if *band {
			fmt.Printf("  %*s", colW, noiseBand(vals))
		}
		fmt.Println()
	}
	return nil
}

// noiseBand renders a cell's spread across the shown runs: min/median/max.
// One recorded value has no spread yet; an absent cell has no band at all.
func noiseBand(vals []float64) string {
	if len(vals) == 0 {
		return "-"
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	min, max := sorted[0], sorted[len(sorted)-1]
	med := sorted[len(sorted)/2]
	if len(sorted)%2 == 0 {
		med = (sorted[len(sorted)/2-1] + sorted[len(sorted)/2]) / 2
	}
	return fmt.Sprintf("%s/%s/%s", trimNum(min), trimNum(med), trimNum(max))
}

func clip(s string, w int) string {
	if len(s) > w {
		return s[:w]
	}
	return s
}

// trimNum renders a cell value compactly: integers without a fraction,
// everything else with enough digits to compare.
func trimNum(v float64) string {
	if v == float64(int64(v)) && v < 1e15 && v > -1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', 6, 64)
}
