// Command benchdiff compares two `go test -bench` output files and fails
// when a benchmark's metric regressed beyond a threshold. CI uses it to
// gate the simulator's trajectory: the previous run's artifact is the
// baseline, and a regression beyond the threshold fails the job, while
// improvements and missing baselines only report. One call gates one
// metric; CI gates BenchmarkKV twice, on wall clock and on allocations per
// simulated op, which are near-exact counts and so take a much tighter
// threshold:
//
//	benchdiff -bench BenchmarkKV -metric ns/op -threshold 15 old.txt new.txt
//	benchdiff -bench BenchmarkKV -metric allocs/simop -threshold 2 old.txt new.txt
//
// Benchmarks present in only one file are reported and ignored by the
// gate. A missing or empty baseline file reports and exits 0, so the first
// run of a new pipeline cannot fail.
//
// With -db, benchdiff instead gates cells of the repro perf-trajectory
// database (`repro record`'s bench.db): the latest recorded run against
// the one before it, over every cell matching -cell, with -direction
// naming which way is a regression:
//
//	benchdiff -db bench.db -cell 'kv/*/ops_per_s' -direction down -threshold 10
//	benchdiff -db bench.db -cell 'kv/*/p99_ms' -direction up -threshold 25
//	benchdiff -db bench.db -cell 'crash/*/states_explored' -direction down -threshold 0
package main

import (
	"bufio"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

func parse(path, prefix, metric string) (map[string]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], prefix) {
			continue
		}
		// name iterations (value unit)...
		for i := 2; i+1 < len(fields); i += 2 {
			if fields[i+1] != metric {
				continue
			}
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			// With -count=N, keep the best (minimum) run: wall-clock noise
			// on shared CI runners only ever inflates the number.
			if prev, ok := out[fields[0]]; !ok || v < prev {
				out[fields[0]] = v
			}
		}
	}
	return out, sc.Err()
}

// fmtValue prints a metric value: whole numbers for wall-clock-sized values,
// three decimals for small per-IO counts such as events/IO, which a rounded
// print would show as unchanged when the gate fails on them.
func fmtValue(v float64) string {
	if math.Abs(v) >= 1000 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.3f", v)
}

// gate compares one metric across the two files and reports whether any
// benchmark regressed beyond the threshold. A missing baseline for the
// metric reports and passes (first runs and baselines without -benchmem
// cannot fail).
func gate(oldPath, newPath, bench, metric string, threshold float64) bool {
	old, err := parse(oldPath, bench, metric)
	if err != nil || len(old) == 0 {
		fmt.Printf("benchdiff: no baseline %s %s in %s (%v) — report-only run\n",
			bench, metric, oldPath, err)
		return false
	}
	cur, err := parse(newPath, bench, metric)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: reading %s: %v\n", newPath, err)
		os.Exit(2)
	}
	if len(cur) == 0 {
		// The baseline carries this metric but the new run does not (e.g.
		// -benchmem dropped from the bench step): the gate cannot compare
		// anything, and silence would read as a pass. Say so.
		fmt.Printf("benchdiff: baseline has %s %s but %s has none — gate disarmed, check the bench invocation\n",
			bench, metric, newPath)
		return false
	}
	failed := false
	names := make([]string, 0, len(old))
	for name := range old {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ov := old[name]
		nv, ok := cur[name]
		if !ok {
			fmt.Printf("%-45s baseline-only (%s %s)\n", name, fmtValue(ov), metric)
			continue
		}
		delta := 0.0
		regressed := false
		if ov != 0 {
			delta = (nv - ov) / ov * 100
			regressed = delta > threshold
		} else if nv > 0 {
			// A zero baseline regressing to nonzero is an unbounded-percent
			// regression (e.g. an allocation-free path now allocating): it
			// fails regardless of the threshold.
			delta = math.Inf(1)
			regressed = true
		}
		mark := "ok"
		if regressed {
			mark = fmt.Sprintf("REGRESSION (> %.0f%%)", threshold)
			failed = true
		}
		fmt.Printf("%-45s %14s -> %14s %s  %+7.1f%%  %s\n",
			name, fmtValue(ov), fmtValue(nv), metric, delta, mark)
	}
	added := make([]string, 0, len(cur))
	for name := range cur {
		if _, ok := old[name]; !ok {
			added = append(added, name)
		}
	}
	sort.Strings(added)
	for _, name := range added {
		fmt.Printf("%-45s new benchmark (%s %s)\n", name, fmtValue(cur[name]), metric)
	}
	if failed {
		fmt.Printf("benchdiff: %s %s regressed beyond %.0f%%\n", bench, metric, threshold)
	}
	return failed
}

func main() {
	bench := flag.String("bench", "BenchmarkKV", "benchmark name prefix to compare")
	metric := flag.String("metric", "ns/op", "metric unit to compare")
	threshold := flag.Float64("threshold", 15, "max regression percent before failing")
	dbPath := flag.String("db", "", "gate against this repro results database instead of two bench files")
	cellGlob := flag.String("cell", "*", "database cells to gate ('*' matches anything; with -db)")
	direction := flag.String("direction", "up", "which way is a regression: up or down (with -db)")
	flag.Parse()
	if *dbPath != "" {
		if flag.NArg() != 0 {
			fmt.Fprintln(os.Stderr, "usage: benchdiff -db bench.db [-cell GLOB] [-direction up|down] [-threshold PCT]")
			os.Exit(2)
		}
		if gateDB(*dbPath, *cellGlob, *direction, *threshold) {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [flags] old.txt new.txt")
		os.Exit(2)
	}
	if gate(flag.Arg(0), flag.Arg(1), *bench, *metric, *threshold) {
		os.Exit(1)
	}
}
