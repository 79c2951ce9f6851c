// Command bench is stackbench, the repository's benchmark: four seeded
// workloads over the simulated IO stack, end-to-end metrics on both clocks
// (virtual time of the modelled stack, host CPU time of the simulator), and a
// traced run that splits them by layer. See README.md.
//
//	go run . -workload fsync-journal -seed 1 -seconds 20 -trace 0   one run, result as the last line
//	go run . [-seed 1] [-seconds 20] [-out r.json]                  every workload, both runs, one process each
//	go run . -compare a.json b.json                                 apply the bounds to two result files
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

// result is the last line of a single-workload run's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		name    = flag.String("workload", "", "run this workload only and print its result as the last line (default: all, one process each)")
		seed    = flag.Int64("seed", 1, "workload seed: keys, arrivals, op mix and client stagger derive from it")
		seconds = flag.Int("seconds", 20, "how long one run repeats its timed pass")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics and the trace file")
		out     = flag.String("out", "", "write every reported row, with commit, go version and host, to this file")
		cmp     = flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
		outDir  = flag.String("tracedir", filepath.Join("bench", "out"), "directory for trace files and per-process result files")
	)
	flag.Parse()
	switch {
	case *cmp:
		os.Exit(compareMain(flag.Args()))
	case *name != "":
		os.Exit(single(*name, *seed, *seconds, *trace == 1, *out, *outDir))
	default:
		os.Exit(suite(*seed, *seconds, *out, *outDir))
	}
}

func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench -compare a.json b.json")
		return 2
	}
	var files [2]*resultFile
	for i, path := range args {
		f, err := readResultFile(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		files[i] = f
	}
	worse, err := compare(os.Stdout, files[0], files[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if worse > 0 {
		fmt.Printf("%d worse\n", worse)
		return 1
	}
	return 0
}

// single runs one workload in this process.
func single(name string, seed int64, seconds int, trace bool, out, outDir string) int {
	w := findWorkload(name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", name)
		return 2
	}
	fmt.Println("stackbench: model unvalidated against hardware (the repository holds no reference measurements); FTL starts empty, page cache and device cache are warmed by each workload's warm-up window")
	rep := runWorkload(w, seed, time.Duration(seconds)*time.Second, 1, trace, outDir, os.Stdout)
	rep.printTable(os.Stdout)
	if out != "" {
		f := newResultFile(seed, seconds)
		f.Rows = rep.rows
		if err := f.write(out); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
	}
	res := result{Correct: len(rep.errs) == 0, Attempted: rep.attempted, Failed: rep.failed,
		Metrics: make(map[string]metricValue, len(rep.rows))}
	for _, x := range rep.rows {
		res.Metrics[x.Metric] = metricValue{Value: x.Value, Unit: x.Unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// suite runs every workload twice (end-to-end, then traced), each run in a
// process of its own so that peak memory and collector state do not leak from
// one into the next.
func suite(seed int64, seconds int, out, outDir string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	all := newResultFile(seed, seconds)
	status := 0
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			part := filepath.Join(outDir, fmt.Sprintf("%s.%d.rows.json", w.name, trace))
			// A part file left by an earlier set must not pass for this one's.
			if err := os.Remove(part); err != nil && !errors.Is(err, fs.ErrNotExist) {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 2
			}
			cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace),
				"-out", part, "-tracedir", outDir)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s (trace %d): %v\n", w.name, trace, err)
				status = 1
			}
			// A run that failed a check still wrote its rows; one that
			// crashed wrote nothing, and its rows are then missing from the
			// set, which -compare reports.
			if f, err := readResultFile(part); err == nil {
				all.Rows = append(all.Rows, f.Rows...)
			}
		}
	}
	if out != "" {
		if err := all.write(out); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
	}
	return status
}
