// Command repro regenerates the tables and figures of "Barrier-Enabled IO
// Stack for Flash Storage" (FAST '18) on the simulated stack.
//
// Usage:
//
//	repro [-quick] [-parallel=false] [-json out.json] [-spans trace.json]
//	      [-live 2s] [-live-http :8080] [-cpuprofile cpu.prof]
//	      [-memprofile mem.prof] [experiment ...]
//	repro record [-db bench.db] [-label NAME] [-commit HASH] run.json ...
//	repro trend  [-db bench.db] [-cell GLOB] [-last N] [-band]
//
// Experiments: fig1 fig8 fig9 fig10 fig11 fig12 fig13 fig14 fig15 table1
// mq kv kvcluster faults whyslow crash rebalance all. With no arguments,
// runs `all`. The `mq` experiment is the multi-queue scaling table
// (per-stream epochs vs the global total order) added on top of the
// paper's evaluation; `kv` is the barrier-enabled key-value store
// (internal/kvwal): group-commit throughput and latency across stacks;
// `kvcluster` is the sharded KV service (internal/kvcluster) under
// open-loop Zipfian traffic: goodput and latency tail per (engine,
// offered-load) cell at a fixed p99 SLO; `faults` drives the replicated
// cluster through seeded device fault personalities (media errors, GC
// interference) and reports goodput with retry/failover counters;
// `whyslow` runs the service with request-scoped causal tracing on and
// attributes tail latency to stack stages (queue, batch, durability, ack,
// plus the durability window's pipeline sub-stages), per (engine,
// offered-load) cell; `crash` is the crash-state model checker
// (internal/crashmc): for the ordering codelet, the fsync durability loop
// and the kv store, every admissible crash state per (workload, stack
// configuration, crash instant) cell is enumerated and its violations
// counted, with EXT4-nobarrier's reachable ordering violations as the
// positive control; `rebalance` resizes the live ring
// under open-loop traffic (N->N+1 and kill+rebuild) and reports the
// goodput/p99 timeline around the migration with the zero-acked-loss
// audit.
//
// Independent sweep cells run one simulation kernel per CPU (disable with
// -parallel=false, e.g. when profiling a single kernel). -json emits the
// machine-readable results — IOPS, latency percentiles, crash-audit counts
// and wall-clock seconds per experiment — that the perf-trajectory
// BENCH_*.json files record, stamped with the commit, go version, and host.
//
// `record` appends -json run files to the append-only bench.db database
// and `trend` prints the cross-history table over it (see db.go).
// -live/-live-http install a process-wide metrics registry and stream
// periodic snapshots — sweep cells done/total, per-layer counters, crash
// states explored — to stderr or an HTTP endpoint while the run is in flight.
// -spans records kernel trace spans for every experiment cell and dumps
// them as Chrome trace_event JSON (load via chrome://tracing or
// https://ui.perfetto.dev).
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/par"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "record":
			exitOn(cmdRecord(os.Args[2:]))
			return
		case "trend":
			exitOn(cmdTrend(os.Args[2:]))
			return
		}
	}
	quick := flag.Bool("quick", false, "run shortened experiments")
	parallel := flag.Bool("parallel", true, "run independent sweep cells on one kernel per CPU")
	jsonPath := flag.String("json", "", "write machine-readable results to this path")
	spansPath := flag.String("spans", "", "write a Chrome trace_event span dump to this path")
	liveEvery := flag.Duration("live", 0, "stream live sweep stats to stderr at this interval")
	liveHTTP := flag.String("live-http", "", "serve live stats as JSON on this address (e.g. :8080)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this path")
	memProfile := flag.String("memprofile", "", "write a heap profile to this path")
	flag.Parse()
	exitOn(run(runOpts{
		quick: *quick, parallel: *parallel,
		jsonPath: *jsonPath, spansPath: *spansPath,
		liveEvery: *liveEvery, liveHTTP: *liveHTTP,
		cpuProfile: *cpuProfile, memProfile: *memProfile,
	}, flag.Args()))
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "repro:", err)
		os.Exit(1)
	}
}

type runOpts struct {
	quick, parallel        bool
	jsonPath, spansPath    string
	liveEvery              time.Duration
	liveHTTP               string
	cpuProfile, memProfile string
}

// resolve maps the command line's experiment names onto the registry
// before anything runs, so a misspelt last name cannot throw away the
// minutes of simulation (and the -json report) in front of it.
func resolve(args []string) ([]experiments.Experiment, error) {
	if len(args) == 0 {
		args = []string{"all"}
	}
	var exps []experiments.Experiment
	for _, name := range args {
		if name == "all" {
			exps = append(exps, experiments.Registry...)
		} else if e, ok := experiments.Lookup(name); ok {
			exps = append(exps, e)
		} else {
			var names []string
			for _, e := range experiments.Registry {
				names = append(names, e.Name)
			}
			return nil, fmt.Errorf("unknown experiment %q (have: %s all)", name, strings.Join(names, " "))
		}
	}
	return exps, nil
}

func run(opts runOpts, args []string) error {
	exps, err := resolve(args)
	if err != nil {
		return err
	}
	scale := experiments.Full
	scaleName := "full"
	if opts.quick {
		scale = experiments.Quick
		scaleName = "quick"
	}
	par.SetEnabled(opts.parallel)
	if opts.cpuProfile != "" {
		f, err := os.Create(opts.cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if opts.liveEvery > 0 || opts.liveHTTP != "" {
		ls, err := startLive(opts.liveEvery, opts.liveHTTP)
		if err != nil {
			return err
		}
		defer ls.shutdown()
	}
	if opts.spansPath != "" {
		experiments.CaptureSpans(true)
	}
	report := jsonReport{
		Scale:      scaleName,
		Parallel:   opts.parallel,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Commit:     gitCommit(),
		GoVersion:  runtime.Version(),
		Host:       hostInfo(),
	}
	start := time.Now()
	for _, e := range exps {
		t0 := time.Now()
		o := e.Run(scale)
		fmt.Println(e.Text(o))
		report.Experiments = append(report.Experiments, jsonExperiment{
			Name:        e.Name,
			WallSeconds: time.Since(t0).Seconds(),
			Rows:        e.JSONRows(o),
		})
	}
	report.WallSeconds = time.Since(start).Seconds()
	if opts.memProfile != "" {
		f, err := os.Create(opts.memProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			return err
		}
	}
	if opts.jsonPath != "" {
		if err := writeJSON(opts.jsonPath, report); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "repro: wrote %s\n", opts.jsonPath)
	}
	if opts.spansPath != "" {
		f, err := os.Create(opts.spansPath)
		if err != nil {
			return err
		}
		if err := experiments.WriteSpans(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "repro: wrote %s\n", opts.spansPath)
	}
	return nil
}

// gitCommit stamps a run with the commit it was built from: the build
// info's vcs.revision when the binary carries it, otherwise git itself
// (go run / go test builds don't embed VCS stamps).
func gitCommit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				return s.Value
			}
		}
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// hostInfo is enough machine identity to compare recorded runs:
// hostname, OS/arch, and CPU count.
func hostInfo() string {
	host, _ := os.Hostname()
	return fmt.Sprintf("%s %s/%s %dcpu", host, runtime.GOOS, runtime.GOARCH, runtime.NumCPU())
}
