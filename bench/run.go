package main

import (
	"fmt"
	"io"
	"math"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/par"
)

// readingGroups is how many readings a run takes of each host-time metric.
// The timed passes are split, in the order they ran, into this many groups of
// equal size, each group gives one reading, and the reported value is the
// median of the readings with their quartiles beside it. This box's speed
// shifts by up to a quarter for seconds at a time; consecutive groups see
// that, where the passes of one group, a second or two apart, mostly do not.
const readingGroups = 5

// overheadRepeats is how many times a traced run makes a timed pass, a traced
// pass and a pass at GOMAXPROCS=NumCPU back to back. The two overheads are
// the median over these of one pass's window CPU time against that of the
// timed pass beside it, so that a shift in the box's speed, which outlasts
// the three, cancels.
const overheadRepeats = 3

// sabotage, when set, plants one acknowledged write that was never made into
// fsync-journal's history, so its crash audit has something to find. The
// smoke test uses it to show that a broken check fails the run.
var sabotage bool

// row is one reported metric of one workload.
type row struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Value    float64 `json:"value"`
	Unit     string  `json:"unit"`
	// Value is the median of N readings and Q1, Q3 their quartiles: one
	// reading per group of timed passes for the host-time metrics, a single
	// reading otherwise.
	N  int     `json:"n"`
	Q1 float64 `json:"q1"`
	Q3 float64 `json:"q3"`
}

// report is the outcome of one run of one workload.
type report struct {
	workload          string
	attempted, failed int64
	errs              []string // failed checks; empty means correct
	rows              []row
	digest            digest
}

// runWorkload makes one run: timed passes for the time budget, then a traced
// pass, then either the baseline (end-to-end metrics) or, with trace set, the
// extra passes the per-layer table needs. Every pass uses the same seed and
// must end on the same digest.
func runWorkload(w *workloadDef, seed int64, budget time.Duration, scale float64, trace bool, outDir string, log io.Writer) *report {
	par.SetEnabled(false)
	// One P: a kernel runs one proc at a time, and with more Ps the baton
	// crosses OS threads on every goroutine dispatch, which measures the Go
	// scheduler instead of the program.
	runtime.GOMAXPROCS(1)
	rep := &report{workload: w.name}
	if trace {
		budget /= 2
	}

	var timed []*pass
	var peakMB float64
	for begin := time.Now(); len(timed) < readingGroups || time.Since(begin) < budget; {
		ps := w.run(seed, scale, passTimed)
		if len(timed) > 0 && ps.dg != timed[0].dg {
			rep.errs = append(rep.errs, fmt.Sprintf("%s: sim_digest of repeat %d is %016x, repeat 0 gave %016x: the seeded run does not repeat",
				w.name, len(timed), uint64(ps.dg), uint64(timed[0].dg)))
		}
		if len(timed) == 0 {
			// The peak of one pass in a fresh process. Read after every pass
			// it would be the largest of however many fit in the budget, and
			// on kv-service about one pass in thirty reaches 89 MB, not 70,
			// when the collector starts late; the traced pass's spans would
			// raise it further.
			peakMB = peakRSSMB()
		}
		timed = append(timed, ps)
	}
	first := timed[0]
	rep.digest = first.dg
	rep.attempted, rep.failed = first.attempted, first.failed
	rep.errs = append(rep.errs, first.errs...)

	traced := w.run(seed, scale, passTraced)
	rep.errs = append(rep.errs, traced.errs...)
	rep.checkDigest("the traced pass", traced)
	if first.ackedLost != 0 {
		rep.errs = append(rep.errs, fmt.Sprintf("%s: acked_lost = %d", w.name, first.ackedLost))
	}
	if trace {
		if err := traced.tr.write(filepath.Join(outDir, w.name+".trace.json"), w.name); err != nil {
			rep.errs = append(rep.errs, fmt.Sprintf("%s: trace file: %v", w.name, err))
		}
	}

	// One reading per group of passes. CPU time of the window: the least
	// reading of each chunk within the group, summed — a seeded run does
	// identical work in chunk i of every pass, and disturbance only adds.
	// Set-up time: the least in the group, for the same reason. The
	// allocation counts, which disturbance does not touch: the group's median.
	ops := float64(first.ops)
	perGroup := func(reading func(group []*pass) float64) []float64 {
		out := make([]float64, readingGroups)
		for g := range out {
			out[g] = reading(timed[g*len(timed)/readingGroups : (g+1)*len(timed)/readingGroups])
		}
		return out
	}
	groupMedian := func(of func(*pass) float64) func([]*pass) float64 {
		return func(group []*pass) float64 {
			vs := make([]float64, len(group))
			for i, ps := range group {
				vs[i] = of(ps)
			}
			return median(vs)
		}
	}
	cpus := perGroup(func(group []*pass) float64 {
		var ns float64
		for c := range first.chunks {
			least := math.Inf(1)
			for _, ps := range group {
				least = math.Min(least, float64(ps.chunks[c].Nanoseconds()))
			}
			ns += least
		}
		return ns / 1e3 / ops
	})
	setups := perGroup(func(group []*pass) float64 {
		least := math.Inf(1)
		for _, ps := range group {
			least = math.Min(least, ps.setup.cpu.Seconds())
		}
		return least
	})
	allocs := perGroup(groupMedian(func(ps *pass) float64 { return float64(ps.window.allocs) / ops }))
	bytes := perGroup(groupMedian(func(ps *pass) float64 { return float64(ps.window.bytes) / ops }))
	// Single passes, for the spread between them.
	windows := make([]float64, len(timed))
	for i, ps := range timed {
		windows[i] = windowNs(ps)
	}

	add := func(name string, readings ...float64) {
		q1, med, q3 := quartiles(readings)
		rep.rows = append(rep.rows, row{Workload: w.name, Metric: name, Value: med, Unit: specOf[name].Unit,
			N: len(readings), Q1: q1, Q3: q3})
	}

	fmt.Fprintf(log, "%s seed %d: %d timed repeats, sim_digest %016x, %d ops per repeat, %d latency samples\n",
		w.name, seed, len(timed), uint64(first.dg), first.ops, first.samples)

	if !trace {
		opsPerS, baseOpsPerS := first.opsPerS(), 0.0
		if w.throughput != nil {
			opsPerS, baseOpsPerS = w.throughput(seed, scale, false), w.throughput(seed, scale, true)
		} else {
			baseOpsPerS = w.run(seed, scale, passBaseline).opsPerS()
		}
		add("setup_s", setups...)
		add("host_allocs_per_op", allocs...)
		add("host_bytes_per_op", bytes...)
		add("host_peak_mb", peakMB)
		add("sim_ops_per_s", opsPerS)
		add("sim_p50_us", first.p50)
		add("sim_p99_us", first.p99)
		add("sim_speedup_vs_baseline", ratio(opsPerS, baseOpsPerS))
		add("sim_write_amp", traced.writeAmp())
		return rep
	}

	m := traced.layers
	m["sim.host_ns_per_event"] = ratio(median(cpus)*1e3, m["sim.events_per_op"])
	// The pass at GOMAXPROCS=NumCPU prices the baton crossing OS threads.
	var traceOver, wideOver []float64
	beside, observed := timed[len(timed)-1], traced // the last timed pass ran just before the traced one
	for i := 0; i < overheadRepeats; i++ {
		if i > 0 {
			beside = w.run(seed, scale, passTimed)
			observed = w.run(seed, scale, passTraced)
			rep.checkDigest("another traced pass", observed)
		}
		runtime.GOMAXPROCS(runtime.NumCPU())
		wide := w.run(seed, scale, passTimed)
		runtime.GOMAXPROCS(1)
		rep.checkDigest(fmt.Sprintf("the pass at GOMAXPROCS=%d", runtime.NumCPU()), wide)
		traceOver = append(traceOver, 100*(windowNs(observed)/windowNs(beside)-1))
		wideOver = append(wideOver, 100*(windowNs(wide)/windowNs(beside)-1))
	}
	m["sim.handoff_penalty_pct"] = median(wideOver)
	m["bench.trace_overhead_pct"] = median(traceOver)
	m["bench.repeat_spread_pct"] = 100 * spreadOf(windows)
	m["bench.repeats"] = float64(len(timed))
	m[metricFailedPct] = 100 * ratio(float64(first.failed), float64(first.attempted))
	m[metricAckedLost] = float64(first.ackedLost)
	if w.ladder != nil {
		w.ladder(m, seed, scale)
	}
	peelLadder(m, seed, scale)
	for _, spec := range perLayer {
		if spec.Name == metricHostCPU {
			add(spec.Name, cpus...)
			continue
		}
		add(spec.Name, m[spec.Name]) // a metric the workload's layers do not produce reads 0
	}
	return rep
}

// checkDigest fails the run when a pass that observed the simulation, or ran
// it on more Ps, ended on another digest than the timed passes: it perturbed
// what it measured.
func (r *report) checkDigest(what string, ps *pass) {
	if ps.dg != r.digest {
		r.errs = append(r.errs, fmt.Sprintf("%s: sim_digest of %s is %016x, the timed passes gave %016x: it perturbed the simulation",
			r.workload, what, uint64(ps.dg), uint64(r.digest)))
	}
}

// windowNs is the CPU time of one pass's measured window.
func windowNs(ps *pass) float64 { return float64(ps.window.cpu.Nanoseconds()) }

// printTable writes the report's rows as an aligned table.
func (r *report) printTable(w io.Writer) {
	for _, x := range r.rows {
		spread := ""
		if x.N > 1 {
			spread = fmt.Sprintf("  (n=%d, quartiles %.6g .. %.6g)", x.N, x.Q1, x.Q3)
		}
		fmt.Fprintf(w, "  %-14s %-34s %16.6g %-8s%s\n", x.Workload, x.Metric, x.Value, x.Unit, spread)
	}
	sort.Strings(r.errs)
	for _, e := range r.errs {
		fmt.Fprintf(w, "  FAILED CHECK: %s\n", e)
	}
}
