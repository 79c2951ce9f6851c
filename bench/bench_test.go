package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from spec.go")

// testScale shrinks every window and input set so that all four workloads,
// the rate ladder and the peel ladder finish in a few seconds.
const testScale = 0.05

type benchmarkMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

type benchmarkWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type benchmarkFile struct {
	Command    []string            `json:"command"`
	Paths      []string            `json:"paths"`
	RunSeconds int                 `json:"run_seconds"`
	Workloads  []benchmarkWorkload `json:"workloads"`
	EndToEnd   []benchmarkMetric   `json:"end_to_end"`
	PerLayer   []benchmarkMetric   `json:"per_layer"`
}

// wantBenchmarkFile is BENCHMARK.json as spec.go implies it.
func wantBenchmarkFile() benchmarkFile {
	f := benchmarkFile{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: 20}
	for _, w := range workloads {
		f.Workloads = append(f.Workloads, benchmarkWorkload{Name: w.name, Why: w.why})
	}
	for _, m := range endToEnd {
		bound := m.Bound
		f.EndToEnd = append(f.EndToEnd, benchmarkMetric{Name: m.Name, Unit: m.Unit, Better: m.Better, Bound: &bound})
	}
	for _, m := range perLayer {
		f.PerLayer = append(f.PerLayer, benchmarkMetric{Name: m.Name, Unit: m.Unit, Better: m.Better})
	}
	return f
}

func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	path := filepath.Join("..", "BENCHMARK.json")
	want := wantBenchmarkFile()
	if *update {
		data, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("BENCHMARK.json and spec.go disagree; run go test -run TestBenchmarkJSONMatchesSpec -update\n got %+v\nwant %+v", got, want)
	}
	if len(got.PerLayer) > 128 || len(got.EndToEnd) > 16 || len(data) > 64<<10 {
		t.Fatalf("BENCHMARK.json outside the contract's limits: %d per-layer, %d end-to-end, %d bytes", len(got.PerLayer), len(got.EndToEnd), len(data))
	}
	seen := map[string]bool{}
	for _, w := range got.Workloads {
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	for _, m := range append(append([]benchmarkMetric(nil), got.EndToEnd...), got.PerLayer...) {
		if seen[m.Name] {
			t.Errorf("metric %s listed twice", m.Name)
		}
		seen[m.Name] = true
		if len(m.Name) > 64 || len(m.Unit) > 16 || m.Bound != nil && *m.Bound > 0.25 {
			t.Errorf("metric %s outside the contract's limits", m.Name)
		}
	}
}

func (r *report) metric(name string) (float64, bool) {
	for _, x := range r.rows {
		if x.Metric == name {
			return x.Value, true
		}
	}
	return 0, false
}

// TestSmoke runs all four workloads, both kinds of run, at 1/20 scale, and
// checks that every listed metric comes out finite, that a seed repeats and
// that two seeds differ.
func TestSmoke(t *testing.T) {
	outDir := t.TempDir()
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			e2e := runWorkload(w, 1, 0, testScale, false, outDir, io.Discard)
			layers := runWorkload(w, 1, 0, testScale, true, outDir, io.Discard)
			for _, rep := range []*report{e2e, layers} {
				if len(rep.errs) != 0 {
					t.Errorf("failed checks: %v", rep.errs)
				}
				if rep.attempted < 1 || rep.failed != 0 {
					t.Errorf("attempted %d, failed %d", rep.attempted, rep.failed)
				}
			}
			for _, m := range endToEnd {
				v, ok := e2e.metric(m.Name)
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) || v == 0 {
					t.Errorf("end-to-end metric %s = %v (reported: %v); must be finite and non-zero", m.Name, v, ok)
				}
			}
			for _, m := range perLayer {
				v, ok := layers.metric(m.Name)
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("per-layer metric %s = %v (reported: %v); must be finite", m.Name, v, ok)
				}
			}
			if e2e.digest != layers.digest {
				t.Errorf("seed 1 gave digest %016x, then %016x", uint64(e2e.digest), uint64(layers.digest))
			}
			if other := w.run(2, testScale, passTimed); other.dg == e2e.digest {
				t.Errorf("seeds 1 and 2 gave the same digest %016x", uint64(other.dg))
			}
			if _, err := os.Stat(filepath.Join(outDir, w.name+".trace.json")); err != nil {
				t.Errorf("trace file: %v", err)
			}
		})
	}
}

// TestBrokenCheckFailsRun plants an acknowledged write that was never made
// and expects the crash audit to fail the run and name itself.
func TestBrokenCheckFailsRun(t *testing.T) {
	sabotage = true
	defer func() { sabotage = false }()
	rep := runWorkload(findWorkload("fsync-journal"), 1, 0, testScale, false, t.TempDir(), io.Discard)
	if len(rep.errs) == 0 {
		t.Fatal("a planted lost write passed the crash audit")
	}
	if joined := strings.Join(rep.errs, "\n"); !strings.Contains(joined, "acked_lost") {
		t.Fatalf("failing check not named: %s", joined)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6, 5, 3], n=4) == [1.75, 3.5, 5.25]
	q1, med, q3 := quartiles([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3})
	if q1 != 1.75 || med != 3.5 || q3 != 5.25 {
		t.Fatalf("quartiles = %v %v %v, want 1.75 3.5 5.25", q1, med, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	// mk is a result file of one workload: host_cpu_us_per_op with its
	// quartiles, one simulated metric, the three metrics judged by rules of
	// their own, and a per-layer metric, which gets no verdict.
	mk := func(cpu, q1, q3, ops, maxRate, failedPct, lost float64) *resultFile {
		return &resultFile{Seed: 1, Seconds: 20, Rows: []row{
			{Workload: "w", Metric: "host_cpu_us_per_op", Value: cpu, N: 5, Q1: q1, Q3: q3},
			{Workload: "w", Metric: "sim_ops_per_s", Value: ops, N: 1, Q1: ops, Q3: ops},
			{Workload: "w", Metric: metricMaxRate, Value: maxRate, N: 1},
			{Workload: "w", Metric: metricFailedPct, Value: failedPct, N: 1},
			{Workload: "w", Metric: metricAckedLost, Value: lost, N: 1},
			{Workload: "w", Metric: "sim.events_per_op", Value: 1},
		}}
	}
	base := mk(10, 9.8, 10.3, 100, 60000, 0, 0)
	for _, c := range []struct {
		name    string
		b       *resultFile
		worse   int
		verdict string // of the row named by metric
		metric  string
	}{
		{"same", mk(10.2, 10, 10.6, 100, 60000, 0, 0), 0, "ok", "host_cpu_us_per_op"},
		{"cpu up 50%", mk(15, 14.8, 15.3, 100, 60000, 0, 0), 1, "worse", "host_cpu_us_per_op"},
		{"cpu up 8% is inside the 10% bound", mk(10.8, 10.6, 11, 100, 60000, 0, 0), 0, "ok", "host_cpu_us_per_op"},
		{"readings spread wider than the bound", mk(10.2, 9.6, 10.9, 100, 60000, 0, 0), 0, "unresolved", "host_cpu_us_per_op"},
		{"throughput down 2%", mk(10, 9.8, 10.3, 98, 60000, 0, 0), 1, "worse", "sim_ops_per_s"},
		{"throughput up is not worse", mk(10, 9.8, 10.3, 150, 60000, 0, 0), 0, "ok", "sim_ops_per_s"},
		{"one rung down", mk(10, 9.8, 10.3, 100, 50000, 0, 0), 0, "ok", metricMaxRate},
		{"two rungs down", mk(10, 9.8, 10.3, 100, 40000, 0, 0), 1, "worse", metricMaxRate},
		{"no rung meets the limit", mk(10, 9.8, 10.3, 100, 0, 0, 0), 1, "worse", metricMaxRate},
		{"0.05 points more fail", mk(10, 9.8, 10.3, 100, 60000, 0.05, 0), 0, "ok", metricFailedPct},
		{"5 points more fail", mk(10, 9.8, 10.3, 100, 60000, 5, 0), 1, "worse", metricFailedPct},
		{"an acknowledged write lost", mk(10, 9.8, 10.3, 100, 60000, 0, 1), 1, "worse", metricAckedLost},
	} {
		var buf bytes.Buffer
		got, err := compare(&buf, base, c.b)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got != c.worse {
			t.Errorf("%s: %d worse, want %d\n%s", c.name, got, c.worse, buf.String())
		}
		for _, line := range strings.Split(buf.String(), "\n") {
			if f := strings.Fields(line); len(f) > 1 && f[1] == c.metric && f[len(f)-1] != c.verdict {
				t.Errorf("%s: want %s\n%s", c.name, c.verdict, line)
			}
		}
		if strings.Contains(buf.String(), "sim.events_per_op") {
			t.Errorf("%s: a per-layer metric was given a verdict", c.name)
		}
	}

	closedLoop := mk(10, 9.8, 10.3, 100, 0, 0, 0)
	var buf bytes.Buffer
	if _, err := compare(&buf, closedLoop, closedLoop); err != nil || strings.Contains(buf.String(), metricMaxRate) {
		t.Errorf("a workload without a rate ladder got a %s row (err %v)\n%s", metricMaxRate, err, buf.String())
	}
	for _, other := range []*resultFile{{Seed: 2, Seconds: 20}, {Seed: 1, Seconds: 10}} {
		if _, err := compare(io.Discard, base, other); err == nil {
			t.Errorf("compared seed %d at %d s with seed %d at %d s", base.Seed, base.Seconds, other.Seed, other.Seconds)
		}
	}
}
