package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// resultFile is what -out writes: every reported row of a run or a set of
// runs, and where it was measured.
type resultFile struct {
	Commit    string `json:"commit"`
	GoVersion string `json:"go_version"`
	Host      string `json:"host"`
	Seed      int64  `json:"seed"`
	Seconds   int    `json:"seconds"`
	Rows      []row  `json:"rows"`
}

func newResultFile(seed int64, seconds int) *resultFile {
	host, _ := os.Hostname()
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return &resultFile{
		Commit:    commit,
		GoVersion: runtime.Version(),
		Host:      fmt.Sprintf("%s %s/%s %d cpus", host, runtime.GOOS, runtime.GOARCH, runtime.NumCPU()),
		Seed:      seed, Seconds: seconds,
	}
}

func (f *resultFile) write(path string) error {
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// compare judges b, the change, against a, the parent, and prints one row per
// (workload, end-to-end metric). Both must be runs of one seed and one run
// length: the bounds are the same-seed ones, and a seed's inputs are the only
// thing that makes its simulated metrics repeat. A metric is worse when b's
// value is worse than a's by more than the bound; otherwise it is unresolved
// when the readings behind either value spread wider than the bound, and ok
// when not. compare returns the number of worse rows.
func compare(w io.Writer, a, b *resultFile) (worse int, err error) {
	if a.Seed != b.Seed || a.Seconds != b.Seconds {
		return 0, fmt.Errorf("a is seed %d at %d s, b is seed %d at %d s: only runs of one seed and one length compare",
			a.Seed, a.Seconds, b.Seed, b.Seconds)
	}
	type key struct{ workload, metric string }
	bRows := make(map[key]row, len(b.Rows))
	for _, r := range b.Rows {
		bRows[key{r.Workload, r.Metric}] = r
	}
	fmt.Fprintf(w, "%-14s %-26s %14s %14s %9s %9s %8s  %s\n", "workload", "metric", "a", "b", "change", "bound", "spread", "verdict")
	for _, ra := range a.Rows {
		spec := specOf[ra.Metric]
		ownRule := ra.Metric == metricMaxRate || ra.Metric == metricFailedPct || ra.Metric == metricAckedLost
		if spec.SameSeed == 0 && !ownRule {
			continue // a per-layer metric: no bound
		}
		rb, ok := bRows[key{ra.Workload, ra.Metric}]
		if !ok {
			fmt.Fprintf(w, "%-14s %-26s %14.6g %14s %9s %9s %8s  missing in b\n", ra.Workload, ra.Metric, ra.Value, "-", "-", "-", "-")
			worse++
			continue
		}
		var change, bound string
		var isWorse bool
		switch ra.Metric {
		case metricMaxRate:
			if ra.Value == 0 && rb.Value == 0 {
				continue // not an open-loop workload: no ladder
			}
			rungs := rungOf(ra.Value) - rungOf(rb.Value)
			change, bound, isWorse = fmt.Sprintf("%+d rung", -rungs), "1 rung", rungs > 1
		case metricFailedPct:
			points := rb.Value - ra.Value
			change, bound, isWorse = fmt.Sprintf("%+.2f pt", points), fmt.Sprintf("%.1f pt", failedPctSlack), points > failedPctSlack
		case metricAckedLost:
			change, bound, isWorse = fmt.Sprintf("%+g", rb.Value-ra.Value), "0", rb.Value != 0
		default:
			// rel > 0 means b is worse, whichever direction is better.
			rel := (rb.Value - ra.Value) / math.Abs(ra.Value)
			if spec.Better == "higher" {
				rel = -rel
			}
			change, bound, isWorse = fmt.Sprintf("%+.2f%%", 100*rel), fmt.Sprintf("%.1f%%", 100*spec.SameSeed), rel > spec.SameSeed
		}
		spread := math.Max(rowSpread(ra), rowSpread(rb))
		verdict := "ok"
		switch {
		case isWorse:
			verdict = "worse"
			worse++
		case spread > spec.SameSeed && !ownRule:
			verdict = "unresolved"
		}
		fmt.Fprintf(w, "%-14s %-26s %14.6g %14.6g %9s %9s %7.2f%%  %s\n",
			ra.Workload, ra.Metric, ra.Value, rb.Value, change, bound, 100*spread, verdict)
	}
	return worse, nil
}

// rungOf places a sim_max_rate_at_slo value on the rate ladder: 0 for no rung
// met, 1 for the lowest rung, and so on.
func rungOf(rate float64) int {
	n := 0
	for _, r := range kvsLadder {
		if float64(r) <= rate {
			n++
		}
	}
	return n
}

// rowSpread is the distance between the quartiles of the readings a row's
// value is the median of, as a share of that value. A row of one reading has
// none.
func rowSpread(r row) float64 {
	if r.Value == 0 {
		return 0
	}
	return (r.Q3 - r.Q1) / math.Abs(r.Value)
}
