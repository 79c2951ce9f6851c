package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/experiments"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/quick_all.* from this run")

// goldenFiles are the three views of one `repro -quick all` run: what it
// prints, the -json rows per experiment, and the bench.db cell names those
// rows flatten to.
var goldenFiles = struct{ text, rows, cells string }{
	"testdata/quick_all.txt", "testdata/quick_all.rows.json", "testdata/quick_all.cells.txt",
}

// quickAll runs every experiment at Quick scale through run(), the path the
// command line takes, and returns the three golden views.
func quickAll(t *testing.T) (text, rows, cells []byte) {
	t.Helper()
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "all.json")
	stdout, err := os.Create(filepath.Join(dir, "stdout.txt"))
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = stdout
	err = run(runOpts{quick: true, parallel: true, jsonPath: jsonPath}, []string{"all"})
	os.Stdout = saved
	stdout.Close()
	if err != nil {
		t.Fatal(err)
	}
	if text, err = os.ReadFile(stdout.Name()); err != nil {
		t.Fatal(err)
	}
	written, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	// The rows exactly as -json wrote them (RawMessage keeps the bytes, so an
	// integer that became a float or a bool that became a number shows up).
	var raw struct {
		Experiments []struct {
			Name string          `json:"name"`
			Rows json.RawMessage `json:"rows"`
		} `json:"experiments"`
	}
	if err := json.Unmarshal(written, &raw); err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	for _, e := range raw.Experiments {
		b.WriteString("# " + e.Name + "\n")
		if err := json.Indent(&b, e.Rows, "", "  "); err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		b.WriteString("\n")
	}
	rows = b.Bytes()
	// The cell names as `repro record` derives them from that file.
	var rep jsonReport
	if err := json.Unmarshal(written, &rep); err != nil {
		t.Fatal(err)
	}
	// A cell is one metric of one row: were two rows of a run to share an
	// identity, the later would silently overwrite the earlier in the map.
	flat := flattenCells(rep)
	axes := experiments.Axes()
	want := 0
	for _, e := range rep.Experiments {
		want++ // <name>//wall_seconds
		for _, row := range e.Rows {
			for f, v := range row {
				if _, isString := v.(string); !isString && !axes[f] {
					want++
				}
			}
		}
	}
	if len(flat) != want {
		t.Errorf("%d rows x metrics flattened to %d cells: two rows share an identity", want, len(flat))
	}
	var names []string
	for name := range flat {
		names = append(names, name)
	}
	sort.Strings(names)
	cells = []byte(strings.Join(names, "\n") + "\n")
	return text, rows, cells
}

// TestQuickAllGolden pins all 18 experiments at Quick scale: stdout byte
// for byte, every -json row, every bench.db cell name. The simulation is
// seeded, so a refactor of how experiments are declared, rendered or
// recorded leaves the three files alone; they are regenerated only by
// `go test ./cmd/repro -run TestQuickAllGolden -update`, when simulated
// behaviour or a table is meant to change.
func TestQuickAllGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all 18 experiments (~3 s); skipped in -short mode")
	}
	text, rows, cells := quickAll(t)
	got := map[string][]byte{
		goldenFiles.text: text, goldenFiles.rows: rows, goldenFiles.cells: cells,
	}
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		for path, b := range got {
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return
	}
	for path, b := range got {
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (record it with -update)", err)
		}
		if !bytes.Equal(b, want) {
			t.Errorf("%s differs from this run (first difference at %s)", path, firstDiff(want, b))
		}
	}
}

// firstDiff names the first line where two texts part.
func firstDiff(want, got []byte) string {
	w, g := strings.Split(string(want), "\n"), strings.Split(string(got), "\n")
	for i := 0; i < len(w) && i < len(g); i++ {
		if w[i] != g[i] {
			return "line " + strconv.Itoa(i+1) + ":\n  want: " + w[i] + "\n  got:  " + g[i]
		}
	}
	return "line " + strconv.Itoa(min(len(w), len(g))+1) + " (one file is longer)"
}
