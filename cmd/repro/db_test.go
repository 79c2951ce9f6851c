package main

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/benchdb"
)

func TestFlattenCells(t *testing.T) {
	rep := jsonReport{
		Experiments: []jsonExperiment{{
			Name:        "kv",
			WallSeconds: 1.5,
			Rows: []map[string]any{
				{"config": "BFS-DR", "clients": 4.0, "ops_per_s": 54000.0, "p99_ms": 2.0},
				{"config": "EXT4-DR", "clients": 4.0, "ops_per_s": 31200.0, "p99_ms": 0.9},
			},
		}, {
			Name: "crashmc",
			Rows: []map[string]any{
				{"config": "BFS-OD", "crash_at_us": 1200.0, "states_explored": 65.0, "capped": false},
			},
		}},
	}
	cells := flattenCells(rep)
	want := map[string]float64{
		"kv//wall_seconds":                                       1.5,
		"crashmc//wall_seconds":                                  0,
		"kv/clients=4,config=BFS-DR/ops_per_s":                   54000,
		"kv/clients=4,config=EXT4-DR/p99_ms":                     0.9,
		"crashmc/config=BFS-OD,crash_at_us=1200/states_explored": 65,
		"crashmc/config=BFS-OD,crash_at_us=1200/capped":          0,
	}
	for name, v := range want {
		got, ok := cells[name]
		if !ok {
			t.Errorf("missing cell %s (have %d cells)", name, len(cells))
			continue
		}
		if got != v {
			t.Errorf("%s = %v, want %v", name, got, v)
		}
	}
	// Key fields must not leak into metrics.
	for _, bad := range []string{
		"kv/clients=4,config=BFS-DR/clients",
		"kv/clients=4,config=BFS-DR/config",
	} {
		if _, ok := cells[bad]; ok {
			t.Errorf("key field recorded as a metric cell: %s", bad)
		}
	}
}

func TestRecordAndReadDB(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "run.json")
	if err := os.WriteFile(src, []byte(`{
		"scale": "quick", "parallel": true, "gomaxprocs": 8,
		"commit": "abc123", "wall_seconds": 2.5,
		"experiments": [{"name": "kv", "wall_seconds": 1,
			"rows": [{"config": "BFS-DR", "clients": 2, "ops_per_s": 49466.7}]}]
	}`), 0o644); err != nil {
		t.Fatal(err)
	}
	db := filepath.Join(dir, "bench.db")
	if err := cmdRecord([]string{"-db", db, src}); err != nil {
		t.Fatal(err)
	}
	if err := cmdRecord([]string{"-db", db, "-label", "second", src}); err != nil {
		t.Fatal(err)
	}
	runs, err := benchdb.Read(db)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 {
		t.Fatalf("got %d runs, want 2", len(runs))
	}
	if runs[0].Label != "run" || runs[1].Label != "second" {
		t.Errorf("labels = %q, %q", runs[0].Label, runs[1].Label)
	}
	if runs[0].Commit != "abc123" || runs[0].Scale != "quick" || runs[0].GoMaxProcs != 8 {
		t.Errorf("header not carried through: %+v", runs[0])
	}
	if v := runs[0].Cells["kv/clients=2,config=BFS-DR/ops_per_s"]; v != 49466.7 {
		t.Errorf("cell = %v", v)
	}
	// Missing database is an empty history, not an error.
	none, err := benchdb.Read(filepath.Join(dir, "nope.db"))
	if err != nil || none != nil {
		t.Errorf("missing db: runs=%v err=%v", none, err)
	}
}

func TestFlattenCellsKVCluster(t *testing.T) {
	rep := jsonReport{
		Experiments: []jsonExperiment{{
			Name: "kvcluster",
			Rows: []map[string]any{{
				"config": "BFS-DR", "mode": "sharded",
				"shards": 2.0, "offered_kops": 160.0,
				"goodput_per_s": 150900.0, "p99_ms": 1.95,
			}},
		}},
	}
	cells := flattenCells(rep)
	const key = "kvcluster/config=BFS-DR,mode=sharded,offered_kops=160,shards=2/goodput_per_s"
	if got := cells[key]; got != 150900 {
		t.Errorf("%s = %v, want 150900 (have %v)", key, got, cells)
	}
	// shards/offered_kops are identity, not metrics.
	for name := range cells {
		if name == "kvcluster/config=BFS-DR,mode=sharded,offered_kops=160,shards=2/shards" {
			t.Errorf("identity field recorded as metric: %s", name)
		}
	}
}

func TestNoiseBand(t *testing.T) {
	for _, tc := range []struct {
		vals []float64
		want string
	}{
		{nil, "-"},
		{[]float64{3}, "3/3/3"},
		{[]float64{4, 1, 3}, "1/3/4"},
		{[]float64{4, 1, 3, 2}, "1/2.5/4"},
	} {
		if got := noiseBand(tc.vals); got != tc.want {
			t.Errorf("noiseBand(%v) = %q, want %q", tc.vals, got, tc.want)
		}
	}
}
