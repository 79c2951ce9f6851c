package main

import (
	"os"
	"path/filepath"
	"testing"
)

// writeBench writes a `go test -bench` output file and returns its path.
func writeBench(t *testing.T, name, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestGateMetricMissingFromBaseline pins the bootstrap rule for a newly
// gated metric: a baseline artifact recorded before the metric existed
// reports and passes, and the next run, whose baseline carries it, gates.
func TestGateMetricMissingFromBaseline(t *testing.T) {
	old := writeBench(t, "old.txt",
		"BenchmarkKV/BFS-MQ/clients=8-2 3 70138606 ns/op 67200 ops/s 6609728 B/op 15227 allocs/op\n")
	cur := writeBench(t, "new.txt",
		"BenchmarkKV/BFS-MQ/clients=8-2 3 70138606 ns/op 5.665 allocs/simop 67200 ops/s 6609728 B/op 15227 allocs/op\n")
	if gate(old, cur, "BenchmarkKV", "allocs/simop", 2) {
		t.Error("a baseline without allocs/simop failed the gate; it must report only")
	}
	worse := writeBench(t, "worse.txt",
		"BenchmarkKV/BFS-MQ/clients=8-2 3 70138606 ns/op 5.900 allocs/simop 67200 ops/s 6609728 B/op 15227 allocs/op\n")
	if !gate(cur, worse, "BenchmarkKV", "allocs/simop", 2) {
		t.Error("allocs/simop 5.665 -> 5.900 (+4.1%) passed a 2% gate")
	}
	if gate(cur, cur, "BenchmarkKV", "allocs/simop", 2) {
		t.Error("an unchanged allocs/simop failed the gate")
	}
}
